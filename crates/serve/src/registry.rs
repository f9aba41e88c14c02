//! Model registry: versioned KCCA predictors keyed by system
//! configuration and feature kind, hot-swappable while the service runs.
//!
//! Swaps are atomic at the `Arc<ModelEntry>` level: a worker that
//! resolved an entry keeps predicting with a consistent
//! (predictor, fallback, version) triple even while a newer model is
//! being installed — readers never observe a torn model.

use parking_lot::RwLock;
use qpp_core::baselines::OptimizerCostModel;
use qpp_core::model_io;
use qpp_core::{FeatureKind, KccaPredictor, QppError, ResultExt};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Registry key: a system-configuration name plus the feature kind the
/// model was trained on ([`FeatureKind`] has no `Hash`, so it is folded
/// into a stable tag). Keys are totally ordered so registry listings
/// come out in a stable order regardless of install order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelKey {
    /// `SystemConfig::name` of the deployment the model targets.
    pub config: String,
    tag: &'static str,
}

fn kind_tag(kind: FeatureKind) -> &'static str {
    match kind {
        FeatureKind::QueryPlan => "query-plan",
        FeatureKind::SqlText => "sql-text",
    }
}

impl ModelKey {
    /// Builds a key from a configuration name and feature kind.
    pub fn new(config: impl Into<String>, kind: FeatureKind) -> Self {
        ModelKey {
            config: config.into(),
            tag: kind_tag(kind),
        }
    }
}

impl std::fmt::Display for ModelKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.config, self.tag)
    }
}

/// One installed model: the KCCA predictor, the cheap cost-model
/// fallback used when a request's deadline expires, and the registry
/// version that installed it.
#[derive(Debug)]
pub struct ModelEntry {
    /// The batched KCCA predictor.
    pub predictor: KccaPredictor,
    /// O(1) optimizer-cost fallback for deadline misses.
    pub fallback: OptimizerCostModel,
    /// Monotonically increasing install version (registry-wide). Every
    /// install, guarded swap, and demotion mints a fresh one, so a
    /// version uniquely identifies one entry for guarded operations.
    pub version: u64,
    /// True when the kill-switch demoted this entry: workers skip the
    /// KCCA predictor and answer every request from the optimizer-cost
    /// fallback until a healthy model is installed over it.
    pub degraded: bool,
}

/// A guarded registry operation lost its race: the entry it expected
/// to replace is no longer (or was never) the current one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwapRace {
    /// The version the caller believed was current.
    pub expected: u64,
    /// The version actually installed (`None`: key absent).
    pub found: Option<u64>,
}

impl std::fmt::Display for SwapRace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.found {
            Some(found) => write!(
                f,
                "guarded swap raced: expected version {}, found {found}",
                self.expected
            ),
            None => write!(
                f,
                "guarded swap raced: expected version {}, key not installed",
                self.expected
            ),
        }
    }
}

/// What the registry lock guards: the published entries and the
/// counters that describe how they got there.
#[derive(Debug, Default)]
struct Published {
    models: BTreeMap<ModelKey, Arc<ModelEntry>>,
    /// Entries ever published — the last version minted.
    installs: u64,
    /// Healthy entries published over an existing one.
    swaps: u64,
    demotions: u64,
}

impl Published {
    /// Mints the next version and publishes an entry carrying it. Runs
    /// under the write lock, so versions reach the map in the order
    /// they were minted: a reader can never see `current_version` go
    /// backwards, and the swap / kill-switch marks enter the trace in
    /// version order.
    fn publish(
        &mut self,
        key: ModelKey,
        predictor: KccaPredictor,
        fallback: OptimizerCostModel,
        degraded: bool,
    ) -> u64 {
        self.installs += 1;
        let version = self.installs;
        let entry = Arc::new(ModelEntry {
            predictor,
            fallback,
            version,
            degraded,
        });
        let replaced = self.models.insert(key, entry).is_some();
        // Untraced marks (trace 0): publications happen outside any
        // request, but the event in the exported window lets a trace
        // reader correlate latency shifts with a mid-run hot-swap.
        let stage = if degraded {
            self.demotions += 1;
            qpp_obs::Stage::KillSwitch
        } else {
            self.swaps += u64::from(replaced);
            qpp_obs::Stage::ModelSwap
        };
        qpp_obs::recorder().record_mark(0, stage, version);
        version
    }
}

/// Concurrent registry of prediction models.
///
/// One `BTreeMap` and its counters behind one `RwLock`: deployments
/// install a handful of keys and `get` is a single read-lock per submit
/// and per answered request, so every publication (`install`,
/// `swap_if_current`, `demote_if_current`) is linearized by the one
/// write lock, which is also where its version is minted. A `BTreeMap`
/// (not a hash map) keeps [`ModelRegistry::keys`] sorted by `(config,
/// feature tag)` regardless of install order — hash-map iteration order
/// is randomized per process and must never reach service output.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    state: RwLock<Published>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or hot-swaps) a model under `key`, returning the new
    /// entry's version. In-flight batches keep the entry they already
    /// resolved; subsequent lookups see the new model.
    pub fn install(
        &self,
        key: ModelKey,
        predictor: KccaPredictor,
        fallback: OptimizerCostModel,
    ) -> u64 {
        self.state.write().publish(key, predictor, fallback, false)
    }

    /// Installs `predictor` under `key` **only if** the currently
    /// installed entry is still `expected` — the generation token the
    /// caller resolved when it started validating its candidate.
    ///
    /// This is the canary's compare-and-swap: between shadow-scoring a
    /// candidate against version `expected` and deciding to promote it,
    /// an operator (or another canary) may have installed a newer
    /// model. An unconditional `install` would clobber that newer
    /// model with a candidate that was never compared against it;
    /// `swap_if_current` refuses instead and reports what it found.
    pub fn swap_if_current(
        &self,
        key: ModelKey,
        expected: u64,
        predictor: KccaPredictor,
        fallback: OptimizerCostModel,
    ) -> Result<u64, SwapRace> {
        // The guard and the publication happen under one write lock,
        // which is all the generation guard needs.
        let mut state = self.state.write();
        let found = state.models.get(&key).map(|e| e.version);
        if found != Some(expected) {
            return Err(SwapRace { expected, found });
        }
        Ok(state.publish(key, predictor, fallback, false))
    }

    /// Kill-switch: replaces the entry under `key` with a degraded copy
    /// that answers every request from the optimizer-cost fallback —
    /// but only if the current entry is still `expected`, so a rollback
    /// decided against one model can never demote a newer one that was
    /// installed while the decision was being made.
    ///
    /// The degraded copy is deep-cloned outside the lock, so `get` never
    /// waits on the clone; the write lock only re-checks that the entry
    /// is still `expected` and publishes.
    pub fn demote_if_current(&self, key: ModelKey, expected: u64) -> Result<u64, SwapRace> {
        let demotable = |entry: Option<&Arc<ModelEntry>>| match entry {
            Some(e) if e.version == expected && !e.degraded => Ok(Arc::clone(e)),
            other => Err(SwapRace {
                expected,
                found: other.map(|e| e.version),
            }),
        };
        let current = demotable(self.get(&key).as_ref())?;
        let (predictor, fallback) = (current.predictor.clone(), current.fallback.clone());
        let mut state = self.state.write();
        demotable(state.models.get(&key))?;
        Ok(state.publish(key, predictor, fallback, true))
    }

    /// Version of the currently installed entry for `key`, if any.
    pub fn current_version(&self, key: &ModelKey) -> Option<u64> {
        self.state.read().models.get(key).map(|e| e.version)
    }

    /// Installs a model from its serialized JSON envelope (see
    /// `qpp_core::model_io`), verifying format version and checksum.
    pub fn install_from_json(
        &self,
        key: ModelKey,
        json: &str,
        fallback: OptimizerCostModel,
    ) -> Result<u64, QppError> {
        let predictor = model_io::from_json(json).ctx("installing model from json")?;
        Ok(self.install(key, predictor, fallback))
    }

    /// Resolves the current entry for `key`. The returned `Arc` stays
    /// valid (and internally consistent) across concurrent swaps.
    pub fn get(&self, key: &ModelKey) -> Option<Arc<ModelEntry>> {
        self.state.read().models.get(key).cloned()
    }

    /// Installed keys, sorted by `(config, feature tag)`.
    pub fn keys(&self) -> Vec<ModelKey> {
        self.state.read().models.keys().cloned().collect()
    }

    /// Number of installs that replaced an existing model.
    pub fn swap_count(&self) -> u64 {
        self.state.read().swaps
    }

    /// Kill-switch demotions performed.
    pub fn demote_count(&self) -> u64 {
        self.state.read().demotions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_core::predictor::PredictorOptions;
    use qpp_core::Dataset;
    use qpp_engine::SystemConfig;
    use qpp_workload::{Schema, WorkloadGenerator};

    fn trained(seed: u64) -> (KccaPredictor, OptimizerCostModel) {
        let schema = Schema::tpcds(1.0);
        let mut g = WorkloadGenerator::tpcds(1.0, seed);
        let d = Dataset::collect(&schema, g.generate(50), &SystemConfig::neoview_4(), 2);
        (
            KccaPredictor::train(&d, PredictorOptions::default()).unwrap(),
            OptimizerCostModel::train(&d).unwrap(),
        )
    }

    #[test]
    fn install_get_and_swap_counting() {
        let registry = ModelRegistry::new();
        let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
        assert!(registry.get(&key).is_none());

        let (m1, f1) = trained(11);
        let v1 = registry.install(key.clone(), m1, f1);
        assert_eq!(v1, 1);
        assert_eq!(registry.swap_count(), 0);
        assert_eq!(registry.get(&key).unwrap().version, v1);

        let (m2, f2) = trained(12);
        let v2 = registry.install(key.clone(), m2, f2);
        assert!(v2 > v1);
        assert_eq!(registry.swap_count(), 1);
        assert_eq!(registry.get(&key).unwrap().version, v2);
        assert_eq!(registry.current_version(&key), Some(2));
    }

    /// Regression: a canary rollout that resolved generation G, then
    /// decided to promote its candidate, used to call unconditional
    /// `install` — clobbering any newer model installed while the
    /// candidate was being shadow-scored. `swap_if_current` must lose
    /// that race instead of winning it.
    #[test]
    fn swap_if_current_refuses_to_clobber_a_newer_install() {
        let registry = ModelRegistry::new();
        let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
        let (m1, f1) = trained(21);
        let v1 = registry.install(key.clone(), m1, f1);

        // Canary resolves v1, starts validating a candidate …
        let canary_base = registry.current_version(&key).unwrap();
        assert_eq!(canary_base, v1);

        // … meanwhile a concurrent install lands a newer model.
        let (m2, f2) = trained(22);
        let v2 = registry.install(key.clone(), m2, f2);
        assert!(v2 > v1);

        // The canary's guarded swap must now fail and leave v2 alone.
        let (cand, cand_f) = trained(23);
        let err = registry
            .swap_if_current(key.clone(), canary_base, cand.clone(), cand_f.clone())
            .unwrap_err();
        assert_eq!(
            err,
            SwapRace {
                expected: v1,
                found: Some(v2)
            }
        );
        assert_eq!(registry.current_version(&key), Some(v2));

        // Guarded against the *actual* current version, it succeeds.
        let v3 = registry
            .swap_if_current(key.clone(), v2, cand, cand_f)
            .unwrap();
        assert!(v3 > v2);
        assert_eq!(registry.current_version(&key), Some(v3));
        assert!(!registry.get(&key).unwrap().degraded);
    }

    /// Versions are minted under the lock that publishes them, so no
    /// install can land an older version over a newer one: every
    /// thread sees `current_version` only ever rise, and the entry left
    /// standing carries the highest version any install returned.
    #[test]
    fn racing_installs_never_publish_an_older_version() {
        const THREADS: usize = 8;
        const INSTALLS: usize = 1_500;
        let registry = ModelRegistry::new();
        let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
        let (model, fallback) = trained(27);
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    barrier.wait();
                    let mut seen = 0;
                    for _ in 0..INSTALLS {
                        let minted = registry.install(key.clone(), model.clone(), fallback.clone());
                        let current = registry.current_version(&key).unwrap();
                        assert!(
                            current >= minted.max(seen),
                            "current_version read {current} after {seen} and after minting {minted}"
                        );
                        seen = current;
                    }
                });
            }
        });
        let highest = (THREADS * INSTALLS) as u64;
        assert_eq!(registry.current_version(&key), Some(highest));
        assert_eq!(registry.swap_count(), highest - 1);
    }

    #[test]
    fn demote_if_current_is_generation_guarded() {
        let registry = ModelRegistry::new();
        let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
        let (m1, f1) = trained(24);
        let v1 = registry.install(key.clone(), m1, f1);

        // A rollback decided against v1 after v2 landed must not fire.
        let (m2, f2) = trained(25);
        let v2 = registry.install(key.clone(), m2, f2);
        let err = registry.demote_if_current(key.clone(), v1).unwrap_err();
        assert_eq!(err.found, Some(v2));
        assert!(!registry.get(&key).unwrap().degraded);
        assert_eq!(registry.demote_count(), 0);

        // Demoting the actual current version degrades the entry.
        let v3 = registry.demote_if_current(key.clone(), v2).unwrap();
        assert!(v3 > v2);
        let entry = registry.get(&key).unwrap();
        assert!(entry.degraded);
        assert_eq!(entry.version, v3);
        assert_eq!(registry.demote_count(), 1);

        // Demoting an already-degraded entry is refused (idempotence
        // guard: one regression, one demotion).
        assert!(registry.demote_if_current(key.clone(), v3).is_err());
        assert_eq!(registry.demote_count(), 1);

        // A fresh install over the degraded entry restores service.
        let (m3, f3) = trained(26);
        let v4 = registry.install(key.clone(), m3, f3);
        assert!(v4 > v3);
        assert!(!registry.get(&key).unwrap().degraded);
    }

    #[test]
    fn keys_distinguish_feature_kinds() {
        let plan = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
        let text = ModelKey::new("neoview-4", FeatureKind::SqlText);
        assert_ne!(plan, text);
        let registry = ModelRegistry::new();
        let (m, f) = trained(13);
        registry.install(plan.clone(), m, f);
        assert!(registry.get(&plan).is_some());
        assert!(registry.get(&text).is_none());
    }

    #[test]
    fn keys_listing_is_sorted_regardless_of_install_order() {
        let registry = ModelRegistry::new();
        let (m, f) = trained(15);
        // Install in an order that differs from the sorted order.
        for config in ["zeta-9", "alpha-1", "neoview-4"] {
            registry.install(
                ModelKey::new(config, FeatureKind::SqlText),
                m.clone(),
                f.clone(),
            );
            registry.install(
                ModelKey::new(config, FeatureKind::QueryPlan),
                m.clone(),
                f.clone(),
            );
        }
        let listed: Vec<String> = registry.keys().iter().map(|k| k.to_string()).collect();
        let mut sorted = listed.clone();
        sorted.sort();
        assert_eq!(listed, sorted, "registry listing must be sorted");
        assert_eq!(listed[0], "alpha-1/query-plan");
        assert_eq!(listed[5], "zeta-9/sql-text");
    }

    #[test]
    fn install_from_json_verifies_envelope() {
        let registry = ModelRegistry::new();
        let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
        let (m, f) = trained(14);
        let json = model_io::to_json(&m).unwrap();
        let v = registry
            .install_from_json(key.clone(), &json, f.clone())
            .unwrap();
        assert_eq!(registry.get(&key).unwrap().version, v);

        let bad = json.replace(
            &format!("\"format_version\":{}", model_io::FORMAT_VERSION),
            "\"format_version\":9999",
        );
        let err = registry.install_from_json(key, &bad, f).unwrap_err();
        match err {
            QppError::ModelIo { context, source } => {
                assert_eq!(context, "installing model from json");
                assert!(matches!(
                    source,
                    qpp_core::model_io::ModelIoError::UnsupportedVersion { .. }
                ));
            }
            other => panic!("expected ModelIo error, got {other:?}"),
        }
    }
}
