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
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Concurrent registry of prediction models.
///
/// One `BTreeMap` behind one `RwLock`: deployments install a handful of
/// keys and `get` is a single read-lock per submit and per batch group,
/// so every guarded operation (`swap_if_current`, `demote_if_current`)
/// is linearized by the one write lock. A `BTreeMap` (not a hash map)
/// keeps [`ModelRegistry::keys`] sorted by `(config, feature tag)`
/// regardless of install order — hash-map iteration order is randomized
/// per process and must never reach service output.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<BTreeMap<ModelKey, Arc<ModelEntry>>>,
    /// Total installs (first install counts); `swap_count()` reports
    /// installs that *replaced* an existing entry.
    installs: AtomicU64,
    swaps: AtomicU64,
    demotions: AtomicU64,
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
        let version = self.next_version();
        let entry = Arc::new(ModelEntry {
            predictor,
            fallback,
            version,
            degraded: false,
        });
        let replaced = self.models.write().insert(key, entry).is_some();
        if replaced {
            // ordering: pure statistic; the write lock above is what
            // orders the install itself.
            self.swaps.fetch_add(1, Ordering::Relaxed);
        }
        // Untraced marker (trace 0): installs happen outside any request,
        // but a ModelSwap event in the exported window lets a trace
        // reader correlate latency shifts with a mid-run hot-swap.
        qpp_obs::recorder().record_mark(0, qpp_obs::Stage::ModelSwap, version);
        version
    }

    /// Mints the next monotonic entry version.
    fn next_version(&self) -> u64 {
        // ordering: fetch_add is atomic at any ordering, which is all
        // version uniqueness needs; monotonic publication of the entry
        // itself rides on the map lock.
        self.installs.fetch_add(1, Ordering::Relaxed) + 1
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
        // The guard and the insert happen under one write lock, which
        // is all the generation guard needs.
        let mut models = self.models.write();
        let found = models.get(&key).map(|e| e.version);
        if found != Some(expected) {
            return Err(SwapRace { expected, found });
        }
        let version = self.next_version();
        models.insert(
            key,
            Arc::new(ModelEntry {
                predictor,
                fallback,
                version,
                degraded: false,
            }),
        );
        drop(models);
        // ordering: pure statistic; the guarded swap was ordered by the
        // write lock above.
        self.swaps.fetch_add(1, Ordering::Relaxed);
        qpp_obs::recorder().record_mark(0, qpp_obs::Stage::ModelSwap, version);
        Ok(version)
    }

    /// Kill-switch: replaces the entry under `key` with a degraded copy
    /// that answers every request from the optimizer-cost fallback —
    /// but only if the current entry is still `expected`, so a rollback
    /// decided against one model can never demote a newer one that was
    /// installed while the decision was being made.
    pub fn demote_if_current(&self, key: ModelKey, expected: u64) -> Result<u64, SwapRace> {
        let mut models = self.models.write();
        let current = match models.get(&key) {
            Some(e) if e.version == expected && !e.degraded => Arc::clone(e),
            other => {
                return Err(SwapRace {
                    expected,
                    found: other.map(|e| e.version),
                })
            }
        };
        let version = self.next_version();
        models.insert(
            key,
            Arc::new(ModelEntry {
                predictor: current.predictor.clone(),
                fallback: current.fallback.clone(),
                version,
                degraded: true,
            }),
        );
        drop(models);
        // ordering: pure statistic; the guarded demotion was ordered by
        // the write lock above.
        self.demotions.fetch_add(1, Ordering::Relaxed);
        qpp_obs::recorder().record_mark(0, qpp_obs::Stage::KillSwitch, version);
        Ok(version)
    }

    /// Version of the currently installed entry for `key`, if any.
    pub fn current_version(&self, key: &ModelKey) -> Option<u64> {
        self.models.read().get(key).map(|e| e.version)
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
    // qpp-lint: hot-path
    pub fn get(&self, key: &ModelKey) -> Option<Arc<ModelEntry>> {
        self.models.read().get(key).cloned()
    }

    /// Installed keys, sorted by `(config, feature tag)`.
    pub fn keys(&self) -> Vec<ModelKey> {
        self.models.read().keys().cloned().collect()
    }

    /// Number of installs that replaced an existing model.
    pub fn swap_count(&self) -> u64 {
        // ordering: monitoring read; any recent value is acceptable.
        self.swaps.load(Ordering::Relaxed)
    }

    /// Total installs, including first-time installs.
    pub fn install_count(&self) -> u64 {
        // ordering: monitoring read; any recent value is acceptable.
        self.installs.load(Ordering::Relaxed)
    }

    /// Kill-switch demotions performed.
    pub fn demote_count(&self) -> u64 {
        // ordering: monitoring read; any recent value is acceptable.
        self.demotions.load(Ordering::Relaxed)
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
        assert_eq!(registry.install_count(), 2);
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
