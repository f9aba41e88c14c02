//! End-to-end continuous learning through the *real* serving stack:
//! live traffic goes through `PredictionService::submit`, completions
//! feed the adaptive controller via the service's completion hook, and
//! the retrain step runs synchronously (`drain_pending`) so every
//! transition happens at a deterministic moment.
//!
//! Asserts the full loop the paper's serving story implies: per-template
//! error rises under drift → drift is declared → a candidate is
//! retrained on the sliding window → shadow-scored against the
//! incumbent → canary-swapped behind the registry generation guard →
//! the post-swap watch passes — and the whole episode is
//! reconstructible from the qpp-obs event ring.

use qpp::adapt::{AdaptEvent, AdaptOptions, AdaptOutcome, AdaptiveController, DriftConfig, Phase};
use qpp::core::baselines::OptimizerCostModel;
use qpp::core::pipeline::collect_tpcds;
use qpp::core::retrain::SlidingWindowPredictor;
use qpp::core::{Dataset, FeatureKind, KccaPredictor, PredictorOptions, QueryRecord};
use qpp::engine::SystemConfig;
use qpp::obs::{EventKind, Stage};
use qpp::serve::{
    CompletionObserver, ModelKey, ModelRegistry, PredictRequest, PredictionService, ServeOptions,
    ServeResponse,
};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Completion observer that drives the adaptive controller through the
/// service's real hook path while keeping the emitted events for
/// assertions.
struct Recording {
    controller: Arc<AdaptiveController>,
    events: Mutex<Vec<AdaptEvent>>,
}

impl CompletionObserver for Recording {
    fn on_completion(&self, record: &QueryRecord, response: &ServeResponse) {
        if let Some(event) = self.controller.observe(record, response) {
            self.events.lock().expect("events lock").push(event);
        }
    }
}

impl Recording {
    fn drain(&self) -> Vec<AdaptEvent> {
        std::mem::take(&mut *self.events.lock().expect("events lock"))
    }
}

/// Replays a dataset as live traffic through the service, reporting
/// each completion back through the observer hook. Returns the mean
/// absolute log-ratio error on elapsed time and the adaptation events
/// the completions produced.
fn replay(
    service: &PredictionService,
    key: &ModelKey,
    recording: &Recording,
    traffic: &Dataset,
) -> (f64, Vec<AdaptEvent>) {
    let mut err_sum = 0.0;
    for record in &traffic.records {
        let response = service
            .submit(PredictRequest {
                key: key.clone(),
                tenant: qpp::serve::DEFAULT_TENANT,
                spec: record.spec.clone(),
                plan: record.optimized.plan.clone(),
                deadline: Duration::from_secs(5),
            })
            .expect("request answered");
        service.observe_completion(record, &response);
        let errors = qpp::adapt::log_ratio_errors(&response.prediction.metrics, &record.metrics);
        err_sum += errors[0];
    }
    (
        err_sum / traffic.records.len().max(1) as f64,
        recording.drain(),
    )
}

#[test]
fn adaptive_loop_recovers_from_drift_through_the_real_service() {
    let stable_cfg = SystemConfig::neoview_4();
    let drifted_cfg = stable_cfg.clone().with_drift(3.0);
    let train_n = 96;

    let train = collect_tpcds(train_n, 401, &stable_cfg, 2);
    let options = PredictorOptions::default();
    let incumbent = KccaPredictor::train(&train, options).expect("train incumbent");
    let fallback = OptimizerCostModel::train(&train).expect("train fallback");

    let key = ModelKey::new("neoview_4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    let v1 = registry.install(key.clone(), incumbent, fallback);

    let service = PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 2,
            queue_capacity: 128,
            max_batch: 8,
            ..ServeOptions::default()
        },
    );
    let window = SlidingWindowPredictor::new(train.clone(), train_n, usize::MAX, options);
    let controller = Arc::new(AdaptiveController::new(
        Arc::clone(&registry),
        key.clone(),
        window,
        AdaptOptions {
            drift: DriftConfig {
                warmup: 24,
                window: 8,
            },
            ..AdaptOptions::default()
        },
    ));
    let recording = Arc::new(Recording {
        controller: Arc::clone(&controller),
        events: Mutex::new(Vec::new()),
    });
    service.set_completion_observer(Arc::clone(&recording) as Arc<dyn CompletionObserver>);

    // Phase 1: stable traffic calibrates the detector quietly.
    let stable = collect_tpcds(30, 402, &stable_cfg, 2);
    let (stable_err, events) = replay(&service, &key, &recording, &stable);
    assert!(events.is_empty(), "stable traffic fired {events:?}");
    assert_eq!(controller.phase(), Phase::Stable);

    // Phase 2: the simulated system slows down 3x on elapsed time.
    // Live error rises, drift is declared, and a retrain task
    // is queued once enough drifted evidence has accumulated.
    let drifted = collect_tpcds(160, 403, &drifted_cfg, 2);
    let (drifted_err, events) = replay(&service, &key, &recording, &drifted);
    assert!(
        drifted_err > stable_err,
        "drift must raise the live error ({drifted_err:.3} vs {stable_err:.3})"
    );
    let signal = events
        .iter()
        .find_map(|e| match e {
            AdaptEvent::DriftDetected(sig) => Some(*sig),
            _ => None,
        })
        .expect("drift must be declared under 3x elapsed drift");
    assert!(signal.recent_mean > signal.calibration_mean);
    assert_eq!(controller.phase(), Phase::RetrainQueued);

    // The released task runs here, on this thread: retrain on the (now
    // drifted) sliding window, shadow-score, swap behind the generation
    // guard.
    let generation = match controller.drain_pending() {
        Some(AdaptOutcome::Swapped { generation, .. }) => generation,
        other => panic!("expected a canary swap, got {other:?}"),
    };
    assert!(generation > v1);
    assert_eq!(registry.current_version(&key), Some(generation));
    assert_eq!(controller.stats().canary_swaps.get(), 1);

    // Phase 3: recovery. The swapped-in model serves drifted traffic
    // accurately; the post-swap watch completes without a demotion.
    let recovery = collect_tpcds(40, 404, &drifted_cfg, 2);
    let (recovery_err, events) = replay(&service, &key, &recording, &recovery);
    assert!(
        recovery_err < drifted_err,
        "post-swap error {recovery_err:.3} must be below the drifted error {drifted_err:.3}"
    );
    let post_err = events
        .iter()
        .find_map(|e| match e {
            AdaptEvent::CanaryPassed { post_err, .. } => Some(*post_err),
            _ => None,
        })
        .expect("post-swap watch must complete");
    assert!(post_err < signal.recent_mean);
    // The loop stays armed after the watch: it may already be chasing a
    // fresh signal on the new baseline, but it must not have demoted.
    let phase = controller.phase();
    assert!(
        !matches!(phase, Phase::Demoted),
        "canary must not be demoted, got {phase:?}"
    );
    assert_eq!(registry.demote_count(), 0);

    // The service-side bookkeeping counted every completion it relayed,
    // and the controller saw exactly the same stream.
    let snapshot = service.stats();
    assert_eq!(snapshot.observed_completions, 230);
    assert_eq!(controller.stats().observations.get(), 230);
    service.shutdown();

    // The episode is reconstructible from the trace ring, in causal
    // order: drift mark → retrain span → shadow-score span → swap mark.
    let events = qpp::obs::recorder().export();
    let first = |stage: Stage, kind: EventKind| {
        events
            .iter()
            .position(|e| e.stage == stage && e.kind == kind)
            .unwrap_or_else(|| panic!("{stage:?} {kind:?} missing from event ring"))
    };
    let drift_at = first(Stage::Drift, EventKind::Mark);
    let retrain_at = first(Stage::Retrain, EventKind::Span);
    let shadow_at = first(Stage::ShadowScore, EventKind::Span);
    let swap_at = first(Stage::CanarySwap, EventKind::Mark);
    assert!(
        drift_at < retrain_at && retrain_at < shadow_at && shadow_at < swap_at,
        "adaptation events out of causal order"
    );
}
