//! Closed-loop *adaptive* serving demo: the workload drifts under a
//! live service, and the continuous-learning control plane notices,
//! retrains, shadow-scores the candidate, and hot-swaps it — without a
//! human or a restart.
//!
//! Three traffic phases run through a real `qpp-serve` worker pool:
//!
//! 1. **Stable**: traffic matches the training distribution; the drift
//!    detector calibrates quietly.
//! 2. **Drifted**: the simulated system slows down (`QPP_ADAPT_DRIFT`×
//!    on elapsed time — stale statistics, a hardware downgrade, a noisy
//!    neighbor). Elapsed-time error rises, drift is declared (the run
//!    prints the stream that fired and why). After each round of
//!    traffic the main thread drains the released retrain task, which
//!    retrains + canaries a candidate on the sliding window. Every run therefore retrains at the same point in the
//!    traffic and prints the same episode.
//! 3. **Recovery**: post-swap traffic shows the error back near the
//!    calibration floor; the post-swap watch passes without demotion.
//!
//! Environment knobs (all optional, used by `ci.sh`'s adapt gate):
//! - `QPP_ADAPT_TRAIN`: training-set / sliding-window size (120)
//! - `QPP_ADAPT_LIVE`: drifted-phase traffic size (280)
//! - `QPP_ADAPT_DRIFT`: elapsed-time drift multiplier (3.0)
//! - `QPP_TRACE_OUT`: path for the JSONL event + counter dump
//!
//! ```text
//! cargo run --release --example adaptive_serving
//! QPP_TRACE_OUT=adapt.jsonl cargo run --release --example adaptive_serving
//! ```

use qpp::adapt::{
    stream_name, AdaptEvent, AdaptOptions, AdaptiveController, DriftConfig, DriftSignal,
};
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

/// The controller as the service's completion hook, keeping the first
/// drift signal it declares so the run can say why it adapted.
struct Observer {
    controller: Arc<AdaptiveController>,
    first_drift: Mutex<Option<DriftSignal>>,
}

impl CompletionObserver for Observer {
    fn on_completion(&self, record: &QueryRecord, response: &ServeResponse) {
        if let Some(AdaptEvent::DriftDetected(signal)) = self.controller.observe(record, response) {
            self.first_drift
                .lock()
                .expect("drift slot")
                .get_or_insert(signal);
        }
    }
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Replays a dataset's records as live traffic: submit, then report
/// the "executed" outcome back through the completion hook. Returns
/// the mean absolute log-ratio error on elapsed time.
fn replay(
    service: &PredictionService,
    key: &ModelKey,
    traffic: &Dataset,
    deadline: Duration,
) -> f64 {
    let mut err_sum = 0.0;
    let mut n = 0usize;
    for record in &traffic.records {
        let response = service
            .submit(PredictRequest {
                key: key.clone(),
                tenant: qpp::serve::DEFAULT_TENANT,
                spec: record.spec.clone(),
                plan: record.optimized.plan.clone(),
                deadline,
            })
            .expect("request answered");
        service.observe_completion(record, &response);
        let errors = qpp::adapt::log_ratio_errors(&response.prediction.metrics, &record.metrics);
        err_sum += errors[0];
        n += 1;
    }
    err_sum / n.max(1) as f64
}

fn main() {
    let train_n = env_usize("QPP_ADAPT_TRAIN", 120).max(50);
    let live_n = env_usize("QPP_ADAPT_LIVE", 280).max(120);
    let drift = env_f64("QPP_ADAPT_DRIFT", 3.0);
    let trace_out = std::env::var("QPP_TRACE_OUT").ok();
    let deadline = Duration::from_secs(5);

    let stable_cfg = SystemConfig::neoview_4();
    let drifted_cfg = stable_cfg.clone().with_drift(drift);

    println!("training the incumbent on {train_n} stable queries …");
    let train = collect_tpcds(train_n, 41, &stable_cfg, 4);
    let options = PredictorOptions::default();
    let incumbent = KccaPredictor::train(&train, options).expect("train incumbent");
    let fallback = OptimizerCostModel::train(&train).expect("train fallback");

    let key = ModelKey::new(stable_cfg.name.clone(), FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    let v1 = registry.install(key.clone(), incumbent, fallback);
    println!("installed {key} v{v1}");

    let service = PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 2,
            queue_capacity: 256,
            max_batch: 8,
            ..ServeOptions::default()
        },
    );

    // Wire the control plane: window seeded with the training set,
    // retrain released once the window has turned over to the drifted
    // regime.
    let window = SlidingWindowPredictor::new(train.clone(), train_n, usize::MAX, options);
    let controller = Arc::new(AdaptiveController::new(
        Arc::clone(&registry),
        key.clone(),
        window,
        AdaptOptions {
            drift: DriftConfig {
                warmup: 40,
                ..DriftConfig::default()
            },
            retrain_delay: train_n,
        },
    ));
    let observer = Arc::new(Observer {
        controller: Arc::clone(&controller),
        first_drift: Mutex::new(None),
    });
    service.set_completion_observer(Arc::clone(&observer) as Arc<dyn CompletionObserver>);

    // Phase 1: stable traffic calibrates the detector.
    println!("\nphase 1: stable traffic …");
    let stable_err = replay(
        &service,
        &key,
        &collect_tpcds(60, 42, &stable_cfg, 4),
        deadline,
    );
    println!("  mean elapsed-time error {stable_err:.3}");

    // Phase 2: the system drifts. Keep serving until the control plane
    // has swapped a retrained candidate in (bounded number of rounds).
    println!("phase 2: workload drifts (elapsed ×{drift}) …");
    let mut drifted_err = 0.0;
    let mut rounds = 0usize;
    for seed in [43u64, 44, 45, 46, 47, 48] {
        let traffic = collect_tpcds(live_n, seed, &drifted_cfg, 4);
        let err = replay(&service, &key, &traffic, deadline);
        if rounds == 0 {
            drifted_err = err;
        }
        rounds += 1;
        // A retrain released during the round runs here, between
        // rounds, on the window as the round left it.
        controller.drain_pending();
        if controller.stats().canary_swaps.get() >= 1 {
            break;
        }
    }
    println!(
        "  mean elapsed-time error {drifted_err:.3} (first drifted round, {rounds} rounds served)"
    );

    let stats = controller.stats();
    println!(
        "  drift signals {} | retrains {} | shadow evals {} | swaps {} | rejections {}",
        stats.drift_signals.get(),
        stats.retrains.get(),
        stats.shadow_evaluations.get(),
        stats.canary_swaps.get(),
        stats.canary_rejections.get(),
    );
    assert!(stats.drift_signals.get() >= 1, "drift must be declared");
    assert!(stats.retrains.get() >= 1, "a retrain must have run");
    assert!(
        stats.canary_swaps.get() >= 1,
        "a candidate must have been swapped in"
    );
    let v2 = registry.current_version(&key).expect("model installed");
    assert!(v2 > v1, "the registry must hold the canary's generation");
    println!("  canary swapped in as v{v2}");

    // Phase 3: recovery — the swapped-in model serves drifted traffic
    // accurately and the post-swap watch finds no regression.
    println!("phase 3: recovery traffic …");
    let recovery_err = replay(
        &service,
        &key,
        &collect_tpcds(60, 49, &drifted_cfg, 4),
        deadline,
    );
    println!("  mean elapsed-time error {recovery_err:.3}");
    assert!(
        recovery_err < drifted_err,
        "post-swap error {recovery_err:.3} must be below the drifted error {drifted_err:.3}"
    );
    assert_eq!(registry.demote_count(), 0, "no kill-switch demotion");

    // Why the detector fired: the first drift signal of the episode.
    let signal = observer
        .first_drift
        .lock()
        .expect("drift slot")
        .expect("a drift signal was declared");
    println!(
        "\ndrift fired on stream {} at epoch {}: score {:.2}, recent mean error {:.3} \
         vs calibration {:.3}",
        stream_name(signal.metric),
        signal.epoch,
        signal.score,
        signal.recent_mean,
        signal.calibration_mean,
    );

    let snapshot = service.stats();
    println!("\nservice stats:\n{snapshot}");
    assert!(snapshot.observed_completions > 0);

    service.shutdown();

    // The whole adaptation episode must be reconstructible from the
    // trace ring: drift mark → retrain span → shadow-score span →
    // canary-swap mark.
    let recorder = qpp::obs::recorder();
    let events = recorder.export();
    let saw =
        |stage: Stage, kind: EventKind| events.iter().any(|e| e.stage == stage && e.kind == kind);
    assert!(saw(Stage::Drift, EventKind::Mark), "drift mark in ring");
    assert!(saw(Stage::Retrain, EventKind::Span), "retrain span in ring");
    assert!(
        saw(Stage::ShadowScore, EventKind::Span),
        "shadow-score span in ring"
    );
    assert!(
        saw(Stage::CanarySwap, EventKind::Mark),
        "canary-swap mark in ring"
    );
    println!(
        "trace ring holds {} events including the full drift → retrain → \
         shadow_score → canary_swap chain",
        events.len()
    );

    if let Some(path) = trace_out {
        let mut out = qpp::obs::to_jsonl(&events);
        out.push_str(&snapshot.counters_jsonl());
        out.push_str(&controller.counters_jsonl());
        std::fs::write(&path, out).expect("write trace");
        println!("wrote {} trace events to {path}", events.len());
    }
}
