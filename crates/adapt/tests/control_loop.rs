//! Deterministic single-threaded walks through the whole adaptation
//! loop: drift → retrain → shadow-score → canary swap → post-swap
//! watch, plus the kill-switch path when the canary regresses.
//!
//! Predictions flow from the *real* registry entry and candidates are
//! *really* trained/swapped; only the serving transport (queue, worker
//! pool) is bypassed so every step happens at a chosen moment.

use qpp_adapt::{
    stream_name, AdaptEvent, AdaptOptions, AdaptOutcome, AdaptiveController, DriftConfig,
    DriftDetector, DriftSignal, Phase, RetrainTask, KILL_WINDOW, OVERALL,
};
use qpp_core::baselines::OptimizerCostModel;
use qpp_core::predictor::PredictorOptions;
use qpp_core::retrain::SlidingWindowPredictor;
use qpp_core::workload_mgmt::AdmissionDecision;
use qpp_core::{Dataset, FeatureKind, KccaPredictor, Prediction, QueryRecord};
use qpp_engine::{PerfMetrics, SystemConfig};
use qpp_serve::{AnswerSource, ModelKey, ModelRegistry, ServeResponse};
use qpp_workload::{Schema, WorkloadGenerator};
use std::sync::Arc;
use std::time::Duration;

fn collect(n: usize, seed: u64, config: &SystemConfig) -> Dataset {
    let schema = Schema::tpcds(1.0);
    let mut generator = WorkloadGenerator::tpcds(1.0, seed);
    Dataset::collect(&schema, generator.generate(n), config, 2)
}

fn response(prediction: Prediction, version: u64) -> ServeResponse {
    ServeResponse {
        prediction,
        decision: AdmissionDecision::Admit {
            kill_timeout_seconds: 60.0,
        },
        source: AnswerSource::Kcca,
        model_version: version,
        latency: Duration::ZERO,
        trace_id: 0,
    }
}

/// Predicts `record` with the current registry entry and feeds the
/// completed pair to the controller. Returns the event, if any.
fn serve_and_observe(
    registry: &ModelRegistry,
    key: &ModelKey,
    controller: &AdaptiveController,
    record: &QueryRecord,
) -> Option<AdaptEvent> {
    let entry = registry.get(key).expect("model installed");
    let prediction = entry
        .predictor
        .predict(&record.spec, &record.optimized.plan)
        .expect("predict");
    controller.observe(record, &response(prediction, entry.version))
}

/// One drift reading, by name, from the controller's JSONL export.
fn reading(controller: &AdaptiveController, name: &str) -> f64 {
    let prefix = format!("{{\"gauge\":\"{name}\",\"value\":");
    controller
        .counters_jsonl()
        .lines()
        .find_map(|line| line.strip_prefix(&prefix)?.strip_suffix('}')?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} line in the export"))
}

struct Loop {
    registry: Arc<ModelRegistry>,
    key: ModelKey,
    controller: AdaptiveController,
}

/// Test-sized drift config: short warmup, small recent window.
fn test_options() -> AdaptOptions {
    AdaptOptions {
        drift: DriftConfig {
            warmup: 24,
            window: 8,
        },
        ..AdaptOptions::default()
    }
}

/// Trains an incumbent on stable traffic, installs it, and wires a
/// controller with the test options.
fn start_loop(train_n: usize, seed: u64) -> (Loop, Dataset) {
    let stable = SystemConfig::neoview_4();
    let train = collect(train_n, seed, &stable);
    let options = PredictorOptions::default();
    let predictor = KccaPredictor::train(&train, options).expect("train incumbent");
    let fallback = OptimizerCostModel::train(&train).expect("train fallback");
    let registry = Arc::new(ModelRegistry::new());
    let key = ModelKey::new("neoview_4", FeatureKind::QueryPlan);
    registry.install(key.clone(), predictor, fallback);
    let window = SlidingWindowPredictor::new(train.clone(), train_n, usize::MAX, options);
    let controller =
        AdaptiveController::new(Arc::clone(&registry), key.clone(), window, test_options());
    (
        Loop {
            registry,
            key,
            controller,
        },
        train,
    )
}

/// Reaches `PostSwap` exactly as production would — calibrate, drift,
/// retrain, swap. Returns the loop, the replaced incumbent's version
/// and the canary's.
fn swap_in_canary() -> (Loop, u64, u64) {
    let (lp, _train) = start_loop(96, 311);
    let stable = SystemConfig::neoview_4();
    for record in &collect(30, 312, &stable).records {
        serve_and_observe(&lp.registry, &lp.key, &lp.controller, record);
    }
    for record in &collect(160, 313, &stable.clone().with_drift(3.0)).records {
        serve_and_observe(&lp.registry, &lp.key, &lp.controller, record);
    }
    let incumbent = lp.registry.current_version(&lp.key).expect("installed");
    let generation = match lp.controller.drain_pending() {
        Some(AdaptOutcome::Swapped { generation, .. }) => generation,
        other => panic!("expected a swap, got {other:?}"),
    };
    (lp, incumbent, generation)
}

/// Trains a model on `data` and installs it over whatever serves, as an
/// operator would. Returns the version minted.
fn install_trained_on(lp: &Loop, data: &Dataset) -> u64 {
    let predictor = KccaPredictor::train(data, PredictorOptions::default()).expect("train");
    let fallback = OptimizerCostModel::train(data).expect("fallback");
    lp.registry.install(lp.key.clone(), predictor, fallback)
}

/// A completed pair whose prediction is 30x off on every metric.
fn garbage(record: &QueryRecord) -> Prediction {
    Prediction {
        metrics: PerfMetrics::from_vec(
            &record
                .metrics
                .to_vec()
                .iter()
                .map(|v| v * 30.0)
                .collect::<Vec<_>>(),
        ),
        neighbor_indices: [0usize; 0].into_iter().collect(),
        confidence_distance: 0.0,
        max_kernel_similarity: 1.0,
    }
}

#[test]
fn drift_triggers_retrain_and_canary_swap_then_recovers() {
    let (lp, _train) = start_loop(96, 301);
    let stable = SystemConfig::neoview_4();
    let drifted_cfg = stable.clone().with_drift(3.0);

    // Phase 1: stable traffic calibrates the detector quietly.
    let calm = collect(30, 302, &stable);
    for record in &calm.records {
        let event = serve_and_observe(&lp.registry, &lp.key, &lp.controller, record);
        assert!(event.is_none(), "stable traffic fired {event:?}");
    }
    assert_eq!(lp.controller.phase(), Phase::Stable);
    let calibration_err = reading(&lp.controller, "calibration_mean_err");
    assert!(calibration_err > 0.0, "detector must be calibrated");

    // Phase 2: the system drifts (elapsed 3x). Error on elapsed time
    // rises and drift must be declared.
    let drifted = collect(160, 303, &drifted_cfg);
    let mut drift_signal = None;
    for record in &drifted.records {
        if let Some(AdaptEvent::DriftDetected(sig)) =
            serve_and_observe(&lp.registry, &lp.key, &lp.controller, record)
        {
            drift_signal = Some(sig);
        }
    }
    let signal = drift_signal.expect("drift must be detected under 3x elapsed drift");
    assert!(
        signal.metric == 0 || signal.metric == OVERALL,
        "drift attributed to elapsed_time or overall, got {}",
        stream_name(signal.metric)
    );
    assert!(signal.recent_mean > signal.calibration_mean);
    assert_eq!(lp.controller.phase(), Phase::RetrainQueued);
    let version_before = lp.registry.current_version(&lp.key).expect("installed");

    // The released task runs here: retrain + shadow-score + guarded
    // swap.
    let generation = match lp.controller.drain_pending() {
        Some(AdaptOutcome::Swapped {
            generation,
            candidate_err,
            incumbent_err,
        }) => {
            assert!(generation > version_before);
            assert!(
                candidate_err < incumbent_err,
                "candidate {candidate_err} must beat incumbent {incumbent_err}"
            );
            generation
        }
        other => panic!("expected a canary swap, got {other:?}"),
    };
    assert!(lp.controller.drain_pending().is_none(), "one task ran");
    assert_eq!(lp.controller.stats().canary_swaps.get(), 1);
    // The swap reset the detector, and the export reads the detector
    // as it is now, not a copy taken at the last observation.
    let reset = DriftDetector::new(test_options().drift);
    assert_eq!(reading(&lp.controller, "drift_score"), reset.score(OVERALL));
    assert_eq!(
        reading(&lp.controller, "calibration_mean_err"),
        reset.calibration_mean(OVERALL)
    );
    assert_eq!(lp.registry.current_version(&lp.key), Some(generation));

    // Phase 3: the swapped-in model predicts drifted traffic well; the
    // post-swap watch passes and nothing is demoted.
    let recovery = collect(40, 304, &drifted_cfg);
    let mut passed = None;
    for record in &recovery.records {
        if let Some(AdaptEvent::CanaryPassed { post_err, .. }) =
            serve_and_observe(&lp.registry, &lp.key, &lp.controller, record)
        {
            passed = Some(post_err);
        }
    }
    let post_err = passed.expect("post-swap watch must complete");
    assert!(
        post_err < signal.recent_mean,
        "post-swap error {post_err} must be below the drifted error {}",
        signal.recent_mean
    );
    assert_eq!(lp.controller.phase(), Phase::Stable);
    assert_eq!(lp.registry.demote_count(), 0);
    assert!(!lp.registry.get(&lp.key).expect("entry").degraded);
}

#[test]
fn kill_switch_demotes_a_regressing_canary() {
    let (lp, _incumbent, generation) = swap_in_canary();
    let drifted_cfg = SystemConfig::neoview_4().with_drift(3.0);

    // Post-swap traffic regresses badly: simulate a canary that looks
    // great on the holdout but falls apart live, by feeding completed
    // pairs whose predictions are an order of magnitude off.
    let live = collect(KILL_WINDOW + 8, 314, &drifted_cfg);
    let mut fired = None;
    for record in &live.records {
        if let Some(event) = lp
            .controller
            .observe(record, &response(garbage(record), generation))
        {
            fired = Some(event);
            break;
        }
    }
    match fired.expect("kill-switch must fire on a regressing canary") {
        AdaptEvent::KillSwitch {
            generation: demoted,
            pre_err,
            post_err,
        } => {
            assert_eq!(lp.controller.phase(), Phase::Demoted);
            assert!(post_err > pre_err * 1.5, "post {post_err} pre {pre_err}");
            assert!(demoted > generation, "demotion mints a fresh version");
        }
        other => panic!("expected KillSwitch, got {other:?}"),
    }
    // The registry entry is degraded: workers will answer from the
    // optimizer-cost baseline until a healthy install.
    let entry = lp.registry.get(&lp.key).expect("entry");
    assert!(entry.degraded);
    assert_eq!(lp.registry.demote_count(), 1);
    assert_eq!(lp.controller.stats().demotions.get(), 1);

    // A late answer from the demoted canary does not re-arm anything.
    let late = &live.records[0];
    lp.controller
        .observe(late, &response(garbage(late), generation));
    assert_eq!(lp.controller.phase(), Phase::Demoted);

    // A fresh healthy install clears the demotion, and its first answer
    // re-arms the loop.
    install_trained_on(&lp, &collect(96, 315, &drifted_cfg));
    assert!(!lp.registry.get(&lp.key).expect("entry").degraded);
    let calm = collect(30, 316, &drifted_cfg);
    serve_and_observe(&lp.registry, &lp.key, &lp.controller, &calm.records[0]);
    assert_eq!(lp.controller.phase(), Phase::Stable);

    // Re-armed for real: the detector calibrates on the new model and
    // declares the next drift.
    for record in &calm.records[1..] {
        let event = serve_and_observe(&lp.registry, &lp.key, &lp.controller, record);
        assert!(event.is_none(), "calm traffic fired {event:?}");
    }
    let drifted_again = collect(160, 317, &SystemConfig::neoview_4().with_drift(9.0));
    let declared = drifted_again.records.iter().any(|record| {
        matches!(
            serve_and_observe(&lp.registry, &lp.key, &lp.controller, record),
            Some(AdaptEvent::DriftDetected(_))
        )
    });
    assert!(declared, "a re-armed loop must declare the next drift");
}

#[test]
fn post_swap_watch_counts_only_the_canarys_own_answers() {
    let (lp, incumbent, generation) = swap_in_canary();
    let drifted_cfg = SystemConfig::neoview_4().with_drift(3.0);
    let live = collect(40, 334, &drifted_cfg);

    // Requests that were outstanding at swap time complete with the
    // replaced incumbent's version. However wrong, and however many,
    // they say nothing about the canary: a whole kill window of them
    // leaves the watch where it started.
    for record in &live.records[..KILL_WINDOW] {
        let event = lp
            .controller
            .observe(record, &response(garbage(record), incumbent));
        assert!(event.is_none(), "pre-swap answer fired {event:?}");
    }
    match lp.controller.phase() {
        Phase::PostSwap {
            generation: watched,
            observed,
            err_sum,
            ..
        } => assert_eq!((watched, observed, err_sum), (generation, 0, 0.0)),
        other => panic!("expected PostSwap, got {other:?}"),
    }
    assert_eq!(lp.registry.demote_count(), 0);

    // The canary's own answers are what the verdict is made of.
    let mut passed = false;
    for (i, record) in live.records.iter().enumerate() {
        let event = serve_and_observe(&lp.registry, &lp.key, &lp.controller, record);
        if let Some(AdaptEvent::CanaryPassed { .. }) = event {
            assert_eq!(i + 1, KILL_WINDOW, "one count per answer");
            passed = true;
            break;
        }
    }
    assert!(passed, "the watch must complete on the canary's answers");
    assert_eq!(lp.controller.phase(), Phase::Stable);
}

#[test]
fn post_swap_watch_stands_down_when_a_newer_model_is_installed() {
    let (lp, _incumbent, generation) = swap_in_canary();
    let drifted_cfg = SystemConfig::neoview_4().with_drift(3.0);

    // An operator installs a model while the canary is being watched.
    let fresh = collect(96, 344, &drifted_cfg);
    let installed = install_trained_on(&lp, &fresh);
    assert!(installed > generation);

    // Its first answer ends the watch: the canary no longer serves, and
    // even a terrible answer from the newer model demotes nothing.
    let record = &fresh.records[0];
    let event = lp
        .controller
        .observe(record, &response(garbage(record), installed));
    assert!(event.is_none(), "newer model's answer fired {event:?}");
    assert_eq!(lp.controller.phase(), Phase::Stable);
    assert_eq!(lp.registry.demote_count(), 0);
    assert_eq!(lp.registry.current_version(&lp.key), Some(installed));
}

#[test]
fn candidate_that_cannot_clear_the_margin_is_rejected() {
    // Stationary traffic, no drift declared, and a task handed in as if
    // one had been. The incumbent is trained on exactly the rows the
    // window holds when the task runs, so the candidate refits the same
    // model bit for bit (tests/window_rows.rs) and ties it on the
    // holdout: whatever the data, it cannot clear the 5% margin. The
    // shadow score must reject it, the incumbent must stay installed,
    // and the loop must re-arm rather than alarm forever. (The seeds
    // matter only to the quiet calibration: some seeds' stable traffic
    // raises a false alarm within 60 completions.)
    let (lp, train) = start_loop(96, 1000);
    let stable = SystemConfig::neoview_4();
    let traffic = collect(60, 1001, &stable);
    for record in &traffic.records {
        let event = serve_and_observe(&lp.registry, &lp.key, &lp.controller, record);
        assert!(event.is_none(), "stable traffic fired {event:?}");
    }
    let fresh = DriftDetector::new(test_options().drift);
    let reset = fresh.calibration_mean(OVERALL);
    assert_ne!(reading(&lp.controller, "calibration_mean_err"), reset);

    // Every fourth completion went to the holdout; the rest pushed the
    // oldest seed rows out of the 96-row window.
    let pushed = traffic.records.iter().enumerate();
    let mut records = train.records.clone();
    records.extend(
        pushed
            .filter(|(i, _)| (i + 1) % 4 != 0)
            .map(|(_, r)| r.clone()),
    );
    records.drain(..records.len() - 96);
    let version_before = install_trained_on(&lp, &Dataset { records, ..train });

    match lp.controller.run_task(task_for(version_before)) {
        AdaptOutcome::Rejected {
            candidate_err,
            incumbent_err,
        } => assert_eq!(
            candidate_err.to_bits(),
            incumbent_err.to_bits(),
            "candidate {candidate_err} vs incumbent {incumbent_err}"
        ),
        other => panic!("expected rejection, got {other:?}"),
    }
    assert_eq!(
        lp.registry.current_version(&lp.key),
        Some(version_before),
        "a rejected candidate must never reach the registry"
    );
    assert_eq!(lp.controller.stats().canary_rejections.get(), 1);
    assert_eq!(lp.controller.stats().canary_swaps.get(), 0);
    assert_eq!(lp.controller.phase(), Phase::Stable);

    // Re-armed, not silenced: the rejection re-baselined the detector,
    // so it calibrates afresh on the traffic the incumbent serves now.
    assert_eq!(reading(&lp.controller, "calibration_mean_err"), reset);
    assert_eq!(reading(&lp.controller, "drift_score"), fresh.score(OVERALL));
}

/// A retrain task judged on the overall stream against `incumbent`, as
/// `observe` would release it.
fn task_for(incumbent: u64) -> RetrainTask {
    RetrainTask {
        signal: DriftSignal {
            epoch: 0,
            metric: OVERALL,
            score: 0.0,
            recent_mean: 0.0,
            calibration_mean: 0.0,
        },
        incumbent,
        pre_err: 0.0,
    }
}

#[test]
fn retrain_without_a_holdout_keeps_the_incumbent() {
    // A fresh controller has its seeded window but has diverted nothing
    // to the holdout yet, so a candidate could not be judged.
    let (lp, _train) = start_loop(96, 351);
    let v1 = lp.registry.current_version(&lp.key).expect("installed");
    match lp.controller.run_task(task_for(v1)) {
        AdaptOutcome::InsufficientData { holdout: 0, .. } => {}
        other => panic!("expected InsufficientData with an empty holdout, got {other:?}"),
    }
    assert_eq!(lp.controller.phase(), Phase::Stable);
    assert_eq!(lp.controller.stats().shadow_evaluations.get(), 0);
    assert_eq!(lp.registry.current_version(&lp.key), Some(v1));
}

#[test]
fn retrain_that_loses_the_race_to_an_install_keeps_the_newer_model() {
    let (lp, train) = start_loop(96, 361);
    let stable = SystemConfig::neoview_4();
    for record in &collect(30, 362, &stable).records {
        serve_and_observe(&lp.registry, &lp.key, &lp.controller, record);
    }
    for record in &collect(160, 363, &stable.clone().with_drift(3.0)).records {
        serve_and_observe(&lp.registry, &lp.key, &lp.controller, record);
    }
    assert_eq!(lp.controller.phase(), Phase::RetrainQueued);
    let v1 = lp.registry.current_version(&lp.key).expect("installed");

    // An operator installs a model while the retrain task waits.
    let v2 = install_trained_on(&lp, &train);
    assert!(v2 > v1);

    match lp.controller.drain_pending() {
        Some(AdaptOutcome::Raced(race)) => {
            assert_eq!((race.expected, race.found), (v1, Some(v2)));
        }
        other => panic!("expected a Raced outcome, got {other:?}"),
    }
    assert_eq!(lp.controller.stats().swap_races.get(), 1);
    assert_eq!(lp.controller.stats().canary_swaps.get(), 0);
    assert_eq!(lp.controller.phase(), Phase::Stable);
    assert_eq!(lp.registry.current_version(&lp.key), Some(v2));
}
