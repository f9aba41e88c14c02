//! Concurrency tests for the prediction service: exactly-once answers
//! under producer/worker concurrency, non-blocking backpressure, and
//! torn-free model hot-swap.

use qpp_core::baselines::OptimizerCostModel;
use qpp_core::predictor::PredictorOptions;
use qpp_core::{Dataset, FeatureKind, KccaPredictor, QueryRecord};
use qpp_engine::SystemConfig;
use qpp_serve::{
    AnswerSource, CompletionObserver, ModelKey, ModelRegistry, PredictRequest, PredictionService,
    QppError, ServeOptions, ServeResponse, TenantId, TenantSpec, DEFAULT_TENANT,
};
use qpp_workload::{Schema, WorkloadGenerator};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn dataset(n: usize, seed: u64) -> Dataset {
    let schema = Schema::tpcds(1.0);
    let mut g = WorkloadGenerator::tpcds(1.0, seed);
    Dataset::collect(&schema, g.generate(n), &SystemConfig::neoview_4(), 2)
}

fn trained(d: &Dataset) -> (KccaPredictor, OptimizerCostModel) {
    (
        KccaPredictor::train(d, PredictorOptions::default()).unwrap(),
        OptimizerCostModel::train(d).unwrap(),
    )
}

fn request(d: &Dataset, i: usize, key: &ModelKey, deadline: Duration) -> PredictRequest {
    request_for(d, i, key, deadline, DEFAULT_TENANT)
}

fn request_for(
    d: &Dataset,
    i: usize,
    key: &ModelKey,
    deadline: Duration,
    tenant: TenantId,
) -> PredictRequest {
    let r = &d.records[i % d.records.len()];
    PredictRequest {
        key: key.clone(),
        tenant,
        spec: r.spec.clone(),
        plan: r.optimized.plan.clone(),
        deadline,
    }
}

/// N producers x M workers: every accepted request is answered exactly
/// once, and the ledger (completed + fallbacks vs client-side answers)
/// balances.
#[test]
fn concurrent_smoke_every_request_answered_exactly_once() {
    let train = dataset(60, 101);
    let (model, fallback) = trained(&train);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);

    let service = Arc::new(PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 4,
            queue_capacity: 1024,
            max_batch: 8,
            ..ServeOptions::default()
        },
    ));

    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 50;
    let pool = dataset(40, 202);
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let service = Arc::clone(&service);
            let pool = pool.clone();
            let key = key.clone();
            std::thread::spawn(move || {
                let mut answers = 0usize;
                for i in 0..PER_PRODUCER {
                    let req = request(&pool, p * PER_PRODUCER + i, &key, Duration::from_secs(10));
                    let resp = service.submit(req).expect("capacity 1024 never fills here");
                    assert!(resp.prediction.metrics.elapsed_seconds.is_finite());
                    answers += 1;
                }
                answers
            })
        })
        .collect();

    let total: usize = producers.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total, PRODUCERS * PER_PRODUCER);

    let snap = service.stats();
    assert_eq!(snap.submitted, (PRODUCERS * PER_PRODUCER) as u64);
    // Exactly-once ledger: every submission was answered through KCCA
    // or the fallback, and nothing was double-counted.
    assert_eq!(snap.completed + snap.fallbacks, snap.submitted);
    assert_eq!(snap.rejected_queue_full, 0);
    assert!(snap.mean_batch_size >= 1.0);
}

/// Regression: the worker used to send its answer and only then count
/// it, so a snapshot read right after `wait` returned could miss the
/// request it had just been answered. About half of 5,000 sequential
/// submissions did.
#[test]
fn an_answer_is_counted_before_wait_returns() {
    let train = dataset(60, 112);
    let (model, fallback) = trained(&train);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);
    let service = PredictionService::start(
        registry,
        ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        },
    );
    for answered in 1..=5_000u64 {
        let req = request(&train, answered as usize, &key, Duration::from_secs(10));
        service.submit(req).expect("answered");
        let snap = service.stats();
        assert_eq!(
            snap.completed + snap.fallbacks,
            answered,
            "an answer wait returned is missing from the snapshot"
        );
    }
}

/// A full queue rejects instantly with a typed reason and never blocks
/// the submitter.
#[test]
fn backpressure_rejects_without_blocking() {
    let train = dataset(60, 103);
    let (model, fallback) = trained(&train);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);

    // No workers: nothing drains, so the queue fills deterministically.
    let service = PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 0,
            queue_capacity: 3,
            ..ServeOptions::default()
        },
    );

    let mut pending = Vec::new();
    for i in 0..3 {
        pending.push(
            service
                .submit_async(request(&train, i, &key, Duration::from_millis(50)))
                .expect("under capacity"),
        );
    }
    let start = Instant::now();
    let overflow = service.submit_async(request(&train, 9, &key, Duration::from_millis(50)));
    assert!(
        start.elapsed() < Duration::from_millis(200),
        "rejection must be immediate"
    );
    match overflow {
        Err(QppError::QueueFull { capacity }) => assert_eq!(capacity, 3),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    assert_eq!(service.stats().rejected_queue_full, 1);

    // The queued requests still get answers — via the deadline
    // fallback, since no worker will ever serve them.
    for p in pending {
        let resp = p.wait().expect("fallback answers");
        assert_eq!(resp.source, AnswerSource::CostModelFallback);
        assert!(resp.prediction.metrics.elapsed_seconds > 0.0);
    }
    let snap = service.stats();
    assert_eq!(snap.fallbacks, 3);
    assert_eq!(snap.completed + snap.fallbacks, snap.submitted);
}

/// Hot-swapping models mid-stream never tears a model: every answer
/// carries a version that was actually installed, and the stream never
/// drops or errors a request.
#[test]
fn hot_swap_mid_stream_is_atomic() {
    let train_a = dataset(60, 104);
    let train_b = dataset(60, 105);
    let (model_a, fallback_a) = trained(&train_a);
    let (model_b, fallback_b) = trained(&train_b);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    let v1 = registry.install(key.clone(), model_a, fallback_a.clone());

    let service = Arc::new(PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 3,
            queue_capacity: 512,
            max_batch: 4,
            ..ServeOptions::default()
        },
    ));

    const REQUESTS: usize = 200;
    let streamer = {
        let service = Arc::clone(&service);
        let pool = train_a.clone();
        let key = key.clone();
        std::thread::spawn(move || {
            let mut versions = Vec::with_capacity(REQUESTS);
            for i in 0..REQUESTS {
                let resp = service
                    .submit(request(&pool, i, &key, Duration::from_secs(10)))
                    .expect("stream request answered");
                versions.push(resp.model_version);
            }
            versions
        })
    };

    // Swap between the two models while the stream runs.
    let mut installed = vec![v1];
    for swap in 0..6 {
        std::thread::sleep(Duration::from_millis(5));
        let (m, f) = if swap % 2 == 0 {
            (model_b.clone(), fallback_b.clone())
        } else {
            trained(&train_a)
        };
        installed.push(registry.install(key.clone(), m, f));
    }

    let versions = streamer.join().unwrap();
    assert_eq!(versions.len(), REQUESTS);
    // No torn model: every answer came from a version that was actually
    // installed, never a mix.
    for v in &versions {
        assert!(installed.contains(v), "answered by uninstalled version {v}");
    }
    assert_eq!(registry.swap_count(), 6);
    let snap = service.stats();
    assert_eq!(snap.completed + snap.fallbacks, snap.submitted);
    assert_eq!(snap.model_swaps, 6);
}

/// Regression: `wait` used to arm `recv_timeout` with the request's
/// full deadline measured from wait-start, ignoring time already spent
/// since submission. A caller that did 300 ms of work between
/// `submit_async` and `wait` got 300 ms + deadline of total budget; the
/// deadline must be measured from submission.
#[test]
fn deadline_counts_from_submission_not_wait_start() {
    let train = dataset(60, 107);
    let (model, fallback) = trained(&train);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);

    // No workers: the KCCA answer never arrives, so `wait` must hold
    // exactly the deadline's remainder before falling back.
    let service = PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 0,
            ..ServeOptions::default()
        },
    );

    let pending = service
        .submit_async(request(&train, 0, &key, Duration::from_millis(400)))
        .expect("under capacity");
    std::thread::sleep(Duration::from_millis(300));
    let wait_start = Instant::now();
    let resp = pending.wait().expect("fallback answers");
    let waited = wait_start.elapsed();
    assert_eq!(resp.source, AnswerSource::CostModelFallback);
    // ~100 ms of deadline remained; the old code waited the full 400 ms
    // from here.
    assert!(
        waited < Duration::from_millis(300),
        "wait held {waited:?}, deadline remainder was ~100ms"
    );
    // End-to-end latency stays near the deadline, not sleep + deadline.
    assert!(
        resp.latency < Duration::from_millis(650),
        "end-to-end {:?} blew past the 400ms deadline budget",
        resp.latency
    );
}

/// When the deadline has already expired before `wait` is called, the
/// fallback must answer (near-)immediately instead of waiting a full
/// fresh deadline.
#[test]
fn expired_deadline_falls_back_immediately() {
    let train = dataset(60, 108);
    let (model, fallback) = trained(&train);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);

    let service = PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 0,
            ..ServeOptions::default()
        },
    );

    let pending = service
        .submit_async(request(&train, 0, &key, Duration::from_millis(100)))
        .expect("under capacity");
    std::thread::sleep(Duration::from_millis(250));
    let wait_start = Instant::now();
    let resp = pending.wait().expect("fallback answers");
    assert_eq!(resp.source, AnswerSource::CostModelFallback);
    assert!(
        wait_start.elapsed() < Duration::from_millis(100),
        "expired deadline must not wait again (held {:?})",
        wait_start.elapsed()
    );
}

/// One served request produces a complete trace: admission, queue-wait,
/// worker and predict spans, and the model's standardize / project /
/// kNN sub-spans, all stamped with the trace ID the response reports.
#[test]
fn served_request_exports_a_complete_trace() {
    use qpp_obs::{EventKind, Stage};

    let train = dataset(60, 109);
    let (model, fallback) = trained(&train);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);

    let service = PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        },
    );

    let resp = service
        .submit(request(&train, 0, &key, Duration::from_secs(10)))
        .expect("request answered");
    assert_eq!(resp.source, AnswerSource::Kcca);
    assert_ne!(resp.trace_id, 0, "accepted requests are always traced");

    let events = qpp_obs::recorder().export_trace(resp.trace_id);
    for stage in [
        Stage::Admission,
        Stage::QueueWait,
        Stage::Worker,
        Stage::Predict,
        Stage::PredictStandardize,
        Stage::PredictProject,
        Stage::PredictKnn,
    ] {
        let found = events
            .iter()
            .find(|e| e.stage == stage && e.kind == EventKind::Span)
            .unwrap_or_else(|| panic!("trace missing {stage} span: {events:?}"));
        assert_eq!(found.trace_id, resp.trace_id);
        // The kNN span counts the panels its search computed in full:
        // at least the one holding the answer, at most every one.
        if stage == Stage::PredictKnn {
            let entry = registry.get(&key).expect("installed");
            let panels = entry.predictor.index().panels();
            assert!(
                (1..=panels as u64).contains(&found.value),
                "{} of {panels} panels",
                found.value
            );
        }
    }
    // A KCCA answer must not be tagged as a fallback.
    assert!(
        !events.iter().any(|e| e.stage == Stage::Fallback),
        "kcca answer wrongly tagged fallback: {events:?}"
    );
}

/// A deadline-missed request's trace carries the fallback marker, and
/// the service counts it as its one fallback — the optimizer-cost
/// fallback rate is a first-class metric.
#[test]
fn fallback_answers_are_tagged_in_trace_and_counted() {
    use qpp_obs::{EventKind, Stage};

    let train = dataset(60, 110);
    let (model, fallback) = trained(&train);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);

    let service = PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 0,
            ..ServeOptions::default()
        },
    );

    let resp = service
        .submit(request(&train, 0, &key, Duration::from_millis(20)))
        .expect("fallback answers");
    assert_eq!(resp.source, AnswerSource::CostModelFallback);
    assert_eq!(service.stats().fallbacks, 1);

    let events = qpp_obs::recorder().export_trace(resp.trace_id);
    let mark = events
        .iter()
        .find(|e| e.stage == Stage::Fallback)
        .unwrap_or_else(|| panic!("fallback answer not tagged: {events:?}"));
    assert_eq!(mark.kind, EventKind::Mark);
    assert_eq!(mark.trace_id, resp.trace_id);
}

/// Submitting against a key with no installed model fails fast.
#[test]
fn unknown_model_fails_fast() {
    let registry = Arc::new(ModelRegistry::new());
    let service = PredictionService::start(registry, ServeOptions::default());
    let pool = dataset(20, 106);
    let key = ModelKey::new("nowhere", FeatureKind::QueryPlan);
    match service.submit(request(&pool, 0, &key, Duration::from_millis(10))) {
        Err(QppError::UnknownModel { key }) => assert!(key.contains("nowhere")),
        other => panic!("expected UnknownModel, got {other:?}"),
    }
}

/// The `admission_reject` marks recorded between two trace IDs
/// (exclusive) that carry `reason`. The obs recorder is global and other
/// tests run concurrently, so a test finds its own marks by the window
/// of trace IDs its submissions drew.
fn reject_marks(after: u64, before: u64, reason: u64) -> Vec<qpp_obs::Event> {
    qpp_obs::recorder()
        .export()
        .into_iter()
        .filter(|e| {
            e.stage == qpp_obs::Stage::AdmissionReject
                && e.trace_id > after
                && e.trace_id < before
                && e.value == reason
        })
        .collect()
}

/// A queue-full rejection must record an `admission_reject` mark
/// carrying the request's admission trace ID and its reason code — a
/// shed request stays visible to traces, not just to a counter.
#[test]
fn queue_full_rejection_records_tagged_mark_with_trace_id() {
    let train = dataset(60, 107);
    let (model, fallback) = trained(&train);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);

    let service = PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 0, // nothing drains: the queue fills deterministically
            queue_capacity: 2,
            ..ServeOptions::default()
        },
    );

    let mut pending = Vec::new();
    for i in 0..2 {
        pending.push(
            service
                .submit_async(request(&train, i, &key, Duration::from_millis(50)))
                .expect("under capacity"),
        );
    }
    match service.submit_async(request(&train, 9, &key, Duration::from_millis(50))) {
        Err(QppError::QueueFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let after = pending[1].trace_id();
    let before = qpp_obs::next_trace_id();

    let rejects = reject_marks(after, before, qpp_serve::REJECT_QUEUE_FULL);
    assert!(!rejects.is_empty(), "rejection must record a mark");
    for mark in &rejects {
        assert_eq!(mark.kind, qpp_obs::EventKind::Mark);
        assert_ne!(
            mark.trace_id, 0,
            "the rejection mark must carry the admission trace ID"
        );
    }

    // And the service-wide reject counter tracked it.
    let snap = service.stats();
    assert_eq!(snap.rejected_queue_full, 1);
    assert_eq!(snap.rejected_quota, 0);
}

/// An over-quota tenant is rejected with a typed error before touching
/// the queue, records a reason-coded mark with its trace ID, and cannot
/// displace other tenants' capacity.
#[test]
fn over_quota_tenant_is_rejected_with_typed_error_and_tagged_mark() {
    let train = dataset(60, 108);
    let (model, fallback) = trained(&train);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);

    let service = PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 0, // nothing drains: quota state is deterministic
            queue_capacity: 64,
            tenants: vec![
                TenantSpec::new(TenantId(778)).quota(2),
                TenantSpec::new(TenantId(779)),
            ],
            ..ServeOptions::default()
        },
    );

    let mut pending = Vec::new();
    for i in 0..2 {
        pending.push(
            service
                .submit_async(request_for(
                    &train,
                    i,
                    &key,
                    Duration::from_millis(50),
                    TenantId(778),
                ))
                .expect("under quota"),
        );
    }
    match service.submit_async(request_for(
        &train,
        5,
        &key,
        Duration::from_millis(50),
        TenantId(778),
    )) {
        Err(QppError::TenantQuotaExceeded { tenant, quota }) => {
            assert_eq!(tenant, 778);
            assert_eq!(quota, 2);
        }
        other => panic!("expected TenantQuotaExceeded, got {other:?}"),
    }
    let after = pending[1].trace_id();
    let before = qpp_obs::next_trace_id();
    // The bystander tenant is unaffected by 778's quota exhaustion.
    pending.push(
        service
            .submit_async(request_for(
                &train,
                6,
                &key,
                Duration::from_millis(50),
                TenantId(779),
            ))
            .expect("bystander admits freely"),
    );

    let rejects = reject_marks(after, before, qpp_serve::REJECT_OVER_QUOTA);
    assert_eq!(rejects.len(), 1, "exactly one quota rejection recorded");
    assert_eq!(rejects[0].kind, qpp_obs::EventKind::Mark);
    assert_ne!(rejects[0].trace_id, 0);

    let snap = service.stats();
    assert_eq!(snap.rejected_quota, 1);
    assert_eq!(snap.rejected_queue_full, 0);
    assert_eq!(snap.submitted, 3);
}

/// Regression: a worker's error answer used to drop out of the ledger
/// (`submitted 2 completed 1 fallbacks 0` after one bad and one good
/// request). A plan with a NaN cardinality estimate comes back as a
/// typed kNN error and is counted `failed`, so every accepted request
/// is exactly one of completed, fallback or failed.
#[test]
fn a_worker_error_is_counted_failed() {
    let train = dataset(60, 113);
    let (model, fallback) = trained(&train);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);
    let service = PredictionService::start(registry, ServeOptions::default());

    let mut bad = request(&train, 0, &key, Duration::from_secs(10));
    bad.plan.nodes[0].est_rows = f64::NAN;
    match service.submit(bad) {
        Err(QppError::Knn { source, .. }) => {
            assert_eq!(format!("{source:?}"), "NoFiniteNeighbors")
        }
        other => panic!("expected a kNN error, got {other:?}"),
    }
    service
        .submit(request(&train, 1, &key, Duration::from_secs(10)))
        .expect("answered");

    let snap = service.stats();
    assert_eq!(snap.submitted, 2);
    assert_eq!((snap.completed, snap.fallbacks, snap.failed), (1, 0, 1));
    assert_eq!(
        snap.completed + snap.fallbacks + snap.failed,
        snap.submitted
    );
}

/// An observer may reconfigure the service from inside its callback
/// (the adapt controller's kill switch could hand the port to a
/// successor). That returns only while `observe_completion` clones the
/// observer out and drops `completion.read()` before calling it: held
/// across the callback, the `write()` below waits on its own thread.
#[test]
fn observer_can_replace_itself_from_inside_the_callback() {
    struct Handoff(std::sync::Weak<PredictionService>);
    impl CompletionObserver for Handoff {
        fn on_completion(&self, _: &QueryRecord, _: &ServeResponse) {
            if let Some(service) = self.0.upgrade() {
                service.set_completion_observer(Arc::new(Handoff(self.0.clone())));
            }
        }
    }

    let train = dataset(60, 131);
    let (model, fallback) = trained(&train);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);
    let service = Arc::new(PredictionService::start(registry, ServeOptions::default()));
    service.set_completion_observer(Arc::new(Handoff(Arc::downgrade(&service))));
    let response = service
        .submit(request(&train, 0, &key, Duration::from_secs(10)))
        .expect("answered");

    let (done, returned) = std::sync::mpsc::channel();
    let reporter = Arc::clone(&service);
    std::thread::spawn(move || {
        reporter.observe_completion(&train.records[0], &response);
        let _ = done.send(());
    });
    returned
        .recv_timeout(Duration::from_secs(10))
        .expect("observe_completion deadlocked: it held completion.read() across the callback");
    assert_eq!(service.stats().observed_completions, 1);
}
