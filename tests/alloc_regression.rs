//! Steady-state allocation regression: after warm-up, the predict path
//! production takes — `KccaPredictor::predict(spec, plan)`, what the
//! serve worker calls per request — must perform ZERO heap allocations,
//! as must `predict_features` beneath it; a small `predict_dataset`
//! allocates only the vector it returns. The measured calls run under
//! an active qpp-obs trace, so the guarantee covers prediction *with
//! observability enabled*: span recording into the pre-sized event ring
//! is allocation-free by design. Runs in its own test binary because a
//! process can have only one `#[global_allocator]`.
//!
//! This file is the whole allocation contract of the predict, serve
//! and trace paths: a body is allocation-free because it runs inside a
//! counted region below and the region counts 0 events. The counter
//! sees what a root *reaches*, through calls, closures and `dyn`
//! dispatch alike; it does not see a branch no input here takes, so a
//! new arm on these paths brings its input with it. One test per family
//! of roots (the tests share a process, so each diffs the events of its
//! own thread):
//!
//! - predict: `KccaPredictor::{predict, predict_features, predict_dataset}`
//!   over plan and SQL-text features, exact and IVF arms, the typed
//!   wrong-width refusal (`ResultExt::ctx` → `QppError::with_context`),
//!   `IvfIndex::predict_into`, `NearestNeighbors::{query_into,
//!   predict_into}` under both metrics, `vector::dist`;
//! - obs: `Recorder::{now_ns, record_span, record_mark}`, `EventRing::push`,
//!   the trace cell, `span`/`SpanGuard`, the free `now_ns`,
//!   `next_trace_id`, `record_span`, `record_mark`, `Counter`;
//! - serve: `TenantTable::resolve`, `TenantQueue::{try_push, try_drain,
//!   drain}`, the `ServiceStats` counters, `ModelRegistry::get`, and
//!   `submit_async` (exactly 2: the request `Arc` client and worker
//!   share, and the answer slot);
//! - adapt: `AdaptiveController::observe` on a full window, over KCCA
//!   and fallback answers, every 4th diverted to the holdout
//!   (`SlidingWindowPredictor::push`, `DriftDetector::observe`,
//!   `log_ratio_errors`, `mean_error`).

use counting_alloc::CountingAllocator;
use qpp::adapt::{AdaptOptions, AdaptiveController};
use qpp::core::baselines::OptimizerCostModel;
use qpp::core::pipeline::collect_tpcds;
use qpp::core::retrain::SlidingWindowPredictor;
use qpp::core::workload_mgmt::AdmissionDecision;
use qpp::core::{FeatureKind, KccaPredictor, NeighborIds, Prediction, PredictorOptions, QppError};
use qpp::engine::SystemConfig;
use qpp::linalg::{vector, LinalgError, Matrix};
use qpp::ml::{
    DistanceMetric, IvfIndex, IvfOptions, KnnScratch, NearestNeighbors, NeighborWeighting,
};
use qpp::obs::{Counter, Event, EventKind, EventRing, Recorder, Stage};
use qpp::serve::{
    AnswerSource, ModelKey, ModelRegistry, PredictRequest, PredictionService, ServeOptions,
    ServeResponse, ServiceStats, TenantId, TenantQueue, TenantSpec, TenantTable, DEFAULT_TENANT,
};
use std::sync::Arc;
use std::time::Duration;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn predict_features_steady_state_allocates_nothing() {
    let config = SystemConfig::neoview_4();
    let train = collect_tpcds(150, 71, &config, 2);
    let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();

    let probe = &train.records[3];
    let features = qpp::core::features::query_features(
        model.options().feature_kind,
        &probe.spec,
        &probe.optimized.plan,
    );

    // Warm up the thread-local scratch buffers (first call sizes them)
    // and the global obs recorder (first span allocates its ring).
    let warm = model.predict_features(&features).unwrap();
    let trace_id = qpp::obs::next_trace_id();

    let before = ALLOC.thread_allocation_events();
    let recorded_before = qpp::obs::recorder().events_recorded();
    let mut last = None;
    qpp::obs::with_trace(trace_id, || {
        for _ in 0..32 {
            last = Some(model.predict_features(&features).unwrap());
            // A row of another width is refused with a typed error,
            // and the refusal is as free as the answer.
            let Err(QppError::Linalg { source, .. }) = model.predict_features(&features[1..])
            else {
                panic!("a short row is refused by the linalg layer");
            };
            assert!(matches!(source, LinalgError::ShapeMismatch { .. }));
        }
    });
    let events = ALLOC.thread_allocation_events() - before;
    let recorded = qpp::obs::recorder().events_recorded() - recorded_before;
    assert_eq!(
        events, 0,
        "steady-state predict_features performed {events} heap allocations over 32 calls"
    );
    // Observability was genuinely on during the measured loop: every
    // call recorded its spans (standardize, project, kNN).
    assert!(
        recorded >= 32,
        "expected >=32 trace events during the measured loop, saw {recorded}"
    );

    // The zero-alloc path still computes the same answer.
    let last = last.unwrap();
    assert_eq!(warm.metrics, last.metrics);
    assert_eq!(warm.neighbor_indices, last.neighbor_indices);
    assert_eq!(
        warm.confidence_distance.to_bits(),
        last.confidence_distance.to_bits()
    );

    // The entry point serving uses: feature extraction included. (The
    // warm-up above already sized every buffer but the feature row.)
    model.predict(&probe.spec, &probe.optimized.plan).unwrap();
    let before = ALLOC.thread_allocation_events();
    let mut from_plan = None;
    qpp::obs::with_trace(trace_id, || {
        for _ in 0..32 {
            from_plan = Some(model.predict(&probe.spec, &probe.optimized.plan).unwrap());
        }
    });
    let events = ALLOC.thread_allocation_events() - before;
    assert_eq!(
        events, 0,
        "steady-state predict performed {events} heap allocations over 32 calls"
    );
    assert_eq!(warm.metrics, from_plan.unwrap().metrics);

    // A dataset of 8 is that same call in a loop: the one allocation
    // is the returned vector.
    let eight = train.subset(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let before = ALLOC.thread_allocation_events();
    let batch = model.predict_dataset(&eight).unwrap();
    let events = ALLOC.thread_allocation_events() - before;
    assert!(
        events <= 1,
        "warm predict_dataset of 8 performed {events} heap allocations"
    );
    assert_eq!(batch.len(), 8);

    // The other feature kind: nine counts read off the query spec.
    let sql_options = PredictorOptions {
        feature_kind: FeatureKind::SqlText,
        ..PredictorOptions::default()
    };
    let sql_model = KccaPredictor::train(&train, sql_options).unwrap();
    sql_model
        .predict(&probe.spec, &probe.optimized.plan)
        .unwrap();
    let before = ALLOC.thread_allocation_events();
    for _ in 0..32 {
        sql_model
            .predict(&probe.spec, &probe.optimized.plan)
            .unwrap();
    }
    let events = ALLOC.thread_allocation_events() - before;
    assert_eq!(
        events, 0,
        "steady-state SQL-text predict performed {events} heap allocations over 32 calls"
    );

    // Same guarantee for the IVF arm of the neighbor index: once the
    // scratch has warmed up, the coarse probe, exact rescan and weighted
    // combine are all alloc-free.
    let data = Matrix::from_fn(3000, 4, |i, j| ((i * 31 + j * 7) % 211) as f64 * 0.125);
    let targets = Matrix::from_fn(3000, 6, |i, j| ((i * 13 + j) % 97) as f64);
    let probe: Vec<f64> = data.row(997).to_vec();
    let brute = NearestNeighbors::new(data.clone(), DistanceMetric::Euclidean);
    let cosine = NearestNeighbors::new(data.clone(), DistanceMetric::Cosine);
    let ivf = IvfIndex::build(data, DistanceMetric::Euclidean, IvfOptions::default()).unwrap();
    let mut scratch = KnnScratch::new();
    let mut combined = Vec::new();
    ivf.predict_into(
        &probe,
        &targets,
        3,
        NeighborWeighting::Equal,
        &mut scratch,
        &mut combined,
    )
    .unwrap();
    let warm_neighbors = scratch.neighbors.clone();
    let before = ALLOC.thread_allocation_events();
    for _ in 0..32 {
        ivf.predict_into(
            &probe,
            &targets,
            3,
            NeighborWeighting::Equal,
            &mut scratch,
            &mut combined,
        )
        .unwrap();
    }
    let ivf_events = ALLOC.thread_allocation_events() - before;
    assert_eq!(
        ivf_events, 0,
        "steady-state IVF predict_into performed {ivf_events} heap allocations over 32 calls"
    );
    assert_eq!(scratch.neighbors, warm_neighbors);

    // And for the brute oracle the equivalence suites hold both arms to.
    let mut found = Vec::new();
    brute.query_into(&probe, 3, &mut found);
    let before = ALLOC.thread_allocation_events();
    for _ in 0..32 {
        brute.query_into(&probe, 3, &mut found);
    }
    let brute_events = ALLOC.thread_allocation_events() - before;
    assert_eq!(
        brute_events, 0,
        "warm 3000-row brute query_into performed {brute_events} heap allocations over 32 calls"
    );

    // The oracle's own combine, under the metric and the weighting
    // no default selects (`dot`, `norm`, `cosine_dist`), and the plain
    // distance only tests read.
    let weighting = NeighborWeighting::InverseDistance;
    cosine
        .predict_into(&probe, &targets, 3, weighting, &mut scratch, &mut combined)
        .unwrap();
    let before = ALLOC.thread_allocation_events();
    for _ in 0..32 {
        cosine
            .predict_into(&probe, &targets, 3, weighting, &mut scratch, &mut combined)
            .unwrap();
        assert_eq!(vector::dist(&probe, &probe), 0.0);
    }
    let cosine_events = ALLOC.thread_allocation_events() - before;
    assert_eq!(
        cosine_events, 0,
        "warm cosine predict_into performed {cosine_events} heap allocations over 32 calls"
    );
    assert!(scratch.neighbors[0].distance < 1e-12);

    // The exact arm over 32 lists, its list bound included (the
    // 150-row models above have two).
    let train = collect_tpcds(2100, 79, &config, 2);
    let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
    assert!(!model.index().is_ivf() && model.training_size() > 2048);
    model.predict_features(&features).unwrap();
    let before = ALLOC.thread_allocation_events();
    for _ in 0..32 {
        model.predict_features(&features).unwrap();
    }
    let events = ALLOC.thread_allocation_events() - before;
    assert_eq!(
        events, 0,
        "warm predict_features over a 2100-row exact-arm model performed {events} heap allocations"
    );
}

/// The trace layer's roots, warm: recording a span or a mark (on a
/// recorder and through the free functions), pushing into a ring that
/// has already wrapped, moving the thread's trace ID, drawing a fresh
/// one, bumping a counter.
#[test]
fn obs_roots_steady_state_allocate_nothing() {
    let recorder = Recorder::with_capacity(64);
    let ring = EventRing::new(64);
    let counter = Counter::new();
    // First use sizes the global recorder's ring and this thread's
    // trace cell.
    qpp::obs::with_trace(qpp::obs::next_trace_id(), || {
        drop(qpp::obs::span(Stage::Predict))
    });

    let before = ALLOC.thread_allocation_events();
    for i in 1..=256u64 {
        recorder.record_span(i, Stage::Predict, recorder.now_ns(), 5, i);
        recorder.record_mark(i, Stage::ModelSwap, i);
        ring.push(&Event {
            trace_id: i,
            kind: EventKind::Span,
            stage: Stage::Worker,
            start_ns: i,
            dur_ns: 1,
            value: i,
        });
        qpp::obs::set_current_trace(i);
        assert_eq!(qpp::obs::current_trace(), i);
        let mut span = qpp::obs::span(Stage::QueueWait);
        span.set_value(i);
        drop(span);
        qpp::obs::record_mark(Stage::Drift, i);
        qpp::obs::record_span(Stage::Retrain, qpp::obs::now_ns(), 5, i);
        assert!(qpp::obs::next_trace_id() > 0);
        counter.incr();
        counter.add(2);
        counter.observe_max(i);
    }
    let events = ALLOC.thread_allocation_events() - before;
    qpp::obs::set_current_trace(0);
    assert_eq!(
        events, 0,
        "warm obs roots performed {events} heap allocations"
    );
    assert_eq!(recorder.events_recorded(), 512);
    assert_eq!(ring.recorded(), 256);
}

/// The serve data plane's roots, warm: tenant resolution, the admission
/// push (accepted, over quota and queue full), the arrival-order drain
/// into a reused batch (blocking and not), the service-wide stats
/// counters, and the registry lookup a worker makes per request. Then the
/// one root that does allocate, `submit_async`: the `Arc` client and
/// worker share the request through and the slot the answer comes
/// back in, not a copy of the request.
#[test]
fn serve_roots_steady_state_allocate_nothing() {
    let table = Arc::new(TenantTable::new(vec![
        TenantSpec::new(TenantId(5)),
        TenantSpec::new(TenantId(6)).quota(4),
    ]));
    let queue: TenantQueue<u64> = TenantQueue::new(24, Arc::clone(&table));
    let stats = ServiceStats::default();
    let train = collect_tpcds(60, 73, &SystemConfig::neoview_4(), 2);
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(
        key.clone(),
        KccaPredictor::train(&train, PredictorOptions::default()).unwrap(),
        OptimizerCostModel::train(&train).unwrap(),
    );

    let mut batch = Vec::new();
    let mut version = 0;
    let mut round = || {
        // 48 pushes against capacity 24 and a quota of 4 on tenant 6
        // (unregistered 9 folds into the default): every arm runs.
        for i in 0..48u64 {
            let idx = table.resolve(TenantId([5, 6, 9, 6][i as usize % 4]));
            match queue.try_push(idx, i) {
                Ok(depth) => {
                    stats.submitted.incr();
                    stats.observe_queue_depth(depth);
                }
                Err(QppError::TenantQuotaExceeded { .. }) => stats.rejected_quota.incr(),
                Err(QppError::QueueFull { .. }) => stats.rejected_full.incr(),
                Err(e) => unreachable!("the queue is never shut down: {e}"),
            }
        }
        let mut serve = |batch: &[u64]| {
            stats.record_batch(batch.len());
            version = registry.get(&key).map_or(0, |entry| entry.version);
            for _ in batch {
                stats.completed.incr();
            }
        };
        // What a worker calls: the blocking drain, which takes its
        // batch without waiting because the queue holds work.
        assert!(queue.drain(8, &mut batch));
        serve(&batch);
        while queue.try_drain(8, &mut batch) > 0 {
            serve(&batch);
        }
    };
    // The first round grows the lanes and the batch to working size.
    round();
    let before = ALLOC.thread_allocation_events();
    for _ in 0..32 {
        round();
    }
    let events = ALLOC.thread_allocation_events() - before;
    assert_eq!(
        events, 0,
        "warm serve roots performed {events} heap allocations"
    );

    let snap = stats.snapshot(queue.len(), 0, 0);
    assert_eq!(version, 1);
    assert_eq!(
        snap.completed, snap.submitted,
        "every accepted push drained"
    );
    assert!(snap.rejected_queue_full > 0 && snap.rejected_quota > 0);
    assert_eq!(snap.max_queue_depth, 24);

    // Nothing drains a `workers: 0` service, so each call is measured on
    // its own; the queue was sized for its capacity, so no push grows it.
    let options = ServeOptions {
        workers: 0,
        ..ServeOptions::default()
    };
    let service = PredictionService::start(registry, options);
    let mut pending = Vec::with_capacity(32);
    for record in &train.records[..32] {
        let request = PredictRequest {
            key: key.clone(),
            tenant: DEFAULT_TENANT,
            spec: record.spec.clone(),
            plan: record.optimized.plan.clone(),
            deadline: Duration::from_secs(30),
        };
        let before = ALLOC.thread_allocation_events();
        pending.push(service.submit_async(request).unwrap());
        let events = ALLOC.thread_allocation_events() - before;
        assert_eq!(
            events, 2,
            "submit_async performed {events} heap allocations"
        );
    }
    assert_eq!(service.stats().queue_depth, 32);
}

/// The adapt record path, warm: a completed answer's `observe` on a full
/// window and a full holdout writes one row in place and steps the
/// detector. The answers match the measured metrics, so the detector
/// never fires and the phase stays stable; the KCCA and the fallback
/// arm alternate, and every 4th answer goes to the holdout.
#[test]
fn adapt_observe_steady_state_allocates_nothing() {
    let train = collect_tpcds(40, 75, &SystemConfig::neoview_4(), 2);
    let options = PredictorOptions::default();
    let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(
        key.clone(),
        KccaPredictor::train(&train, options).unwrap(),
        OptimizerCostModel::train(&train).unwrap(),
    );
    let window = SlidingWindowPredictor::new(train.clone(), 16, usize::MAX, options);
    let controller = AdaptiveController::new(registry, key, window, AdaptOptions::default());
    let responses: Vec<ServeResponse> = (train.records.iter().enumerate())
        .map(|(i, r)| ServeResponse {
            prediction: Prediction {
                metrics: r.metrics,
                neighbor_indices: NeighborIds::new(),
                confidence_distance: 0.0,
                max_kernel_similarity: 1.0,
            },
            decision: AdmissionDecision::Admit {
                kill_timeout_seconds: 60.0,
            },
            source: [AnswerSource::Kcca, AnswerSource::CostModelFallback][i % 2],
            model_version: 1,
            latency: Duration::ZERO,
            trace_id: 0,
        })
        .collect();
    let round = || {
        for (r, response) in train.records.iter().zip(&responses) {
            assert_eq!(controller.observe(r, response), None);
        }
    };
    // Four rounds fill the 24-row holdout and the detector's windows.
    for _ in 0..4 {
        round();
    }
    let before = ALLOC.thread_allocation_events();
    for _ in 0..8 {
        round();
    }
    let events = ALLOC.thread_allocation_events() - before;
    assert_eq!(
        events, 0,
        "warm adapt observe performed {events} heap allocations"
    );
    assert_eq!(controller.stats().observations.get(), 12 * 20);
}
