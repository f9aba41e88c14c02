//! Steady-state allocation regression: after warm-up, the predict path
//! production takes — `KccaPredictor::predict(spec, plan)`, what the
//! serve worker calls per request — must perform ZERO heap allocations,
//! as must `predict_features` beneath it; a small `predict_batch`
//! allocates only the vector it returns. The measured calls run under
//! an active qpp-obs trace, so the guarantee covers prediction *with
//! observability enabled*: span recording into the pre-sized event ring
//! is allocation-free by design. Runs in its own test binary because a
//! process can have only one `#[global_allocator]`.

use counting_alloc::CountingAllocator;
use qpp::core::pipeline::collect_tpcds;
use qpp::core::{KccaPredictor, PredictorOptions};
use qpp::engine::SystemConfig;
use qpp::linalg::Matrix;
use qpp::ml::{DistanceMetric, IvfIndex, IvfOptions, KnnScratch, NeighborWeighting};

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

    let before = ALLOC.allocation_events();
    let recorded_before = qpp::obs::recorder().events_recorded();
    let mut last = None;
    qpp::obs::with_trace(trace_id, || {
        for _ in 0..32 {
            last = Some(model.predict_features(&features).unwrap());
        }
    });
    let events = ALLOC.allocation_events() - before;
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
    let before = ALLOC.allocation_events();
    let mut from_plan = None;
    qpp::obs::with_trace(trace_id, || {
        for _ in 0..32 {
            from_plan = Some(model.predict(&probe.spec, &probe.optimized.plan).unwrap());
        }
    });
    let events = ALLOC.allocation_events() - before;
    assert_eq!(
        events, 0,
        "steady-state predict performed {events} heap allocations over 32 calls"
    );
    assert_eq!(warm.metrics, from_plan.unwrap().metrics);

    // A serve-sized batch is that same call in a loop: the one
    // allocation is the returned vector.
    let queries: Vec<_> = train.records[..8]
        .iter()
        .map(|r| (&r.spec, &r.optimized.plan))
        .collect();
    let before = ALLOC.allocation_events();
    let batch = model.predict_batch(&queries).unwrap();
    let events = ALLOC.allocation_events() - before;
    assert!(
        events <= 1,
        "warm predict_batch of 8 performed {events} heap allocations"
    );
    assert_eq!(batch.len(), 8);

    // Same guarantee for the IVF arm of the neighbor index: once the
    // probe/list/merge scratch has warmed up, the coarse probe, exact
    // rescan, ordered merge, and weighted combine are all alloc-free.
    // (Measured in this same test because the counting allocator is
    // process-global — concurrent tests would see each other's traffic.)
    let data = Matrix::from_fn(3000, 4, |i, j| ((i * 31 + j * 7) % 211) as f64 * 0.125);
    let targets = Matrix::from_fn(3000, 6, |i, j| ((i * 13 + j) % 97) as f64);
    let probe: Vec<f64> = data.row(997).to_vec();
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
    let before = ALLOC.allocation_events();
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
    let ivf_events = ALLOC.allocation_events() - before;
    assert_eq!(
        ivf_events, 0,
        "steady-state IVF predict_into performed {ivf_events} heap allocations over 32 calls"
    );
    assert_eq!(scratch.neighbors, warm_neighbors);
}
