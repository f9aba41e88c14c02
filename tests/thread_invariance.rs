//! Bitwise thread-invariance of the deterministic parallel engine: the
//! same training data must produce the same bits — projections,
//! correlations, neighbor lists, predictions — whether `qpp-par`
//! regions run with 1 thread or 8. The end-to-end legs run under active
//! qpp-obs traces: observability records timing *around* the
//! deterministic math, never inside it, so it must not perturb a single
//! bit.

use qpp::core::model_io::{from_json, to_json, FORMAT_VERSION};
use qpp::core::pipeline::collect_tpcds;
use qpp::core::{Dataset, KccaPredictor, PredictorOptions};
use qpp::engine::SystemConfig;
use qpp::ml::{AnnOptions, DistanceMetric, IvfOptions, Kcca, KccaOptions};
use qpp_linalg::{LinalgError, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn synthetic_pair(n: usize, seed: u64) -> (Matrix, Matrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Matrix::zeros(n, 8);
    let mut y = Matrix::zeros(n, 4);
    for i in 0..n {
        let mut norm = 0.0;
        for j in 0..8 {
            let v = rng.random_range(-2.0..2.0);
            x[(i, j)] = v;
            norm += v * v;
        }
        for j in 0..4 {
            y[(i, j)] = norm.sqrt() * (j as f64 + 1.0) + 0.05 * rng.random_range(-1.0..1.0);
        }
    }
    (x, y)
}

#[test]
fn kcca_fit_is_bitwise_identical_across_thread_counts() {
    let (x, y) = synthetic_pair(300, 17);
    let opts = KccaOptions::default();
    let serial = qpp_par::with_threads(1, || Kcca::fit(x.view(), y.view(), opts).unwrap());
    let parallel = qpp_par::with_threads(8, || Kcca::fit(x.view(), y.view(), opts).unwrap());
    assert_eq!(serial.correlations(), parallel.correlations());
    assert_eq!(serial.query_projection(), parallel.query_projection());
    assert_eq!(serial.x_rank(), parallel.x_rank());
}

/// A non-finite cell on either side makes that side's kernel trace NaN,
/// so the fit is `LinalgError::NonFinite`: whether the side's ICD ran on
/// the calling thread or on a helper, the error comes back as a value.
#[test]
fn non_finite_input_on_either_side_is_reported_at_1_and_2_threads() {
    for threads in [1, 2] {
        for side in ["x", "y", "both"] {
            for bad in [f64::NAN, f64::INFINITY] {
                let (mut x, mut y) = synthetic_pair(60, 5);
                if side != "y" {
                    x[(17, 1)] = bad;
                }
                if side != "x" {
                    y[(17, 1)] = bad;
                }
                let fit = qpp_par::with_threads(threads, || {
                    Kcca::fit(x.view(), y.view(), KccaOptions::default())
                });
                assert!(
                    matches!(fit, Err(LinalgError::NonFinite { .. })),
                    "{threads} thread(s), {side} {bad}: {:?}",
                    fit.err()
                );
            }
        }
    }
}

/// FNV-1a over a stream of bytes.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in bytes {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a over the bits of a fit's canonical correlations and training
/// query projection.
fn fit_fingerprint(model: &KccaPredictor) -> u64 {
    let kcca = model.kcca();
    let values = kcca.correlations().iter();
    let values = values.chain(kcca.query_projection().as_slice());
    fnv1a(values.flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Pins a 400-row fit's correlations and training projection to stored
/// bits at 1 thread, at 2 (the two ICD sides on two threads) and at 8,
/// so a change to the order of any training sum shows.
#[test]
fn a_400_row_fit_matches_its_stored_fingerprint() {
    let train = collect_tpcds(400, 29, &SystemConfig::neoview_4(), 2);
    for threads in [1, 2, 8] {
        let model = qpp_par::with_threads(threads, || {
            KccaPredictor::train(&train, PredictorOptions::default())
        })
        .unwrap();
        assert_eq!(
            fit_fingerprint(&model),
            0xad37_356a_5bf4_8ecf,
            "{threads} thread(s)"
        );
    }
}

/// FNV-1a over what a model answers for every query of `test`: each
/// prediction's six metrics, neighbour ids, confidence distance and
/// largest kernel similarity, in that order.
fn prediction_fingerprint(model: &KccaPredictor, test: &Dataset) -> u64 {
    let predictions = model.predict_dataset(test).unwrap();
    let words = predictions.iter().flat_map(|p| {
        let metrics = p.metrics.to_vec().into_iter().map(f64::to_bits);
        let ids = p.neighbor_indices.iter().map(|&i| i as u64);
        let trust = [p.confidence_distance, p.max_kernel_similarity].map(f64::to_bits);
        metrics.chain(ids).chain(trust).collect::<Vec<_>>()
    });
    fnv1a(words.flat_map(u64::to_le_bytes))
}

/// The four neighbour searches of a 400-row model, each with the stored
/// hashes of its held-out predictions and of its `to_json` envelope:
/// exact (six lists, every one probed unless the list bound rules it
/// out) and IVF (`ivf_threshold` 16; 3 of 12 lists probed, so the
/// coarse probe decides what is rescanned), each under both metrics.
fn search_arms() -> [(PredictorOptions, u64, u64); 4] {
    let ivf = AnnOptions {
        ivf_threshold: 16,
        ivf: IvfOptions {
            nlist: 12,
            nprobe: 3,
        },
    };
    let arm = |metric, ann| PredictorOptions {
        metric,
        ann,
        ..PredictorOptions::default()
    };
    let exact = AnnOptions::default();
    [
        (
            arm(DistanceMetric::Euclidean, exact),
            0x8e94_7ee1_f183_b96b,
            0xd027_c240_3fe6_39d9,
        ),
        (
            arm(DistanceMetric::Cosine, exact),
            0x3fd5_4dcc_487b_fd59,
            0x70a4_c1fa_4361_9ae2,
        ),
        (
            arm(DistanceMetric::Euclidean, ivf),
            0xde38_ab36_4801_7911,
            0xbe41_5293_149c_5d87,
        ),
        (
            arm(DistanceMetric::Cosine, ivf),
            0xf1ab_b155_0030_c825,
            0xc3d2_56b0_0b1f_f1c4,
        ),
    ]
}

/// Pins what 400-row models answer for 200 held-out queries, on every
/// neighbour search, to stored bits at 1, 2 and 8 threads, fitted and
/// shipped: a change to the layout or the order of any predict-time sum
/// shows, and so does a loaded model whose rebuilt index differs from
/// the fitted one.
#[test]
fn held_out_predictions_match_their_stored_fingerprints() {
    let config = SystemConfig::neoview_4();
    let train = collect_tpcds(400, 29, &config, 2);
    let test = collect_tpcds(200, 31, &config, 2);
    for threads in [1, 2, 8] {
        for (options, stored, _) in search_arms() {
            let (fitted, loaded) = qpp_par::with_threads(threads, || {
                let fitted = KccaPredictor::train(&train, options).unwrap();
                let loaded = from_json(&to_json(&fitted).unwrap()).unwrap();
                (fitted, loaded)
            });
            for (model, how) in [(fitted, "fitted"), (loaded, "loaded")] {
                assert_eq!(model.index().is_ivf(), options.ann.ivf_threshold == 16);
                assert_eq!(
                    prediction_fingerprint(&model, &test),
                    stored,
                    "{how}, {:?}, ivf {}, {threads} thread(s)",
                    options.metric,
                    model.index().is_ivf()
                );
            }
        }
    }
}

/// Pins the bytes `model_io::to_json` writes for the same models: the
/// format-7 envelope holds what a fit learned, and how a scan lays rows
/// out in memory never reaches it.
#[test]
fn a_400_row_envelope_matches_its_stored_hash() {
    assert_eq!(FORMAT_VERSION, 7);
    let train = collect_tpcds(400, 29, &SystemConfig::neoview_4(), 2);
    for threads in [1, 2, 8] {
        for (options, _, stored) in search_arms() {
            let model = qpp_par::with_threads(threads, || KccaPredictor::train(&train, options));
            let json = to_json(&model.unwrap()).unwrap();
            assert_eq!(
                fnv1a(json.bytes()),
                stored,
                "{:?}, ivf threshold {}, {threads} thread(s)",
                options.metric,
                options.ann.ivf_threshold
            );
        }
    }
}

/// Collection and training open parallel regions; prediction is serial
/// on the calling thread. Data collected and models fitted at 1 and at
/// 8 threads must therefore predict the same bits.
#[test]
fn end_to_end_predictions_are_bitwise_identical_across_thread_counts() {
    let config = SystemConfig::neoview_4();
    let train = qpp_par::with_threads(1, || collect_tpcds(160, 41, &config, 2));
    let test = qpp_par::with_threads(8, || collect_tpcds(25, 42, &config, 2));

    let serial_model = qpp_par::with_threads(1, || {
        KccaPredictor::train(&train, PredictorOptions::default())
    })
    .unwrap();
    let parallel_model = qpp_par::with_threads(8, || {
        KccaPredictor::train(&train, PredictorOptions::default())
    })
    .unwrap();

    // Each leg predicts under its own live trace: span recording must
    // not perturb the computation it times.
    let serial_preds = qpp::obs::with_trace(qpp::obs::next_trace_id(), || {
        qpp_par::with_threads(1, || serial_model.predict_dataset(&test).unwrap())
    });
    let parallel_preds = qpp::obs::with_trace(qpp::obs::next_trace_id(), || {
        qpp_par::with_threads(8, || parallel_model.predict_dataset(&test).unwrap())
    });
    assert_eq!(serial_preds.len(), parallel_preds.len());
    for (a, b) in serial_preds.iter().zip(parallel_preds.iter()) {
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.neighbor_indices, b.neighbor_indices);
        assert_eq!(
            a.confidence_distance.to_bits(),
            b.confidence_distance.to_bits()
        );
        assert_eq!(
            a.max_kernel_similarity.to_bits(),
            b.max_kernel_similarity.to_bits()
        );
    }
}

/// Recording spans must be observationally free: predictions computed
/// with tracing active are bitwise identical to untraced ones, while
/// the trace itself actually captured the per-call spans.
#[test]
fn tracing_does_not_perturb_prediction_bits() {
    let config = SystemConfig::neoview_4();
    let train = collect_tpcds(120, 43, &config, 2);
    let test = collect_tpcds(20, 44, &config, 2);
    let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();

    let untraced = model.predict_dataset(&test).unwrap();

    let trace_id = qpp::obs::next_trace_id();
    let traced = qpp::obs::with_trace(trace_id, || model.predict_dataset(&test).unwrap());

    assert_eq!(untraced.len(), traced.len());
    for (a, b) in untraced.iter().zip(traced.iter()) {
        for (x, y) in a.metrics.to_vec().iter().zip(b.metrics.to_vec().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.neighbor_indices, b.neighbor_indices);
        assert_eq!(
            a.confidence_distance.to_bits(),
            b.confidence_distance.to_bits()
        );
    }
    let events = qpp::obs::recorder().export_trace(trace_id);
    assert!(
        !events.is_empty(),
        "tracing was supposed to be live during the traced leg"
    );
}

/// The serve pipeline is worker-count invariant: the same scripted
/// arrival sequence over three tenants produces an identical
/// service-wide ledger — admission, completion, failure, rejection and
/// gateway counts — whether one worker drains the queue or eight
/// workers race over it. Nothing about worker scheduling may leak into
/// the ledger.
#[test]
fn serve_ledger_is_identical_across_worker_counts() {
    use qpp::core::baselines::OptimizerCostModel;
    use qpp::core::FeatureKind;
    use qpp::serve::{
        ModelKey, ModelRegistry, PredictRequest, PredictionService, ServeOptions, TenantId,
        TenantSpec,
    };
    use std::sync::Arc;
    use std::time::Duration;

    let config = SystemConfig::neoview_4();
    let train = collect_tpcds(120, 47, &config, 2);
    let pool = collect_tpcds(40, 48, &config, 2);

    // Fixed arrival script: 300 requests over three tenants in a
    // deterministic interleaving.
    let script: Vec<u16> = (0..300u16).map(|i| 1 + (i * 7 + i / 11) % 3).collect();

    let run = |workers: usize| {
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        let fallback = OptimizerCostModel::train(&train).unwrap();
        let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
        let registry = Arc::new(ModelRegistry::new());
        registry.install(key.clone(), model, fallback);
        let service = PredictionService::start(
            Arc::clone(&registry),
            ServeOptions {
                workers,
                queue_capacity: 1024,
                max_batch: 8,
                tenants: vec![
                    TenantSpec::new(TenantId(1)),
                    TenantSpec::new(TenantId(2)),
                    TenantSpec::new(TenantId(3)),
                ],
                ..ServeOptions::default()
            },
        );

        let pending: Vec<_> = script
            .iter()
            .enumerate()
            .map(|(i, &tenant)| {
                let r = &pool.records[i % pool.records.len()];
                service
                    .submit_async(PredictRequest {
                        key: key.clone(),
                        tenant: TenantId(tenant),
                        spec: r.spec.clone(),
                        plan: r.optimized.plan.clone(),
                        deadline: Duration::from_secs(30),
                    })
                    .expect("capacity 1024 never fills")
            })
            .collect();
        for p in pending {
            p.wait().expect("generous deadline always answers");
        }

        // `wait` counts each answer before returning it, so the ledger
        // is complete once the last `wait` has returned.
        let snap = service.stats();
        assert_eq!(snap.submitted, script.len() as u64);
        assert_eq!(
            snap.completed + snap.fallbacks + snap.failed,
            snap.submitted
        );
        (
            snap.submitted,
            snap.completed,
            snap.fallbacks,
            snap.failed,
            snap.rejected_queue_full,
            snap.rejected_quota,
            snap.admitted + snap.policy_rejected + snap.review_required,
        )
    };

    let single = run(1);
    let racing = run(8);
    assert_eq!(
        single, racing,
        "the service-wide ledger must not depend on worker count"
    );
}

/// The continuous-learning bookkeeping must be observationally free on
/// the predict path. The main thread predicts and reports each
/// completion through `AdaptiveController::observe` — the entry point
/// the serve workers take — while four other threads report theirs to
/// the same controller: no prediction bit changes and no pair is lost.
#[test]
fn adaptation_bookkeeping_does_not_perturb_prediction_bits() {
    use qpp::adapt::{AdaptOptions, AdaptiveController};
    use qpp::core::retrain::SlidingWindowPredictor;
    use qpp::core::workload_mgmt::AdmissionDecision;
    use qpp::core::{FeatureKind, Prediction};
    use qpp::serve::{AnswerSource, ModelKey, ModelRegistry, ServeResponse};
    use std::sync::{Arc, Barrier};

    let config = SystemConfig::neoview_4();
    let train = collect_tpcds(120, 45, &config, 2);
    let test = collect_tpcds(20, 46, &config, 2);
    let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();

    // Leg A: plain predictions, no adaptation anywhere.
    let plain: Vec<_> = test
        .records
        .iter()
        .map(|r| model.predict(&r.spec, &r.optimized.plan).unwrap())
        .collect();

    let answered = |prediction: Prediction| ServeResponse {
        prediction,
        decision: AdmissionDecision::Admit {
            kill_timeout_seconds: 60.0,
        },
        source: AnswerSource::Kcca,
        model_version: 1,
        latency: std::time::Duration::ZERO,
        trace_id: 0,
    };
    // Hammer `k` completes every training record, mispredicted by a
    // factor that differs per thread and record.
    let noise = |k: usize| -> Vec<ServeResponse> {
        let scaled = |(i, r): (usize, &qpp::core::QueryRecord)| {
            let factor = 1.0 + (k + i) as f64 * 0.01;
            let metrics: Vec<f64> = r.metrics.to_vec().iter().map(|v| v * factor).collect();
            answered(Prediction {
                metrics: qpp::engine::PerfMetrics::from_vec(&metrics),
                ..plain[0].clone()
            })
        };
        train.records.iter().enumerate().map(scaled).collect()
    };
    let hammers: Vec<Vec<ServeResponse>> = (0..4).map(noise).collect();

    // Leg B: identical predictions, each reported to the controller,
    // with the four hammers released into the same controller at the
    // same moment.
    let racing = AdaptiveController::new(
        Arc::new(ModelRegistry::new()),
        ModelKey::new("neoview_4", FeatureKind::QueryPlan),
        SlidingWindowPredictor::new(
            train.clone(),
            train.len(),
            usize::MAX,
            PredictorOptions::default(),
        ),
        AdaptOptions::default(),
    );
    let start = Barrier::new(hammers.len() + 1);
    let tracked: Vec<_> = std::thread::scope(|scope| {
        let (racing, start, train) = (&racing, &start, &train);
        for responses in &hammers {
            scope.spawn(move || {
                start.wait();
                for (r, response) in train.records.iter().zip(responses) {
                    racing.observe(r, response);
                }
            });
        }
        start.wait();
        test.records
            .iter()
            .map(|r| {
                let p = model.predict(&r.spec, &r.optimized.plan).unwrap();
                racing.observe(r, &answered(p.clone()));
                p
            })
            .collect()
    });

    assert_eq!(plain.len(), tracked.len());
    for (a, b) in plain.iter().zip(tracked.iter()) {
        for (x, y) in a.metrics.to_vec().iter().zip(b.metrics.to_vec().iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(a.neighbor_indices, b.neighbor_indices);
        assert_eq!(
            a.confidence_distance.to_bits(),
            b.confidence_distance.to_bits()
        );
        assert_eq!(
            a.max_kernel_similarity.to_bits(),
            b.max_kernel_similarity.to_bits()
        );
    }

    // The bookkeeping itself lost nothing.
    let total = (4 * train.records.len() + test.records.len()) as u64;
    assert_eq!(racing.stats().observations.get(), total);
}
