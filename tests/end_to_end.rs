//! Cross-crate integration tests: the full paper pipeline at a
//! meaningful (but CI-friendly) scale.

use qpp::core::baselines::{OptimizerCostModel, RegressionPredictor};
use qpp::core::pipeline::{collect_tpcds, evaluate};
use qpp::core::{
    FeatureKind, KccaPredictor, PredictorOptions, QppError, QueryCategory, TwoStepPredictor,
};
use qpp::engine::SystemConfig;
use qpp::linalg::LinalgError;
use qpp::ml::{fraction_within, predictive_risk};

/// Shared medium-scale pools (built once).
fn pools() -> (qpp::core::Dataset, qpp::core::Dataset) {
    let config = SystemConfig::neoview_4();
    let all = collect_tpcds(8000, 20090401, &config, 4);
    let (train_idx, test_idx) = all.sample_pools(
        &[
            (QueryCategory::Feather, 320),
            (QueryCategory::GolfBall, 90),
            (QueryCategory::BowlingBall, 12),
        ],
        // A test pool this size keeps the within-factor-of-two risk
        // granularity fine enough that the plan-vs-SQL-text comparison
        // below is not decided by one unlucky query.
        &[
            (QueryCategory::Feather, 60),
            (QueryCategory::GolfBall, 12),
            (QueryCategory::BowlingBall, 6),
        ],
        23,
    );
    (all.subset(&train_idx), all.subset(&test_idx))
}

#[test]
fn kcca_beats_every_baseline_on_elapsed_time() {
    let (train, test) = pools();
    let actual = test.elapsed();

    // The paper's model.
    let kcca = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
    let kcca_preds: Vec<f64> = kcca
        .predict_dataset(&test)
        .unwrap()
        .iter()
        .map(|p| p.metrics.elapsed_seconds)
        .collect();
    let kcca_risk = predictive_risk(&kcca_preds, &actual);

    // Baseline 1: SQL-text features (Fig. 8).
    let sql_opts = PredictorOptions {
        feature_kind: FeatureKind::SqlText,
        ..PredictorOptions::default()
    };
    let sql_model = KccaPredictor::train(&train, sql_opts).unwrap();
    let sql_preds: Vec<f64> = sql_model
        .predict_dataset(&test)
        .unwrap()
        .iter()
        .map(|p| p.metrics.elapsed_seconds)
        .collect();
    let sql_risk = predictive_risk(&sql_preds, &actual);

    // Baseline 2: optimizer cost + best fit (Fig. 17).
    let cost = OptimizerCostModel::train(&train).unwrap();
    let cost_risk = predictive_risk(&cost.predict_dataset(&test), &actual);

    // Baseline 3: OLS regression (Figs. 3-4), evaluated out of sample.
    let reg = RegressionPredictor::train(&train, FeatureKind::QueryPlan).unwrap();
    let reg_matrix = reg.predict_dataset(&test).unwrap();
    let reg_preds: Vec<f64> = (0..reg_matrix.rows()).map(|i| reg_matrix[(i, 0)]).collect();
    let reg_risk = predictive_risk(&reg_preds, &actual);

    assert!(
        kcca_risk > sql_risk,
        "KCCA/plan ({kcca_risk:.3}) must beat SQL-text features ({sql_risk:.3})"
    );
    assert!(
        kcca_risk > cost_risk,
        "KCCA ({kcca_risk:.3}) must beat the optimizer cost fit ({cost_risk:.3})"
    );
    assert!(
        kcca_risk > reg_risk,
        "KCCA ({kcca_risk:.3}) must beat OLS regression ({reg_risk:.3})"
    );
    assert!(kcca_risk > 0.3, "KCCA risk {kcca_risk:.3} unexpectedly low");
}

#[test]
fn kcca_predicts_all_six_metrics_simultaneously() {
    let (train, test) = pools();
    let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
    let eval = evaluate(&model.predict_dataset(&test).unwrap(), &test);
    // Every non-constant metric must beat the mean baseline from one
    // model — the paper's "multiple metrics simultaneously" claim.
    let mut positive = 0;
    let mut total = 0;
    for risk in eval.predictive_risk.iter().flatten() {
        total += 1;
        if *risk > 0.0 {
            positive += 1;
        }
    }
    assert!(total >= 5, "expected at least 5 non-constant metrics");
    assert!(
        positive >= total - 1,
        "only {positive}/{total} metrics beat the mean baseline"
    );
    // Records used is the paper's best-predicted metric (0.98).
    let used = eval.predictive_risk[5].unwrap();
    assert!(used > 0.6, "records-used risk {used:.3}");
}

#[test]
fn long_and_short_queries_both_identified() {
    // The paper's workload-management motivation: the model must tell
    // bowling balls from feathers before execution.
    let (train, test) = pools();
    let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
    let mut correct = 0;
    let mut total = 0;
    for r in &test.records {
        let p = model.predict(&r.spec, &r.optimized.plan).unwrap();
        let predicted_long = p.metrics.elapsed_seconds >= QueryCategory::FEATHER_MAX;
        let actually_long = r.category != QueryCategory::Feather;
        total += 1;
        if predicted_long == actually_long {
            correct += 1;
        }
    }
    assert!(
        correct * 10 >= total * 8,
        "only {correct}/{total} long/short classifications correct"
    );
}

/// Prediction-agreement gates at default settings. The predict path has
/// two approximations, and each is held to what it approximates on 600
/// held-out queries against a 5,000-row model: the IVF arm (default
/// `nprobe`, 39 lists) to the exact arm over the same projection, and
/// the folded projection to the staged one it replaced — whose
/// within-20% count on this seed, 441 of 600, was recorded at the last
/// commit that ran it (the fold reorders ~2% of neighbour lists there,
/// all among training rows tied to ~1e-13).
#[test]
fn ivf_arm_and_folded_projection_keep_their_predictions() {
    const STAGED_WITHIN_20PCT: usize = 441;
    let all = collect_tpcds(5600, 424242, &SystemConfig::neoview_4(), 4);
    let rows: Vec<usize> = (0..all.records.len()).collect();
    let (train, held_out) = (all.subset(&rows[..5000]), all.subset(&rows[5000..]));
    let actual = held_out.elapsed();
    let answers = |ivf_threshold: usize| {
        let mut options = PredictorOptions::default();
        options.ann.ivf_threshold = ivf_threshold;
        let model = KccaPredictor::train(&train, options).unwrap();
        assert_eq!(model.index().is_ivf(), ivf_threshold < 5000);
        let predictions = model.predict_dataset(&held_out).unwrap();
        let elapsed: Vec<f64> = predictions
            .iter()
            .map(|p| p.metrics.elapsed_seconds)
            .collect();
        let within = fraction_within(&elapsed, &actual, 0.2) * actual.len() as f64;
        (predictions, within.round() as usize)
    };
    let (ivf, ivf_within) = answers(PredictorOptions::default().ann.ivf_threshold);
    let (exact, exact_within) = answers(usize::MAX);
    let n = actual.len();
    let same_lists = ivf
        .iter()
        .zip(&exact)
        .filter(|(a, b)| a.neighbor_indices == b.neighbor_indices)
        .count();
    assert!(
        same_lists * 100 >= n * 98,
        "IVF and exact arms agree on only {same_lists}/{n} neighbour lists"
    );
    assert!(
        ivf_within.abs_diff(exact_within) * 100 <= n,
        "within 20%: IVF {ivf_within} vs exact {exact_within} of {n}"
    );
    assert!(
        exact_within.abs_diff(STAGED_WITHIN_20PCT) * 100 <= n,
        "within 20%: folded {exact_within} vs staged {STAGED_WITHIN_20PCT} of {n}"
    );
}

/// §VII-C.3: the distance to a query's nearest training neighbours is
/// a confidence signal — queries whose neighbours sit far away in the
/// projection are the ones predicted less accurately. On this split
/// (1,500 training and 300 held-out queries on the 4-CPU system), 49
/// queries are flagged at a median relative elapsed-time error of 45%,
/// against 11% for the 251 kept.
#[test]
fn neighbor_distance_flags_the_less_accurate_predictions() {
    let config = SystemConfig::neoview_4();
    let train = collect_tpcds(1500, 77, &config, 4);
    let test = collect_tpcds(300, 787, &config, 4);
    let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
    let (mut flagged, mut kept) = (Vec::new(), Vec::new());
    for (p, r) in model
        .predict_dataset(&test)
        .unwrap()
        .iter()
        .zip(&test.records)
    {
        let actual = r.metrics.elapsed_seconds;
        let error = (p.metrics.elapsed_seconds - actual).abs() / actual.max(1e-9);
        if p.is_anomalous(0.8, 1e-3) {
            flagged.push(error);
        } else {
            kept.push(error);
        }
    }
    assert!(
        !flagged.is_empty() && !kept.is_empty(),
        "{} flagged, {} kept",
        flagged.len(),
        kept.len()
    );
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (n_flagged, n_kept) = (flagged.len(), kept.len());
    let (m_flagged, m_kept) = (median(flagged), median(kept));
    assert!(
        m_flagged > m_kept,
        "median relative error: {n_flagged} flagged at {m_flagged:.3}, {n_kept} kept at {m_kept:.3}"
    );

    // A plan far outside the training workload: the kernel similarity to
    // every training row underflows, the stronger of the two signals.
    let foreign = vec![500.0; qpp::core::features::PlanFeatures::DIM];
    let p = model.predict_features(&foreign).unwrap();
    assert_eq!(p.max_kernel_similarity, 0.0);
    assert!(p.is_anomalous(0.8, 1e-3));
}

#[test]
fn two_step_handles_every_test_category() {
    let (train, test) = pools();
    let model = TwoStepPredictor::train(&train, PredictorOptions::default()).unwrap();
    for r in &test.records {
        let p = model.predict(&r.spec, &r.optimized.plan).unwrap();
        assert!(p.metrics.is_valid());
    }
    assert_eq!(model.specialist_categories().len(), 3);
}

#[test]
fn predictions_use_compile_time_information_only() {
    // Train on one dataset; predict queries that were never executed:
    // only specs + plans are consulted.
    let config = SystemConfig::neoview_4();
    let train = collect_tpcds(400, 5, &config, 4);
    let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();

    let mut generator = qpp::workload::WorkloadGenerator::tpcds(1.0, 31337);
    let catalog = qpp::engine::Catalog::new(generator.schema().clone());
    for q in generator.generate(20) {
        let optimized = qpp::engine::optimize(&q, &catalog, &config);
        let p = model.predict(&q, &optimized.plan).unwrap();
        assert!(p.metrics.is_valid());
        assert!(p.metrics.elapsed_seconds > 0.0);
    }
}

#[test]
fn an_option_a_fit_cannot_use_is_an_error_naming_it() {
    // Each of these used to train: a kernel fraction that is not
    // positive became the 1e-6 scale floor and answered, `neighbors: 0`
    // failed every later predict, a zero rank cap or component count
    // surfaced as an unrelated numerics error, a negative ridge trained a
    // wrong model, a non-finite one failed as a Cholesky pivot, and a NaN
    // or negative ICD tolerance trained as if it were 0.
    let train = collect_tpcds(120, 5, &SystemConfig::neoview_4(), 4);
    let base = PredictorOptions::default();
    let with_kcca = |f: fn(&mut qpp::ml::KccaOptions)| {
        let mut o = base;
        f(&mut o.kcca);
        o
    };
    let cases = [
        (
            "x_kernel_fraction",
            with_kcca(|k| k.x_kernel_fraction = f64::NAN),
        ),
        (
            "x_kernel_fraction",
            with_kcca(|k| k.x_kernel_fraction = 0.0),
        ),
        (
            "y_kernel_fraction",
            with_kcca(|k| k.y_kernel_fraction = -0.5),
        ),
        ("max_rank", with_kcca(|k| k.max_rank = 0)),
        ("components", with_kcca(|k| k.components = 0)),
        ("regularization", with_kcca(|k| k.regularization = -1e-3)),
        ("regularization", with_kcca(|k| k.regularization = -0.5)),
        ("regularization", with_kcca(|k| k.regularization = f64::NAN)),
        (
            "regularization",
            with_kcca(|k| k.regularization = f64::INFINITY),
        ),
        ("icd_tolerance", with_kcca(|k| k.icd_tolerance = f64::NAN)),
        ("icd_tolerance", with_kcca(|k| k.icd_tolerance = -1.0)),
        (
            "neighbors",
            PredictorOptions {
                neighbors: 0,
                ..base
            },
        ),
    ];
    for (option, options) in cases {
        match KccaPredictor::train(&train, options) {
            Err(QppError::Linalg {
                source: LinalgError::OutOfRange { what, .. },
                ..
            }) => assert!(what.contains(option), "{option}: {what}"),
            other => panic!("{option}: expected its error, got {:?}", other.map(|_| ())),
        }
    }
    assert!(KccaPredictor::train(&train, base).is_ok());
    assert!(KccaPredictor::train(&train, with_kcca(|k| k.icd_tolerance = 0.0)).is_ok());
}
