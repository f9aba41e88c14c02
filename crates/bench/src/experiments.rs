//! One function per paper table/figure; Tables I–III share one sweep.
//!
//! All experiments run against the simulated Neoview testbed with fixed
//! seeds, using the paper's training/test pool sizes:
//!
//! * Experiment 1 (Figs. 10–12): 1027 training queries (767 feathers,
//!   230 golf balls, 30 bowling balls), 61 test queries (45/7/9).
//! * Experiment 2 (Fig. 13): 30 training queries of each category.
//! * Experiment 3 (Fig. 14): two-step prediction, same pools as Exp 1.
//! * Experiment 4 (Fig. 15): customer-schema mini-feathers.
//! * Fig. 16: 4/8/16/32-CPU configurations of the 32-node system,
//!   197 training / 83 test queries rerun per configuration.
//! * Fig. 17: optimizer cost vs. actual elapsed time.
//!
//! Six of the nine test bowling balls are re-executed on a drifted
//! configuration before testing, recreating the paper's mid-study OS
//! upgrade ("the accuracy of our predictions for the six bowling balls
//! we then ran and added was not as good").

use crate::report::{hms, risk_cell, Report};
use qpp_core::baselines::{OptimizerCostModel, RegressionPredictor};
use qpp_core::categories::summarize_pools;
use qpp_core::feature_importance::{join_feature_share, rank_features};
use qpp_core::pipeline::{collect_tpcds, evaluate, Evaluation};
use qpp_core::{
    Dataset, FeatureKind, KccaPredictor, Prediction, PredictorOptions, QueryCategory, QueryRecord,
    TwoStepPredictor,
};
use qpp_engine::{execute, optimize, Catalog, PerfMetrics, SystemConfig};
use qpp_ml::metrics::predictive_risk_dropping_outliers;
use qpp_ml::{fraction_within, predictive_risk, DistanceMetric, NeighborWeighting};
use qpp_workload::customer::{customer_schema, customer_suite};
use qpp_workload::WorkloadGenerator;

/// Master seed for all experiments (fixed for reproducibility).
pub const SEED: u64 = 20090401;

/// Seed of the Experiment 1 train/test pool draw.
const POOL_SEED: u64 = 23;

/// Size of the generated master population the pools are drawn from.
pub const POPULATION: usize = 20000;

/// Shared state across experiments.
pub struct Context {
    /// The 4-node research system.
    pub config: SystemConfig,
    /// Master population executed on the 4-node system.
    pub all: Dataset,
    /// Experiment 1 training pool (767/230/30).
    pub train: Dataset,
    /// Experiment 1 test pool (45/7/9, with 6 post-"upgrade" bowling
    /// balls).
    pub test: Dataset,
    /// The paper-default one-model KCCA, fit once on `train`.
    pub model: KccaPredictor,
    /// Its predictions on `test`.
    pub preds: Vec<Prediction>,
    /// Their evaluation: Experiment 1 and the default row of Tables I–III.
    pub eval: Evaluation,
    /// The paper-default two-step model, fit once on `train`.
    pub two_step: TwoStepPredictor,
}

/// Key numbers an experiment reports (the rows of the binary's headline
/// summary).
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id, e.g. `fig10`.
    pub id: &'static str,
    /// Headline measured value (meaning depends on the experiment).
    pub headline: f64,
    /// Secondary values by name.
    pub values: Vec<(&'static str, f64)>,
}

impl Context {
    /// Collects a `population`-query master population, draws the
    /// Experiment 1 pools (scaled down below [`POPULATION`]; the tests
    /// use a smaller one) and fits the paper-default models the
    /// experiments share.
    pub fn build_sized(population: usize) -> Context {
        let config = SystemConfig::neoview_4();
        let all = collect_tpcds(population, SEED, &config, 4);
        let scale = (population as f64 / POPULATION as f64).min(1.0);
        let n = |x: usize| ((x as f64 * scale).round() as usize).max(1);
        let (train_idx, test_idx) = all.sample_pools(
            &[
                (QueryCategory::Feather, n(767)),
                (QueryCategory::GolfBall, n(230)),
                (QueryCategory::BowlingBall, n(30)),
            ],
            &[
                (QueryCategory::Feather, n(45)),
                (QueryCategory::GolfBall, n(7)),
                (QueryCategory::BowlingBall, n(9)),
            ],
            POOL_SEED,
        );
        let train = all.subset(&train_idx);
        let mut test = all.subset(&test_idx);

        // Recreate the paper's mid-study OS upgrade: six of the test
        // bowling balls were measured after the system drifted.
        let drift_cfg = config.clone().with_drift(1.4);
        let catalog = Catalog::new(all.schema.clone());
        let bowling = |r: &&mut QueryRecord| r.category == QueryCategory::BowlingBall;
        for r in test.records.iter_mut().filter(bowling).take(6) {
            let opt = optimize(&r.spec, &catalog, &drift_cfg);
            let out = execute(&r.spec, &opt, &all.schema, &drift_cfg);
            r.metrics = out.metrics;
            r.optimized = opt;
        }
        let (model, preds, eval) = fit(&train, PredictorOptions::default(), &test);
        let two_step =
            TwoStepPredictor::train(&train, PredictorOptions::default()).expect("trains");
        Context {
            config,
            all,
            train,
            test,
            model,
            preds,
            eval,
            two_step,
        }
    }
}

/// Fits a one-model KCCA on `train` and evaluates it on `test`.
fn fit(
    train: &Dataset,
    opts: PredictorOptions,
    test: &Dataset,
) -> (KccaPredictor, Vec<Prediction>, Evaluation) {
    let model = KccaPredictor::train(train, opts).expect("trains");
    let preds = model.predict_dataset(test).expect("predicts");
    let eval = evaluate(&preds, test);
    (model, preds, eval)
}

/// Predicted elapsed seconds, one per prediction.
fn elapsed(preds: &[Prediction]) -> Vec<f64> {
    preds.iter().map(|p| p.metrics.elapsed_seconds).collect()
}

/// The five predictions furthest from actual, in seconds.
fn scatter_summary(report: &mut Report, predicted: &[f64], actual: &[f64]) {
    let mut pairs: Vec<(f64, f64)> = predicted
        .iter()
        .copied()
        .zip(actual.iter().copied())
        .collect();
    pairs.sort_by(|x, y| ratio(y.0, y.1).total_cmp(&ratio(x.0, x.1)));
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .take(5)
        .map(|(p, a)| {
            vec![
                format!("{p:.2} s"),
                format!("{a:.2} s"),
                format!("{:.1}x", ratio(*p, *a)),
            ]
        })
        .collect();
    report.para("Widest misses (the plotted outliers):");
    report.table(&["predicted", "actual", "off by"], &rows);
}

fn ratio(p: f64, a: f64) -> f64 {
    let p = p.abs().max(1e-9);
    let a = a.abs().max(1e-9);
    (p / a).max(a / p)
}

/// Fig. 2 — query pools by category with elapsed-time statistics.
pub fn fig2(ctx: &Context, report: &mut Report) -> ExperimentResult {
    report.heading(
        2,
        "Fig. 2 — query pools (feather / golf ball / bowling ball)",
    );
    report.para(&format!(
        "Pools drawn from {} generated TPC-DS-style queries executed in \
         single-query mode on the 4-processor system. Paper: feathers \
         < 3 min, golf balls 3–30 min, bowling balls 30 min – 2 h; \
         wrecking balls beyond 2 h are excluded.",
        ctx.all.len()
    ));
    let pools = summarize_pools(&ctx.all.elapsed());
    let rows: Vec<Vec<String>> = pools
        .iter()
        .map(|p| {
            vec![
                p.category.name().to_string(),
                p.instances.to_string(),
                hms(p.mean_elapsed),
                hms(p.min_elapsed),
                hms(p.max_elapsed),
            ]
        })
        .collect();
    report.table(
        &[
            "query type",
            "number of instances",
            "mean",
            "minimum",
            "maximum",
        ],
        &rows,
    );
    ExperimentResult {
        id: "fig2",
        headline: pools[0].instances as f64,
        values: vec![
            ("golf_instances", pools[1].instances as f64),
            ("bowling_instances", pools[2].instances as f64),
        ],
    }
}

/// Figs. 3 & 4 — the linear-regression baseline on the training set.
pub fn fig3_fig4(ctx: &Context, report: &mut Report) -> ExperimentResult {
    let model =
        RegressionPredictor::train(&ctx.train, FeatureKind::QueryPlan).expect("regression trains");
    let preds = model.predict_dataset(&ctx.train).expect("predicts");
    let actual = ctx.train.performance_matrix();

    let (elapsed_pred, elapsed_act) = (preds.col(0), actual.col(0));
    let (used_pred, used_act) = (preds.col(5), actual.col(5));
    let elapsed_risk = predictive_risk(&elapsed_pred, &elapsed_act);

    let neg_elapsed = elapsed_pred.iter().filter(|v| **v < 0.0).count();
    let neg_used = used_pred.iter().filter(|v| **v < 0.0).count();

    report.heading(2, "Figs. 3 & 4 — linear regression baseline (training set)");
    report.para(&format!(
        "Per-metric OLS over the raw plan features, evaluated on the {} \
         training queries, as in the paper's Figs. 3–4. Paper: \
         predictions orders of magnitude off; 76 negative elapsed-time \
         predictions (e.g. −82 s); 105 negative records-used predictions \
         reaching −1.8 M records.",
        ctx.train.len()
    ));
    report.table(
        &[
            "metric",
            "in-sample predictive risk",
            "negative predictions",
            "most negative",
        ],
        &[
            vec![
                "elapsed time".into(),
                format!("{elapsed_risk:.3}"),
                neg_elapsed.to_string(),
                format!("{:.1} s", span(&elapsed_pred).0),
            ],
            vec![
                "records used".into(),
                format!("{:.3}", predictive_risk(&used_pred, &used_act)),
                neg_used.to_string(),
                format!("{:.2e} records", span(&used_pred).0),
            ],
        ],
    );
    scatter_summary(report, &elapsed_pred, &elapsed_act);
    ExperimentResult {
        id: "fig3",
        headline: neg_elapsed as f64,
        values: vec![
            ("neg_records_used", neg_used as f64),
            ("elapsed_risk", elapsed_risk),
        ],
    }
}

/// Fig. 8 — KCCA over SQL-text features.
pub fn fig8(ctx: &Context, report: &mut Report) -> ExperimentResult {
    let opts = PredictorOptions {
        feature_kind: FeatureKind::SqlText,
        ..PredictorOptions::default()
    };
    let (_, preds, eval) = fit(&ctx.train, opts, &ctx.test);
    let risk = eval.predictive_risk[0].unwrap_or(f64::NAN);
    report.heading(2, "Fig. 8 — KCCA with SQL-text features");
    report.para(&format!(
        "Nine SQL-statement statistics as the query feature vector. \
         Paper: predictive risk −0.10 for elapsed time — 'two textually \
         similar queries may have dramatically different performance'. \
         Measured elapsed-time risk: **{risk:.3}** (within 20%: {:.0}%).",
        eval.elapsed_within_20pct * 100.0
    ));
    scatter_summary(report, &elapsed(&preds), &ctx.test.elapsed());
    ExperimentResult {
        id: "fig8",
        headline: risk,
        values: vec![("within20", eval.elapsed_within_20pct)],
    }
}

fn risks_row(label: &str, eval: &Evaluation) -> Vec<String> {
    let mut row = vec![label.to_string()];
    row.extend(eval.predictive_risk.iter().map(|r| risk_cell(*r)));
    row
}

fn metric_headers() -> Vec<&'static str> {
    let mut h = vec!["variant"];
    h.extend(PerfMetrics::NAMES);
    h
}

/// The lowest and highest of `values`.
fn span(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

/// The highest minus the lowest of `values`.
fn spread(values: &[f64]) -> f64 {
    let (lo, hi) = span(values);
    hi - lo
}

/// Tables I–III — distance metric, number of neighbors and neighbor
/// weighting, one option varied at a time. The default row of each
/// table is the shared fit in `ctx`; the seven other variants are
/// fitted in one parallel sweep.
pub fn tables(ctx: &Context, report: &mut Report) -> Vec<ExperimentResult> {
    use DistanceMetric::Cosine;
    use NeighborWeighting::{InverseDistance, RankRatio};
    let d = PredictorOptions::default();
    let metric = |metric| Some(PredictorOptions { metric, ..d });
    let k = |neighbors| Some(PredictorOptions { neighbors, ..d });
    let w = |weighting| Some(PredictorOptions { weighting, ..d });
    // (table, row label, value name, options); `None` is the default fit.
    let rows = [
        (0, "Euclidean distance", "euclid", None),
        (0, "cosine distance", "cosine", metric(Cosine)),
        (1, "3NN", "k3", None),
        (1, "4NN", "k4", k(4)),
        (1, "5NN", "k5", k(5)),
        (1, "6NN", "k6", k(6)),
        (1, "7NN", "k7", k(7)),
        (2, "equal", "equal", None),
        (2, "3:2:1 ratio", "rank_ratio", w(RankRatio)),
        (2, "distance ratio", "inverse_distance", w(InverseDistance)),
    ];
    let fitted = qpp_par::parallel_map(&rows, 1, |row| {
        row.3.map(|opts| fit(&ctx.train, opts, &ctx.test).2)
    });
    // (id, heading, prose, headline from the rows' elapsed-time risks)
    type Headline = fn(&[f64]) -> f64;
    let tables: [(_, _, _, Headline); 3] = [
        (
            "table1",
            "Table I — distance metric for nearest neighbors",
            "Predictive risk per metric. Paper: Euclidean distance beats \
             cosine distance on every metric.",
            |risks| risks[0] - risks[1],
        ),
        (
            "table2",
            "Table II — number of neighbors",
            "Paper: negligible difference between k = 3..7; k = 3 chosen. \
             Disk I/O risk is Null/poor because most queries do zero disk \
             I/O on this configuration.",
            spread,
        ),
        (
            "table3",
            "Table III — neighbor weighting",
            "Paper: no weighting scheme wins consistently across metrics; \
             equal weighting chosen for simplicity.",
            spread,
        ),
    ];
    let mut results = Vec::new();
    for (table, (id, heading, prose, headline)) in tables.into_iter().enumerate() {
        let (mut lines, mut values) = (Vec::new(), Vec::new());
        for (row, eval) in rows.iter().zip(&fitted).filter(|(row, _)| row.0 == table) {
            let eval = eval.as_ref().unwrap_or(&ctx.eval);
            values.push((row.2, eval.predictive_risk[0].unwrap_or(f64::NAN)));
            lines.push(risks_row(row.1, eval));
        }
        report.heading(2, heading);
        report.para(prose);
        report.table(&metric_headers(), &lines);
        let risks: Vec<f64> = values.iter().map(|v| v.1).collect();
        results.push(ExperimentResult {
            id,
            headline: headline(&risks),
            values,
        });
    }
    results
}

/// Experiment 1 (Figs. 10–12) — the headline one-model KCCA result.
pub fn experiment1(ctx: &Context, report: &mut Report) -> ExperimentResult {
    let eval = &ctx.eval;
    let pred_elapsed = elapsed(&ctx.preds);
    let actual_elapsed = ctx.test.elapsed();
    let risk = eval.predictive_risk[0].unwrap_or(f64::NAN);
    let risk_minus_outlier = predictive_risk_dropping_outliers(&pred_elapsed, &actual_elapsed, 1);

    report.heading(2, "Experiment 1 (Figs. 10–12) — one-model KCCA");
    report.para(&format!(
        "Training: {} queries (767 feathers / 230 golf balls / 30 bowling \
         balls at full scale); test: {} queries (45/7/9), six of the test \
         bowling balls executed after a simulated system upgrade. Paper: \
         elapsed-time risk 0.55 (0.61 after dropping the worst outlier); \
         records-used risk 0.98; message-count risk 0.35; elapsed time \
         within 20% of actual for at least 85% of test queries.",
        ctx.train.len(),
        ctx.test.len()
    ));
    report.table(&metric_headers(), &[risks_row("one-model KCCA", eval)]);
    report.para(&format!(
        "Elapsed-time risk dropping the worst outlier: **{risk_minus_outlier:.3}**. \
         Elapsed within 20% of actual: **{:.0}%**; within 2x: **{:.0}%**.",
        eval.elapsed_within_20pct * 100.0,
        eval.elapsed_within_2x * 100.0
    ));
    scatter_summary(report, &pred_elapsed, &actual_elapsed);
    ExperimentResult {
        id: "fig10",
        headline: risk,
        values: vec![
            ("risk_no_outlier", risk_minus_outlier),
            ("within20", eval.elapsed_within_20pct),
            ("within2x", eval.elapsed_within_2x),
            (
                "records_used_risk",
                eval.predictive_risk[5].unwrap_or(f64::NAN),
            ),
            (
                "message_count_risk",
                eval.predictive_risk[2].unwrap_or(f64::NAN),
            ),
        ],
    }
}

/// Experiment 2 (Fig. 13) — training with only 30 queries per category.
pub fn experiment2(ctx: &Context, report: &mut Report) -> ExperimentResult {
    let scale = (ctx.all.len() as f64 / POPULATION as f64).min(1.0);
    let n = ((30.0 * scale).round() as usize).max(1);
    let (train_idx, _) = ctx.all.sample_pools(
        &[
            (QueryCategory::Feather, n),
            (QueryCategory::GolfBall, n),
            (QueryCategory::BowlingBall, n),
        ],
        &[],
        99,
    );
    let small_train = ctx.all.subset(&train_idx);
    let mut opts = PredictorOptions::default();
    opts.kcca.max_rank = opts.kcca.max_rank.min(small_train.len());
    let (_, preds, eval) = fit(&small_train, opts, &ctx.test);
    let risk = eval.predictive_risk[0].unwrap_or(f64::NAN);
    report.heading(2, "Experiment 2 (Fig. 13) — balanced 30/30/30 training set");
    report.para(&format!(
        "Training shrunk to {} queries ({} per category). Paper: \
         noticeably less accurate than Experiment 1 — 'more data in the \
         training set is always better'. Measured elapsed-time risk: \
         **{risk:.3}** (within 20%: {:.0}%).",
        small_train.len(),
        n,
        eval.elapsed_within_20pct * 100.0
    ));
    scatter_summary(report, &elapsed(&preds), &ctx.test.elapsed());
    ExperimentResult {
        id: "fig13",
        headline: risk,
        values: vec![("within20", eval.elapsed_within_20pct)],
    }
}

/// Experiment 3 (Fig. 14) — two-step prediction.
pub fn experiment3(ctx: &Context, report: &mut Report) -> ExperimentResult {
    let preds = ctx.two_step.predict_dataset(&ctx.test).expect("predicts");
    let eval = evaluate(&preds, &ctx.test);
    let risk = eval.predictive_risk[0].unwrap_or(f64::NAN);
    report.heading(2, "Experiment 3 (Fig. 14) — two-step prediction");
    report.para(&format!(
        "Step 1 classifies the query as feather / golf ball / bowling \
         ball by neighbor vote; step 2 predicts with a category-specific \
         model. Paper: risk 0.82, fewer outliers than Experiment 1 \
         (0.55); occasional losses when a query sits near a category \
         boundary. Measured elapsed-time risk: **{risk:.3}** (within \
         20%: {:.0}%).",
        eval.elapsed_within_20pct * 100.0
    ));
    scatter_summary(report, &elapsed(&preds), &ctx.test.elapsed());
    ExperimentResult {
        id: "fig14",
        headline: risk,
        values: vec![("within20", eval.elapsed_within_20pct)],
    }
}

/// Experiment 4 (Fig. 15) — transfer to a different schema.
pub fn experiment4(ctx: &Context, report: &mut Report) -> ExperimentResult {
    // 45 short-running customer queries on the same 4-node system.
    let mut gen = WorkloadGenerator::new(customer_schema(1.0), customer_suite(), SEED + 4);
    let queries = gen.generate(45);
    let customer = Dataset::collect(&customer_schema(1.0), queries, &ctx.config, 4);

    let p1 = ctx.model.predict_dataset(&customer).expect("predicts");
    let p2 = ctx.two_step.predict_dataset(&customer).expect("predicts");
    let actual = customer.elapsed();

    let summarize = |preds: &[qpp_core::Prediction]| -> (f64, f64, usize) {
        let mut log_ratio_sum = 0.0;
        let mut worst: f64 = 0.0;
        let mut over10 = 0;
        for (p, a) in preds.iter().zip(actual.iter()) {
            let r = (p.metrics.elapsed_seconds.max(1e-9) / a.max(1e-9)).max(1e-12);
            log_ratio_sum += r.ln();
            worst = worst.max(r);
            if r > 10.0 {
                over10 += 1;
            }
        }
        ((log_ratio_sum / preds.len() as f64).exp(), worst, over10)
    };
    let (geo1, worst1, over10_1) = summarize(&p1);
    let (geo2, worst2, over10_2) = summarize(&p2);

    report.heading(
        2,
        "Experiment 4 (Fig. 15) — different schema (customer queries)",
    );
    report.para(&format!(
        "Model trained on TPC-DS, tested on {} very short customer \
         queries against a different schema. Paper: one-model KCCA \
         over-predicts by one to three orders of magnitude; two-step is \
         'relatively more accurate'; relative errors look huge because \
         the queries are mini-feathers.",
        customer.len()
    ));
    report.table(
        &[
            "model",
            "geometric mean over-prediction",
            "worst over-prediction",
            "queries over-predicted >10x",
        ],
        &[
            vec![
                "one-model KCCA".into(),
                format!("{geo1:.1}x"),
                format!("{worst1:.0}x"),
                format!("{over10_1}/{}", customer.len()),
            ],
            vec![
                "two-step KCCA".into(),
                format!("{geo2:.1}x"),
                format!("{worst2:.0}x"),
                format!("{over10_2}/{}", customer.len()),
            ],
        ],
    );
    ExperimentResult {
        id: "fig15",
        headline: geo1,
        values: vec![
            ("two_step_geo", geo2),
            ("one_model_worst", worst1),
            ("one_model_over10", over10_1 as f64),
        ],
    }
}

/// Fig. 16 — configurations of the 32-node system.
pub fn fig16(report: &mut Report) -> ExperimentResult {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut disk_null = 0;
    let (mut elapsed_risks, mut within20) = (Vec::new(), Vec::new());
    // 280 queries rerun (same specs) on each configuration. The paper
    // reran the *standard* TPC-DS templates here — not the hand-written
    // problem templates — and found every query short-running on the
    // 32-node system.
    let mut gen = WorkloadGenerator::tpcds(1.0, SEED + 16);
    let mut queries = gen.generate_class(qpp_workload::TemplateClass::Reporting, 180);
    queries.extend(gen.generate_class(qpp_workload::TemplateClass::AdHoc, 70));
    queries.extend(gen.generate_class(qpp_workload::TemplateClass::CrossFact, 30));
    // Shuffle (deterministically) so the 197/83 split sees every class
    // on both sides.
    {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(SEED + 17);
        queries.shuffle(&mut rng);
    }
    let schema = gen.schema().clone();
    // The four CPU configurations are independent end-to-end runs
    // (collect + train + evaluate); fan them out and assemble the
    // table serially in configuration order.
    let cpu_configs = [4u32, 8, 16, 32];
    let rows_280: Vec<usize> = (0..280).collect();
    let per_config = qpp_par::parallel_map(&cpu_configs, 1, |&cpus| {
        let ds = Dataset::collect(&schema, queries.clone(), &SystemConfig::neoview_32(cpus), 4);
        let (train, test) = (ds.subset(&rows_280[..197]), ds.subset(&rows_280[197..]));
        fit(&train, PredictorOptions::default(), &test).2
    });
    for (cpus, eval) in cpu_configs.iter().zip(&per_config) {
        if eval.predictive_risk[1].is_none() {
            disk_null += 1;
        }
        elapsed_risks.push(eval.predictive_risk[0].unwrap_or(f64::NAN));
        let mut row = risks_row(&format!("{cpus} CPUs"), eval);
        let within = 100.0 * eval.elapsed_within_20pct;
        row.push(format!("{within:.0}%"));
        within20.push(within);
        rows.push(row);
    }
    let ((lo, hi), (lo20, hi20)) = (span(&elapsed_risks), span(&within20));
    report.heading(2, "Fig. 16 — 32-node system, 4/8/16/32-CPU configurations");
    report.para(&format!(
        "197 training / 83 test TPC-DS queries rerun per configuration \
         (data stays partitioned across all 32 disks). Paper: prediction \
         is effective on every configuration, and disk I/O risk is Null \
         on 8/16/32 CPUs because the added memory caches all tables — \
         only the 4-CPU configuration pays disk I/O. Measured against \
         that claim: elapsed-time risk **{lo:.3}–{hi:.3}** and \
         **{lo20:.0}–{hi20:.0}%** of test queries within 20% of actual \
         across the four configurations, so it holds; disk I/O is Null \
         on {disk_null} of 4. Risks are untrimmed: each test set's \
         variance sits in its one long query, so dropping the worst \
         residual would score the model on the short queries alone.",
    ));
    let mut headers = metric_headers();
    headers.push("elapsed within 20%");
    report.table(&headers, &rows);
    ExperimentResult {
        id: "fig16",
        headline: lo,
        values: vec![
            ("disk_null_configs", disk_null as f64),
            ("risk_4cpu", elapsed_risks[0]),
            ("risk_32cpu", elapsed_risks[3]),
        ],
    }
}

/// Fig. 17 — optimizer cost estimates vs. actual elapsed time.
pub fn fig17(ctx: &Context, report: &mut Report) -> ExperimentResult {
    let model = OptimizerCostModel::train(&ctx.train).expect("trains");
    let preds = model.predict_dataset(&ctx.test);
    let actual = ctx.test.elapsed();
    let risk = predictive_risk(&preds, &actual);
    let over10 = preds
        .iter()
        .zip(actual.iter())
        .filter(|(p, a)| ratio(**p, **a) > 10.0)
        .count();
    let within20 = fraction_within(&preds, &actual, 0.2);
    report.heading(2, "Fig. 17 — optimizer cost vs. actual elapsed time");
    report.para(&format!(
        "Optimizer cost units mapped to time through a log-log line of \
         best fit on the training set (cost units are not time units, \
         so no 'perfect prediction' line exists). Paper: estimates do \
         not correspond to actual resource usage for many queries — \
         several points 10x–100x from the best fit — and the KCCA model \
         (Fig. 14) is clearly more accurate. Measured: best-fit \
         ln t = {:.2} + {:.2} ln cost; elapsed-time risk **{risk:.3}**; \
         {over10}/{} queries 10x+ from the fit; within 20%: {:.0}%.",
        model.intercept,
        model.slope,
        ctx.test.len(),
        within20 * 100.0,
    ));
    scatter_summary(report, &preds, &actual);
    ExperimentResult {
        id: "fig17",
        headline: risk,
        values: vec![("over10", over10 as f64), ("within20", within20)],
    }
}

/// Extension — feature-importance analysis (paper §VII-C.2).
pub fn feature_importance(ctx: &Context, report: &mut Report) -> ExperimentResult {
    let ranking = rank_features(&ctx.model, &ctx.train, &ctx.test).expect("ranking");
    let share = join_feature_share(&ranking);
    report.heading(
        2,
        "Extension — which plan features does the model key on? (§VII-C.2)",
    );
    report.para(&format!(
        "Per-feature agreement between test queries and their nearest \
         neighbors, relative to random training pairs (1.0 = neighbors \
         always agree exactly; 0 = no role). The paper's cursory finding \
         was that join-operator counts and cardinalities contribute the \
         most; here join-family features carry **{:.0}%** of the total \
         positive importance.",
        share * 100.0
    ));
    let rows: Vec<Vec<String>> = ranking
        .iter()
        .take(10)
        .map(|f| {
            vec![
                f.feature.clone(),
                format!("{:.3}", f.importance),
                format!("{:.3}", f.neighbor_disagreement),
                format!("{:.3}", f.baseline_disagreement),
            ]
        })
        .collect();
    report.table(
        &[
            "feature",
            "importance",
            "neighbor disagreement",
            "chance disagreement",
        ],
        &rows,
    );
    ExperimentResult {
        id: "feature_importance",
        headline: share,
        values: vec![("top_importance", ranking[0].importance)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One shared small context keeps the test suite fast; the full-size
    // experiments run through the binary, whose output ci.sh diffs
    // against EXPERIMENTS.md.
    fn small_ctx() -> Context {
        Context::build_sized(3000)
    }

    fn value(result: &ExperimentResult, key: &str) -> f64 {
        let found = result.values.iter().find(|(k, _)| *k == key);
        found.map(|(_, v)| *v).unwrap()
    }

    #[test]
    fn context_pools_have_requested_mix() {
        let ctx = small_ctx();
        assert!(ctx.train.len() > 100);
        assert!(!ctx.test.is_empty());
        assert!(ctx
            .test
            .records
            .iter()
            .any(|r| r.category == QueryCategory::BowlingBall));
    }

    #[test]
    fn the_shared_fit_is_the_paper_default() {
        // Fails if Context fits other options than the paper default, or
        // if a table's default row is not that fit.
        let ctx = small_ctx();
        let fresh = KccaPredictor::train(&ctx.train, PredictorOptions::default()).unwrap();
        let eval = evaluate(&fresh.predict_dataset(&ctx.test).unwrap(), &ctx.test);
        let bits = |e: &Evaluation| {
            let risks: Vec<_> = e
                .predictive_risk
                .iter()
                .map(|r| r.map(f64::to_bits))
                .collect();
            let within = [e.elapsed_within_20pct, e.elapsed_within_2x].map(f64::to_bits);
            (risks, within)
        };
        assert_eq!(bits(&ctx.eval), bits(&eval));

        let mut report = Report::new();
        let headline = experiment1(&ctx, &mut report).headline;
        for table in tables(&ctx, &mut report) {
            let default_row = table.values[0].1;
            assert_eq!(default_row.to_bits(), headline.to_bits(), "{}", table.id);
        }
    }

    #[test]
    fn experiment1_produces_sane_report() {
        // The pools at this reduced population are tiny, so risk
        // *orderings* are asserted at full scale by the root
        // integration tests; here we check the machinery and that the
        // one-model KCCA is at least in a usable band.
        let ctx = small_ctx();
        let mut report = Report::new();
        let e1 = experiment1(&ctx, &mut report);
        assert!(e1.headline.is_finite());
        let within2x = value(&e1, "within2x");
        assert!(within2x > 0.5, "within 2x only {within2x}");
        let md = report.finish();
        assert!(md.contains("Experiment 1"));
        assert!(md.contains("Widest misses"));
    }

    #[test]
    fn regression_baseline_goes_negative() {
        let ctx = small_ctx();
        let mut report = Report::new();
        let r = fig3_fig4(&ctx, &mut report);
        assert!(
            r.headline + r.values[0].1 > 0.0,
            "expected negative OLS predictions somewhere"
        );
    }

    #[test]
    fn experiment4_runs_on_foreign_schema() {
        let ctx = small_ctx();
        let mut report = Report::new();
        let r = experiment4(&ctx, &mut report);
        // At this reduced scale only the machinery is asserted (the
        // over-prediction magnitude is checked at full scale through
        // the harness); the worst-case ratio must still show the
        // foreign-schema mismatch.
        assert!(r.headline.is_finite() && r.headline > 0.0);
        let worst = value(&r, "one_model_worst");
        assert!(worst > 2.0, "worst over-prediction only {worst}");
        assert!(report.finish().contains("customer"));
    }
}
