//! Regenerates every table and figure of the paper's evaluation as a
//! markdown report on stdout. It takes no arguments:
//!
//! ```text
//! cargo run --release -p qpp-bench --bin experiments > EXPERIMENTS.md
//! ```
//!
//! `ci.sh` fails when the output differs from the committed
//! `EXPERIMENTS.md` in anything but the harness-time line.

use qpp_bench::experiments::{self, Context, POPULATION};
use qpp_bench::report::Report;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    eprintln!("collecting {POPULATION}-query master population and fitting the shared models …");
    let ctx = Context::build_sized(POPULATION);
    eprintln!("done in {:?}", t0.elapsed());

    let mut report = Report::new();
    report.heading(1, "EXPERIMENTS — paper vs. measured");
    report.para(&format!(
        "Generated by `cargo run --release -p qpp-bench --bin experiments` \
         (seed {}, population {}, training pool {} / test pool {}). Every \
         table and figure of *Predicting Multiple Metrics for Queries* \
         (ICDE 2009) is regenerated below against the simulated Neoview \
         testbed; each section quotes the paper's reported result next to \
         the measured one. Absolute numbers differ (different hardware \
         era, simulated substrate) — the claims under test are the \
         *shapes*: which technique wins, by roughly what factor, and \
         where the failure modes appear.",
        experiments::SEED,
        POPULATION,
        ctx.train.len(),
        ctx.test.len(),
    ));

    let mut results = vec![
        experiments::fig2(&ctx, &mut report),
        experiments::fig3_fig4(&ctx, &mut report),
        experiments::fig8(&ctx, &mut report),
    ];
    results.extend(experiments::tables(&ctx, &mut report));
    results.extend([
        experiments::experiment1(&ctx, &mut report),
        experiments::experiment2(&ctx, &mut report),
        experiments::experiment3(&ctx, &mut report),
        experiments::experiment4(&ctx, &mut report),
        experiments::fig16(&mut report),
        experiments::fig17(&ctx, &mut report),
        experiments::feature_importance(&ctx, &mut report),
    ]);

    report.heading(2, "Headline summary");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                format!("{:.3}", r.headline),
                r.values
                    .iter()
                    .map(|(k, v)| format!("{k}={v:.3}"))
                    .collect::<Vec<_>>()
                    .join(", "),
            ]
        })
        .collect();
    report.table(&["experiment", "headline", "details"], &rows);
    report.para(&format!(
        "Total harness time: {:.1?} (single process, {} simulated query \
         executions for the master population alone).",
        t0.elapsed(),
        POPULATION
    ));

    // The within-20% note's diagnostic of the shared fit: test queries
    // with a neighbor whose runtime is within 20% of theirs.
    let (train_elapsed, mut near) = (ctx.train.elapsed(), 0);
    for (p, r) in ctx.preds.iter().zip(&ctx.test.records) {
        let actual = r.metrics.elapsed_seconds;
        let close = |&j: &usize| (train_elapsed[j] - actual).abs() <= 0.2 * actual;
        near += usize::from(p.neighbor_indices.iter().any(close));
    }

    report.heading(2, "Fidelity notes");
    report.para(
        "**What reproduces.** These orderings the paper argues from \
         hold here: query-plan features beat SQL-text features by a wide \
         margin; KCCA beats OLS regression (which predicts impossible \
         negative values) and the optimizer's cost estimate (which, \
         after a best fit, still leaves order-of-magnitude residuals); \
         shrinking the training set to 30 queries per category visibly \
         hurts; prediction stays effective on every configuration of \
         the 32-node system (Fig. 16: elapsed-time risk 0.53–0.94, \
         65–83% within 20%), and disk I/O risk is Null exactly on its \
         memory-rich ones; and neighbor distance flags the less \
         accurately predicted queries (§VII-C.3): trained on 1,500 \
         queries on the 4-processor system, the 49 of 300 held-out \
         queries flagged anomalous (mean neighbor distance above 0.8 \
         in the projection, or kernel similarity below 1e-3) have a \
         median relative elapsed-time error of 45%, against 11% for \
         the other 251 (`neighbor_distance_flags_the_less_accurate_predictions` \
         in tests/end_to_end.rs).",
    );
    report.para(
        "**What does not reproduce.** The two-step model does not beat \
         the one-model on the same pools (elapsed-time risk 0.689 in \
         Fig. 14, 0.722 in Fig. 10). Records used is not the \
         best-predicted metric (0.962; message count and bytes 0.964; \
         paper: 0.98 and 0.35). The §VII-C.2 join-feature lead depends \
         on the split: the join family (8 of 24 plan features, 33% by \
         chance) carries 42% of the importance here, and 42%, 36% and \
         30% with train/probe seeds 77/787, 11/12 and 5/6 (1,500/300, \
         1,000/200 and 1,200/250 queries); on the last split its mean \
         importance (0.506) is below the other features' (0.592).",
    );
    report.para(&format!(
        "**The within-20% gap.** The paper reports elapsed time within \
         20% of actual for ≥85% of test queries; this reproduction \
         measures {:.0}% on the committed pool draw (Fig. 10); its spread \
         over pool draws is ROADMAP item 2's measurement. The statistic is \
         bounded by training-pool density: a test query lands within 20% \
         essentially when the pool contains a near-duplicate (same \
         template shape and constants), and our generator intentionally \
         spans a wider structural/constant space (32 templates × 4 \
         variants × wide constant grids at a fixed 1027-query budget) \
         than a 2009 TPC-DS-derived workload. On this draw only {:.0}% of \
         test queries have even one of their {} neighbors within 20% of \
         their runtime. Within-2x coverage is {:.0}%, and the \
         long-vs-short separation that workload management actually \
         needs is held to at least 80% on the integration tests' pools \
         (`long_and_short_queries_both_identified` in tests/end_to_end.rs).",
        ctx.eval.elapsed_within_20pct * 100.0,
        100.0 * near as f64 / ctx.test.len() as f64,
        ctx.model.options().neighbors,
        ctx.eval.elapsed_within_2x * 100.0,
    ));
    report.para(
        "**Substitutions.** Hardware, data, and optimizer are simulated \
         per DESIGN.md; absolute numbers (seconds, byte counts) are \
         therefore not comparable to the paper's, only the relationships \
         between techniques are. Randomness is fixed-seeded; regenerate \
         this file with `cargo run --release -p qpp-bench --bin \
         experiments > EXPERIMENTS.md`.",
    );

    print!("{}", report.finish());
}
