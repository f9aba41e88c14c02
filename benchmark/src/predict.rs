//! `predict_large`: one thread calling `KccaPredictor::predict` on a
//! 20 000-row model, closed loop.
//!
//! The serving layer is bypassed entirely, so the model layers (features ->
//! standardize -> KCCA projection -> neighbour index) do all the work, at a
//! size where the IVF index and not the brute scan answers. The workload
//! also carries the two quality metrics, so an approximation that buys
//! latency with recall or accuracy shows.

use crate::checks::{elapsed_within_20pct, same_prediction};
use crate::inputs::{live_set, training_set, RequestOrder};
use crate::procfs::cpu_seconds;
use crate::report::Report;
use crate::staged::StagedPredict;
use crate::stat::RoundSeries;
use crate::trace::{OpSpan, Tracer};
use crate::{repeated_setup, Args, Clock, ROUND_NS};
use qpp_core::{Dataset, KccaPredictor, PredictorOptions};
use qpp_ml::AnnIndex;

const MODEL_ROWS: usize = 20_000;
const ACCURACY_FLOOR: f64 = 0.75;
pub const RECALL_FLOOR: f64 = 0.95;
/// The brute-force oracle costs ten predictions and empties the caches, so
/// it runs on a sample.
const BRUTE_EVERY: u64 = 64;
/// Traced operations per round whose spans go to the trace file.
const KEPT_PER_ROUND: usize = 20;

struct State {
    train: Dataset,
    model: KccaPredictor,
    live: Dataset,
}

fn setup(seed: u64) -> State {
    let train = training_set(MODEL_ROWS, seed);
    let model = KccaPredictor::train(&train, PredictorOptions::default()).expect("model trains");
    let live = live_set(seed);
    // Warm the thread's scratch buffers and the caches.
    for r in &live.records {
        model
            .predict(&r.spec, &r.optimized.plan)
            .expect("live queries predict");
    }
    State { train, model, live }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("predict_large");
    let (state, setup_s) = repeated_setup(|| setup(args.seed));
    let State { train, model, live } = &state;
    report.value("setup_s", setup_s);

    let mut order = RequestOrder::new(args.seed, live.len());
    let mut staged = args.trace.then(|| StagedPredict::new(model, train));
    let mut tracer = Tracer::new();
    let mut spans: Vec<OpSpan> = Vec::with_capacity(8);
    let (mut untraced, mut traced_rounds) = (RoundSeries::default(), RoundSeries::default());
    let mut staged_disagreed = 0u64;
    let events_before = qpp_obs::recorder().events_recorded();

    let clock = Clock::start();
    let mut op_ns: Vec<f64> = Vec::with_capacity(1 << 12);
    for round in 0..args.rounds() {
        let end_ns = (round as u64 + 1) * ROUND_NS;
        let traced = args.round_is_traced(round);
        let cpu_before = cpu_seconds();
        let mut now = clock.now_ns();
        while now < end_ns {
            let r = &live.records[order.next().expect("the order is endless")];
            let (spec, plan) = (&r.spec, &r.optimized.plan);
            let answer = model.predict(spec, plan);
            let answered_ns = clock.now_ns();
            report.attempted += 1;
            let Some(answer) = answer.as_ref().ok().filter(|a| a.metrics.is_valid()) else {
                report.failed += 1;
                now = answered_ns;
                continue;
            };
            if let Some(staged) = staged.as_mut().filter(|_| traced) {
                let op_id = report.attempted;
                spans.clear();
                spans.extend([
                    OpSpan {
                        name: "client.op",
                        start_ns: now,
                        end_ns: 0,
                        parent: None,
                    },
                    OpSpan {
                        name: "core.predict",
                        start_ns: now,
                        end_ns: answered_ns,
                        parent: Some(0),
                    },
                    OpSpan {
                        name: "core.predict.staged",
                        start_ns: answered_ns,
                        end_ns: 0,
                        parent: Some(0),
                    },
                ]);
                let similarity = staged.run(spec, plan, &clock, &mut spans, 2);
                spans[2].end_ns = spans.last().expect("stages were appended").end_ns;
                if op_id.is_multiple_of(BRUTE_EVERY) {
                    staged.brute_query(&clock, &mut spans, 0);
                }
                if !staged.agrees_with(answer, similarity) {
                    staged_disagreed += 1;
                }
                let done_ns = clock.now_ns();
                spans[0].end_ns = done_ns;
                tracer.record_op(op_id, &spans, op_ns.len() < KEPT_PER_ROUND);
                op_ns.push((done_ns - now) as f64);
                now = done_ns;
            } else {
                std::hint::black_box(answer);
                op_ns.push((answered_ns - now) as f64);
                now = answered_ns;
            }
        }
        let series = if traced {
            &mut traced_rounds
        } else {
            &mut untraced
        };
        series.push(&mut op_ns, cpu_seconds() - cpu_before);
    }
    let events = qpp_obs::recorder().events_recorded() - events_before;

    let round_s = ROUND_NS as f64 / 1e9;
    report.rounds("latency_p50_us", untraced.latency_p50_us());
    report.rounds("throughput_rps", untraced.throughput_rps(round_s));
    report.rounds("cpu_us_per_op", untraced.cpu_us_per_op());

    // Outputs: the batched path answers every live query exactly as the
    // single-query path does, and the answers are good enough to use.
    let (accuracy, batched) = elapsed_within_20pct(model, live);
    let mismatched = live
        .records
        .iter()
        .zip(&batched)
        .filter(|(r, b)| {
            !model
                .predict(&r.spec, &r.optimized.plan)
                .is_ok_and(|single| same_prediction(&single, b))
        })
        .count();
    report.check(mismatched == 0, || {
        format!("{mismatched} live queries: predict_batch differs from predict")
    });
    report.value("elapsed_within_20pct", accuracy);
    report.check(accuracy >= ACCURACY_FLOOR, || {
        format!("elapsed_within_20pct {accuracy:.4} below {ACCURACY_FLOOR}")
    });
    let recall = staged
        .take()
        .unwrap_or_else(|| StagedPredict::new(model, train))
        .neighbor_recall(live);
    report.value("neighbor_recall", recall);
    report.check(recall >= RECALL_FLOOR, || {
        format!("neighbor_recall {recall:.4} below {RECALL_FLOOR}")
    });

    if args.trace {
        let staged_sum: f64 = [
            "core.features",
            "linalg.standardize",
            "ml.kcca.project",
            "ml.ann.query",
        ]
        .iter()
        .map(|name| {
            let mean_us = tracer.layer(name).mean_us();
            report.value(&format!("{name}.us"), mean_us);
            mean_us
        })
        .sum();
        report.value(
            "ml.knn.brute_query.us",
            tracer.layer("ml.knn.brute_query").mean_us(),
        );
        report.value(
            "core.predict.unattributed_share",
            1.0 - staged_sum / tracer.layer("core.predict").mean_us(),
        );
        if let AnnIndex::Ivf { ivf } = model.index() {
            report.value("ml.ann.nlist", ivf.nlist() as f64);
            report.value("ml.ann.nprobe", ivf.nprobe() as f64);
        }
        report.value("ml.kcca.rank", model.kcca().x_rank() as f64);
        report.value("obs.events_per_op", events as f64 / report.attempted as f64);
        report.value(
            "client.trace_overhead_share",
            1.0 - traced_rounds.throughput_rps(round_s).quiet
                / untraced.throughput_rps(round_s).quiet,
        );
        report.check(staged_disagreed == 0, || {
            format!("{staged_disagreed} traced calls: staged predict differs from whole predict")
        });
        crate::write_trace(&mut report, args, &tracer);
    }
    report.note(format!(
        "{MODEL_ROWS}-row model, ivf {}, {} untraced rounds",
        model.index().is_ivf(),
        untraced.rounds()
    ));
    report
}
