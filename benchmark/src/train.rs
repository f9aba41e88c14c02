//! `train_refit`: one thread calling `KccaPredictor::train` in the cycle
//! 400 -> 2000 -> 8000 rows, over and over. One operation is one cycle.
//!
//! The workload uses the same `qpp-ml`/`qpp-linalg` layers as
//! `predict_large` the other way round (fit beside project, write beside
//! read), so work moved from predict time into fit time shows as a cost
//! here. 400 rows is the small window `qpp-adapt` retrains on, where the
//! subspace iteration is slower than at 2000; 2000 is the served model;
//! 8000 is past `ivf_threshold`, so the index build is in the bill.

use crate::checks::elapsed_within_20pct;
use crate::inputs::{live_set, training_set};
use crate::predict::RECALL_FLOOR;
use crate::procfs::cpu_seconds;
use crate::report::Report;
use crate::staged::{staged_train, StagedFit, StagedPredict};
use crate::stat::{summarize, Better};
use crate::trace::{OpSpan, Tracer};
use crate::{repeated_setup, Args, Clock};
use qpp_core::{model_io, Dataset, KccaPredictor, PredictorOptions};
use std::time::Instant;

const SIZES: [usize; 3] = [400, 2000, 8000];
/// The model accuracy is scored on, and the one recall is scored on (the
/// only size with an IVF index).
const SERVED: usize = 1;
const LARGEST: usize = 2;
const ACCURACY_FLOOR: f64 = 0.60;
/// Fewest cycles of each kind a run makes, however short `--seconds` is.
const MIN_CYCLES: usize = 3;
/// How the ledger reports a stage of the cycle.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    /// One number: the three sizes added up.
    Cycle,
    /// One number per size.
    PerSize,
    /// Only the largest size does real work here: below `ivf_threshold`
    /// the index "build" wraps the projection in a brute scan.
    Largest,
}

/// The spans `staged_train` appends, in order. The metric is the span's
/// name with `_s` (and the size) appended.
const STAGES: [(&str, Scope); 7] = [
    ("core.dataset.matrices", Scope::Cycle),
    ("linalg.standardize.fit", Scope::Cycle),
    ("ml.kernel.fit", Scope::Cycle),
    ("linalg.icd.factor", Scope::PerSize),
    ("ml.cca.fit", Scope::PerSize),
    ("ml.cca.project_matrix", Scope::Cycle),
    ("ml.ann.build", Scope::Largest),
];

struct State {
    sets: Vec<Dataset>,
    live: Dataset,
}

fn setup(seed: u64) -> State {
    let sets: Vec<Dataset> = SIZES.iter().map(|&n| training_set(n, seed)).collect();
    let live = live_set(seed);
    // Start the qpp-par pool and warm the allocator before the first cycle.
    KccaPredictor::train(&sets[0], PredictorOptions::default()).expect("warm-up fit");
    State { sets, live }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::new("train_refit");
    let (state, setup_s) = repeated_setup(|| setup(args.seed));
    let State { sets, live } = &state;
    report.value("setup_s", setup_s);

    // Per whole cycle: wall and CPU seconds of each size, and of the cycle.
    let mut whole_s: [Vec<f64>; 3] = Default::default();
    let mut whole_cpu_s: [Vec<f64>; 3] = Default::default();
    let mut cycle_s = Vec::new();
    // Per traced cycle: seconds of each stage at each size.
    let mut stage_s: [[Vec<f64>; 3]; 7] = Default::default();
    let mut staged_cycle_s = Vec::new();
    let mut first_correlations: [Option<Vec<f64>>; 3] = Default::default();
    let mut kept: [Option<KccaPredictor>; 3] = Default::default();
    let mut last_staged: [Option<StagedFit>; 3] = Default::default();
    let mut tracer = Tracer::new();
    let mut refits_differing = 0u64;

    let clock = Clock::start();
    let run_ns = (args.seconds * 1e9) as u64;
    let mut cycle = 0usize;
    // In a traced run whole and staged cycles alternate.
    while clock.now_ns() < run_ns
        || cycle_s.len() < MIN_CYCLES
        || (args.trace && staged_cycle_s.len() < MIN_CYCLES)
    {
        let staged_cycle = args.trace && cycle % 2 == 1;
        cycle += 1;
        let mut this_cycle_s = 0.0;
        for (i, set) in sets.iter().enumerate() {
            report.attempted += 1;
            let correlations = if staged_cycle {
                let start_ns = clock.now_ns();
                let mut spans = vec![OpSpan {
                    name: "core.train.staged",
                    start_ns,
                    end_ns: 0,
                    parent: None,
                }];
                let fit = staged_train(set, PredictorOptions::default(), &clock, &mut spans, 0);
                spans[0].end_ns = spans.last().expect("stages were appended").end_ns;
                for (s, span) in spans[1..].iter().enumerate() {
                    stage_s[s][i].push((span.end_ns - span.start_ns) as f64 / 1e9);
                }
                this_cycle_s += (spans[0].end_ns - start_ns) as f64 / 1e9;
                tracer.record_op((cycle * SIZES.len() + i) as u64, &spans, true);
                let correlations = fit.correlations.clone();
                last_staged[i] = Some(fit);
                correlations
            } else {
                let (t, cpu_before) = (Instant::now(), cpu_seconds());
                let model =
                    KccaPredictor::train(set, PredictorOptions::default()).expect("refit succeeds");
                let seconds = t.elapsed().as_secs_f64();
                whole_cpu_s[i].push(cpu_seconds() - cpu_before);
                whole_s[i].push(seconds);
                this_cycle_s += seconds;
                let correlations = model.correlations().to_vec();
                // Only the newest model of a size stays alive, as in a
                // service that swaps a refit in.
                kept[i] = Some(model);
                correlations
            };
            let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
            match &first_correlations[i] {
                None => first_correlations[i] = Some(correlations),
                Some(first) if bits(first) != bits(&correlations) => {
                    refits_differing += 1;
                    report.failed += 1;
                }
                Some(_) => {}
            }
        }
        if staged_cycle {
            staged_cycle_s.push(this_cycle_s);
        } else {
            cycle_s.push(this_cycle_s);
        }
    }

    // A fit takes a second and the host's calm stretches are shorter, so a
    // whole cycle is rarely calm; each size's quiet fit is likelier to be.
    // The quiet cycle is the three quiet fits added up.
    let quiet_sum = |per_size: &[Vec<f64>; 3]| -> f64 {
        per_size
            .iter()
            .map(|v| summarize(v, Better::Lower).quiet)
            .sum()
    };
    let quiet_cycle_s = quiet_sum(&whole_s);
    report.value("latency_p50_us", quiet_cycle_s * 1e6);
    report.value("throughput_rps", 1.0 / quiet_cycle_s);
    report.value("cpu_us_per_op", quiet_sum(&whole_cpu_s) * 1e6);
    for (i, n) in SIZES.iter().enumerate() {
        report.rounds(
            &format!("train_s_n{n}"),
            summarize(&whole_s[i], Better::Lower),
        );
    }
    report.check(refits_differing == 0, || {
        format!("{refits_differing} refits did not reproduce the first cycle's correlations")
    });

    let served = kept[SERVED].as_ref().expect("a whole cycle ran");
    let (accuracy, _) = elapsed_within_20pct(served, live);
    report.value("elapsed_within_20pct", accuracy);
    report.check(accuracy >= ACCURACY_FLOOR, || {
        format!("elapsed_within_20pct {accuracy:.4} below {ACCURACY_FLOOR}")
    });
    let largest = kept[LARGEST].as_ref().expect("a whole cycle ran");
    let recall = StagedPredict::new(largest, &sets[LARGEST]).neighbor_recall(live);
    report.value("neighbor_recall", recall);
    report.check(recall >= RECALL_FLOOR, || {
        format!("neighbor_recall {recall:.4} below {RECALL_FLOOR}")
    });

    if args.trace {
        for (s, (name, scope)) in STAGES.iter().enumerate() {
            let quiet = |i: usize| summarize(&stage_s[s][i], Better::Lower).quiet;
            match scope {
                Scope::Cycle => {
                    report.value(&format!("{name}_s"), (0..SIZES.len()).map(quiet).sum())
                }
                Scope::PerSize => {
                    for (i, n) in SIZES.iter().enumerate() {
                        report.value(&format!("{name}_s.n{n}"), quiet(i));
                    }
                }
                Scope::Largest => {
                    report.value(&format!("{name}_s.n{}", SIZES[LARGEST]), quiet(LARGEST))
                }
            }
        }
        for (i, n) in SIZES.iter().enumerate() {
            let staged: f64 = (0..STAGES.len())
                .map(|s| summarize(&stage_s[s][i], Better::Lower).quiet)
                .sum();
            let whole = summarize(&whole_s[i], Better::Lower).quiet;
            report.value(
                &format!("core.train.unattributed_share.n{n}"),
                1.0 - staged / whole,
            );
            let (model, staged) = (kept[i].as_ref(), last_staged[i].as_ref());
            let same = model.zip(staged).is_some_and(|(m, s)| {
                m.kcca()
                    .query_projection()
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .eq(s.query_projection.as_slice().iter().map(|v| v.to_bits()))
            });
            report.check(same, || {
                format!("n{n}: staged train's query projection differs from whole train's")
            });
        }
        let fit = last_staged[LARGEST].as_ref().expect("a staged cycle ran");
        report.value("linalg.icd.rank_x", fit.rank_x as f64);
        report.value("linalg.icd.rank_y", fit.rank_y as f64);
        report.value(
            "client.trace_overhead_share",
            1.0 - summarize(&cycle_s, Better::Lower).quiet
                / summarize(&staged_cycle_s, Better::Lower).quiet,
        );

        // Model shipping, once, at the largest size.
        let t = Instant::now();
        let json = model_io::to_json(largest).expect("model serializes");
        report.value("core.model_io.to_json_s", t.elapsed().as_secs_f64());
        report.value("core.model_io.json_mb", json.len() as f64 / 1e6);
        let t = Instant::now();
        let back = model_io::from_json(&json).expect("model deserializes");
        report.value("core.model_io.from_json_s", t.elapsed().as_secs_f64());
        let r = &live.records[0];
        let same = back.predict(&r.spec, &r.optimized.plan).is_ok_and(|b| {
            largest
                .predict(&r.spec, &r.optimized.plan)
                .is_ok_and(|a| crate::checks::same_prediction(&a, &b))
        });
        report.check(same, || {
            "the shipped model predicts differently".to_string()
        });
        crate::write_trace(&mut report, args, &tracer);
    }
    report.note(format!(
        "cycle {SIZES:?} rows: {} whole cycles, {} staged cycles",
        cycle_s.len(),
        staged_cycle_s.len()
    ));
    report
}
