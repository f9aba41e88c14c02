//! The repository's benchmark: one workload per process, every metric
//! printed as `name value unit`, outputs checked, and as the last line the
//! JSON object described in `BENCHMARK.json`'s contract.
//!
//! ```text
//! qpp-benchmark --workload serve_paced --seed 29 --seconds 20 --trace 0
//! ```
//!
//! See `benchmark/README.md` for what each workload and metric is for.

mod checks;
mod inputs;
mod predict;
mod procfs;
mod report;
mod serve;
mod staged;
mod stat;
mod trace;
mod train;

use report::Report;
use std::path::PathBuf;
use std::time::Instant;

/// Length of one round. Short, because on a shared host the calm stretches
/// are: over ten runs the quiet 50 ms round of `predict_large` repeated
/// within 3.1%, the quiet 1 s round within 8.7% (README.md, "Why quiet rounds").
pub const ROUND_NS: u64 = 50_000_000;

/// The set-up is repeated at least `MIN_SETUPS` times, and a cheap one until
/// `SETUP_BUDGET_S` is spent or `MAX_SETUPS` are done; `setup_s` is the
/// median. A sub-second set-up needs the extra repeats to be steady.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 4.0;

pub const WORKLOADS: [&str; 4] = [
    "serve_paced",
    "serve_saturated",
    "predict_large",
    "train_refit",
];

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory the traced run writes `trace-<workload>.jsonl` into.
    pub out: PathBuf,
}

impl Args {
    /// Rounds in the run.
    pub fn rounds(&self) -> usize {
        (self.seconds * 1e9 / ROUND_NS as f64) as usize
    }

    /// In a traced run every other round records spans; the rounds between
    /// them run untraced so the cost of tracing can be read off.
    pub fn round_is_traced(&self, round: usize) -> bool {
        self.trace && round % 2 == 1
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("qpp-benchmark: {problem}");
    eprintln!(
        "usage: qpp-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 29u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| usage("--seed is a number"))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (1.0..=60.0).contains(s))
                    .unwrap_or_else(|| usage("--seconds is between 1 and 60"))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace is 0 or 1"),
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let Some(workload) = workload else {
        usage("--workload is required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    // Traces land beside the executable (inside the build directory) unless
    // told otherwise, so a run writes nothing outside its checkout.
    let out = out.unwrap_or_else(|| {
        let exe = std::env::current_exe().expect("the executable has a path");
        exe.parent().expect("it is in a directory").join("traces")
    });
    Args {
        workload,
        seed,
        seconds,
        trace,
        out,
    }
}

/// A monotonic clock shared by the threads of one run.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Clock(Instant::now())
    }

    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Builds the workload's state several times, dropping each before building
/// the next, and returns the last with the median build time.
pub fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut seconds = Vec::with_capacity(MAX_SETUPS);
    let mut state = None;
    while seconds.len() < MIN_SETUPS
        || (seconds.len() < MAX_SETUPS && seconds.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(state.take());
        let t = Instant::now();
        state = Some(build());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (state.expect("MIN_SETUPS > 0"), stat::median(&seconds))
}

fn main() {
    let args = parse_args();
    let mut report: Report = match args.workload.as_str() {
        "serve_paced" => serve::paced(&args),
        "serve_saturated" => serve::saturated(&args),
        "predict_large" => predict::run(&args),
        "train_refit" => train::run(&args),
        _ => unreachable!("parse_args checked the workload"),
    };
    report.value(
        "failed_share",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.value("par.threads", qpp_par::current_threads() as f64);
    report.value("peak_rss_mb", procfs::peak_rss_mb());
    let (clock, ticks) = (procfs::cpu_seconds(), procfs::cpu_seconds_in_ticks());
    report.check((clock - ticks).abs() <= 0.05 + 0.02 * ticks, || {
        format!("the CPU clock reads {clock:.2} s where /proc/self/stat reads {ticks:.2} s")
    });
    report.note(format!(
        "seed {} | {} s in rounds of {} ms | QPP_THREADS {} | nproc {}",
        args.seed,
        args.seconds,
        ROUND_NS / 1_000_000,
        std::env::var("QPP_THREADS").unwrap_or_else(|_| "unset".to_string()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    ));
    if !report.print(args.trace) {
        std::process::exit(1);
    }
}

/// Writes the kept spans to `trace-<workload>.jsonl` and notes, per span
/// name, the mean self time: where the traced operations spent their time.
pub fn write_trace(report: &mut Report, args: &Args, tracer: &trace::Tracer) {
    let path = args.out.join(format!("trace-{}.jsonl", args.workload));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            tracer.kept_spans(),
            path.display()
        )),
        Err(e) => report.warn(format!("could not write {}: {e}", path.display())),
    }
    for (name, total) in tracer.layers() {
        report.note(format!(
            "span {name}: {} recorded, mean {:.3} us, mean self time {:.3} us",
            total.spans,
            total.mean_us(),
            total.mean_self_us()
        ));
    }
}
