//! The two workloads that go through `qpp-serve`, against a 2000-row model
//! (brute-scan neighbours) behind one worker.
//!
//! `serve_paced` is an open loop: one generator thread submits on a seeded
//! Poisson schedule at a quarter of capacity, one collector thread waits for
//! the answers in order. The model is a tenth of the latency here; admission,
//! queue hand-off, worker wake-up and the per-request response channel are
//! the rest, so this is where the cost of serving shows. Independent
//! sessions compiling queries are an open loop; latency is timed from the
//! moment a request was *due*, so a stall counts against every request it
//! delays, and how late the generator itself ran is reported.
//!
//! `serve_saturated` is a closed loop: one client keeps 16 requests
//! outstanding and reports every answer back through `observe_completion`
//! with an adaptive controller installed. The worker is CPU-bound and drains
//! batches of about eight, so micro-batching, the batched projection and the
//! adapt record path do the work and wake-ups almost none: the counterpart
//! to `serve_paced` for any change to the serving layer, and its capacity.

use crate::checks::{elapsed_within_20pct, same_prediction};
use crate::inputs::{arrival_schedule, live_set, training_set, RequestOrder};
use crate::procfs::cpu_seconds;
use crate::report::Report;
use crate::staged::StagedPredict;
use crate::stat::{quantile, sorted, RoundSeries};
use crate::trace::{OpSpan, Tracer};
use crate::{repeated_setup, Args, Clock, ROUND_NS};
use qpp_adapt::{AdaptOptions, AdaptiveController, DriftConfig};
use qpp_core::baselines::OptimizerCostModel;
use qpp_core::retrain::SlidingWindowPredictor;
use qpp_core::{Dataset, FeatureKind, KccaPredictor, Prediction, PredictorOptions};
use qpp_obs::{EventKind, Stage, StageSummary};
use qpp_serve::{
    AnswerSource, CompletionObserver, ModelKey, ModelRegistry, PendingPrediction, PredictRequest,
    PredictionService, QppError, ServeOptions, ServeResponse, DEFAULT_TENANT,
};
use std::collections::{HashMap, VecDeque};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const MODEL_ROWS: usize = 2000;
/// About a quarter of what one worker sustains on the reference box.
const PACED_RATE_PER_S: f64 = 4000.0;
const WINDOW: usize = 16;
/// Long enough that a host stall is a late answer, not a fallback.
const DEADLINE: Duration = Duration::from_secs(1);
const WARMUP_REQUESTS: usize = 2000;
const VERIFY_EVERY: u64 = 64;
/// The generator sleeps until this close to the due time and spins the
/// rest: a pure spin takes one of the two vCPUs from the service.
const SPIN_BELOW_NS: u64 = 120_000;
const SLO_NS: u64 = 5_000_000;
const LATE_WARNING_US: f64 = 5_000.0;
const ACCURACY_FLOOR: f64 = 0.60;

struct Served {
    service: PredictionService,
    registry: Arc<ModelRegistry>,
    controller: Option<Arc<AdaptiveController>>,
    key: ModelKey,
    train: Dataset,
    live: Dataset,
}

impl Served {
    fn request(&self, live_index: usize) -> PredictRequest {
        let r = &self.live.records[live_index];
        PredictRequest {
            key: self.key.clone(),
            tenant: DEFAULT_TENANT,
            spec: r.spec.clone(),
            plan: r.optimized.plan.clone(),
            deadline: DEADLINE,
        }
    }
}

/// Data, model, registry, service and warm-up: everything before the first
/// timed round.
fn start(seed: u64, adaptive: bool) -> Served {
    let train = training_set(MODEL_ROWS, seed);
    let options = PredictorOptions::default();
    let model = KccaPredictor::train(&train, options).expect("model trains");
    let fallback = OptimizerCostModel::train(&train).expect("cost model trains");
    let live = live_set(seed);
    let key = ModelKey::new(train.config.name.clone(), FeatureKind::QueryPlan);
    let registry = Arc::new(ModelRegistry::new());
    registry.install(key.clone(), model, fallback);
    let service = PredictionService::start(
        Arc::clone(&registry),
        ServeOptions {
            workers: 1,
            queue_capacity: 4096,
            max_batch: 16,
            ..ServeOptions::default()
        },
    );
    // A controller on stationary traffic and without a retrain worker: it
    // scores every answer and keeps its window fresh, and must never refit.
    let controller = adaptive.then(|| {
        let window = SlidingWindowPredictor::new(train.clone(), MODEL_ROWS, usize::MAX, options);
        let drift = DriftConfig {
            warmup: live.len(),
            ..DriftConfig::default()
        };
        let controller = Arc::new(AdaptiveController::new(
            Arc::clone(&registry),
            key.clone(),
            window,
            AdaptOptions {
                drift,
                ..AdaptOptions::default()
            },
        ));
        service.set_completion_observer(Arc::clone(&controller) as Arc<dyn CompletionObserver>);
        controller
    });
    let served = Served {
        service,
        registry,
        controller,
        key,
        train,
        live,
    };
    for i in 0..WARMUP_REQUESTS {
        served
            .service
            .submit(served.request(i % served.live.len()))
            .expect("warm-up request is answered");
    }
    served
}

/// The client's side of one traced request.
struct ServeOp {
    op_id: u64,
    trace_id: u64,
    round: usize,
    /// When the request was due (paced) or submitted (saturated).
    start_ns: u64,
    submit: (u64, u64),
    wait: (u64, u64),
    /// End of `observe_completion`, where the workload calls it.
    observed_ns: Option<u64>,
}

/// Sorts answers into rounds by the time they arrive, and keeps the rounds
/// that recorded spans apart from the ones that did not.
struct RoundKeeper<'a> {
    args: &'a Args,
    round: usize,
    cpu_mark_s: f64,
    latency_ns: Vec<f64>,
    untraced: RoundSeries,
    traced: RoundSeries,
}

impl<'a> RoundKeeper<'a> {
    fn start(args: &'a Args) -> Self {
        RoundKeeper {
            args,
            round: 0,
            cpu_mark_s: cpu_seconds(),
            latency_ns: Vec::new(),
            untraced: RoundSeries::default(),
            traced: RoundSeries::default(),
        }
    }

    /// Closes every round that ended before `now_ns`.
    fn advance_to(&mut self, now_ns: u64) {
        while self.round < self.args.rounds() && now_ns >= (self.round as u64 + 1) * ROUND_NS {
            let cpu_s = cpu_seconds();
            let series = if self.args.round_is_traced(self.round) {
                &mut self.traced
            } else {
                &mut self.untraced
            };
            series.push(&mut self.latency_ns, cpu_s - self.cpu_mark_s);
            self.cpu_mark_s = cpu_s;
            self.round += 1;
        }
    }

    /// Whether the run's last round is over.
    fn finished(&self) -> bool {
        self.round >= self.args.rounds()
    }

    /// Records an answer that arrived at `now_ns` after `latency_ns`.
    fn answer(&mut self, now_ns: u64, latency_ns: u64) {
        self.advance_to(now_ns);
        if !self.finished() {
            self.latency_ns.push(latency_ns as f64);
        }
    }
}

/// The program's own counters at one moment.
struct ObsMark {
    events: u64,
    stages: Vec<StageSummary>,
}

fn obs_mark() -> ObsMark {
    let recorder = qpp_obs::recorder();
    ObsMark {
        events: recorder.events_recorded(),
        stages: recorder.stage_summary(),
    }
}

/// Mean span of `stage` between two marks, microseconds.
fn stage_mean_us(before: &ObsMark, after: &ObsMark, stage: Stage) -> f64 {
    let totals = |mark: &ObsMark| {
        mark.stages
            .iter()
            .find(|s| s.stage == stage)
            .map_or((0, 0), |s| (s.hits, s.total_ns))
    };
    let (hits_before, ns_before) = totals(before);
    let (hits_after, ns_after) = totals(after);
    let hits = hits_after - hits_before;
    if hits == 0 {
        0.0
    } else {
        (ns_after - ns_before) as f64 / hits as f64 / 1e3
    }
}

/// The program's spans that a request's trace id is looked up for, parents
/// first: obs stage, span name, name of the span that caused it.
const PROGRAM_SPANS: [(Stage, &str, &str); 4] = [
    (Stage::Admission, "serve.admission", "serve.submit"),
    (Stage::QueueWait, "serve.queue_wait", "client.request"),
    (Stage::Worker, "serve.worker", "client.request"),
    (Stage::Predict, "serve.predict", "serve.worker"),
];

/// Turns the client-side records into span trees. The requests of
/// `kept_round` are written to the trace file, with the program's own spans
/// joined in by trace id where its event ring still holds them.
/// `obs_ahead_ns` is the obs clock minus the benchmark's.
fn trace_ops(ops: &[ServeOp], kept_round: usize, obs_ahead_ns: i128) -> (Tracer, u64) {
    let mut by_trace: HashMap<u64, Vec<qpp_obs::Event>> = HashMap::new();
    for event in qpp_obs::recorder().export() {
        if event.kind == EventKind::Span && event.trace_id != 0 {
            by_trace.entry(event.trace_id).or_default().push(event);
        }
    }
    let mut tracer = Tracer::new();
    let mut joined = 0;
    let mut spans: Vec<OpSpan> = Vec::with_capacity(8);
    for op in ops {
        spans.clear();
        let span = |name, (start_ns, end_ns): (u64, u64), parent| OpSpan {
            name,
            start_ns,
            end_ns,
            parent,
        };
        let end_ns = op.observed_ns.unwrap_or(op.wait.1);
        spans.push(span("client.request", (op.start_ns, end_ns), None));
        spans.push(span("serve.submit", op.submit, Some(0)));
        spans.push(span("serve.wait", op.wait, Some(0)));
        if let Some(observed_ns) = op.observed_ns {
            spans.push(span("adapt.observe", (op.wait.1, observed_ns), Some(0)));
        }
        let keep = op.round == kept_round;
        if let Some(events) = by_trace.get(&op.trace_id).filter(|_| keep) {
            joined += 1;
            for (stage, name, parent) in PROGRAM_SPANS {
                for e in events.iter().filter(|e| e.stage == stage) {
                    let start_ns = (e.start_ns as i128 - obs_ahead_ns).max(0) as u64;
                    let parent = spans.iter().position(|s| s.name == parent).unwrap_or(0);
                    spans.push(span(name, (start_ns, start_ns + e.dur_ns), Some(parent)));
                }
            }
        }
        tracer.record_op(op.op_id, &spans, keep);
    }
    (tracer, joined)
}

/// Sleeps, then spins, until `due_ns` on `clock`.
fn wait_until(clock: &Clock, due_ns: u64) {
    loop {
        let now = clock.now_ns();
        if now >= due_ns {
            return;
        }
        let left = due_ns - now;
        if left > SPIN_BELOW_NS {
            std::thread::sleep(Duration::from_nanos(left - SPIN_BELOW_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What is left of a run once the last answer is in.
#[derive(Default)]
struct Outcome {
    untraced: RoundSeries,
    traced: RoundSeries,
    /// Latency of every answered request, nanoseconds.
    latency_ns: Vec<f64>,
    slo_missed: u64,
    /// Every `VERIFY_EVERY`-th answer, with the live query it answers.
    samples: Vec<(usize, Prediction)>,
    ops: Vec<ServeOp>,
}

/// A request the generator hands to the collector.
struct Sent {
    op_id: u64,
    round: usize,
    live_index: usize,
    due_ns: u64,
    submit: (u64, u64),
    pending: PendingPrediction,
}

/// Requests attempted and requests failed. A submit the service rejects, an
/// answer that is an error and an answer from the cost-model fallback all
/// fail: none of them is the model's prediction arriving in time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one submission; the pending request if it was accepted.
    fn submitted(
        &mut self,
        submit: Result<PendingPrediction, QppError>,
    ) -> Option<PendingPrediction> {
        self.attempted += 1;
        if submit.is_err() {
            self.failed += 1;
        }
        submit.ok()
    }

    /// Counts one answer; the response if the model gave it.
    fn answered(&mut self, answer: Result<ServeResponse, QppError>) -> Option<ServeResponse> {
        let answer = answer.ok().filter(|r| r.source == AnswerSource::Kcca);
        if answer.is_none() {
            self.failed += 1;
        }
        answer
    }
}

/// The collector: waits for each answer in the order the requests were
/// sent. It lives for the whole run, so its CPU time is in every round.
fn collect(rx: mpsc::Receiver<Sent>, clock: Clock, args: &Args) -> (Outcome, Tally) {
    let mut rounds = RoundKeeper::start(args);
    let mut tally = Tally::default();
    let mut outcome = Outcome::default();
    for sent in rx {
        let traced = args.round_is_traced(sent.round);
        let wait_start_ns = if traced { clock.now_ns() } else { 0 };
        let trace_id = sent.pending.trace_id();
        let answer = tally.answered(sent.pending.wait());
        let now = clock.now_ns();
        let latency_ns = now - sent.due_ns;
        if latency_ns > SLO_NS {
            outcome.slo_missed += 1;
        }
        if traced {
            outcome.ops.push(ServeOp {
                op_id: sent.op_id,
                trace_id,
                round: sent.round,
                start_ns: sent.due_ns,
                submit: sent.submit,
                wait: (wait_start_ns, now),
                observed_ns: None,
            });
        }
        let Some(response) = answer else {
            continue;
        };
        rounds.answer(now, latency_ns);
        outcome.latency_ns.push(latency_ns as f64);
        if sent.op_id % VERIFY_EVERY == 0 {
            outcome.samples.push((sent.live_index, response.prediction));
        }
    }
    (outcome.untraced, outcome.traced) = (rounds.untraced, rounds.traced);
    (outcome, tally)
}

pub fn paced(args: &Args) -> Report {
    let mut report = Report::new("serve_paced");
    let (served, setup_s) = repeated_setup(|| start(args.seed, false));
    report.value("setup_s", setup_s);

    let schedule = arrival_schedule(args.seed, PACED_RATE_PER_S, args.seconds);
    let order: Vec<usize> = RequestOrder::new(args.seed, served.live.len())
        .take(schedule.len())
        .collect();
    let rounds = args.rounds();
    let before = obs_mark();
    let clock = Clock::start();
    let obs_ahead_ns = qpp_obs::recorder().now_ns() as i128 - clock.now_ns() as i128;

    let (tx, rx) = mpsc::channel::<Sent>();
    let mut late_us = Vec::with_capacity(schedule.len());
    let mut tally = Tally::default();
    let (mut outcome, answers) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(rx, clock, args));
        for (op_id, (&due_ns, &live_index)) in schedule.iter().zip(&order).enumerate() {
            // A request records spans if the round it is due in does.
            let round = ((due_ns / ROUND_NS) as usize).min(rounds - 1);
            let request = served.request(live_index);
            wait_until(&clock, due_ns);
            let submit_start_ns = clock.now_ns();
            late_us.push((submit_start_ns - due_ns) as f64 / 1e3);
            let Some(pending) = tally.submitted(served.service.submit_async(request)) else {
                continue;
            };
            let submit_end_ns = if args.round_is_traced(round) {
                clock.now_ns()
            } else {
                0
            };
            let sent = Sent {
                op_id: op_id as u64,
                round,
                live_index,
                due_ns,
                submit: (submit_start_ns, submit_end_ns),
                pending,
            };
            tx.send(sent).expect("the collector outlives the generator");
        }
        drop(tx);
        collector.join().expect("the collector does not panic")
    });
    report.attempted = tally.attempted;
    report.failed = tally.failed + answers.failed;
    outcome.slo_missed += tally.failed;
    report.rounds("latency_p50_us", outcome.untraced.latency_p50_us());
    // Open loop: the schedule sets the rate, so a round's count is chance.
    // What matters is whether the service kept up over the whole run.
    report.value(
        "throughput_rps",
        outcome.latency_ns.len() as f64 / args.seconds,
    );
    // And the round with the least CPU per request is not a calm one: it is
    // the generator catching up after a stall, submitting without spinning
    // into bigger batches. The median round is the steady state (it repeated
    // within 4% over ten runs where the least moved by 43%).
    report.median_round("cpu_us_per_op", outcome.untraced.cpu_us_per_op());

    let late_p99_us = quantile(&sorted(late_us), 0.99);
    report.value("client.gen_late_p99_us", late_p99_us);
    if late_p99_us > LATE_WARNING_US {
        report.warn(format!(
            "the load generator ran {late_p99_us:.0} us late at p99: latencies include its stalls"
        ));
    }
    if args.trace {
        // Open loop: the schedule fixes the throughput, so the cost of
        // tracing shows as CPU per request.
        report.value(
            "client.trace_overhead_share",
            1.0 - outcome.untraced.cpu_us_per_op().median / outcome.traced.cpu_us_per_op().median,
        );
    }
    finish(&mut report, args, &served, &before, outcome, obs_ahead_ns);

    if args.trace {
        // The serving tax: what a request costs over the bare model call.
        let model = &served
            .registry
            .get(&served.key)
            .expect("model is installed")
            .predictor;
        let mut direct_ns = Vec::new();
        let t = Instant::now();
        for i in RequestOrder::new(args.seed, served.live.len()) {
            if t.elapsed() > Duration::from_millis(500) {
                break;
            }
            let r = &served.live.records[i];
            let call = Instant::now();
            std::hint::black_box(
                model
                    .predict(&r.spec, &r.optimized.plan)
                    .expect("live queries predict"),
            );
            direct_ns.push(call.elapsed().as_nanos() as f64);
        }
        let direct_p50_us = quantile(&sorted(direct_ns), 0.5) / 1e3;
        report.value("client.direct_predict_p50_us", direct_p50_us);
        let paced_p50_us = report.get("latency_p50_us").expect("latency was reported");
        report.value("serve.tax.us", paced_p50_us - direct_p50_us);
    }
    report
}

/// A request the saturating client has outstanding.
struct InFlight {
    op_id: u64,
    live_index: usize,
    round: usize,
    traced: bool,
    submit: (u64, u64),
    pending: PendingPrediction,
}

pub fn saturated(args: &Args) -> Report {
    let mut report = Report::new("serve_saturated");
    let (served, setup_s) = repeated_setup(|| start(args.seed, true));
    report.value("setup_s", setup_s);

    let mut order = RequestOrder::new(args.seed, served.live.len());
    let before = obs_mark();
    let clock = Clock::start();
    let obs_ahead_ns = qpp_obs::recorder().now_ns() as i128 - clock.now_ns() as i128;

    let mut outcome = Outcome::default();
    let mut tally = Tally::default();
    let mut rounds = RoundKeeper::start(args);
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(WINDOW);
    loop {
        // While the run lasts, keep the window full.
        while !rounds.finished() && window.len() < WINDOW {
            let live_index = order.next().expect("the order is endless");
            let traced = args.round_is_traced(rounds.round);
            let request = served.request(live_index);
            let submit_start_ns = clock.now_ns();
            let Some(pending) = tally.submitted(served.service.submit_async(request)) else {
                break;
            };
            let submit_end_ns = if traced { clock.now_ns() } else { 0 };
            window.push_back(InFlight {
                op_id: tally.attempted,
                live_index,
                round: rounds.round,
                traced,
                submit: (submit_start_ns, submit_end_ns),
                pending,
            });
        }
        let Some(oldest) = window.pop_front() else {
            break;
        };
        let wait_start_ns = if oldest.traced { clock.now_ns() } else { 0 };
        let trace_id = oldest.pending.trace_id();
        let answer = tally.answered(oldest.pending.wait());
        let now = clock.now_ns();
        let latency_ns = now - oldest.submit.0;
        if latency_ns > SLO_NS {
            outcome.slo_missed += 1;
        }
        let Some(response) = answer else {
            rounds.advance_to(now);
            continue;
        };
        rounds.answer(now, latency_ns);
        outcome.latency_ns.push(latency_ns as f64);
        // The query "ran": report its measured metrics back into the loop.
        served
            .service
            .observe_completion(&served.live.records[oldest.live_index], &response);
        if oldest.traced {
            outcome.ops.push(ServeOp {
                op_id: oldest.op_id,
                trace_id,
                round: oldest.round,
                start_ns: oldest.submit.0,
                submit: oldest.submit,
                wait: (wait_start_ns, now),
                observed_ns: Some(clock.now_ns()),
            });
        }
        if oldest.op_id % VERIFY_EVERY == 0 {
            outcome
                .samples
                .push((oldest.live_index, response.prediction));
        }
    }
    (outcome.untraced, outcome.traced) = (rounds.untraced, rounds.traced);
    (report.attempted, report.failed) = (tally.attempted, tally.failed);
    let round_s = ROUND_NS as f64 / 1e9;
    report.rounds("latency_p50_us", outcome.untraced.latency_p50_us());
    report.rounds("throughput_rps", outcome.untraced.throughput_rps(round_s));
    report.rounds("cpu_us_per_op", outcome.untraced.cpu_us_per_op());
    if args.trace {
        // Closed loop: tracing that costs time costs throughput.
        report.value(
            "client.trace_overhead_share",
            1.0 - outcome.traced.throughput_rps(round_s).quiet
                / outcome.untraced.throughput_rps(round_s).quiet,
        );
    }
    finish(&mut report, args, &served, &before, outcome, obs_ahead_ns);

    let controller = served
        .controller
        .as_ref()
        .expect("the controller was installed");
    let retrains = controller.stats().retrains.get();
    report.check(retrains == 0, || {
        format!("the controller retrained {retrains} times")
    });
    if args.trace {
        report.value("adapt.retrains", retrains as f64);
        // What a model swap costs, measured once the load is off.
        const GETS: u32 = 10_000;
        let t = Instant::now();
        for _ in 0..GETS {
            std::hint::black_box(served.registry.get(&served.key));
        }
        report.value(
            "serve.registry.get.us",
            t.elapsed().as_secs_f64() * 1e6 / GETS as f64,
        );
        let entry = served
            .registry
            .get(&served.key)
            .expect("model is installed");
        let installs: Vec<f64> = (0..5)
            .map(|_| {
                let (model, fallback) = (entry.predictor.clone(), entry.fallback.clone());
                let t = Instant::now();
                served.registry.install(served.key.clone(), model, fallback);
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        report.value("serve.registry.install.us", crate::stat::median(&installs));
    }
    report
}

/// Everything the two workloads report the same way once the load is off:
/// the quality metrics, the output checks, and in a traced run the service's
/// own counters, the ledger and the trace file.
fn finish(
    report: &mut Report,
    args: &Args,
    served: &Served,
    before: &ObsMark,
    outcome: Outcome,
    obs_ahead_ns: i128,
) {
    let after = obs_mark();
    let entry = served
        .registry
        .get(&served.key)
        .expect("model is installed");
    let model = &entry.predictor;
    let wrong = outcome
        .samples
        .iter()
        .filter(|(live_index, served_answer)| {
            let r = &served.live.records[*live_index];
            !model
                .predict(&r.spec, &r.optimized.plan)
                .is_ok_and(|direct| same_prediction(&direct, served_answer))
        })
        .count();
    report.check(wrong == 0, || {
        format!(
            "{wrong} of {} sampled answers differ from model.predict",
            outcome.samples.len()
        )
    });
    let (accuracy, _) = elapsed_within_20pct(model, &served.live);
    report.value("elapsed_within_20pct", accuracy);
    report.check(accuracy >= ACCURACY_FLOOR, || {
        format!("elapsed_within_20pct {accuracy:.4} below {ACCURACY_FLOOR}")
    });
    report.value(
        "neighbor_recall",
        StagedPredict::new(model, &served.train).neighbor_recall(&served.live),
    );
    report.note(format!(
        "{} answers checked against model.predict; {} untraced rounds",
        outcome.samples.len(),
        outcome.untraced.rounds()
    ));
    if !args.trace {
        return;
    }

    let latency = sorted(outcome.latency_ns);
    report.value("client.latency_p95_us", quantile(&latency, 0.95) / 1e3);
    report.value("client.latency_p99_us", quantile(&latency, 0.99) / 1e3);
    report.value(
        "client.slo_5ms_miss_share",
        outcome.slo_missed as f64 / report.attempted.max(1) as f64,
    );
    let stats = served.service.stats();
    report.value("serve.batch.mean", stats.mean_batch_size);
    report.value("serve.queue.max_depth", stats.max_queue_depth as f64);
    report.value(
        "serve.rejected",
        (stats.rejected_queue_full + stats.rejected_quota) as f64,
    );
    report.value("serve.fallbacks", stats.fallbacks as f64);
    report.value("serve.late_answers", stats.late_answers as f64);
    report.value(
        "serve.queue_wait.us",
        stage_mean_us(before, &after, Stage::QueueWait),
    );
    report.value(
        "serve.worker.us",
        stage_mean_us(before, &after, Stage::Worker),
    );
    report.value(
        "serve.predict.us",
        stage_mean_us(before, &after, Stage::Predict),
    );
    report.value(
        "obs.events_per_op",
        (after.events - before.events) as f64 / report.attempted.max(1) as f64,
    );

    let kept_round = outcome.ops.last().map_or(0, |op| op.round);
    let (tracer, joined) = trace_ops(&outcome.ops, kept_round, obs_ahead_ns);
    report.value("serve.submit.us", tracer.layer("serve.submit").mean_us());
    report.value("serve.wait.us", tracer.layer("serve.wait").mean_us());
    if tracer.layer("adapt.observe").spans > 0 {
        report.value("adapt.observe.us", tracer.layer("adapt.observe").mean_us());
    }
    report.note(format!(
        "{} requests traced; the program's spans joined for {joined} of round {kept_round}",
        outcome.ops.len()
    ));
    crate::write_trace(report, args, &tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rejected_submit_and_a_fallback_answer_both_count_as_failures() {
        // No worker and room for one request: the first submission is
        // accepted and can only be answered by the cost-model fallback, the
        // second is rejected.
        let train = training_set(60, 5);
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        let fallback = OptimizerCostModel::train(&train).unwrap();
        let key = ModelKey::new(train.config.name.clone(), FeatureKind::QueryPlan);
        let registry = Arc::new(ModelRegistry::new());
        registry.install(key.clone(), model, fallback);
        let service = PredictionService::start(
            Arc::clone(&registry),
            ServeOptions {
                workers: 0,
                queue_capacity: 1,
                ..ServeOptions::default()
            },
        );
        let request = || PredictRequest {
            key: key.clone(),
            tenant: DEFAULT_TENANT,
            spec: train.records[0].spec.clone(),
            plan: train.records[0].optimized.plan.clone(),
            deadline: Duration::from_millis(20),
        };

        let mut tally = Tally::default();
        let accepted = tally.submitted(service.submit_async(request()));
        assert!(tally.submitted(service.submit_async(request())).is_none());
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );

        let answer = accepted.expect("the queue had room for one").wait();
        assert_eq!(
            answer.as_ref().unwrap().source,
            AnswerSource::CostModelFallback
        );
        assert!(tally.answered(answer).is_none());
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 2
            }
        );
    }
}
