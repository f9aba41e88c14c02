//! The adaptive control plane: observe → detect → retrain →
//! shadow-score → swap → watch → (maybe) kill-switch.
//!
//! [`AdaptiveController`] plugs into the serving layer as a
//! [`CompletionObserver`]: every executed query's `(prediction,
//! observed)` pair flows through [`AdaptiveController::observe`], which
//! is cheap (one short critical section on the controller's only mutex:
//! error-ledger fold, window push, detector step, phase step) and never
//! trains, scores, or swaps inline. Heavy work is packaged into a
//! [`RetrainTask`], left in that same state for the taker, and executed
//! by [`AdaptiveController::run_task`] — on the background
//! [`crate::AdaptWorker`] thread in production, or synchronously via
//! [`AdaptiveController::drain_pending`] in deterministic tests.
//!
//! The per-model phase machine (see DESIGN.md §11):
//!
//! ```text
//! Stable --drift--> RetrainQueued --swap--> PostSwap --ok--> Stable
//!    ^                  | reject/race          | regression
//!    +------------------+                      v
//!    ^                                      Demoted --install--> Stable
//! ```

use crate::drift::{DriftConfig, DriftDetector, DriftSignal, OVERALL};
use crate::tracker::{log_ratio_errors, mean_error, ErrorSnapshot, ErrorTracker, ERR_CLAMP};
use parking_lot::{Condvar, Mutex};
use qpp_core::baselines::OptimizerCostModel;
use qpp_core::dataset::QueryRecord;
use qpp_core::predictor::KccaPredictor;
use qpp_core::retrain::{SlidingWindowPredictor, MIN_TRAIN_WINDOW};
use qpp_core::QppError;
use qpp_obs::{record_mark, span, Counter, Stage};
use qpp_serve::{
    AnswerSource, CompletionObserver, ModelKey, ModelRegistry, ServeResponse, SwapRace,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Every Nth completed query is diverted to the shadow-scoring holdout
/// instead of the training window (so the canary is judged on queries
/// the candidate never trained on).
const HOLDOUT_EVERY: usize = 4;

/// Most recent holdout records kept.
const HOLDOUT_CAPACITY: usize = 64;

/// Fewest holdout records required to shadow-score; below this the
/// retrain is abandoned (better no swap than an unjudged swap).
const MIN_HOLDOUT: usize = 8;

/// Newest holdout records actually replayed per shadow score.
const SHADOW_SLICE: usize = 24;

/// Demote when post-swap mean error exceeds the pre-swap (drifted) mean
/// error by this factor — the canary made things *worse* than the model
/// it replaced.
const KILL_RATIO: f64 = 1.5;

/// Control-plane tunables.
#[derive(Debug, Clone, Copy)]
pub struct AdaptOptions {
    /// Drift-detection configuration.
    pub drift: DriftConfig,
    /// The candidate must beat the incumbent's holdout error by this
    /// relative margin to be swapped in (0.05 = 5% better).
    pub shadow_margin: f64,
    /// Completed queries observed *after* drift is declared before the
    /// retrain task is released to the worker. Retraining at the drift
    /// instant would train on a window still dominated by pre-drift
    /// records; this delay lets the sliding window turn over to the
    /// new regime first. 0 releases immediately.
    pub retrain_delay: usize,
    /// Completed queries watched after a swap before the kill-switch
    /// verdict.
    pub kill_window: usize,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions {
            drift: DriftConfig::default(),
            shadow_margin: 0.05,
            retrain_delay: 64,
            kill_window: 32,
        }
    }
}

/// Current position in the adaptation loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Phase {
    /// Watching the error streams; no adaptation in flight.
    Stable,
    /// Drift declared; accumulating post-drift observations so the
    /// training window turns over before the retrain is released.
    Accumulating {
        /// Observations still to go before release.
        remaining: usize,
        /// The task to release.
        task: RetrainTask,
    },
    /// Drift declared; a retrain task is queued or running.
    RetrainQueued,
    /// A candidate was swapped in; watching its live error.
    PostSwap {
        /// Registry version minted by the swap.
        generation: u64,
        /// Error stream being watched: the one that drifted
        /// (`0..6` or [`OVERALL`]).
        stream: usize,
        /// Recent mean error of that stream on the *drifted incumbent*
        /// at drift time — the bar the canary must not be worse than.
        pre_err: f64,
        /// Completed queries watched so far.
        observed: usize,
        /// Sum of their errors on the watched stream.
        err_sum: f64,
    },
    /// The kill-switch fired; serving from the cost-model baseline
    /// until a healthy model is installed.
    Demoted,
}

/// A queued request to retrain and canary a candidate model. Carries
/// only the decision context; training data and holdout are
/// snapshotted from live state when the task actually *runs*, so a
/// task that waited in the queue trains on the freshest window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrainTask {
    /// The drift that caused this task.
    pub signal: DriftSignal,
    /// Registry version of the incumbent at drift time (the guarded
    /// swap's expectation).
    pub incumbent: u64,
    /// Recent mean error of the drifted stream at drift time.
    pub pre_err: f64,
}

/// What [`AdaptiveController::run_task`] did.
#[derive(Debug)]
pub enum AdaptOutcome {
    /// Candidate won the shadow score and was swapped in.
    Swapped {
        /// Registry version minted for the candidate.
        generation: u64,
        /// Candidate mean holdout error.
        candidate_err: f64,
        /// Incumbent mean holdout error.
        incumbent_err: f64,
    },
    /// Candidate lost (or tied within the margin); incumbent kept.
    Rejected {
        /// Candidate mean holdout error.
        candidate_err: f64,
        /// Incumbent mean holdout error.
        incumbent_err: f64,
    },
    /// The guarded swap lost its race (someone installed meanwhile).
    Raced(SwapRace),
    /// Training the candidate failed; incumbent kept.
    TrainFailed(QppError),
    /// Too little data to train or judge a candidate; incumbent kept.
    InsufficientData {
        /// Training-window records available.
        window: usize,
        /// Holdout records available.
        holdout: usize,
    },
}

/// Notable events surfaced by [`AdaptiveController::observe`].
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptEvent {
    /// Drift declared; a retrain task was queued.
    DriftDetected(DriftSignal),
    /// Post-swap watch completed without regression.
    CanaryPassed {
        /// Registry version being watched.
        generation: u64,
        /// Mean error over the watch window.
        post_err: f64,
    },
    /// Post-swap regression: the entry was demoted to the baseline.
    KillSwitch {
        /// Demoted-entry registry version.
        generation: u64,
        /// Pre-swap (drifted) mean error.
        pre_err: f64,
        /// Post-swap mean error that tripped the switch.
        post_err: f64,
    },
    /// The kill-switch decision raced a newer install; nothing demoted.
    KillSwitchRaced(SwapRace),
}

/// Lock-free adaptation counters.
#[derive(Debug, Default)]
pub struct AdaptStats {
    /// Completed KCCA-answered queries folded into the error ledger.
    pub observations: Counter,
    /// Drift signals that queued a retrain.
    pub drift_signals: Counter,
    /// Retrain tasks executed.
    pub retrains: Counter,
    /// Shadow-score evaluations performed.
    pub shadow_evaluations: Counter,
    /// Candidates swapped in.
    pub canary_swaps: Counter,
    /// Candidates rejected by the shadow score.
    pub canary_rejections: Counter,
    /// Guarded swaps lost to a concurrent install.
    pub swap_races: Counter,
    /// Kill-switch demotions.
    pub demotions: Counter,
}

/// Everything mutable, behind the controller's one mutex.
#[derive(Debug)]
struct ControlState {
    tracker: ErrorTracker,
    detector: DriftDetector,
    window: SlidingWindowPredictor,
    holdout: VecDeque<QueryRecord>,
    epoch: u64,
    since_holdout: usize,
    phase: Phase,
    /// The released retrain task until a worker takes it; one slot
    /// suffices because [`Phase::RetrainQueued`] admits one in flight.
    pending: Option<RetrainTask>,
    shutdown: bool,
}

/// The continuous-learning control plane for one registry entry.
#[derive(Debug)]
pub struct AdaptiveController {
    registry: Arc<ModelRegistry>,
    key: ModelKey,
    options: AdaptOptions,
    stats: AdaptStats,
    state: Mutex<ControlState>,
    /// Signalled when `pending` or `shutdown` (both in `state`) is set.
    task_ready: Condvar,
}

impl AdaptiveController {
    /// Creates a controller adapting the model under `key` in
    /// `registry`. `window` supplies both the sliding training set
    /// (seed it with the initial training data) and the predictor
    /// options candidates train with.
    pub fn new(
        registry: Arc<ModelRegistry>,
        key: ModelKey,
        window: SlidingWindowPredictor,
        options: AdaptOptions,
    ) -> AdaptiveController {
        AdaptiveController {
            registry,
            key,
            options,
            stats: AdaptStats::default(),
            state: Mutex::new(ControlState {
                tracker: ErrorTracker::default(),
                detector: DriftDetector::new(options.drift),
                window,
                holdout: VecDeque::with_capacity(HOLDOUT_CAPACITY),
                epoch: 0,
                since_holdout: 0,
                phase: Phase::Stable,
                pending: None,
                shutdown: false,
            }),
            task_ready: Condvar::new(),
        }
    }

    /// The error ledger as of now: observations, dropped, global means
    /// and the per-template rows, read under one lock acquisition.
    pub fn error_snapshot(&self) -> ErrorSnapshot {
        self.state.lock().tracker.snapshot()
    }

    /// Adaptation counters.
    pub fn stats(&self) -> &AdaptStats {
        &self.stats
    }

    /// The counters, then the overall stream's drift readings as the
    /// detector holds them now (`recent_mean_err`,
    /// `calibration_mean_err`, `drift_score`), as JSON lines, one
    /// object per line, in fixed order (the shape of
    /// `StatsSnapshot::counters_jsonl` in `qpp-serve`).
    pub fn counters_jsonl(&self) -> String {
        let stats = &self.stats;
        let mut out = String::new();
        for (name, value) in [
            ("observations", stats.observations.get()),
            ("drift_signals", stats.drift_signals.get()),
            ("retrains", stats.retrains.get()),
            ("shadow_evaluations", stats.shadow_evaluations.get()),
            ("canary_swaps", stats.canary_swaps.get()),
            ("canary_rejections", stats.canary_rejections.get()),
            ("swap_races", stats.swap_races.get()),
            ("demotions", stats.demotions.get()),
        ] {
            out.push_str(&format!("{{\"counter\":\"{name}\",\"value\":{value}}}\n"));
        }
        let readings = {
            let detector = &self.state.lock().detector;
            [
                ("recent_mean_err", detector.recent_mean(OVERALL)),
                ("calibration_mean_err", detector.calibration_mean(OVERALL)),
                ("drift_score", detector.score(OVERALL)),
            ]
        };
        for (name, value) in readings {
            out.push_str(&format!("{{\"gauge\":\"{name}\",\"value\":{value:.6}}}\n"));
        }
        out
    }

    /// Current phase of the adaptation loop.
    pub fn phase(&self) -> Phase {
        self.state.lock().phase
    }

    /// Feeds one completed query. KCCA-answered queries update the
    /// error ledger and drift detector; every executed query (any
    /// answer source) refreshes the training window / holdout. Returns
    /// a notable event when one occurred at this observation.
    pub fn observe(&self, record: &QueryRecord, response: &ServeResponse) -> Option<AdaptEvent> {
        if response.source != AnswerSource::Kcca {
            // Fallback answers carry no multi-metric prediction to
            // score, but the executed query is still fresh training
            // data.
            let mut st = self.state.lock();
            Self::stash(&mut st, record);
            return None;
        }
        let errors = log_ratio_errors(&response.prediction.metrics, &record.metrics);
        self.stats.observations.incr();
        let overall = mean_error(&errors);

        let mut st = self.state.lock();
        st.tracker.record(&record.spec.template, &errors);
        st.epoch += 1;
        let epoch = st.epoch;
        Self::stash(&mut st, record);
        let signal = st.detector.observe(epoch, &errors);

        match st.phase {
            Phase::Stable => {
                let signal = signal?;
                let incumbent = self.registry.current_version(&self.key)?;
                let pre_err = st.detector.recent_mean(signal.metric);
                let task = RetrainTask {
                    signal,
                    incumbent,
                    pre_err,
                };
                if self.options.retrain_delay == 0 {
                    self.release(&mut st, task);
                } else {
                    st.phase = Phase::Accumulating {
                        remaining: self.options.retrain_delay,
                        task,
                    };
                }
                drop(st);
                self.stats.drift_signals.incr();
                record_mark(Stage::Drift, signal.metric as u64);
                Some(AdaptEvent::DriftDetected(signal))
            }
            Phase::Accumulating { remaining, task } => {
                if remaining > 1 {
                    st.phase = Phase::Accumulating {
                        remaining: remaining - 1,
                        task,
                    };
                } else {
                    self.release(&mut st, task);
                }
                None
            }
            Phase::RetrainQueued => None,
            Phase::Demoted => {
                // While demoted the workers answer from the cost model,
                // so a KCCA answer stamped with the registry's current,
                // healthy version means a model was installed: re-arm,
                // calibrating on that model from scratch.
                let healthy = self
                    .registry
                    .get(&self.key)
                    .is_some_and(|e| !e.degraded && e.version == response.model_version);
                if healthy {
                    st.detector.reset();
                    st.phase = Phase::Stable;
                }
                None
            }
            Phase::PostSwap {
                generation,
                stream,
                pre_err,
                observed,
                err_sum,
            } => {
                // Requests outstanding at swap time complete afterwards
                // with the replaced incumbent's answers; only the
                // canary's own answers are evidence about the canary.
                if response.model_version < generation {
                    return None;
                }
                if response.model_version > generation {
                    // Someone installed mid-watch: the canary no longer
                    // serves, and the newer model is not ours to judge.
                    st.phase = Phase::Stable;
                    return None;
                }
                let observed = observed + 1;
                let err_sum = err_sum
                    + if stream == OVERALL {
                        overall
                    } else {
                        errors[stream]
                    };
                if observed < self.options.kill_window {
                    st.phase = Phase::PostSwap {
                        generation,
                        stream,
                        pre_err,
                        observed,
                        err_sum,
                    };
                    return None;
                }
                let post_err = err_sum / observed as f64;
                if post_err > pre_err * KILL_RATIO {
                    st.phase = Phase::Demoted;
                    drop(st);
                    match self
                        .registry
                        .demote_if_current(self.key.clone(), generation)
                    {
                        Ok(gen) => {
                            self.stats.demotions.incr();
                            Some(AdaptEvent::KillSwitch {
                                generation: gen,
                                pre_err,
                                post_err,
                            })
                        }
                        Err(race) => {
                            // A newer model landed mid-watch; its
                            // health is not ours to judge.
                            self.state.lock().phase = Phase::Stable;
                            Some(AdaptEvent::KillSwitchRaced(race))
                        }
                    }
                } else {
                    st.phase = Phase::Stable;
                    Some(AdaptEvent::CanaryPassed {
                        generation,
                        post_err,
                    })
                }
            }
        }
    }

    /// Leaves `task` for `wait_task` / `try_take_task` and wakes a
    /// waiting worker.
    fn release(&self, st: &mut ControlState, task: RetrainTask) {
        st.phase = Phase::RetrainQueued;
        st.pending = Some(task);
        self.task_ready.notify_one();
    }

    /// Appends the record to the window, diverting every
    /// [`HOLDOUT_EVERY`]-th to the shadow holdout instead.
    fn stash(st: &mut ControlState, record: &QueryRecord) {
        st.since_holdout += 1;
        if st.since_holdout >= HOLDOUT_EVERY {
            st.since_holdout = 0;
            st.holdout.push_back(record.clone());
            while st.holdout.len() > HOLDOUT_CAPACITY {
                st.holdout.pop_front();
            }
        } else {
            st.window.push(record.clone());
        }
    }

    /// Executes one retrain task: train a candidate on the current
    /// window, shadow-score it against the incumbent on the newest
    /// holdout slice, and hot-swap only if it wins by the margin.
    pub fn run_task(&self, task: RetrainTask) -> AdaptOutcome {
        self.stats.retrains.incr();
        // Snapshot the freshest data (the window kept filling while
        // this task waited in the queue).
        let (dataset, holdout, predictor_options) = {
            let st = self.state.lock();
            let skip = st.holdout.len().saturating_sub(SHADOW_SLICE);
            let holdout: Vec<QueryRecord> = st.holdout.iter().skip(skip).cloned().collect();
            (st.window.window_dataset(), holdout, st.window.options())
        };
        if dataset.len() < MIN_TRAIN_WINDOW || holdout.len() < MIN_HOLDOUT {
            self.back_to_stable(false);
            return AdaptOutcome::InsufficientData {
                window: dataset.len(),
                holdout: holdout.len(),
            };
        }

        let trained = {
            let mut retrain_span = span(Stage::Retrain);
            retrain_span.set_value(dataset.len() as u64);
            KccaPredictor::train(&dataset, predictor_options)
                .and_then(|p| OptimizerCostModel::train(&dataset).map(|f| (p, f)))
        };
        let (candidate, candidate_fallback) = match trained {
            Ok(pair) => pair,
            Err(e) => {
                self.back_to_stable(false);
                return AdaptOutcome::TrainFailed(e);
            }
        };

        let incumbent_entry = match self.registry.get(&self.key) {
            Some(entry) if entry.version == task.incumbent => entry,
            other => {
                self.back_to_stable(false);
                self.stats.swap_races.incr();
                return AdaptOutcome::Raced(SwapRace {
                    expected: task.incumbent,
                    found: other.map(|e| e.version),
                });
            }
        };

        // Judge on the stream that actually drifted: the overall mean
        // dilutes a one-metric regression sixfold, and the margin test
        // would drown in the other metrics' noise.
        let stream = task.signal.metric;
        let (candidate_err, incumbent_err) = {
            let mut score_span = span(Stage::ShadowScore);
            score_span.set_value(holdout.len() as u64);
            (
                shadow_score(&candidate, &holdout, stream),
                shadow_score(&incumbent_entry.predictor, &holdout, stream),
            )
        };
        self.stats.shadow_evaluations.incr();

        if candidate_err <= incumbent_err * (1.0 - self.options.shadow_margin) {
            match self.registry.swap_if_current(
                self.key.clone(),
                task.incumbent,
                candidate,
                candidate_fallback,
            ) {
                Ok(generation) => {
                    self.stats.canary_swaps.incr();
                    record_mark(Stage::CanarySwap, generation);
                    let mut st = self.state.lock();
                    st.detector.reset();
                    st.phase = Phase::PostSwap {
                        generation,
                        stream,
                        pre_err: task.pre_err,
                        observed: 0,
                        err_sum: 0.0,
                    };
                    AdaptOutcome::Swapped {
                        generation,
                        candidate_err,
                        incumbent_err,
                    }
                }
                Err(race) => {
                    self.stats.swap_races.incr();
                    self.back_to_stable(false);
                    AdaptOutcome::Raced(race)
                }
            }
        } else {
            self.stats.canary_rejections.incr();
            // The incumbent is as good as it gets on current traffic;
            // re-baseline the detector on the new normal instead of
            // re-alarming every observation.
            self.back_to_stable(true);
            AdaptOutcome::Rejected {
                candidate_err,
                incumbent_err,
            }
        }
    }

    fn back_to_stable(&self, reset_detector: bool) {
        let mut st = self.state.lock();
        if reset_detector {
            st.detector.reset();
        }
        st.phase = Phase::Stable;
    }

    /// Blocks until a task is released or [`shutdown_tasks`] is called.
    /// The background worker's main loop.
    ///
    /// [`shutdown_tasks`]: AdaptiveController::shutdown_tasks
    pub fn wait_task(&self) -> Option<RetrainTask> {
        let mut st = self.state.lock();
        loop {
            if let Some(task) = st.pending.take() {
                return Some(task);
            }
            if st.shutdown {
                return None;
            }
            self.task_ready.wait(&mut st);
        }
    }

    /// Takes the released task, if there is one, without blocking.
    fn try_take_task(&self) -> Option<RetrainTask> {
        self.state.lock().pending.take()
    }

    /// Runs every queued task synchronously on the calling thread —
    /// deterministic single-threaded adaptation for tests and the
    /// example's no-worker mode.
    pub fn drain_pending(&self) -> Vec<AdaptOutcome> {
        let mut outcomes = Vec::new();
        while let Some(task) = self.try_take_task() {
            outcomes.push(self.run_task(task));
        }
        outcomes
    }

    /// Wakes and terminates [`wait_task`] loops.
    ///
    /// [`wait_task`]: AdaptiveController::wait_task
    pub fn shutdown_tasks(&self) {
        self.state.lock().shutdown = true;
        self.task_ready.notify_all();
    }
}

impl CompletionObserver for AdaptiveController {
    fn on_completion(&self, record: &QueryRecord, response: &ServeResponse) {
        self.observe(record, response);
    }
}

/// Mean log-ratio error of `predictor` replayed over the holdout
/// records, on one error stream (a metric index, or [`OVERALL`] for
/// the mean of all six). Records the model cannot predict (feature
/// outside its support) score the clamp maximum — a model that fails
/// on live traffic must not win by abstaining. Returns infinity for an
/// empty holdout so the caller's margin comparison rejects the swap.
fn shadow_score(predictor: &KccaPredictor, holdout: &[QueryRecord], stream: usize) -> f64 {
    if holdout.is_empty() {
        return f64::INFINITY;
    }
    let mut sum = 0.0;
    for record in holdout {
        match predictor.predict(&record.spec, &record.optimized.plan) {
            Ok(p) => {
                let errors = log_ratio_errors(&p.metrics, &record.metrics);
                sum += if stream == OVERALL {
                    mean_error(&errors)
                } else {
                    errors[stream]
                };
            }
            Err(_) => sum += ERR_CLAMP,
        }
    }
    sum / holdout.len() as f64
}
