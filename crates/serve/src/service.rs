//! The online prediction service: a worker pool over the quota-gated
//! request queue, answering each request with a KCCA prediction, an
//! admission decision, and a deadline-bounded fallback.
//!
//! Flow per request:
//!
//! 1. `submit` (or `submit_async`) resolves the request's [`TenantId`]
//!    and pushes it onto the queue. Admission is a real gate: an
//!    over-quota tenant is rejected with
//!    [`QppError::TenantQuotaExceeded`], a full queue rejects with
//!    [`QppError::QueueFull`] — both recorded as `admission_reject`
//!    marks carrying the request's trace ID and a `REJECT_*` reason
//!    code.
//! 2. Whichever worker is idle drains a micro-batch of the oldest
//!    requests and answers them in arrival order: one registry lookup
//!    and one `KccaPredictor::predict` call each, under the request's
//!    own trace ID. The micro-batch amortizes the queue lock and the
//!    wake-up, not the model: every row of a KCCA prediction is
//!    independent of every other, so there is no batched kernel to
//!    feed.
//! 3. The admission gateway turns the prediction into an
//!    [`AdmissionDecision`] under the service's [`AdmissionPolicy`].
//! 4. If the worker misses the request's deadline, the client answers
//!    itself from the registry's `OptimizerCostModel` fallback — an
//!    O(1) estimate from the plan's optimizer cost — so callers always
//!    get a bounded-latency answer.
//!
//! Every accepted request whose answer is waited on ends in exactly
//! one of the service-wide `completed`, `fallbacks` or `failed` counts.

use crate::queue::TenantQueue;
use crate::registry::{ModelEntry, ModelKey, ModelRegistry};
use crate::stats::{ServiceStats, StatsSnapshot};
use crate::tenant::{TenantId, TenantSpec, TenantTable};
use parking_lot::{Condvar, Mutex, RwLock};
use qpp_core::workload_mgmt::{decide, AdmissionDecision, AdmissionPolicy};
use qpp_core::{NeighborIds, Prediction, QppError, QueryRecord};
use qpp_engine::{PerfMetrics, Plan};
use qpp_obs::Stage;
use qpp_workload::QuerySpec;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Reason code an `admission_reject` mark carries as its value: the
/// queue was at capacity.
pub const REJECT_QUEUE_FULL: u64 = 0;
/// Reason code an `admission_reject` mark carries as its value: the
/// tenant's own quota was exhausted.
pub const REJECT_OVER_QUOTA: u64 = 1;

/// Observer of completed query executions: the closed-loop feedback
/// port of the service. Once a served query has actually run and its
/// true [`PerfMetrics`] are known, the embedder reports the outcome via
/// [`PredictionService::observe_completion`], and the installed
/// observer — typically `qpp-adapt`'s controller — compares prediction
/// against reality to drive drift detection and retraining.
///
/// Implementations are called from whatever thread reports the
/// completion; they must be cheap and must never block on the serve
/// predict path.
pub trait CompletionObserver: Send + Sync {
    /// One executed query: the record carries the query, its plan, and
    /// the *measured* metrics; `response` carries what was predicted,
    /// which model generation answered, and through which path.
    fn on_completion(&self, record: &QueryRecord, response: &ServeResponse);
}

/// One prediction request.
#[derive(Debug, Clone)]
pub struct PredictRequest {
    /// Which installed model should answer.
    pub key: ModelKey,
    /// The tenant (workload owner) submitting, whose quota admits the
    /// request; unregistered IDs fold into the catch-all default
    /// tenant.
    pub tenant: TenantId,
    /// The query to predict for.
    pub spec: QuerySpec,
    /// Its optimized plan.
    pub plan: Plan,
    /// How long the caller is willing to wait for the KCCA answer
    /// before falling back to the optimizer-cost estimate.
    pub deadline: Duration,
}

/// Which path produced an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSource {
    /// A worker answered through the KCCA model.
    Kcca,
    /// The client answered from the optimizer-cost fallback after the
    /// deadline expired.
    CostModelFallback,
}

/// A served prediction plus the gateway's admission decision.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// The multi-metric prediction (fallback answers carry only an
    /// elapsed-time estimate; other metrics are zero).
    pub prediction: Prediction,
    /// Admission outcome under the service policy.
    pub decision: AdmissionDecision,
    /// KCCA or fallback.
    pub source: AnswerSource,
    /// Registry version of the model entry that answered.
    pub model_version: u64,
    /// End-to-end latency from submission to answer.
    pub latency: Duration,
    /// The request's trace ID: every span this request produced
    /// (admission, queue wait, worker, predict, fallback) carries it,
    /// so `qpp_obs::recorder().export_trace(trace_id)` reconstructs the
    /// request's timeline.
    pub trace_id: u64,
}

/// Tunables for [`PredictionService::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads. 0 is allowed (nothing drains the queue; every
    /// request is answered by the deadline fallback) and is used by the
    /// backpressure tests.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_capacity: usize,
    /// Max requests a worker takes from the queue per drain.
    pub max_batch: usize,
    /// Admission policy applied to every answered request.
    pub policy: AdmissionPolicy,
    /// Tenant directory: admission quotas. A catch-all default tenant
    /// is always present; an empty list means single-tenant behavior
    /// (everything admitted under the default's unlimited quota).
    pub tenants: Vec<TenantSpec>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 4,
            queue_capacity: 256,
            max_batch: 16,
            policy: AdmissionPolicy::default(),
            tenants: Vec::new(),
        }
    }
}

struct Queued {
    /// Shared with the client's [`PendingPrediction`]: one request, two
    /// readers.
    request: Arc<PredictRequest>,
    /// The request's one timestamp, on the obs clock (which shares an
    /// epoch with every span in the trace): the queue-wait span, the
    /// response latency and the deadline's remaining time all count
    /// from it.
    enqueued_ns: u64,
    trace_id: u64,
    slot: Arc<Slot>,
}

impl Drop for Queued {
    /// Closes an unanswered request's slot: its client falls back at once.
    fn drop(&mut self) {
        self.slot.end(SlotState::Closed);
    }
}

/// One answer's hand-off from a worker to its client: one lock, and
/// one condvar the worker signals only if the client parked on it.
#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
    filled: Condvar,
}

/// `Empty` (with `waiting` set while the client is parked) until a
/// worker's answer fills it or the request is dropped unanswered and
/// closes it; `Abandoned` once the client fell back or took the answer.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one per request, in the slot's `Arc`; a box is an allocation
enum SlotState {
    Empty { waiting: bool },
    Filled(Result<ServeResponse, QppError>),
    Abandoned,
    Closed,
}

impl Slot {
    /// Ends an empty slot with `end`, waking a parked client; false when
    /// the slot had already ended (the client fell back first).
    fn end(&self, end: SlotState) -> bool {
        let mut state = self.state.lock();
        let SlotState::Empty { waiting } = *state else {
            return false;
        };
        *state = end;
        drop(state);
        if waiting {
            self.filled.notify_one();
        }
        true
    }
}

/// A submitted request the caller has not yet waited on.
#[derive(Debug)]
pub struct PendingPrediction {
    slot: Arc<Slot>,
    request: Arc<PredictRequest>,
    /// The queued request's `enqueued_ns` (same stamp, same clock).
    submitted_ns: u64,
    trace_id: u64,
    registry: Arc<ModelRegistry>,
    stats: Arc<ServiceStats>,
    policy: AdmissionPolicy,
}

impl PendingPrediction {
    /// The trace ID assigned to this request at submission.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Blocks until the worker answers or the request's deadline
    /// passes, then returns exactly one answer: the worker's if it made
    /// the deadline, otherwise the optimizer-cost fallback.
    ///
    /// The deadline is measured from *submission*, not from this call:
    /// time the caller spent between `submit_async` and `wait` counts
    /// against it. (Waiting the full `deadline` from wait-start let a
    /// slow caller stretch its latency budget to submit-to-wait gap +
    /// deadline, which is exactly the bounded-latency guarantee the
    /// deadline exists to give up on time.)
    ///
    /// Every per-answer count (`completed`, `fallbacks` or `failed`,
    /// and the admission decision) is made here, before the answer is
    /// returned, so a snapshot read after `wait` always includes it.
    pub fn wait(self) -> Result<ServeResponse, QppError> {
        let mut state = self.slot.state.lock();
        let answer = loop {
            // Whatever is not an answer ends as Abandoned: the last look
            // and the abandoning are one step under the lock, so a worker
            // that fills the slot later finds it abandoned.
            match std::mem::replace(&mut *state, SlotState::Abandoned) {
                SlotState::Filled(answer) => break Some(answer),
                SlotState::Empty { .. } => {
                    let since = elapsed_since(self.submitted_ns);
                    let remaining = self.request.deadline.saturating_sub(since);
                    if remaining.is_zero() {
                        break None;
                    }
                    *state = SlotState::Empty { waiting: true };
                    self.slot.filled.wait_for(&mut state, remaining);
                }
                // Closed: the pool dropped the request; the fallback answers.
                SlotState::Abandoned | SlotState::Closed => break None,
            }
        };
        drop(state);
        match answer {
            Some(answer) => self.count(answer),
            None => self.fallback(),
        }
    }

    /// Counts a worker's answer as it is handed to the caller.
    fn count(&self, answer: Result<ServeResponse, QppError>) -> Result<ServeResponse, QppError> {
        match &answer {
            Ok(response) => {
                self.stats.completed.incr();
                record_decision(&self.stats, &response.decision);
            }
            Err(_) => self.stats.failed.incr(),
        }
        answer
    }

    /// Answers from the registry's cost model without the worker pool.
    fn fallback(self) -> Result<ServeResponse, QppError> {
        let Some(entry) = self.registry.get(&self.request.key) else {
            self.stats.failed.incr();
            return Err(QppError::UnknownModel {
                key: self.request.key.to_string(),
            });
        };
        let prediction = cost_model_prediction(&entry, &self.request.plan);
        let decision = decide(&self.policy, &prediction);
        record_decision(&self.stats, &decision);
        self.stats.fallbacks.incr();
        qpp_obs::recorder().record_mark(self.trace_id, Stage::Fallback, entry.version);
        Ok(ServeResponse {
            prediction,
            decision,
            source: AnswerSource::CostModelFallback,
            model_version: entry.version,
            latency: elapsed_since(self.submitted_ns),
            trace_id: self.trace_id,
        })
    }
}

/// Time since `stamp_ns` on the obs clock.
fn elapsed_since(stamp_ns: u64) -> Duration {
    Duration::from_nanos(qpp_obs::recorder().now_ns().saturating_sub(stamp_ns))
}

/// The O(1) optimizer-cost answer, shared by the client-side deadline
/// fallback and the worker-side degraded path so the two can never
/// answer differently: an elapsed-time estimate, every other metric
/// zero.
fn cost_model_prediction(entry: &ModelEntry, plan: &Plan) -> Prediction {
    Prediction {
        metrics: PerfMetrics {
            elapsed_seconds: entry.fallback.predict_elapsed(plan),
            ..PerfMetrics::zero()
        },
        neighbor_indices: NeighborIds::new(),
        // The cost model has no notion of projection-space
        // confidence; report perfect confidence so the gateway
        // judges the elapsed estimate on resource limits alone.
        confidence_distance: 0.0,
        max_kernel_similarity: 1.0,
    }
}

fn record_decision(stats: &ServiceStats, decision: &AdmissionDecision) {
    match decision {
        AdmissionDecision::Admit { .. } => {
            stats.admitted.incr();
        }
        AdmissionDecision::Reject { .. } => {
            stats.policy_rejected.incr();
        }
        AdmissionDecision::ReviewRequired { .. } => {
            stats.review_required.incr();
        }
    }
}

/// The running service: registry + tenant queue + worker pool + stats.
pub struct PredictionService {
    registry: Arc<ModelRegistry>,
    queue: Arc<TenantQueue<Queued>>,
    stats: Arc<ServiceStats>,
    tenants: Arc<TenantTable>,
    policy: AdmissionPolicy,
    workers: Vec<JoinHandle<()>>,
    completion: RwLock<Option<Arc<dyn CompletionObserver>>>,
}

impl PredictionService {
    /// Starts the worker pool against `registry`.
    pub fn start(registry: Arc<ModelRegistry>, options: ServeOptions) -> Self {
        let tenants = Arc::new(TenantTable::new(options.tenants.clone()));
        let queue = Arc::new(TenantQueue::new(
            options.queue_capacity,
            Arc::clone(&tenants),
        ));
        let stats = Arc::new(ServiceStats::default());
        let workers = (0..options.workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let registry = Arc::clone(&registry);
                let stats = Arc::clone(&stats);
                let policy = options.policy;
                let max_batch = options.max_batch;
                std::thread::spawn(move || {
                    worker_loop(&queue, &registry, &stats, &policy, max_batch)
                })
            })
            .collect();
        PredictionService {
            registry,
            queue,
            stats,
            tenants,
            policy: options.policy,
            workers,
            completion: RwLock::new(None),
        }
    }

    /// The registry this service answers from (hot-swap through it).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Installs (or replaces) the completion observer that
    /// [`PredictionService::observe_completion`] forwards to.
    pub fn set_completion_observer(&self, observer: Arc<dyn CompletionObserver>) {
        *self.completion.write() = Some(observer);
    }

    /// Reports one completed execution back into the loop: the query's
    /// measured metrics next to the response that predicted them. Feeds
    /// the installed [`CompletionObserver`] (if any) and the
    /// `observed_completions` stat either way.
    pub fn observe_completion(&self, record: &QueryRecord, response: &ServeResponse) {
        self.stats.observed_completions.incr();
        let observer = self.completion.read().clone();
        if let Some(observer) = observer {
            observer.on_completion(record, response);
        }
    }

    /// Submits a request without waiting for its answer. Fails fast
    /// with backpressure (queue full, tenant over quota) or an
    /// unknown-model error; every backpressure rejection is recorded as
    /// an `admission_reject` mark carrying this request's trace ID and
    /// its `REJECT_*` reason code.
    pub fn submit_async(&self, request: PredictRequest) -> Result<PendingPrediction, QppError> {
        let rec = qpp_obs::recorder();
        let trace_id = rec.next_trace_id();
        let admit_start = rec.now_ns();
        if self.registry.current_version(&request.key).is_none() {
            return Err(QppError::UnknownModel {
                key: request.key.to_string(),
            });
        }
        let tenant_idx = self.tenants.resolve(request.tenant);
        let slot = Arc::new(Slot {
            state: Mutex::new(SlotState::Empty { waiting: false }),
            filled: Condvar::new(),
        });
        let enqueued_ns = rec.now_ns();
        let request = Arc::new(request);
        let queued = Queued {
            request: Arc::clone(&request),
            enqueued_ns,
            trace_id,
            slot: Arc::clone(&slot),
        };
        match self.queue.try_push(tenant_idx, queued) {
            Ok(depth) => {
                self.stats.submitted.incr();
                self.stats.observe_queue_depth(depth);
                rec.record_span(
                    trace_id,
                    Stage::Admission,
                    admit_start,
                    rec.now_ns().saturating_sub(admit_start),
                    depth as u64,
                );
                Ok(PendingPrediction {
                    slot,
                    request,
                    submitted_ns: enqueued_ns,
                    trace_id,
                    registry: Arc::clone(&self.registry),
                    stats: Arc::clone(&self.stats),
                    policy: self.policy,
                })
            }
            Err(e) => {
                // The rejection mark carries the admission trace ID and
                // the reason code: a shed request is still a traceable
                // event, not a silent drop.
                let reason = match &e {
                    QppError::TenantQuotaExceeded { .. } => {
                        self.stats.rejected_quota.incr();
                        REJECT_OVER_QUOTA
                    }
                    _ => {
                        self.stats.rejected_full.incr();
                        REJECT_QUEUE_FULL
                    }
                };
                rec.record_mark(trace_id, Stage::AdmissionReject, reason);
                Err(e)
            }
        }
    }

    /// Submits and waits: exactly one answer per accepted request, never
    /// later than (roughly) the request's deadline.
    pub fn submit(&self, request: PredictRequest) -> Result<ServeResponse, QppError> {
        self.submit_async(request)?.wait()
    }

    /// Point-in-time statistics, including the registry's swap and
    /// demotion counts.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot(
            self.queue.len(),
            self.registry.swap_count(),
            self.registry.demote_count(),
        )
    }

    /// Stops accepting work, drains what was accepted, joins workers.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.queue.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for PredictionService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Worker body: drain a micro-batch, answer its requests in arrival
/// order. Each member's work starts where the previous member's answer
/// ended, so the members' worker spans tile the batch and the wait
/// inside it counts as the member's queue wait.
fn worker_loop(
    queue: &TenantQueue<Queued>,
    registry: &ModelRegistry,
    stats: &ServiceStats,
    policy: &AdmissionPolicy,
    max_batch: usize,
) {
    let mut batch: Vec<Queued> = Vec::with_capacity(max_batch.max(1));
    while queue.drain(max_batch, &mut batch) {
        stats.record_batch(batch.len());
        let rec = qpp_obs::recorder();
        let batch_len = batch.len() as u64;
        let mut start_ns = rec.now_ns();
        for queued in batch.drain(..) {
            rec.record_span(
                queued.trace_id,
                Stage::QueueWait,
                queued.enqueued_ns,
                start_ns.saturating_sub(queued.enqueued_ns),
                batch_len,
            );
            start_ns = answer(registry, stats, policy, queued, start_ns);
        }
    }
}

/// Answers one drained request: the installed model's prediction under
/// the request's own trace ID (so its standardize / project / kNN
/// sub-spans land in the request's trace), or the O(1) optimizer-cost
/// baseline while the entry is kill-switched. The work started at
/// `start_ns`; returns the stamp at which it ended.
fn answer(
    registry: &ModelRegistry,
    stats: &ServiceStats,
    policy: &AdmissionPolicy,
    queued: Queued,
    start_ns: u64,
) -> u64 {
    let request = &queued.request;
    let rec = qpp_obs::recorder();
    // Resolved per request (a read lock and a map lookup): each answer
    // comes from one consistent entry even if a hot-swap lands
    // mid-batch.
    let Some(entry) = registry.get(&request.key) else {
        let key = request.key.to_string();
        queued
            .slot
            .end(SlotState::Filled(Err(QppError::UnknownModel { key })));
        return rec.now_ns();
    };
    let (prediction, source) = if entry.degraded {
        // Kill-switched entry: the KCCA model regressed post-swap and
        // was demoted; answer from the cost model until a healthy model
        // is installed over it.
        stats.degraded_answers.incr();
        rec.record_mark(queued.trace_id, Stage::Fallback, entry.version);
        (
            cost_model_prediction(&entry, &request.plan),
            AnswerSource::CostModelFallback,
        )
    } else {
        let result = qpp_obs::with_trace(queued.trace_id, || {
            let _predict = qpp_obs::span(Stage::Predict);
            entry.predictor.predict(&request.spec, &request.plan)
        });
        match result {
            Ok(prediction) => (prediction, AnswerSource::Kcca),
            Err(e) => {
                queued.slot.end(SlotState::Filled(Err(e)));
                return rec.now_ns();
            }
        }
    };
    let response = ServeResponse {
        decision: decide(policy, &prediction),
        prediction,
        source,
        model_version: entry.version,
        latency: elapsed_since(queued.enqueued_ns),
        trace_id: queued.trace_id,
    };
    // Record the worker span *before* handing the answer over: once the
    // client holds the response it may export the trace, and the span
    // must already be in the ring. The value is the model version
    // that answered.
    let end_ns = rec.now_ns();
    rec.record_span(
        queued.trace_id,
        Stage::Worker,
        start_ns,
        end_ns.saturating_sub(start_ns),
        entry.version,
    );
    // The client counts the answer in `wait` as it takes it; only an
    // answer no client will read is the worker's to count.
    if !queued.slot.end(SlotState::Filled(Ok(response))) {
        // The client already fell back at its deadline.
        stats.late_answers.incr();
    }
    end_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpp_core::baselines::OptimizerCostModel;
    use qpp_core::{Dataset, FeatureKind, KccaPredictor, PredictorOptions};
    use qpp_obs::EventKind;
    use qpp_workload::{Schema, WorkloadGenerator};

    /// A `workers: 0` service over a 60-query model, with a registered
    /// tenant 7: only a `worker_loop` the test runs itself drains it.
    /// Beside it, a request for training query `i`.
    fn idle_service() -> (
        PredictionService,
        impl Fn(usize, TenantId, Duration) -> PredictRequest,
    ) {
        let queries = WorkloadGenerator::tpcds(1.0, 111).generate(60);
        let config = qpp_engine::SystemConfig::neoview_4();
        let train = Dataset::collect(&Schema::tpcds(1.0), queries, &config, 2);
        let model = KccaPredictor::train(&train, PredictorOptions::default()).unwrap();
        let fallback = OptimizerCostModel::train(&train).unwrap();

        let key = ModelKey::new("neoview-4", FeatureKind::QueryPlan);
        let registry = Arc::new(ModelRegistry::new());
        registry.install(key.clone(), model, fallback);
        let options = ServeOptions {
            workers: 0,
            tenants: vec![TenantSpec::new(TenantId(7))],
            ..ServeOptions::default()
        };
        let request = move |i: usize, tenant, deadline| PredictRequest {
            key: key.clone(),
            tenant,
            spec: train.records[i].spec.clone(),
            plan: train.records[i].optimized.plan.clone(),
            deadline,
        };
        (PredictionService::start(registry, options), request)
    }

    /// Shuts the queue and runs the worker body on this thread: it
    /// answers everything accepted, then returns.
    fn drain(service: &PredictionService) {
        service.queue.shutdown();
        let PredictionService { queue, stats, .. } = service;
        worker_loop(queue, &service.registry, stats, &service.policy, 16);
    }

    /// Every member of a multi-member micro-batch gets its own complete
    /// trace, model sub-spans included, and the batch is answered in
    /// the order the queue drained it: arrival order, whatever the
    /// tenant. Deterministic: the four requests are queued before
    /// anything drains, then the worker body runs on this thread
    /// (shutdown drains what was accepted). Each answer is in its slot
    /// before `wait` looks, which takes it as a completion.
    #[test]
    fn every_member_of_a_batch_is_traced_and_answered_in_drain_order() {
        let (service, request) = idle_service();
        // Two requests of the default tenant, then two of tenant 7: the
        // drain keeps arrival order, 0 1 2 3, rather than alternating
        // tenants.
        let tenants = [
            crate::DEFAULT_TENANT,
            crate::DEFAULT_TENANT,
            TenantId(7),
            TenantId(7),
        ];
        let pending = std::array::from_fn::<_, 4, _>(|i| {
            let request = request(i, tenants[i], Duration::from_secs(30));
            service.submit_async(request).expect("under capacity")
        });
        drain(&service);
        assert_eq!(
            service.stats().mean_batch_size,
            4.0,
            "one drained batch of four"
        );

        // (start, end) of each request's QueueWait, Worker and Predict
        // spans, in arrival order.
        let spans = pending.map(|p| {
            let resp = p.wait().expect("the worker body answered");
            assert_eq!(resp.source, AnswerSource::Kcca);
            let events = qpp_obs::recorder().export_trace(resp.trace_id);
            let [_, queue_wait, worker, predict, model_spans @ ..] = [
                Stage::Admission,
                Stage::QueueWait,
                Stage::Worker,
                Stage::Predict,
                Stage::PredictStandardize,
                Stage::PredictProject,
                Stage::PredictKnn,
            ]
            .map(|stage| {
                let found: Vec<_> = events
                    .iter()
                    .filter(|e| e.stage == stage && e.kind == EventKind::Span)
                    .collect();
                assert_eq!(found.len(), 1, "one {stage} span per trace: {events:?}");
                (found[0].start_ns, found[0].start_ns + found[0].dur_ns)
            });
            for sub in model_spans {
                assert!(
                    predict.0 <= sub.0 && sub.1 <= predict.1,
                    "a model sub-span lies outside its request's predict span: {events:?}"
                );
            }
            assert!(
                worker.0 <= predict.0 && predict.1 <= worker.1,
                "the predict span lies outside its worker span: {events:?}"
            );
            assert_eq!(queue_wait.1, worker.0, "queue wait ends as work starts");
            (worker, predict)
        });
        // Each member's work starts where the previous one's ended: the
        // worker spans tile the batch, and the predictions never overlap.
        for pair in spans.windows(2) {
            let ((worker, predict), (next_worker, next_predict)) = (pair[0], pair[1]);
            assert_eq!(worker.1, next_worker.0, "worker spans tile: {spans:?}");
            assert!(
                predict.1 <= next_predict.0,
                "a request predicts entirely before the next: {spans:?}"
            );
        }
        let s = service.stats();
        assert_eq!((s.completed, s.fallbacks, s.late_answers), (4, 0, 0));
    }

    /// The client falls back first, so the worker's send finds the slot
    /// abandoned: one answer reached the caller, one was wasted.
    #[test]
    fn a_worker_answer_after_the_fallback_is_late() {
        let (service, request) = idle_service();
        let pending = service.submit_async(request(0, TenantId(7), Duration::ZERO));
        let response = pending.unwrap().wait().unwrap();
        assert_eq!(response.source, AnswerSource::CostModelFallback);
        drain(&service);
        let s = service.stats();
        assert_eq!((s.completed, s.fallbacks, s.late_answers), (0, 1, 1));
    }

    /// Dropping a `workers: 0` service drops its queued requests
    /// unanswered, which closes their slots: `wait` falls back at once
    /// rather than at its 30 s deadline.
    #[test]
    fn a_request_dropped_unanswered_falls_back_at_once() {
        let (service, request) = idle_service();
        let pending = service.submit_async(request(0, TenantId(7), Duration::from_secs(30)));
        drop(service);
        let response = pending.unwrap().wait().unwrap();
        assert_eq!(response.source, AnswerSource::CostModelFallback);
        assert!(response.latency < Duration::from_secs(5), "{response:?}");
    }
}
