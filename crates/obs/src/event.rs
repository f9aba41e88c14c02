//! Event model: what one recorded observation looks like.
//!
//! Events are fixed-size `Copy` values — no strings, no boxes — so the
//! hot path can hand them to the ring buffer without touching the heap.
//! Human-readable names only materialize at export time.

/// Which instrumented stage an event belongs to.
///
/// The serving path (admission → queue → worker → predict → fallback)
/// and the offline pipeline (standardize → kernel → ICD → eigensolve →
/// kNN build) share one namespace so a single exported trace can mix
/// both layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Stage {
    /// Request admission: registry lookup + queue push at submit time
    /// (`value` = queue depth after the push).
    Admission,
    /// Time a request waited before a worker started on it: in the
    /// bounded queue, then behind the earlier members of its micro-batch
    /// (`value` = size of that micro-batch).
    QueueWait,
    /// Worker handling of one request, from the end of the previous
    /// batch member's answer (or the drain, for the first) to its own
    /// response send (`value` = registry version of the model that
    /// answered).
    Worker,
    /// One request's own `KccaPredictor::predict` call on the worker;
    /// its standardize / project / kNN sub-spans nest inside it.
    Predict,
    /// Client-side optimizer-cost fallback after a deadline miss.
    Fallback,
    /// A model install/hot-swap landed in the registry.
    ModelSwap,
    /// Standardization of one query's features (`transform_row_into`).
    PredictStandardize,
    /// One query's kernel row + folded projection gemv.
    PredictProject,
    /// kNN search + neighbor-metric combine; the value counts the
    /// reference panels the search computed in full.
    PredictKnn,
    /// Whole `KccaPredictor::train` call.
    TrainTotal,
    /// Feature standardization fit + transform.
    TrainStandardize,
    /// Gaussian kernel scale fitting (both sides). Kernel *entries* are
    /// evaluated lazily inside the ICD stage.
    TrainKernel,
    /// Pivoted incomplete Cholesky on both kernel sides.
    TrainIcd,
    /// Regularized CCA on the ICD embeddings (the generalized
    /// eigensolve of the paper's Eq. 2).
    TrainEigensolve,
    /// Eigensolve sub-stage: the one Gram of the centred `[x | y]`
    /// (`Matrix::centred_gram`, which centres each tile it reads),
    /// whose blocks are `Cxx`, `Cyy`, `Cxy` (`value` = rows).
    TrainEigenGrams,
    /// Eigensolve sub-stage: Cholesky reduction to the correlation
    /// matrix `M = Lx⁻¹ Cxy Ly⁻ᵀ`.
    TrainEigenReduce,
    /// Eigensolve sub-stage: the dense symmetric eigendecomposition of
    /// `MᵀM` and the top singular triplets of `M` read off it (`value` =
    /// order of the Gram matrix solved).
    TrainEigenDecompose,
    /// Eigensolve sub-stage: back-transforming singular vectors into
    /// canonical weights (`wx = Lx⁻ᵀ u`, `wy = Ly⁻ᵀ v`).
    TrainEigenBacktransform,
    /// Building the nearest-neighbor index over the query projection.
    TrainKnnBuild,
    /// The drift detector flagged a shifted error distribution
    /// (mark; `value` = canonical index of the drifted metric).
    Drift,
    /// Candidate retraining triggered by a drift signal
    /// (span; `value` = training-window rows).
    Retrain,
    /// Replaying the held-out slice through candidate and incumbent
    /// (span; `value` = holdout records scored).
    ShadowScore,
    /// A shadow-validated candidate was hot-swapped into the registry
    /// (mark; `value` = the new registry generation).
    CanarySwap,
    /// Post-swap error regressed and the model was demoted to the
    /// optimizer-cost baseline (mark; `value` = demoted generation).
    KillSwitch,
    /// The admission gateway shed a request (mark; `value` is the
    /// reason code: 0 = the queue was full, 1 = the tenant's own quota
    /// was exhausted).
    AdmissionReject,
}

impl Stage {
    /// Number of stages (sizes the per-stage accumulator arrays).
    pub const COUNT: usize = 25;

    /// Every stage, in declaration order (stable for reports).
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Admission,
        Stage::QueueWait,
        Stage::Worker,
        Stage::Predict,
        Stage::Fallback,
        Stage::ModelSwap,
        Stage::PredictStandardize,
        Stage::PredictProject,
        Stage::PredictKnn,
        Stage::TrainTotal,
        Stage::TrainStandardize,
        Stage::TrainKernel,
        Stage::TrainIcd,
        Stage::TrainEigensolve,
        Stage::TrainEigenGrams,
        Stage::TrainEigenReduce,
        Stage::TrainEigenDecompose,
        Stage::TrainEigenBacktransform,
        Stage::TrainKnnBuild,
        Stage::Drift,
        Stage::Retrain,
        Stage::ShadowScore,
        Stage::CanarySwap,
        Stage::KillSwitch,
        Stage::AdmissionReject,
    ];

    /// Dense index into per-stage accumulators.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::QueueWait => "queue_wait",
            Stage::Worker => "worker",
            Stage::Predict => "predict",
            Stage::Fallback => "fallback",
            Stage::ModelSwap => "model_swap",
            Stage::PredictStandardize => "predict_standardize",
            Stage::PredictProject => "predict_project",
            Stage::PredictKnn => "predict_knn",
            Stage::TrainTotal => "train_total",
            Stage::TrainStandardize => "train_standardize",
            Stage::TrainKernel => "train_kernel",
            Stage::TrainIcd => "train_icd",
            Stage::TrainEigensolve => "train_eigensolve",
            Stage::TrainEigenGrams => "train_eigen_grams",
            Stage::TrainEigenReduce => "train_eigen_reduce",
            Stage::TrainEigenDecompose => "train_eigen_decompose",
            Stage::TrainEigenBacktransform => "train_eigen_backtransform",
            Stage::TrainKnnBuild => "train_knn_build",
            Stage::Drift => "drift",
            Stage::Retrain => "retrain",
            Stage::ShadowScore => "shadow_score",
            Stage::CanarySwap => "canary_swap",
            Stage::KillSwitch => "kill_switch",
            Stage::AdmissionReject => "admission_reject",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Event flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A completed span: `start_ns .. start_ns + dur_ns`.
    Span,
    /// An instantaneous marker (`dur_ns == 0`).
    Mark,
}

impl EventKind {
    fn name(self) -> &'static str {
        match self {
            EventKind::Span => "span",
            EventKind::Mark => "mark",
        }
    }
}

/// One recorded observation. Fixed-size and `Copy`: recording one never
/// allocates, and the ring stores it by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Trace this event belongs to; 0 means "untraced" (background
    /// work: training, offline experiment loops).
    pub trace_id: u64,
    /// Span or mark.
    pub kind: EventKind,
    /// Which instrumented stage.
    pub stage: Stage,
    /// Monotonic nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for marks).
    pub dur_ns: u64,
    /// Free-form payload: queue depth, batch size, model version, …
    pub value: u64,
}

impl Event {
    /// One JSONL line (no trailing newline). Timestamps and durations
    /// are reported in microseconds for readability.
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"trace\":{},\"kind\":\"{}\",\"stage\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3},\"value\":{}}}",
            self.trace_id,
            self.kind.name(),
            self.stage.name(),
            self.start_ns as f64 / 1e3,
            self.dur_ns as f64 / 1e3,
            self.value,
        )
    }
}

/// Renders a slice of events as JSONL, one event per line.
pub fn to_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_jsonl());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_round_trip() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert_eq!(Stage::ALL.len(), Stage::COUNT);
    }

    #[test]
    fn jsonl_shape() {
        let e = Event {
            trace_id: 42,
            kind: EventKind::Span,
            stage: Stage::QueueWait,
            start_ns: 1_500,
            dur_ns: 2_000,
            value: 9,
        };
        let line = e.to_jsonl();
        assert!(line.contains("\"trace\":42"));
        assert!(line.contains("\"stage\":\"queue_wait\""));
        assert!(line.contains("\"start_us\":1.500"));
        assert!(line.contains("\"dur_us\":2.000"));
        assert!(line.contains("\"value\":9"));
    }
}
