//! The unified error hierarchy of the predict path.
//!
//! Every layer of the data plane keeps its own narrow error type —
//! [`LinalgError`] for numerics, [`KnnError`] for neighbor search,
//! [`crate::model_io::ModelIoError`] for model
//! (de)serialization — and [`QppError`] is the single type they all
//! converge to at the public API boundary. Embedders match on one enum;
//! layers keep errors precise; `?` works across crate boundaries via
//! the `From` conversions below.
//!
//! Call sites that want to say *where* a failure happened attach a
//! static context string with [`ResultExt::ctx`]:
//!
//! ```
//! use qpp_core::error::{QppError, ResultExt};
//! # use qpp_linalg::LinalgError;
//! fn project() -> Result<(), QppError> {
//!     let r: Result<(), LinalgError> = Err(LinalgError::Empty("demo"));
//!     r.ctx("projecting query features")
//! }
//! assert!(project().unwrap_err().to_string().contains("projecting"));
//! ```

use crate::model_io::ModelIoError;
use qpp_linalg::LinalgError;
use qpp_ml::KnnError;
use std::fmt;

/// Workspace-level error for the train/predict/serve path.
#[derive(Debug)]
pub enum QppError {
    /// A linear-algebra failure (shape mismatch, non-convergence, …).
    Linalg {
        /// What the caller was doing, or `""` when converted via `?`.
        context: &'static str,
        /// The underlying numerics error.
        source: LinalgError,
    },
    /// A nearest-neighbor failure (empty reference, no finite
    /// neighbors, misaligned targets).
    Knn {
        /// What the caller was doing, or `""` when converted via `?`.
        context: &'static str,
        /// The underlying neighbor-search error.
        source: KnnError,
    },
    /// A model (de)serialization failure.
    ModelIo {
        /// What the caller was doing, or `""` when converted via `?`.
        context: &'static str,
        /// The underlying model-io error.
        source: ModelIoError,
    },
    /// The serving queue was full; the request was shed (capacity is
    /// the queue's configured limit, all of which any one tenant may
    /// fill).
    QueueFull {
        /// Configured queue capacity.
        capacity: usize,
    },
    /// A tenant exceeded its admission quota: its lane already held
    /// `quota` queued requests when the push took the queue lock, so one
    /// tenant flooding the gateway cannot displace another tenant's
    /// traffic.
    TenantQuotaExceeded {
        /// Numeric tenant ID whose quota was exhausted.
        tenant: u32,
        /// The tenant's configured quota (max queued requests).
        quota: usize,
    },
    /// The serving queue is draining for shutdown; no new requests.
    ShuttingDown,
    /// No model is registered under the requested key.
    UnknownModel {
        /// The key that failed to resolve.
        key: String,
    },
}

/// Convenience alias for the predict path.
pub type QppResult<T> = Result<T, QppError>;

impl QppError {
    /// Attaches (or replaces) the context of a layered variant; no-op
    /// for the serving variants, whose meaning is already complete.
    pub fn with_context(mut self, context: &'static str) -> Self {
        match &mut self {
            QppError::Linalg { context: c, .. }
            | QppError::Knn { context: c, .. }
            | QppError::ModelIo { context: c, .. } => *c = context,
            QppError::QueueFull { .. }
            | QppError::TenantQuotaExceeded { .. }
            | QppError::ShuttingDown
            | QppError::UnknownModel { .. } => {}
        }
        self
    }
}

impl fmt::Display for QppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn layered(
            f: &mut fmt::Formatter<'_>,
            layer: &str,
            context: &str,
            source: &dyn fmt::Display,
        ) -> fmt::Result {
            if context.is_empty() {
                write!(f, "{layer} error: {source}")
            } else {
                write!(f, "{layer} error while {context}: {source}")
            }
        }
        match self {
            QppError::Linalg { context, source } => layered(f, "linalg", context, source),
            QppError::Knn { context, source } => layered(f, "knn", context, source),
            QppError::ModelIo { context, source } => layered(f, "model-io", context, source),
            QppError::QueueFull { capacity } => {
                write!(f, "serving queue is full (capacity {capacity})")
            }
            QppError::TenantQuotaExceeded { tenant, quota } => {
                write!(
                    f,
                    "tenant {tenant} exceeded its admission quota ({quota} queued)"
                )
            }
            QppError::ShuttingDown => write!(f, "service is shutting down"),
            QppError::UnknownModel { key } => write!(f, "no model registered under key {key:?}"),
        }
    }
}

impl std::error::Error for QppError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QppError::Linalg { source, .. } => Some(source),
            QppError::Knn { source, .. } => Some(source),
            QppError::ModelIo { source, .. } => Some(source),
            QppError::QueueFull { .. }
            | QppError::TenantQuotaExceeded { .. }
            | QppError::ShuttingDown
            | QppError::UnknownModel { .. } => None,
        }
    }
}

impl From<LinalgError> for QppError {
    fn from(source: LinalgError) -> Self {
        QppError::Linalg {
            context: "",
            source,
        }
    }
}

impl From<KnnError> for QppError {
    fn from(source: KnnError) -> Self {
        QppError::Knn {
            context: "",
            source,
        }
    }
}

impl From<ModelIoError> for QppError {
    fn from(source: ModelIoError) -> Self {
        QppError::ModelIo {
            context: "",
            source,
        }
    }
}

/// Attaches static context while converting a layer error to
/// [`QppError`] — `result.ctx("training kcca")?` instead of bare `?`.
pub trait ResultExt<T> {
    /// Converts the error to [`QppError`] and sets its context.
    fn ctx(self, context: &'static str) -> QppResult<T>;
}

impl<T, E: Into<QppError>> ResultExt<T> for Result<T, E> {
    fn ctx(self, context: &'static str) -> QppResult<T> {
        self.map_err(|e| e.into().with_context(context))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_conversions_preserve_sources() {
        let e: QppError = LinalgError::Empty("x").into();
        assert!(matches!(e, QppError::Linalg { context: "", .. }));
        let e: QppError = KnnError::EmptyReference.into();
        assert!(matches!(e, QppError::Knn { .. }));
        let e: QppError = ModelIoError::UnsupportedVersion {
            found: 9,
            supported: 1,
        }
        .into();
        assert!(matches!(e, QppError::ModelIo { .. }));
    }

    #[test]
    fn context_shows_in_display() {
        let bare: QppError = KnnError::EmptyReference.into();
        assert!(!bare.to_string().contains("while"));
        let with = bare.with_context("combining neighbors");
        let msg = with.to_string();
        assert!(msg.contains("while combining neighbors"), "{msg}");
        assert!(msg.contains("knn reference is empty"), "{msg}");
    }

    #[test]
    fn ctx_extension_converts_and_annotates() {
        let r: Result<(), LinalgError> = Err(LinalgError::Empty("kcca needs >= 4 rows"));
        let e = r.ctx("fitting kcca").unwrap_err();
        assert!(e.to_string().contains("while fitting kcca"));
    }

    #[test]
    fn source_chain_is_preserved() {
        use std::error::Error;
        let e: QppError = LinalgError::NotSquare { rows: 2, cols: 3 }.into();
        assert!(e.source().is_some());
        assert!(QppError::ShuttingDown.source().is_none());
    }
}
