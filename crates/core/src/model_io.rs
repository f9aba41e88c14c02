//! Model serialization — the deployment flow of the paper's Fig. 1:
//! the vendor trains per-configuration models on calibration workloads
//! and *ships the models* to customer sites, where predictions run
//! without any training infrastructure.

use crate::predictor::{KccaPredictor, Learned};
use serde::{Deserialize, Serialize};

/// Format version written by this build. Bump on any incompatible
/// change to the serialized model layout.
///
/// v2: `KccaPredictor` stores an `AnnIndex` (brute/IVF enum) where v1
/// stored a bare `NearestNeighbors`, and `PredictorOptions` gained the
/// `ann` block.
///
/// v3: `Kcca` keeps the `rank x rank` ICD pivot block in place of the
/// whole `n x rank` factor, and no longer stores the performance-side
/// kernel.
///
/// v4: the model keeps what an answer reads. `Kcca` drops the training
/// performance projection, `KccaPredictor` stores one `targets` matrix
/// (then raw metrics or their `ln(1+x)`, by an option) in place of
/// both, and `IvfOptions` is `nlist`/`nprobe` only.
///
/// v5: the projection is folded. `Kcca` stores `fold` (`L⁻ᵀ W`,
/// `rank x components`), `kernel_center` (`L μ`) and `correlations` in
/// place of the `rank x rank` pivot block and the whole `Cca` (both
/// weight matrices, both mean vectors).
///
/// v6: `PredictorOptions` drops the log-space averaging flag, so
/// `targets` always holds raw metrics. A v5 model with the flag set
/// would otherwise load and answer `ln(1+x)` values as metrics.
///
/// v7: the payload is what a fit learned — options, scaler, `kcca` and
/// `targets` — and no neighbor index. The index is a deterministic
/// function of the query projection and the options, so loading builds
/// it as a fit does; a v6 payload carried it as a second copy of the
/// projection, 46% of the envelope at 8,000 rows.
pub const FORMAT_VERSION: u32 = 7;

/// Errors from model (de)serialization.
#[derive(Debug)]
pub enum ModelIoError {
    /// JSON encoding/decoding error.
    Json(serde_json::Error),
    /// The envelope declares a format version this build cannot read.
    UnsupportedVersion {
        /// Version found in the envelope.
        found: u32,
        /// Version this build writes and reads.
        supported: u32,
    },
    /// The payload does not match its recorded checksum (corruption or
    /// truncation in transit).
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        recorded: String,
        /// Checksum computed from the payload actually read.
        computed: String,
    },
    /// The payload parses and matches its checksum (FNV-1a is not a
    /// signature: anyone can re-seal an edited payload) but its parts do
    /// not fit together — a matrix whose data is not `rows x cols`, a
    /// width or row count that breaks the scaler → pivots → fold →
    /// projection → targets chain, or an option or kernel scale a fit
    /// cannot produce. Loaded anyway it would panic or mis-answer at the
    /// first prediction.
    Malformed {
        /// The first part that does not fit.
        what: &'static str,
    },
}

impl std::fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelIoError::Json(e) => write!(f, "model json: {e}"),
            ModelIoError::UnsupportedVersion { found, supported } => write!(
                f,
                "model format version {found} not supported (this build reads version {supported})"
            ),
            ModelIoError::ChecksumMismatch { recorded, computed } => write!(
                f,
                "model payload checksum mismatch: envelope records {recorded}, payload hashes to {computed}"
            ),
            ModelIoError::Malformed { what } => write!(f, "model payload malformed: {what}"),
        }
    }
}

impl std::error::Error for ModelIoError {}

impl From<serde_json::Error> for ModelIoError {
    fn from(e: serde_json::Error) -> Self {
        ModelIoError::Json(e)
    }
}

/// The shipped wrapper: version + payload checksum + the model JSON.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Envelope {
    /// Serialized-format version; see [`FORMAT_VERSION`].
    format_version: u32,
    /// `fnv1a64:<hex>` digest of the payload string's UTF-8 bytes.
    checksum: String,
    /// The model itself, as a nested JSON document.
    payload: String,
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn digest(payload: &str) -> String {
    format!("fnv1a64:{:016x}", fnv1a64(payload.as_bytes()))
}

/// Wraps serialized model JSON in the versioned, checksummed envelope.
fn seal(payload: String) -> Result<String, ModelIoError> {
    let envelope = Envelope {
        format_version: FORMAT_VERSION,
        checksum: digest(&payload),
        payload,
    };
    Ok(serde_json::to_string(&envelope)?)
}

/// Parses an envelope, verifying version then checksum, and returns the
/// inner payload.
fn open(json: &str) -> Result<String, ModelIoError> {
    let envelope: Envelope = serde_json::from_str(json)?;
    if envelope.format_version != FORMAT_VERSION {
        return Err(ModelIoError::UnsupportedVersion {
            found: envelope.format_version,
            supported: FORMAT_VERSION,
        });
    }
    let computed = digest(&envelope.payload);
    if computed != envelope.checksum {
        return Err(ModelIoError::ChecksumMismatch {
            recorded: envelope.checksum,
            computed,
        });
    }
    Ok(envelope.payload)
}

/// Serializes a one-model predictor to versioned, checksummed JSON.
pub fn to_json(model: &KccaPredictor) -> Result<String, ModelIoError> {
    seal(serde_json::to_string(model.learned())?)
}

/// Deserializes a one-model predictor, verifying format version and
/// payload checksum first, then the model's structure, and building its
/// neighbor index last ([`KccaPredictor::load`]).
pub fn from_json(json: &str) -> Result<KccaPredictor, ModelIoError> {
    let learned: Learned = serde_json::from_str(&open(json)?)?;
    KccaPredictor::load(learned).map_err(|what| ModelIoError::Malformed { what })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::predictor::PredictorOptions;
    use qpp_engine::SystemConfig;
    use qpp_workload::{Schema, WorkloadGenerator};

    fn model() -> (KccaPredictor, Dataset) {
        let schema = Schema::tpcds(1.0);
        let mut g = WorkloadGenerator::tpcds(1.0, 61);
        let d = Dataset::collect(&schema, g.generate(60), &SystemConfig::neoview_4(), 2);
        (
            KccaPredictor::train(&d, PredictorOptions::default()).unwrap(),
            d,
        )
    }

    #[test]
    fn json_round_trip_preserves_predictions() {
        let (_, d) = model();
        // Both neighbor-index arms: brute at the default threshold, IVF
        // once the threshold is below the training size. Loading builds
        // the index the fit built.
        for ivf_threshold in [PredictorOptions::default().ann.ivf_threshold, 16] {
            let mut options = PredictorOptions::default();
            options.ann.ivf_threshold = ivf_threshold;
            let m = KccaPredictor::train(&d, options).unwrap();
            let back = from_json(&to_json(&m).unwrap()).unwrap();
            assert_eq!(back.index().is_ivf(), ivf_threshold < 60);
            let r = &d.records[5];
            let a = m.predict(&r.spec, &r.optimized.plan).unwrap();
            let b = back.predict(&r.spec, &r.optimized.plan).unwrap();
            assert_eq!(a.metrics, b.metrics);
            assert_eq!(a.neighbor_indices, b.neighbor_indices);
        }
    }

    #[test]
    fn corrupt_json_errors() {
        assert!(matches!(from_json("{not json"), Err(ModelIoError::Json(_))));
    }

    #[test]
    fn envelope_records_current_version() {
        let (m, _) = model();
        let json = to_json(&m).unwrap();
        assert!(json.contains(&format!("\"format_version\":{FORMAT_VERSION}")));
        assert!(json.contains("fnv1a64:"));
        // v4 ships what an answer reads: one targets matrix, no
        // performance projection; v5 folds the pivot block and the CCA
        // weights and means into `fold` / `kernel_center`.
        for kept in ["targets", "fold", "kernel_center", "correlations"] {
            assert!(json.contains(kept), "{kept} is not serialized");
        }
        for gone in [
            "y_projection",
            "raw_performance",
            "log_performance",
            "x_pivot_block",
            "cca",
            "wx",
            "wy",
            "x_means",
            "y_means",
            // v7: no neighbor index.
            "index",
            "packed",
            "centroids",
            "offsets",
            "ids",
        ] {
            assert!(
                !json.contains(&format!("\\\"{gone}\\\"")),
                "{gone} is still serialized"
            );
        }
        // v6: the options carry no log-space averaging flag.
        assert!(!json.contains("log_space"), "log-space flag serialized");
    }

    #[test]
    fn future_version_rejected_with_typed_error() {
        let (m, _) = model();
        let json = to_json(&m).unwrap();
        let current = format!("\"format_version\":{FORMAT_VERSION}");
        // A future version, and the v3 to v6 envelopes this build
        // superseded.
        for version in [99, 3, 4, 5, 6] {
            let other = json.replace(&current, &format!("\"format_version\":{version}"));
            match from_json(&other) {
                Err(ModelIoError::UnsupportedVersion { found, supported }) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, FORMAT_VERSION);
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    /// Regression: FNV-1a is recomputable, so each edit below, re-sealed,
    /// used to load. Shown at the parent: `targets` four times as wide
    /// panicked in `Matrix::row` at the first prediction, and pivots four
    /// times as wide were caught only by the shape check of the
    /// embedding the fold deletes. `neighbors: 0` loaded and then failed
    /// every prediction; a negative kernel scale answered `Ok` with a
    /// kernel similarity above 1, outside its `(0, 1]`, and a zero one
    /// failed every prediction; one under the fit's floor is no more a
    /// fitted model than these. The rest
    /// break the scaler → pivots → fold → projection → targets chain — an
    /// index out of range or a `zip` to the shorter side — one link each.
    /// Each case names the part its error must name.
    #[test]
    fn resealed_malformed_payloads_are_typed_errors_at_load() {
        let (_, d) = model();
        let mut options = PredictorOptions::default();
        options.ann.ivf_threshold = 16;
        let model = KccaPredictor::train(&d, options).unwrap();
        assert!(model.index().is_ivf());
        let payload = serde_json::to_string(model.learned()).unwrap();
        assert!(from_json(&seal(payload.clone()).unwrap()).is_ok());
        let (n, rank) = (model.training_size(), model.kcca().x_rank());
        let edit = |from: &str, to: &str, named| (from.to_string(), to.to_string(), named);
        // A matrix header rewritten to another shape; the reshapes that
        // keep `rows * cols` pass the per-matrix check and must fail the
        // chain.
        let reshape = |name, from: (usize, usize), to: (usize, usize)| {
            let header = |(r, c)| format!("\"{name}\":{{\"rows\":{r},\"cols\":{c},");
            edit(&header(from), &header(to), name)
        };
        // A value put in front of a list; these keep the JSON valid.
        let prepend = |list, value| {
            let open = format!("\"{list}\":[");
            edit(&open, &format!("{open}{value},"), list)
        };
        // The query-side kernel scale, as the payload spells it.
        let tau = payload
            .split("\"tau\":")
            .nth(1)
            .and_then(|t| t.split('}').next());
        let tau: f64 = tau.unwrap().parse().unwrap();
        let field = |tau: f64| format!("\"tau\":{tau}}}");
        let scale = |to| edit(&field(tau), &field(to), "tau");
        let cases = [
            reshape("targets", (n, 6), (n, 24)),
            reshape("x_pivots", (rank, 24), (rank, 96)),
            reshape("targets", (n, 6), (n / 2, 12)),
            reshape("fold", (rank, 16), (rank * 2, 8)),
            reshape("x_projection", (n, 16), (n * 2, 8)),
            prepend("stds", 1.0),
            prepend("kernel_center", 0.0),
            edit("\"neighbors\":3,", "\"neighbors\":0,", "neighbors"),
            scale(-tau * 1000.0),
            scale(-tau),
            scale(0.0),
            // Positive, but under the 1e-6 floor a fit puts on τ.
            scale(5e-7),
        ];
        for (from, to, named) in cases {
            assert!(payload.contains(&from), "payload has no {from}");
            let resealed = seal(payload.replacen(&from, &to, 1)).unwrap();
            match from_json(&resealed).map(|_| "a loaded model") {
                Err(ModelIoError::Malformed { what }) => {
                    assert!(what.contains(named), "{from} -> {to}: {what}")
                }
                other => panic!("{from} -> {to}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let (m, _) = model();
        let json = to_json(&m).unwrap();
        // Flip one digit inside the payload without breaking JSON syntax.
        let idx = json.find("\"payload\"").unwrap();
        let corrupt_at = json[idx..]
            .char_indices()
            .find(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| idx + i)
            .unwrap();
        let mut bytes = json.into_bytes();
        bytes[corrupt_at] = if bytes[corrupt_at] == b'9' {
            b'8'
        } else {
            b'9'
        };
        let corrupted = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            from_json(&corrupted),
            Err(ModelIoError::ChecksumMismatch { .. })
        ));
    }
}
