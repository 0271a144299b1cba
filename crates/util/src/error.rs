//! `MissError` — the workspace-wide typed error taxonomy.
//!
//! Lives in `miss-util` (the bottom of the crate graph) so that every layer —
//! `miss-tensor` constructors, `miss-nn`'s [`ParamStore`] loaders, the
//! `miss-codec` checkpoint codec, and the trainer's resume path — can speak
//! the same error language without dependency cycles.
//!
//! The split between errors and panics is deliberate (DESIGN.md §8): anything
//! reachable from *untrusted input* (a checkpoint file, a CLI artifact)
//! returns `MissError`; shape bugs between in-process components remain
//! `assert!`s, because a wrong shape there is a programming error no caller
//! can meaningfully recover from.

use std::fmt;

/// Workspace result alias.
pub type MissResult<T> = Result<T, MissError>;

/// Every recoverable failure the persistence and loading paths can produce.
///
/// A long-running process (the future serving engine, a resumed training
/// run) matches on these variants to reject a bad artifact instead of dying:
/// no path that constructs a `MissError` is allowed to panic on malformed
/// input.
#[derive(Debug)]
pub enum MissError {
    /// A tensor (or parameter) arrived with a different shape than the
    /// receiver requires.
    ShapeMismatch {
        /// What was being loaded/constructed (e.g. `"dense param w1"`).
        context: String,
        /// The shape the receiver requires.
        expected: (usize, usize),
        /// The shape that actually arrived.
        got: (usize, usize),
    },
    /// A checkpoint section failed validation: truncated payload, checksum
    /// mismatch, an out-of-bounds length prefix, or an unparseable field.
    Corrupt {
        /// Wire section the damage was detected in
        /// (`"header"` / `"params"` / `"moments"` / `"progress"`).
        section: &'static str,
        /// Human-readable diagnosis.
        reason: String,
    },
    /// The artifact's format version is not one this build can decode.
    UnsupportedVersion {
        /// Version field found in the artifact.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// A named parameter in the artifact does not exist in the receiving
    /// store (architecture mismatch).
    UnknownParam {
        /// `"dense param"` or `"embedding table"`.
        kind: &'static str,
        /// The offending name.
        name: String,
    },
    /// A checkpoint holds another model than the one resuming from it: its
    /// arch section (base model and widths) differs from the run's.
    ArchMismatch {
        /// The model the run builds.
        expected: String,
        /// The model the checkpoint holds.
        found: String,
    },
    /// The artifact and the receiving store disagree on how many parameters
    /// exist (architecture mismatch at the coarsest level).
    CountMismatch {
        /// `"dense params"` or `"embedding tables"`.
        kind: &'static str,
        /// Count the receiving store has.
        expected: usize,
        /// Count the artifact carries.
        got: usize,
    },
    /// A computed quantity (loss, gradient) came out NaN/Inf: the step that
    /// produced it must not be committed to optimiser state. The trainer's
    /// guard raises this, logs it, and skips the step (DESIGN.md §9).
    NonFinite {
        /// What was found non-finite (e.g. `"minibatch 17 loss"`).
        context: String,
    },
    /// A serving-time score request failed validation: wrong field arity
    /// for the schema, or an embedding id outside its vocabulary. The
    /// request is rejected and the server keeps running — requests are
    /// untrusted input just like checkpoints (DESIGN.md §10).
    BadRequest {
        /// What was wrong with the request.
        context: String,
    },
    /// An underlying I/O failure (file missing, permission, disk).
    Io(std::io::Error),
}

impl MissError {
    /// Shorthand constructor for [`MissError::Corrupt`].
    pub fn corrupt(section: &'static str, reason: impl Into<String>) -> Self {
        MissError::Corrupt {
            section,
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for [`MissError::NonFinite`].
    pub fn non_finite(context: impl Into<String>) -> Self {
        MissError::NonFinite {
            context: context.into(),
        }
    }

    /// Shorthand constructor for [`MissError::BadRequest`].
    pub fn bad_request(context: impl Into<String>) -> Self {
        MissError::BadRequest {
            context: context.into(),
        }
    }

    /// Process exit code for this failure class, shared by every binary so
    /// scripts can branch on *why* a run died (documented in `miss-train
    /// --help` and README):
    ///
    /// * `3` — bad artifact: corrupt bytes, unsupported version, or an
    ///   architecture mismatch (`Corrupt`, `UnsupportedVersion`,
    ///   `ArchMismatch`, `UnknownParam`, `CountMismatch`, `ShapeMismatch`).
    ///   Retrying will not help; point the run at a different checkpoint.
    /// * `4` — environment: underlying I/O failure (`Io`). Often transient.
    /// * `5` — numerics: the NaN/Inf guard aborted the run (`NonFinite`).
    /// * `6` — bad score request: a serving input failed validation
    ///   (`BadRequest`). Reject the request, not the process.
    ///
    /// (`0` is success and `2` is a usage error, per convention.)
    pub fn exit_code(&self) -> i32 {
        match self {
            MissError::Corrupt { .. }
            | MissError::UnsupportedVersion { .. }
            | MissError::ArchMismatch { .. }
            | MissError::UnknownParam { .. }
            | MissError::CountMismatch { .. }
            | MissError::ShapeMismatch { .. } => 3,
            MissError::Io(_) => 4,
            MissError::NonFinite { .. } => 5,
            MissError::BadRequest { .. } => 6,
        }
    }
}

impl fmt::Display for MissError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MissError::ShapeMismatch {
                context,
                expected,
                got,
            } => write!(
                f,
                "shape mismatch for {context}: expected {}x{}, got {}x{}",
                expected.0, expected.1, got.0, got.1
            ),
            MissError::Corrupt { section, reason } => {
                write!(f, "corrupt checkpoint ({section} section): {reason}")
            }
            MissError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint format version {found} (this build reads only version {supported})"
            ),
            MissError::ArchMismatch { expected, found } => {
                write!(f, "checkpoint holds {found}, this run builds {expected}")
            }
            MissError::UnknownParam { kind, name } => {
                write!(f, "checkpoint names a {kind} {name:?} the store does not have")
            }
            MissError::CountMismatch {
                kind,
                expected,
                got,
            } => write!(
                f,
                "checkpoint has {got} {kind}, the store has {expected}"
            ),
            MissError::NonFinite { context } => {
                write!(f, "non-finite value rejected: {context}")
            }
            MissError::BadRequest { context } => {
                write!(f, "bad score request: {context}")
            }
            MissError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for MissError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MissError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MissError {
    fn from(e: std::io::Error) -> Self {
        MissError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MissError::ShapeMismatch {
            context: "dense param w1".into(),
            expected: (2, 3),
            got: (3, 2),
        };
        let s = e.to_string();
        assert!(s.contains("w1") && s.contains("2x3") && s.contains("3x2"), "{s}");

        let c = MissError::corrupt("params", "checksum mismatch");
        assert!(c.to_string().contains("params"), "{c}");

        let v = MissError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(v.to_string().contains('9'), "{v}");
    }

    #[test]
    fn exit_codes_partition_the_taxonomy() {
        assert_eq!(MissError::corrupt("params", "x").exit_code(), 3);
        assert_eq!(
            MissError::UnsupportedVersion { found: 9, supported: 1 }.exit_code(),
            3
        );
        let arch = MissError::ArchMismatch { expected: "FM".into(), found: "LR".into() };
        assert_eq!(arch.exit_code(), 3);
        assert_eq!(arch.to_string(), "checkpoint holds LR, this run builds FM");
        assert_eq!(
            MissError::UnknownParam { kind: "dense param", name: "w".into() }.exit_code(),
            3
        );
        assert_eq!(
            MissError::CountMismatch { kind: "dense params", expected: 1, got: 2 }.exit_code(),
            3
        );
        assert_eq!(
            MissError::ShapeMismatch { context: "w".into(), expected: (1, 1), got: (2, 2) }
                .exit_code(),
            3
        );
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert_eq!(MissError::Io(io).exit_code(), 4);
        assert_eq!(MissError::non_finite("loss").exit_code(), 5);
        assert_eq!(MissError::bad_request("id 9 out of vocab").exit_code(), 6);
        assert!(
            MissError::bad_request("id 9 out of vocab")
                .to_string()
                .contains("bad score request"),
        );
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: MissError = io.into();
        assert!(matches!(e, MissError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }
}
