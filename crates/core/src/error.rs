//! The unified public error hierarchy of the suite.
//!
//! Before the service boundary existed, each layer invented its own error
//! carrier — [`EvalFailure`] in the evaluator, ad-hoc `String`s in the
//! binaries. A networked evaluation path adds transport, codec and session
//! failures on top, and they all have to cross the wire with a stable
//! serialized shape. [`Error`] is that one hierarchy: evaluation failures
//! embed unchanged (retryability preserved), and every other layer gets a
//! typed variant with a human-readable message.

use serde::{Deserialize, Serialize};

use crate::measurement::EvalFailure;

/// Any failure the tuning stack can report, from a restricted
/// configuration to a dead TCP connection.
///
/// The serde representation is part of the wire contract
/// (`bat/wire/v1`): externally tagged with `snake_case` tags, e.g.
/// `{"eval": "Restricted"}` or `{"transport": "connection reset"}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Error {
    /// A measurement-level failure (restricted/launch/transient/timeout/
    /// crash) — the pre-existing [`EvalFailure`] taxonomy, embedded
    /// unchanged.
    Eval(EvalFailure),
    /// The transport below the codec failed: connection refused, reset,
    /// short read, frame over the size limit.
    Transport(String),
    /// A frame arrived but does not parse as the expected `bat/wire/v1`
    /// message: bad JSON, unknown fields, version or tag mismatch.
    Wire(String),
    /// A session-level protocol violation: unknown session id, a request
    /// for a closed session, or a second `open` on a connection that
    /// already holds a live session.
    Session(String),
    /// An invalid specification or configuration: unknown benchmark or
    /// tuner, bad builder inputs, malformed CLI arguments.
    Spec(String),
    /// A local file I/O failure (spec/artifact reads and writes).
    Io(String),
}

impl Error {
    /// Whether retrying the failed operation could plausibly succeed.
    ///
    /// Delegates to [`EvalFailure::is_retryable`] for evaluation failures;
    /// every other variant reports a deterministic condition (bad spec,
    /// protocol violation) or one whose retry policy belongs to a higher
    /// layer (reconnect logic), so they all answer `false`.
    pub fn is_retryable(&self) -> bool {
        match self {
            Error::Eval(e) => e.is_retryable(),
            _ => false,
        }
    }

    /// A [`Error::Transport`] from any I/O error.
    pub fn transport(e: impl std::fmt::Display) -> Error {
        Error::Transport(e.to_string())
    }

    /// A [`Error::Wire`] from any codec/parse error.
    pub fn wire(e: impl std::fmt::Display) -> Error {
        Error::Wire(e.to_string())
    }

    /// A [`Error::Session`] with a message.
    pub fn session(e: impl std::fmt::Display) -> Error {
        Error::Session(e.to_string())
    }

    /// A [`Error::Spec`] with a message.
    pub fn spec(e: impl std::fmt::Display) -> Error {
        Error::Spec(e.to_string())
    }

    /// A [`Error::Io`] from any file I/O error.
    pub fn io(e: impl std::fmt::Display) -> Error {
        Error::Io(e.to_string())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Eval(e) => write!(f, "evaluation failed: {e}"),
            Error::Transport(m) => write!(f, "transport error: {m}"),
            Error::Wire(m) => write!(f, "wire protocol error: {m}"),
            Error::Session(m) => write!(f, "session error: {m}"),
            Error::Spec(m) => write!(f, "invalid spec: {m}"),
            Error::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<EvalFailure> for Error {
    fn from(e: EvalFailure) -> Self {
        Error::Eval(e)
    }
}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::Wire(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_delegates_to_eval_failure() {
        assert!(Error::from(EvalFailure::Timeout).is_retryable());
        assert!(Error::Eval(EvalFailure::Transient("flake".into())).is_retryable());
        assert!(!Error::Eval(EvalFailure::Restricted).is_retryable());
        assert!(!Error::Transport("reset".into()).is_retryable());
        assert!(!Error::Session("busy".into()).is_retryable());
    }

    #[test]
    fn wire_representation_is_stable() {
        let e = Error::Transport("connection reset".into());
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(json, "{\"transport\":\"connection reset\"}");
        let back: Error = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);

        let e = Error::Eval(EvalFailure::Timeout);
        let json = serde_json::to_string(&e).unwrap();
        assert!(json.starts_with("{\"eval\":"), "{json}");
        let back: Error = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn display_names_the_layer() {
        assert!(Error::Wire("bad tag".into()).to_string().contains("wire"));
        assert!(Error::spec("no such tuner").to_string().contains("spec"));
        assert!(Error::io("denied").to_string().contains("io"));
    }
}
