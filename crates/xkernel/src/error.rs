//! Error type shared by the whole protocol suite.

use core::fmt;

/// Result alias used across the workspace.
pub type XResult<T> = Result<T, XError>;

/// Errors surfaced by the uniform protocol interface.
///
/// The original x-kernel returned `XK_FAILURE`-style codes; we keep the set
/// small and structured so callers can react to the cases that matter
/// (timeouts, unreachable peers) and propagate the rest.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum XError {
    /// An `open` could not find or reach the requested peer.
    Unreachable(String),
    /// A layer refused an incoming frame; its demux seam counts it and
    /// returns `Ok` ([`crate::proto::TracedProtocol`]).
    Reject(Reject),
    /// A blocking operation exceeded its timeout (e.g. an RPC whose server
    /// never answered).
    Timeout(String),
    /// The peer answered with an RPC-level error status.
    Remote(String),
    /// An operation was invoked on an object that does not support it
    /// (e.g. an unsupported control op).
    Unsupported(&'static str),
    /// A message exceeded the maximum size the session can carry.
    TooBig {
        /// Offending message length in bytes.
        size: usize,
        /// The maximum the session can carry.
        max: usize,
    },
    /// Misuse of the interface that indicates a configuration bug
    /// (unknown protocol id, missing lower capability, ...).
    Config(String),
    /// The graph linter rejected the configuration before construction
    /// (see [`crate::lint`]); carries every diagnostic found.
    Lint(Vec<crate::lint::Diagnostic>),
    /// The session or kernel is shutting down.
    Closed,
}

impl fmt::Display for XError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XError::Unreachable(s) => write!(f, "unreachable: {s}"),
            XError::Reject(r) => write!(f, "refused: {r:?}"),
            XError::Timeout(s) => write!(f, "timed out: {s}"),
            XError::Remote(s) => write!(f, "remote error: {s}"),
            XError::Unsupported(s) => write!(f, "unsupported operation: {s}"),
            XError::TooBig { size, max } => {
                write!(f, "message of {size} bytes exceeds maximum {max}")
            }
            XError::Config(s) => write!(f, "configuration error: {s}"),
            XError::Lint(diags) => {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == crate::lint::Severity::Error)
                    .count();
                write!(f, "graph lint failed with {errors} error(s):")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            XError::Closed => write!(f, "object closed"),
        }
    }
}

impl std::error::Error for XError {}

/// Why a layer refused a frame: `xDemux` failure in the x-kernel. The reason
/// is static text, so a refused frame allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Reject {
    /// Bytes no correct sender writes (a short header, a bad checksum).
    Corrupt(&'static str),
    /// A well-formed frame that no enable (passive open) matches.
    NoEnable(&'static str),
    /// A well-formed frame for state this host does not hold (any more).
    Stale(&'static str),
    /// A well-formed frame an access check refused.
    Denied(&'static str),
}

impl Reject {
    /// The reason's text, which the seam writes as the trace note.
    pub fn why(self) -> &'static str {
        match self {
            Reject::Corrupt(s) | Reject::NoEnable(s) | Reject::Stale(s) | Reject::Denied(s) => s,
        }
    }
}

impl From<Reject> for XError {
    #[inline]
    fn from(r: Reject) -> XError {
        XError::Reject(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(
            XError::TooBig { size: 9, max: 4 }.to_string(),
            "message of 9 bytes exceeds maximum 4"
        );
        assert!(XError::Timeout("rpc 3".into())
            .to_string()
            .contains("rpc 3"));
        assert!(XError::Closed.to_string().contains("closed"));
        assert_eq!(
            XError::from(Reject::Stale("old reply")).to_string(),
            "refused: Stale(\"old reply\")"
        );
    }
}
