//! Error and result types shared by every crate in the workspace.

use std::fmt;
use std::io;
use std::sync::Arc;

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// The error type returned by every fallible storage operation.
///
/// The variants mirror the status codes of LevelDB-family stores: IO errors
/// bubble up from the [`Env`](https://docs.rs/pebblesdb-env) layer,
/// `Corruption` indicates on-disk data failed a checksum or format check, and
/// `InvalidArgument` flags caller mistakes (for example writing to a column
/// family that was dropped).
#[derive(Debug, Clone)]
pub enum Error {
    /// The requested key was not found.
    NotFound,
    /// On-disk data is malformed or failed a checksum.
    Corruption(String),
    /// The caller passed an argument the store cannot honour.
    InvalidArgument(String),
    /// An operation was attempted on a database that is shutting down.
    ShuttingDown,
    /// The underlying environment reported an IO error.
    Io(Arc<io::Error>),
    /// A change stream asked for history the store has already reclaimed.
    ///
    /// `requested` is the sequence the cursor wanted; every sequence at or
    /// below `floor` is gone (its WAL segments or value-log files were
    /// garbage-collected). The only recovery is to re-seed the consumer from
    /// a full copy of the store and stream from `floor + 1`.
    SequenceTruncated {
        /// The sequence number the stream tried to read from.
        requested: u64,
        /// The highest reclaimed sequence; `floor + 1` is still streamable.
        floor: u64,
    },
    /// Any other internal error.
    Internal(String),
}

impl Error {
    /// Creates a corruption error with the given message.
    pub fn corruption(msg: impl Into<String>) -> Self {
        Error::Corruption(msg.into())
    }

    /// Creates an invalid-argument error with the given message.
    pub fn invalid_argument(msg: impl Into<String>) -> Self {
        Error::InvalidArgument(msg.into())
    }

    /// Creates an internal error with the given message.
    pub fn internal(msg: impl Into<String>) -> Self {
        Error::Internal(msg.into())
    }

    /// Returns `true` if this error is [`Error::NotFound`].
    pub fn is_not_found(&self) -> bool {
        matches!(self, Error::NotFound)
    }

    /// Returns `true` if this error indicates corruption.
    pub fn is_corruption(&self) -> bool {
        matches!(self, Error::Corruption(_))
    }

    /// Creates a sequence-truncated error.
    pub fn sequence_truncated(requested: u64, floor: u64) -> Self {
        Error::SequenceTruncated { requested, floor }
    }

    /// Returns `true` if this error is [`Error::SequenceTruncated`].
    pub fn is_sequence_truncated(&self) -> bool {
        matches!(self, Error::SequenceTruncated { .. })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFound => write!(f, "not found"),
            Error::Corruption(msg) => write!(f, "corruption: {msg}"),
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::ShuttingDown => write!(f, "shutting down"),
            Error::Io(err) => write!(f, "io error: {err}"),
            Error::SequenceTruncated { requested, floor } => write!(
                f,
                "sequence truncated: requested {requested}, history reclaimed through {floor}"
            ),
            Error::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(err) => Some(err.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for Error {
    fn from(err: io::Error) -> Self {
        Error::Io(Arc::new(err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(Error::NotFound.to_string(), "not found");
        assert_eq!(
            Error::corruption("bad block").to_string(),
            "corruption: bad block"
        );
        assert_eq!(
            Error::invalid_argument("no such db").to_string(),
            "invalid argument: no such db"
        );
        assert_eq!(Error::internal("oops").to_string(), "internal error: oops");
        assert_eq!(
            Error::sequence_truncated(7, 41).to_string(),
            "sequence truncated: requested 7, history reclaimed through 41"
        );
    }

    #[test]
    fn io_errors_convert_and_expose_source() {
        let err: Error = io::Error::other("boom").into();
        assert!(err.to_string().contains("boom"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn predicates_match_variants() {
        assert!(Error::NotFound.is_not_found());
        assert!(!Error::NotFound.is_corruption());
        assert!(Error::corruption("x").is_corruption());
        assert!(!Error::corruption("x").is_not_found());
        assert!(Error::sequence_truncated(1, 2).is_sequence_truncated());
        assert!(!Error::NotFound.is_sequence_truncated());
    }
}
