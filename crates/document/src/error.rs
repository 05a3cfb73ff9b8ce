//! Error type for document operations.

use std::fmt;

/// Errors produced while building, parsing or serializing documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DocError {
    /// A datetime string did not match the supported ISO-8601 subset.
    BadDateTime(String),
    /// A serialized document was malformed at the given byte offset.
    Corrupt { offset: usize, what: &'static str },
    /// An ObjectId hex string was malformed.
    BadObjectId(String),
    /// A field name held a NUL byte, which the encoding cannot store.
    BadFieldName(String),
    /// A path lookup failed (reported by callers that require presence).
    MissingField(String),
    /// A value had an unexpected type for the requested operation.
    TypeMismatch {
        expected: &'static str,
        found: &'static str,
    },
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::BadDateTime(s) => write!(f, "invalid ISO-8601 datetime: {s:?}"),
            DocError::Corrupt { offset, what } => {
                write!(f, "corrupt document at byte {offset}: {what}")
            }
            DocError::BadObjectId(s) => write!(f, "invalid ObjectId hex: {s:?}"),
            DocError::BadFieldName(s) => write!(f, "field name holds a NUL byte: {s:?}"),
            DocError::MissingField(p) => write!(f, "missing field: {p}"),
            DocError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for DocError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, DocError>;
