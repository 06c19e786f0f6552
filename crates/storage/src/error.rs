//! Errors of the persistence layer.

use std::fmt;

/// Result alias of the storage crate.
pub type Result<T> = std::result::Result<T, StorageError>;

/// What went wrong below the backend: I/O, corruption, or format drift.
///
/// I/O failures are carried as rendered messages (not [`std::io::Error`]
/// values) so the type stays `Clone + PartialEq` and can ride inside the
/// session layer's unified error without losing comparability in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The underlying medium failed (filesystem or injected fault).
    Io(String),
    /// Bytes failed validation: bad magic, checksum mismatch, unknown tag,
    /// truncated value, or a decoded state that does not validate.
    Corrupt(String),
    /// The on-disk format is from a version this build does not speak.
    Unsupported(String),
    /// No snapshot exists where one was expected (opening a directory that
    /// was never initialized with [`crate::Durable::create`]).
    NotFound(String),
    /// A state failed its representation's own validation
    /// ([`crate::Persist::validate_state`]) before it was encoded; nothing
    /// was written.
    Invalid(String),
}

impl StorageError {
    /// An I/O failure.
    pub fn io(msg: impl fmt::Display) -> Self {
        StorageError::Io(msg.to_string())
    }

    /// A corruption diagnosis.
    pub fn corrupt(msg: impl fmt::Display) -> Self {
        StorageError::Corrupt(msg.to_string())
    }

    /// A version-drift diagnosis.
    pub fn unsupported(msg: impl fmt::Display) -> Self {
        StorageError::Unsupported(msg.to_string())
    }

    /// A missing-state diagnosis.
    pub fn not_found(msg: impl fmt::Display) -> Self {
        StorageError::NotFound(msg.to_string())
    }

    /// A refused-before-encoding diagnosis.
    pub fn invalid(msg: impl fmt::Display) -> Self {
        StorageError::Invalid(msg.to_string())
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(msg) => write!(f, "storage I/O error: {msg}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt storage state: {msg}"),
            StorageError::Unsupported(msg) => write!(f, "unsupported storage format: {msg}"),
            StorageError::NotFound(msg) => write!(f, "storage state not found: {msg}"),
            StorageError::Invalid(msg) => write!(f, "refusing to encode an invalid state: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// The error of a [`crate::Durable`] wrapper: either the wrapped backend
/// failed (the update itself was rejected) or the durability layer did (the
/// log could not be written).
#[derive(Debug, Clone, PartialEq)]
pub enum DurableError<E> {
    /// The wrapped backend rejected the operation.
    Backend(E),
    /// The persistence layer failed before/while the operation was applied.
    Storage(StorageError),
}

impl<E: fmt::Display> fmt::Display for DurableError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Backend(e) => write!(f, "{e}"),
            DurableError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl<E: fmt::Debug + fmt::Display> std::error::Error for DurableError<E> {}

impl<E> From<StorageError> for DurableError<E> {
    fn from(e: StorageError) -> Self {
        DurableError::Storage(e)
    }
}

/// The engine requires every backend error to absorb substrate errors; the
/// durable wrapper forwards them to the backend it wraps.
impl<E: From<ws_relational::RelationalError>> From<ws_relational::RelationalError>
    for DurableError<E>
{
    fn from(e: ws_relational::RelationalError) -> Self {
        DurableError::Backend(E::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_layer() {
        assert!(StorageError::io("disk gone").to_string().contains("I/O"));
        assert!(StorageError::corrupt("bad crc")
            .to_string()
            .contains("corrupt"));
        assert!(StorageError::unsupported("v9")
            .to_string()
            .contains("unsupported"));
        assert!(StorageError::not_found("no snapshot")
            .to_string()
            .contains("not found"));
        let e: StorageError = std::io::Error::other("boom").into();
        assert!(matches!(e, StorageError::Io(_)));
    }

    #[test]
    fn durable_error_wraps_both_sides() {
        let s: DurableError<String> = StorageError::io("x").into();
        assert!(matches!(s, DurableError::Storage(_)));
        let b: DurableError<ws_relational::RelationalError> =
            ws_relational::RelationalError::Inconsistent.into();
        assert!(matches!(b, DurableError::Backend(_)));
        assert!(b.to_string().contains("inconsistent") || !b.to_string().is_empty());
    }
}
