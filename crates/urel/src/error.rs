//! Error type of the U-relation layer.

use std::fmt;

/// Result alias of this crate.
pub type Result<T> = std::result::Result<T, UrelError>;

/// Errors raised by U-relation construction, querying and confidence
/// computation.
#[derive(Clone, Debug, PartialEq)]
pub enum UrelError {
    /// A relation name was not found in the U-database.
    UnknownRelation(String),
    /// A malformed input (invalid probabilities, arity mismatch, …).
    Invalid(String),
    /// Conditioning removed every possible world (no assignment satisfies
    /// the constraints).
    Inconsistent,
    /// An error bubbled up from the relational substrate.
    Relational(ws_relational::RelationalError),
    /// An error bubbled up from the WSD layer (conversions).
    Ws(ws_core::WsError),
}

impl UrelError {
    /// Convenience constructor for invalid-input errors.
    pub fn invalid(msg: impl Into<String>) -> Self {
        UrelError::Invalid(msg.into())
    }
}

impl fmt::Display for UrelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UrelError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            UrelError::Invalid(msg) => write!(f, "invalid input: {msg}"),
            UrelError::Inconsistent => write!(f, "world-set is inconsistent (no world remains)"),
            UrelError::Relational(e) => write!(f, "relational error: {e}"),
            UrelError::Ws(e) => write!(f, "world-set error: {e}"),
        }
    }
}

impl std::error::Error for UrelError {}

impl From<ws_relational::RelationalError> for UrelError {
    fn from(e: ws_relational::RelationalError) -> Self {
        match e {
            ws_relational::RelationalError::Inconsistent => UrelError::Inconsistent,
            other => UrelError::Relational(other),
        }
    }
}

impl From<ws_core::WsError> for UrelError {
    fn from(e: ws_core::WsError) -> Self {
        UrelError::Ws(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_the_offender() {
        assert!(UrelError::UnknownRelation("R".into())
            .to_string()
            .contains("R"));
        assert!(UrelError::invalid("bad").to_string().contains("bad"));
        let rel_err: UrelError = ws_relational::RelationalError::UnknownRelation("S".into()).into();
        assert!(rel_err.to_string().contains("S"));
        let ws_err: UrelError = ws_core::WsError::invalid("oops").into();
        assert!(ws_err.to_string().contains("oops"));
    }
}
