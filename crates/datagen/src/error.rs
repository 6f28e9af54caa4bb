//! Error types for the data-generation crate.

use core::fmt;

/// Errors raised by serialization / IO routines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DatagenError {
    /// An underlying IO error (message only, to stay `Clone`/`Eq`).
    Io(String),
    /// A malformed edge-list line or similar format error.
    Format(String),
}

impl fmt::Display for DatagenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatagenError::Io(m) => write!(f, "io error: {m}"),
            DatagenError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for DatagenError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_message() {
        assert!(DatagenError::Io("x".into()).to_string().contains("x"));
        assert!(DatagenError::Format("y".into()).to_string().contains("y"));
    }
}
