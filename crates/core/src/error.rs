//! Error type for Redoop core.

use std::fmt;

use redoop_dfs::DfsError;
use redoop_mapred::MrError;

/// Result alias for Redoop operations.
pub type Result<T> = std::result::Result<T, RedoopError>;

/// Errors raised by the Redoop layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RedoopError {
    /// Underlying MapReduce runtime error.
    MapReduce(MrError),
    /// Underlying DFS error.
    Dfs(DfsError),
    /// Invalid window specification (`win`/`slide` must be positive and
    /// `slide <= win` for sliding windows with overlap).
    InvalidWindow(String),
    /// Query configuration problem (sources, merger, paths).
    InvalidQuery(String),
    /// A record could not be assigned to a pane (bad timestamp) or an
    /// output part could not be decoded.
    BadRecord(String),
    /// Internal invariant violation in cache bookkeeping.
    CacheInconsistency(String),
}

impl fmt::Display for RedoopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedoopError::MapReduce(e) => write!(f, "mapreduce error: {e}"),
            RedoopError::Dfs(e) => write!(f, "dfs error: {e}"),
            RedoopError::InvalidWindow(m) => write!(f, "invalid window: {m}"),
            RedoopError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            RedoopError::BadRecord(m) => write!(f, "bad record: {m}"),
            RedoopError::CacheInconsistency(m) => write!(f, "cache inconsistency: {m}"),
        }
    }
}

impl std::error::Error for RedoopError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RedoopError::MapReduce(e) => Some(e),
            RedoopError::Dfs(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MrError> for RedoopError {
    fn from(e: MrError) -> Self {
        RedoopError::MapReduce(e)
    }
}

impl From<DfsError> for RedoopError {
    fn from(e: DfsError) -> Self {
        RedoopError::Dfs(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: RedoopError = MrError::NoInput.into();
        assert!(matches!(e, RedoopError::MapReduce(_)));
        let e: RedoopError = DfsError::FileNotFound("/p".into()).into();
        assert!(e.to_string().contains("/p"));
        assert!(RedoopError::InvalidWindow("slide > win".into())
            .to_string()
            .contains("slide > win"));
    }
}
