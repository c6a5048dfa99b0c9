//! Error type shared by graph construction, I/O and partitioning entry
//! points.

use std::fmt;

/// Errors produced by graph construction, validation and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node id referenced a node that does not exist.
    InvalidNode(u32),
    /// An edge id referenced an edge that does not exist.
    InvalidEdge(u32),
    /// Self loops are not representable (a process does not stream to
    /// itself across FPGAs).
    SelfLoop(u32),
    /// An edge between the two endpoints already exists; use
    /// [`GraphBuilder::add_or_merge_edge`](crate::GraphBuilder::add_or_merge_edge)
    /// to accumulate parallel channels.
    DuplicateEdge(u32, u32),
    /// Merging a parallel edge between the two endpoints would push its
    /// weight past `u64::MAX`.
    WeightOverflow(u32, u32),
    /// Node or edge weights must be strictly positive.
    ZeroWeight,
    /// A partition vector did not match the graph it was applied to.
    PartitionMismatch {
        /// Number of nodes in the graph.
        graph_nodes: usize,
        /// Length of the partition assignment vector.
        partition_len: usize,
    },
    /// The requested number of parts is invalid (zero, or exceeds nodes).
    InvalidK(usize),
    /// Parse error in one of the textual formats, with a line number.
    Parse {
        /// 1-based line where parsing failed.
        line: usize,
        /// Human-readable explanation.
        msg: String,
    },
    /// Generic I/O failure (wraps `std::io::Error` as a string so the
    /// error stays `Clone + Eq`).
    Io(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidNode(n) => write!(f, "invalid node id {n}"),
            GraphError::InvalidEdge(e) => write!(f, "invalid edge id {e}"),
            GraphError::SelfLoop(n) => write!(f, "self loop on node {n}"),
            GraphError::DuplicateEdge(u, v) => {
                write!(f, "duplicate edge between nodes {u} and {v}")
            }
            GraphError::WeightOverflow(u, v) => {
                write!(
                    f,
                    "weight of the edge between nodes {u} and {v} overflows u64"
                )
            }
            GraphError::ZeroWeight => write!(f, "weights must be strictly positive"),
            GraphError::PartitionMismatch {
                graph_nodes,
                partition_len,
            } => write!(
                f,
                "partition of length {partition_len} applied to graph with {graph_nodes} nodes"
            ),
            GraphError::InvalidK(k) => write!(f, "invalid number of parts k={k}"),
            GraphError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            GraphError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        assert_eq!(GraphError::InvalidNode(3).to_string(), "invalid node id 3");
        assert_eq!(GraphError::SelfLoop(1).to_string(), "self loop on node 1");
        assert!(GraphError::Parse {
            line: 4,
            msg: "bad token".into()
        }
        .to_string()
        .contains("line 4"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let ge: GraphError = io.into();
        assert!(matches!(ge, GraphError::Io(_)));
    }
}
