//! JSON round-trip helpers (thin wrappers over serde_json with graph
//! validation on load).
//!
//! A graph is one object: `node_weights`, the `edges` list of
//! `[u, v, weight]`, per-node `adj` lists of `[neighbour, edge id]`, and
//! `labels` (`null` for an unlabeled node).

use crate::error::GraphError;
use crate::graph::WeightedGraph;
use crate::ids::{EdgeId, NodeId};
use crate::partition::Partition;
use serde::{de_field, Deserialize, Value};

/// Serialise a graph to pretty JSON.
pub fn graph_to_json(g: &WeightedGraph) -> String {
    let value = serde_json::json!({
        "node_weights": g.node_weights(),
        "edges": g.edges().collect::<Vec<_>>(),
        "adj": g.node_ids().map(|v| g.neighbors(v)).collect::<Vec<_>>(),
        "labels": g.node_ids().map(|v| g.label(v)).collect::<Vec<_>>()
    });
    serde_json::to_string_pretty(&value).expect("graph serialisation cannot fail")
}

/// Parse and validate a graph from JSON. Each node's adjacency keeps the
/// order the file lists it in.
pub fn graph_from_json(text: &str) -> Result<WeightedGraph, GraphError> {
    let io = |e: serde::Error| GraphError::Io(e.to_string());
    let v: Value = serde_json::from_str(text).map_err(io)?;
    let vwgt: Vec<u64> = de_field(&v, "node_weights").map_err(io)?;
    let edges: Vec<(NodeId, NodeId, u64)> = de_field(&v, "edges").map_err(io)?;
    // each node's list flattens straight into CSR offsets and pairs
    let lists: Vec<Value> = de_field(&v, "adj").map_err(io)?;
    let (mut xadj, mut adj) = (vec![0], Vec::new());
    for list in &lists {
        adj.extend(
            Vec::<(NodeId, EdgeId)>::deserialize(list)
                .map_err(|e| GraphError::Io(format!("field `adj`: {e}")))?,
        );
        xadj.push(adj.len());
    }
    let labels: Vec<Option<String>> = de_field(&v, "labels").map_err(io)?;
    WeightedGraph::from_adjacency(vwgt, edges, xadj, adj, labels)
}

/// Serialise a partition to JSON.
pub fn partition_to_json(p: &Partition) -> String {
    serde_json::to_string_pretty(p).expect("partition serialisation cannot fail")
}

/// Parse a partition from JSON.
///
/// Deserialisation bypasses [`Partition::from_assignment`]'s checks, so
/// they are re-applied here; `k` is additionally bounded against the
/// assignment length — a claimed `k` in the billions over a handful of
/// nodes is an allocation bomb for every `vec![_; k]` consumer
/// (`part_sizes`, `part_weights`, `members`), not a partition.
pub fn partition_from_json(text: &str) -> Result<Partition, GraphError> {
    let p: Partition = serde_json::from_str(text).map_err(|e| GraphError::Io(e.to_string()))?;
    // Degenerate instances legitimately carry k slightly above n (the
    // k > n conformance family), so allow headroom before rejecting.
    const K_SLACK: usize = 1024;
    if p.k() > p.len().saturating_add(K_SLACK) {
        return Err(GraphError::Io(format!(
            "partition claims k={} over {} nodes; refusing the allocation bomb",
            p.k(),
            p.len()
        )));
    }
    Partition::from_assignment(p.assignment().to_vec(), p.k())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn graph_json_roundtrip() {
        let mut g = GraphBuilder::new();
        let a = g.add_labeled_node(2, "a");
        let b = g.add_node(3);
        g.add_edge(a, b, 4).unwrap();
        let text = graph_to_json(&g.build());
        let g2 = graph_from_json(&text).unwrap();
        assert_eq!(g2.num_nodes(), 2);
        assert_eq!(g2.label(NodeId(0)), Some("a"));
        assert_eq!(g2.total_edge_weight(), 4);
    }

    #[test]
    fn partition_json_roundtrip() {
        let p = Partition::from_assignment(vec![0, 1, 1], 2).unwrap();
        let text = partition_to_json(&p);
        let p2 = partition_from_json(&text).unwrap();
        assert_eq!(p, p2);
    }

    #[test]
    fn adjacency_order_is_taken_from_the_file() {
        // node 1 lists its edges newest first; the graph keeps that order
        let text = r#"{"node_weights":[1,1,1],"edges":[[0,1,2],[1,2,3]],
            "adj":[[[1,0]],[[2,1],[0,0]],[[1,1]]],"labels":[null,"b",null]}"#;
        let g = graph_from_json(text).unwrap();
        assert_eq!(
            g.neighbors(NodeId(1)),
            &[(NodeId(2), EdgeId(1)), (NodeId(0), EdgeId(0))]
        );
        assert_eq!(g.weighted_degree(NodeId(1)), 5);
        assert_eq!(g.label(NodeId(1)), Some("b"));
        assert_eq!(
            graph_from_json(&graph_to_json(&g)).unwrap().view(),
            g.view()
        );
    }

    #[test]
    fn malformed_adjacency_is_rejected() {
        for adj in ["null", "[[]]", "[[[1,0]],[[0]]]", r#"[[[1,9]],[[0,9]]]"#] {
            let text = format!(
                r#"{{"node_weights":[1,1],"edges":[[0,1,2]],"adj":{adj},"labels":[null,null]}}"#
            );
            assert!(graph_from_json(&text).is_err(), "{adj}");
        }
    }

    #[test]
    fn invalid_json_is_an_error() {
        assert!(graph_from_json("{").is_err());
        assert!(partition_from_json("[1,2,3]").is_err());
    }
}
