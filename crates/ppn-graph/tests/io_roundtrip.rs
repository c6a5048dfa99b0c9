//! Lossless round-trips of every graph I/O format on a small weighted
//! graph: metis and matrix (write → parse), json (graph and partition),
//! and structural sanity of the DOT writer (export-only format).

use ppn_graph::io::dot::{to_dot, DotOptions};
use ppn_graph::io::{json, matrix, metis};
use ppn_graph::{GraphBuilder, NodeId, Partition, WeightedGraph};

/// A 5-node weighted graph with labels and a non-trivial edge pattern.
fn sample_graph() -> WeightedGraph {
    let mut g = GraphBuilder::new();
    let a = g.add_labeled_node(10, "src");
    let b = g.add_labeled_node(25, "filter");
    let c = g.add_node(40);
    let d = g.add_node(7);
    let e = g.add_labeled_node(33, "sink");
    g.add_edge(a, b, 5).unwrap();
    g.add_edge(b, c, 12).unwrap();
    g.add_edge(c, d, 1).unwrap();
    g.add_edge(d, e, 9).unwrap();
    g.add_edge(b, e, 3).unwrap();
    g.add_edge(a, c, 2).unwrap();
    g.build()
}

/// Weights and topology must match exactly (labels are format-dependent).
fn assert_same_structure(a: &WeightedGraph, b: &WeightedGraph) {
    assert_eq!(b.num_nodes(), a.num_nodes());
    assert_eq!(b.num_edges(), a.num_edges());
    for v in a.node_ids() {
        assert_eq!(b.node_weight(v), a.node_weight(v), "weight of {v:?}");
    }
    for (u, v, w) in a.edges() {
        let e = b
            .find_edge(u, v)
            .unwrap_or_else(|| panic!("edge {u:?}--{v:?} lost"));
        assert_eq!(b.edge_weight(e), w, "weight of {u:?}--{v:?}");
    }
    b.validate().unwrap();
}

#[test]
fn metis_write_parse_is_lossless() {
    let g = sample_graph();
    let text = metis::write(&g);
    let back = metis::parse(&text).unwrap();
    assert_same_structure(&g, &back);
}

#[test]
fn matrix_write_parse_is_lossless() {
    let g = sample_graph();
    let text = matrix::write(&g);
    let back = matrix::parse(&text).unwrap();
    assert_same_structure(&g, &back);
}

#[test]
fn json_graph_roundtrip_preserves_labels_too() {
    let g = sample_graph();
    let text = json::graph_to_json(&g);
    let back = json::graph_from_json(&text).unwrap();
    assert_same_structure(&g, &back);
    for v in g.node_ids() {
        assert_eq!(back.label(v), g.label(v), "label of {v:?}");
    }
}

#[test]
fn json_partition_roundtrip() {
    let p = Partition::from_assignment(vec![0, 1, 1, 2, 0], 3).unwrap();
    let text = json::partition_to_json(&p);
    let back = json::partition_from_json(&text).unwrap();
    assert_eq!(back, p);
}

#[test]
fn json_parse_rejects_garbage() {
    assert!(json::graph_from_json("not json at all").is_err());
    assert!(json::partition_from_json("{\"truncated\":").is_err());
}

#[test]
fn dot_export_mentions_every_node_edge_and_partition_color() {
    let g = sample_graph();
    let p = Partition::from_assignment(vec![0, 0, 1, 1, 1], 2).unwrap();
    let dot = to_dot(
        &g,
        &DotOptions {
            partition: Some(p),
            ..DotOptions::default()
        },
    );
    assert!(dot.starts_with("graph "));
    assert!(dot.trim_end().ends_with('}'));
    // labelled nodes render their labels, unlabelled ones their index
    for label in ["src", "filter", "sink"] {
        assert!(dot.contains(label), "missing label {label}");
    }
    // all 6 edges render as undirected connections
    assert_eq!(dot.matches(" -- ").count(), 6);
    // both parts colour at least one node
    assert!(dot.matches("fillcolor").count() >= g.num_nodes());
    // deterministic output
    assert_eq!(
        dot,
        to_dot(
            &g,
            &DotOptions {
                partition: Some(Partition::from_assignment(vec![0, 0, 1, 1, 1], 2).unwrap()),
                ..DotOptions::default()
            }
        )
    );
}

#[test]
fn metis_roundtrip_keeps_unit_weights_implicit() {
    // uniform graph: the metis writer may omit weights, parse must agree
    let mut g = GraphBuilder::with_uniform_nodes(4, 1);
    g.add_edge(NodeId(0), NodeId(1), 1).unwrap();
    g.add_edge(NodeId(2), NodeId(3), 1).unwrap();
    let g = g.build();
    let back = metis::parse(&metis::write(&g)).unwrap();
    assert_same_structure(&g, &back);
}
