//! Induced subgraph extraction, used by recursive bisection: after a
//! bisection the two halves are partitioned independently, each on its
//! own induced subgraph.

use ppn_graph::{GraphBuilder, NodeId, WeightedGraph};

/// Extract the subgraph induced by `nodes`. Returns the subgraph and the
/// mapping `sub index -> original NodeId` (labels and weights carried
/// over; edges between selected nodes kept).
pub fn induced_subgraph(g: &WeightedGraph, nodes: &[NodeId]) -> (WeightedGraph, Vec<NodeId>) {
    let mut to_sub = vec![u32::MAX; g.num_nodes()];
    let mut sub = GraphBuilder::new();
    let mut back = Vec::with_capacity(nodes.len());
    for &v in nodes {
        debug_assert!(to_sub[v.index()] == u32::MAX, "duplicate node in selection");
        let id = match g.label(v) {
            Some(l) => sub.add_labeled_node(g.node_weight(v), l.to_string()),
            None => sub.add_node(g.node_weight(v)),
        };
        to_sub[v.index()] = id.0;
        back.push(v);
    }
    for &v in nodes {
        let sv = to_sub[v.index()];
        for &(u, e) in g.neighbors(v) {
            let su = to_sub[u.index()];
            if su != u32::MAX && sv < su {
                sub.add_edge(NodeId(sv), NodeId(su), g.edge_weight(e))
                    .expect("induced edges are simple");
            }
        }
    }
    (sub.build(), back)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> GraphBuilder {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|i| g.add_node(10 + i)).collect();
        g.add_edge(n[0], n[1], 1).unwrap();
        g.add_edge(n[1], n[2], 2).unwrap();
        g.add_edge(n[2], n[3], 3).unwrap();
        g.add_edge(n[3], n[0], 4).unwrap();
        g
    }

    #[test]
    fn extracts_weights_and_internal_edges() {
        let g = square().build();
        let (sub, back) = induced_subgraph(&g, &[NodeId(0), NodeId(1), NodeId(2)]);
        sub.validate().unwrap();
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 2); // 0-1 and 1-2; 2-3 and 3-0 dropped
        assert_eq!(sub.node_weight(NodeId(0)), 10);
        assert_eq!(sub.node_weight(NodeId(2)), 12);
        assert_eq!(back, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn empty_selection_gives_empty_graph() {
        let g = square().build();
        let (sub, back) = induced_subgraph(&g, &[]);
        assert_eq!(sub.num_nodes(), 0);
        assert!(back.is_empty());
    }

    #[test]
    fn subgraph_of_all_nodes_is_isomorphic() {
        let g = square().build();
        let all: Vec<_> = g.node_ids().collect();
        let (sub, _) = induced_subgraph(&g, &all);
        assert_eq!(sub.num_nodes(), g.num_nodes());
        assert_eq!(sub.num_edges(), g.num_edges());
        assert_eq!(sub.total_edge_weight(), g.total_edge_weight());
    }

    #[test]
    fn preserves_labels() {
        let mut g = square();
        g.set_label(NodeId(1), "p1");
        let g = g.build();
        let (sub, _) = induced_subgraph(&g, &[NodeId(1), NodeId(3)]);
        assert_eq!(sub.label(NodeId(0)), Some("p1"));
        assert_eq!(sub.num_edges(), 0); // 1 and 3 not adjacent
    }
}
