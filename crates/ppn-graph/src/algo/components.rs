//! Connected components.

use crate::graph::WeightedGraph;

/// Component id per node (0-based, in order of discovery) and the number
/// of components.
pub fn connected_components(g: &WeightedGraph) -> (Vec<u32>, usize) {
    let n = g.num_nodes();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for s in g.node_ids() {
        if comp[s.index()] != u32::MAX {
            continue;
        }
        comp[s.index()] = next;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &(u, _) in g.neighbors(v) {
                if comp[u.index()] == u32::MAX {
                    comp[u.index()] = next;
                    stack.push(u);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// True when the graph has exactly one component (empty graphs count as
/// connected).
pub fn is_connected(g: &WeightedGraph) -> bool {
    if g.num_nodes() == 0 {
        return true;
    }
    connected_components(g).1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn single_component() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        g.add_edge(a, b, 1).unwrap();
        let g = g.build();
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).1, 1);
    }

    #[test]
    fn two_components() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        let c = g.add_node(1);
        let d = g.add_node(1);
        let e = g.add_node(1);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(c, d, 1).unwrap();
        g.add_edge(d, e, 1).unwrap();
        let g = g.build();
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[a.index()], comp[b.index()]);
        assert_eq!(comp[c.index()], comp[d.index()]);
        assert_ne!(comp[a.index()], comp[c.index()]);
        assert_eq!(comp[d.index()], comp[e.index()]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = GraphBuilder::new().build();
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).1, 0);
    }

    #[test]
    fn isolated_nodes_are_own_components() {
        let g = GraphBuilder::with_uniform_nodes(3, 1).build();
        let (_, count) = connected_components(&g);
        assert_eq!(count, 3);
    }
}
