//! Breadth-first traversal.

use crate::graph::WeightedGraph;
use crate::ids::NodeId;
use std::collections::VecDeque;

/// Nodes in BFS order from `start` (only the reachable component).
pub fn bfs_order(g: &WeightedGraph, start: NodeId) -> Vec<NodeId> {
    let mut order = Vec::new();
    let mut seen = vec![false; g.num_nodes()];
    let mut q = VecDeque::new();
    seen[start.index()] = true;
    q.push_back(start);
    while let Some(v) = q.pop_front() {
        order.push(v);
        for &(u, _) in g.neighbors(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                q.push_back(u);
            }
        }
    }
    order
}

/// Hop distances from `start`; unreachable nodes get `usize::MAX`.
pub fn bfs_distances(g: &WeightedGraph, start: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    let mut q = VecDeque::new();
    dist[start.index()] = 0;
    q.push_back(start);
    while let Some(v) = q.pop_front() {
        let d = dist[v.index()];
        for &(u, _) in g.neighbors(v) {
            if dist[u.index()] == usize::MAX {
                dist[u.index()] = d + 1;
                q.push_back(u);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path(n: usize) -> GraphBuilder {
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(1)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1).unwrap();
        }
        g
    }

    #[test]
    fn bfs_order_visits_reachable_once() {
        let g = path(5).build();
        let order = bfs_order(&g, NodeId(2));
        assert_eq!(order.len(), 5);
        assert_eq!(order[0], NodeId(2));
        let mut sorted: Vec<_> = order.iter().map(|n| n.0).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5).build();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unreachable_nodes_are_max() {
        let mut g = path(3);
        g.add_node(1); // isolated node 3
        let g = g.build();
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[3], usize::MAX);
        assert_eq!(bfs_order(&g, NodeId(0)).len(), 3);
    }
}
