//! Greedy graph growing.
//!
//! The seed-and-grow heuristic used for initial bisections: starting from
//! a seed node, repeatedly absorb the frontier node whose inclusion
//! increases the running cut the least, until the grown region holds the
//! target share of the total node weight. This is the bisection analogue
//! of the paper's resource-driven greedy initial partitioning.

use crate::gain::GainHeap;
use ppn_graph::{NodeId, Partition, WeightedGraph};

/// Grow a region from `seed` until its weight reaches `target_weight`.
/// Returns a bisection: grown region = part 0, rest = part 1.
pub fn greedy_grow_bisection(g: &WeightedGraph, seed: NodeId, target_weight: u64) -> Partition {
    let n = g.num_nodes();
    let mut p = Partition::unassigned(n, 2);
    if n == 0 {
        return p;
    }

    let mut in_region = vec![false; n];
    let mut heap = GainHeap::new(n);
    let mut region_weight = 0u64;

    // gain of absorbing v = (links into region) − (links to outside);
    // maximising it == minimising the cut increase. Weighted degrees are
    // summed once: a hub's frontier updates would otherwise re-sum its
    // adjacency each time, O(Σ deg²) over the call
    let mut link_in: Vec<i64> = vec![0; n];
    let weighted_degree: Vec<i64> = g.node_ids().map(|v| g.weighted_degree(v) as i64).collect();

    let absorb = |v: NodeId,
                  in_region: &mut Vec<bool>,
                  link_in: &mut Vec<i64>,
                  heap: &mut GainHeap,
                  region_weight: &mut u64| {
        in_region[v.index()] = true;
        *region_weight += g.node_weight(v);
        for &(u, e) in g.neighbors(v) {
            if in_region[u.index()] {
                continue;
            }
            let w = g.edge_weight(e) as i64;
            link_in[u.index()] += w;
            let gain = 2 * link_in[u.index()] - weighted_degree[u.index()];
            heap.update(u.0, gain);
        }
    };

    absorb(
        seed,
        &mut in_region,
        &mut link_in,
        &mut heap,
        &mut region_weight,
    );
    while region_weight < target_weight {
        let Some((_, v)) = heap.pop() else {
            // frontier empty (disconnected graph): jump to the lightest
            // unreached node to keep growing
            let next = g
                .node_ids()
                .filter(|v| !in_region[v.index()])
                .min_by_key(|&v| g.node_weight(v));
            match next {
                Some(v) => {
                    absorb(
                        v,
                        &mut in_region,
                        &mut link_in,
                        &mut heap,
                        &mut region_weight,
                    );
                    continue;
                }
                None => break,
            }
        };
        let v = NodeId(v);
        if in_region[v.index()] {
            continue;
        }
        absorb(
            v,
            &mut in_region,
            &mut link_in,
            &mut heap,
            &mut region_weight,
        );
    }

    for v in g.node_ids() {
        p.assign(v, if in_region[v.index()] { 0 } else { 1 });
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::edge_cut;
    use ppn_graph::GraphBuilder;

    fn grid3x3() -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..9).map(|_| g.add_node(1)).collect();
        for r in 0..3 {
            for c in 0..3 {
                let i = r * 3 + c;
                if c + 1 < 3 {
                    g.add_edge(n[i], n[i + 1], 1).unwrap();
                }
                if r + 1 < 3 {
                    g.add_edge(n[i], n[i + 3], 1).unwrap();
                }
            }
        }
        g.build()
    }

    #[test]
    fn grows_to_target_weight() {
        let g = grid3x3();
        let p = greedy_grow_bisection(&g, NodeId(0), 4);
        assert!(p.is_complete());
        let w = p.part_weights(&g);
        assert!(w[0] >= 4, "region too small: {w:?}");
        assert!(w[0] <= 5, "region overshot more than one node: {w:?}");
    }

    #[test]
    fn grown_region_is_connected_on_connected_graph() {
        use crate::subgraph::induced_subgraph;
        use ppn_graph::algo::components::is_connected;
        let g = grid3x3();
        let p = greedy_grow_bisection(&g, NodeId(4), 4);
        let members = p.members();
        let (sub, _) = induced_subgraph(&g, &members[0]);
        assert!(is_connected(&sub), "grown region should be connected");
    }

    #[test]
    fn cut_is_reasonable_on_grid() {
        let g = grid3x3();
        // optimal 4/5 split of a 3x3 grid cuts 3 edges (a full row/column
        // boundary plus corner); greedy should stay close
        let p = greedy_grow_bisection(&g, NodeId(0), 4);
        assert!(edge_cut(&g, &p) <= 4, "cut {} too large", edge_cut(&g, &p));
    }

    #[test]
    fn disconnected_graph_still_reaches_target() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(3);
        let b = g.add_node(3);
        g.add_edge(a, b, 1).unwrap();
        let _c = g.add_node(3);
        let _d = g.add_node(3);
        let g = g.build();
        let p = greedy_grow_bisection(&g, a, 9);
        let w = p.part_weights(&g);
        assert!(w[0] >= 9);
    }

    #[test]
    fn zero_target_keeps_only_seed() {
        let g = grid3x3();
        let p = greedy_grow_bisection(&g, NodeId(8), 0);
        assert_eq!(p.part_sizes()[0], 1);
        assert_eq!(p.part_of(NodeId(8)), 0);
    }
}
