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
/// Assumes the instance gate's weight bound (see the crate docs).
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

    // restart order for an empty frontier: nodes by (weight, id),
    // sorted on the first restart; the cursor only moves forward, since
    // a node once in the region stays there
    let mut by_weight: Vec<NodeId> = Vec::new();
    let mut cursor = 0;

    let mut v = seed;
    loop {
        in_region[v.index()] = true;
        region_weight += g.node_weight(v);
        for &(u, e) in g.neighbors(v) {
            if in_region[u.index()] {
                continue;
            }
            link_in[u.index()] += g.edge_weight(e) as i64;
            heap.update(u.0, 2 * link_in[u.index()] - weighted_degree[u.index()]);
        }
        if region_weight >= target_weight {
            break;
        }
        // the heap holds exactly the frontier: absorbing a node pops it,
        // and only nodes outside the region get an entry
        v = match heap.pop() {
            Some((_, u)) => NodeId(u),
            None => {
                // frontier empty (disconnected graph): jump to the
                // lightest unreached node, lowest id on ties, to keep
                // growing
                if by_weight.is_empty() {
                    by_weight = g.node_ids().collect();
                    by_weight.sort_unstable_by_key(|&u| (g.node_weight(u), u));
                }
                while cursor < n && in_region[by_weight[cursor].index()] {
                    cursor += 1;
                }
                match by_weight.get(cursor).copied() {
                    Some(u) => u,
                    None => break,
                }
            }
        };
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
    use ppn_graph::prng::XorShift128Plus;
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
        let w = p.part_weights(g.node_weights());
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
        let w = p.part_weights(g.node_weights());
        assert!(w[0] >= 9);
    }

    /// Growth as [`greedy_grow_bisection`] runs it, by scans and
    /// without a heap: the next node is the frontier node (touched by
    /// the region, not in it) with the largest `(gain, id)`, and an
    /// empty frontier restarts from the lightest node outside the
    /// region, lowest id on ties. The oracle for the heap's pops and the
    /// sorted restart order; returns the region's membership.
    fn grow_by_scan(g: &WeightedGraph, seed: NodeId, target: u64) -> Vec<bool> {
        let n = g.num_nodes();
        let (mut in_region, mut touched) = (vec![false; n], vec![false; n]);
        let mut link_in = vec![0i64; n];
        let (mut weight, mut v) = (0, seed);
        loop {
            in_region[v.index()] = true;
            weight += g.node_weight(v);
            for &(u, e) in g.neighbors(v) {
                if !in_region[u.index()] {
                    link_in[u.index()] += g.edge_weight(e) as i64;
                    touched[u.index()] = true;
                }
            }
            if weight >= target {
                return in_region;
            }
            let frontier = g
                .node_ids()
                .filter(|u| touched[u.index()] && !in_region[u.index()])
                .max_by_key(|&u| (2 * link_in[u.index()] - g.weighted_degree(u) as i64, u));
            v = match frontier {
                Some(u) => u,
                None => match g
                    .node_ids()
                    .filter(|u| !in_region[u.index()])
                    .min_by_key(|&u| g.node_weight(u))
                {
                    Some(u) => u,
                    None => return in_region,
                },
            };
        }
    }

    #[test]
    fn restarts_across_components_pick_what_a_scan_picks() {
        // a triangle, two paths, pairs and isolated nodes, with tied
        // weights across components so restarts hit the id tie-break
        let weights = [3, 1, 2, 2, 1, 3, 1, 2, 2, 1, 4, 1, 3, 2, 1, 1];
        let mut b = GraphBuilder::new();
        let n: Vec<_> = weights.iter().map(|&w| b.add_node(w)).collect();
        for (u, v, w) in [
            (0, 1, 4),
            (1, 2, 1),
            (2, 0, 2),
            (3, 4, 5),
            (4, 5, 1),
            (5, 6, 3),
            (7, 8, 2),
            (9, 10, 6),
            (11, 12, 1),
        ] {
            b.add_edge(n[u], n[v], w).unwrap();
        }
        let g = b.build();
        let total = g.total_node_weight();
        for seed in g.node_ids() {
            for target in 0..=total + 1 {
                let p = greedy_grow_bisection(&g, seed, target);
                let region: Vec<bool> = g.node_ids().map(|v| p.part_of(v) == 0).collect();
                assert_eq!(
                    region,
                    grow_by_scan(&g, seed, target),
                    "seed {seed:?}, target {target}"
                );
            }
        }
    }

    #[test]
    fn frontier_pops_pick_what_a_scan_picks() {
        // random graphs with tied node and edge weights, so the
        // frontier's (gain, id) order decides which node comes next
        let mut rng = XorShift128Plus::new(0x6A0);
        for case in 0..40 {
            let n = 2 + rng.next_below(30);
            let mut b = GraphBuilder::new();
            let ids: Vec<_> = (0..n)
                .map(|_| b.add_node(1 + rng.next_below(4) as u64))
                .collect();
            for _ in 0..rng.next_below(3 * n) {
                let (u, v) = (rng.next_below(n), rng.next_below(n));
                if u != v && b.find_edge(ids[u], ids[v]).is_none() {
                    b.add_edge(ids[u], ids[v], 1 + rng.next_below(5) as u64)
                        .unwrap();
                }
            }
            let g = b.build();
            let total = g.total_node_weight();
            for seed in g.node_ids() {
                for target in [total / 4, total / 2, total] {
                    let p = greedy_grow_bisection(&g, seed, target);
                    let region: Vec<bool> = g.node_ids().map(|v| p.part_of(v) == 0).collect();
                    assert_eq!(
                        region,
                        grow_by_scan(&g, seed, target),
                        "case {case}, seed {seed:?}, target {target}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_target_keeps_only_seed() {
        let g = grid3x3();
        let p = greedy_grow_bisection(&g, NodeId(8), 0);
        assert_eq!(p.part_sizes()[0], 1);
        assert_eq!(p.part_of(NodeId(8)), 0);
    }
}
