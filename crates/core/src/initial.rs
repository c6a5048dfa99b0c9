//! Greedy resource-bounded initial partitioning (paper §IV-B) under
//! the edge-cut model.
//!
//! ppn-graph's growth kernel ([`ppn_graph::initial::grow`]) and restart
//! driver ([`best_restart`]) run the procedure; this module supplies
//! the graph's frontier (the heaviest edge from the growing part), the
//! repair ([`constrained_refine`]) and the edge-cut goodness. gp runs
//! its restarts in parallel ([`InitialOptions::parallel`]); selection
//! reduces with a total order, so the result is identical sequentially
//! or in parallel.

use crate::refine::constrained_refine;
use ppn_graph::initial::{best_restart, Frontier, FrontierHeap};
use ppn_graph::metrics::PartitionQuality;
pub use ppn_graph::InitialOptions;
use ppn_graph::{Constraints, LevelView, NodeId, Partition};
use std::cmp::Reverse;

/// The graph model's frontier. `best[u]` holds the heaviest edge from
/// the growing part to `u` seen so far, and an edge pushes an entry only
/// when it beats that, so growing a part costs O(d log d) for the d
/// edges at its nodes.
struct EdgeFrontier<'a> {
    g: LevelView<'a>,
    best: Vec<u64>,
    /// Nodes whose `best` is set, reset between parts; edge weights are
    /// strictly positive, so `best[u] == 0` means "no edge yet".
    touched: Vec<NodeId>,
}

impl Frontier for EdgeFrontier<'_> {
    fn reset(&mut self) {
        for u in self.touched.drain(..) {
            self.best[u.index()] = 0;
        }
    }

    fn push(&mut self, v: NodeId, p: &Partition, heap: &mut FrontierHeap) {
        for (u, w) in self.g.weighted_neighbors(v) {
            debug_assert!(w > 0, "edge weights are strictly positive");
            if p.is_assigned(u) || w <= self.best[u.index()] {
                continue;
            }
            if self.best[u.index()] == 0 {
                self.touched.push(u);
            }
            self.best[u.index()] = w;
            heap.push((w, Reverse(u.0)));
        }
    }
}

/// One greedy allocation from `first` (paper §IV-B), the kernel every
/// restart runs: [`ppn_graph::initial::grow`], where a part absorbs the
/// unassigned node with the heaviest edge into it (ties to the smaller
/// id). The frontier's top is exactly the pair a full scan of the
/// part's adjacency would pick (`crates/core/tests/properties.rs`
/// checks this against that scan).
pub fn grow_from<'a>(
    g: impl Into<LevelView<'a>>,
    k: usize,
    c: &Constraints,
    first: NodeId,
) -> Partition {
    let g = g.into();
    let mut frontier = EdgeFrontier {
        g,
        best: vec![0; g.num_nodes()],
        touched: Vec::new(),
    };
    ppn_graph::initial::grow(g.node_weights(), k, c.rmax, first, &mut frontier)
}

/// Greedy initial partitioning with restarts; returns the best partition
/// under the goodness order `(violation count, violation magnitude,
/// total cut, restart index)`.
pub fn greedy_initial_partition<'a>(
    g: impl Into<LevelView<'a>>,
    k: usize,
    c: &Constraints,
    opts: &InitialOptions,
) -> Partition {
    let g = g.into();
    best_restart(
        "gp",
        g.node_weights(),
        opts,
        |first| grow_from(g, k, c, first),
        |p, repair| {
            constrained_refine(g, p, c, repair);
        },
        |p| PartitionQuality::measure(g, p).goodness_key(c.rmax, c.bmax),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::edge_cut;
    use ppn_graph::{GraphBuilder, WeightedGraph};

    fn chain_clusters() -> WeightedGraph {
        // 12 nodes in 4 natural triads, like the paper's experiments
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..12)
            .map(|i| g.add_node(20 + (i as u64 * 7) % 30))
            .collect();
        for c in 0..4 {
            let b = c * 3;
            g.add_edge(n[b], n[b + 1], 12).unwrap();
            g.add_edge(n[b + 1], n[b + 2], 12).unwrap();
            g.add_edge(n[b], n[b + 2], 12).unwrap();
        }
        for c in 0..3 {
            g.add_edge(n[c * 3 + 2], n[(c + 1) * 3], 3).unwrap();
        }
        g.build()
    }

    #[test]
    fn produces_complete_partition() {
        let g = chain_clusters();
        let c = Constraints::new(120, 30);
        let p = greedy_initial_partition(&g, 4, &c, &InitialOptions::default());
        assert!(p.is_complete());
        assert_eq!(p.k(), 4);
    }

    #[test]
    fn respects_rmax_when_feasible() {
        let g = chain_clusters();
        // generous rmax: every part can hold a triad
        let c = Constraints::new(150, 100);
        let p = greedy_initial_partition(&g, 4, &c, &InitialOptions::default());
        let w = p.part_weights(g.node_weights());
        assert!(
            w.iter().all(|&x| x <= 150),
            "rmax should hold with generous caps: {w:?}"
        );
    }

    #[test]
    fn overflows_gracefully_when_infeasible() {
        let g = chain_clusters();
        // rmax below the heaviest node: infeasible, but must not panic
        let c = Constraints::new(10, 100);
        let p = greedy_initial_partition(&g, 4, &c, &InitialOptions::default());
        assert!(
            p.is_complete(),
            "overflow path must still assign everything"
        );
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let g = chain_clusters();
        let c = Constraints::new(130, 40);
        let seq = greedy_initial_partition(
            &g,
            4,
            &c,
            &InitialOptions {
                parallel: false,
                ..Default::default()
            },
        );
        let par = greedy_initial_partition(
            &g,
            4,
            &c,
            &InitialOptions {
                parallel: true,
                ..Default::default()
            },
        );
        assert_eq!(seq, par, "restart selection must be schedule-independent");
    }

    #[test]
    fn more_restarts_never_hurt_goodness() {
        let g = chain_clusters();
        let c = Constraints::new(130, 40);
        let q = |restarts| {
            let p = greedy_initial_partition(
                &g,
                4,
                &c,
                &InitialOptions {
                    restarts,
                    ..Default::default()
                },
            );
            PartitionQuality::measure(&g, &p).goodness_key(c.rmax, c.bmax)
        };
        assert!(q(10) <= q(1), "restart 1..10 includes restart 0");
    }

    #[test]
    fn single_part_takes_everything() {
        let g = chain_clusters();
        let c = Constraints::new(u64::MAX, u64::MAX);
        let p = greedy_initial_partition(&g, 1, &c, &InitialOptions::default());
        assert!(p.assignment().iter().all(|&a| a == 0));
        assert_eq!(edge_cut(&g, &p), 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = chain_clusters();
        let c = Constraints::new(130, 40);
        let a = greedy_initial_partition(&g, 4, &c, &InitialOptions::default());
        let b = greedy_initial_partition(&g, 4, &c, &InitialOptions::default());
        assert_eq!(a, b);
    }
}
