//! Greedy resource-bounded initial partitioning (paper §IV-B).
//!
//! On the coarsest graph:
//!
//! 1. start from the heaviest node, open part 0, and absorb neighbours
//!    (heaviest-connection first) while `Rmax` holds; repeat for the
//!    remaining parts;
//! 2. leftover nodes go best-fit into the part with the most free space;
//! 3. if nothing fits, overflow into the part with the most free space
//!    anyway ("even though this implies violating the Rmax constraint");
//! 4. an FM-style constrained repair pass drives pairwise bandwidth under
//!    `Bmax` as far as possible.
//!
//! Because the outcome is sensitive to the first seed node, the whole
//! procedure restarts from random seed nodes a parametrised number of
//! times (default 10, paper §IV-B) and the goodness function picks the
//! winner. Restarts are embarrassingly parallel and run under rayon when
//! [`InitialOptions::parallel`] is set; selection reduces with a total
//! order, so the result is identical sequentially or in parallel.

use crate::refine::{constrained_refine, RefineOptions};
use ppn_graph::metrics::PartitionQuality;
use ppn_graph::prng::{derive_seed, XorShift128Plus};
use ppn_graph::trace;
use ppn_graph::{Constraints, LevelView, NodeId, Partition};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Options for [`greedy_initial_partition`].
#[derive(Clone, Debug)]
pub struct InitialOptions {
    /// Number of restarts (first restart always seeds from the heaviest
    /// node; the rest use random seed nodes).
    pub restarts: usize,
    /// FM repair passes after the greedy allocation.
    pub repair_passes: usize,
    /// Seed.
    pub seed: u64,
    /// Evaluate restarts in parallel.
    pub parallel: bool,
}

impl Default for InitialOptions {
    fn default() -> Self {
        InitialOptions {
            restarts: 10,
            repair_passes: 8,
            seed: 77,
            parallel: true,
        }
    }
}

/// One greedy allocation from `first` (paper §IV-B), the kernel every
/// restart runs.
///
/// Part 0 grows from `first`, every later part from the heaviest node
/// still unassigned (ties to the smaller id). A part absorbs, one at a
/// time, the unassigned node with the heaviest edge into it (ties to the
/// smaller id) and stops at the first such node that would break `Rmax`.
/// Leftovers then go best-fit into the part with the most free space, or
/// overflow into it when nothing fits.
///
/// The frontier is a max-heap keyed `(edge weight, Reverse(node id))`.
/// `best[u]` holds the heaviest edge from the growing part to `u` seen so
/// far, and an edge pushes an entry only when it beats that, so growing
/// a part costs O(d log d) for the d edges at its nodes. Popped entries of
/// absorbed nodes are skipped; an entry superseded by a heavier push
/// never reaches the top while its node is unassigned. So the top is
/// exactly the pair a full scan of the part's adjacency would pick
/// (`crates/core/tests/properties.rs` checks this against that scan).
pub fn grow_from<'a>(
    g: impl Into<LevelView<'a>>,
    k: usize,
    c: &Constraints,
    first: NodeId,
) -> Partition {
    let g = g.into();
    let n = g.num_nodes();
    let mut p = Partition::unassigned(n, k);
    let mut part_weight = vec![0u64; k];

    // heaviest-first order for choosing the next part's seed; nodes only
    // ever become assigned, so the first unassigned one moves forward
    let mut by_weight: Vec<NodeId> = g.node_ids().collect();
    by_weight.sort_by_key(|&v| Reverse((g.node_weight(v), Reverse(v.0))));
    let mut next_by_weight = 0;

    // per-part frontier, reset between parts through `touched`; edge
    // weights are strictly positive, so `best[u] == 0` means "no edge yet"
    let mut best = vec![0u64; n];
    let mut touched: Vec<NodeId> = Vec::new();
    let mut heap: BinaryHeap<(u64, Reverse<u32>)> = BinaryHeap::new();

    for part in 0..k as u32 {
        let seed_node = if part == 0 {
            first
        } else {
            while next_by_weight < n && p.is_assigned(by_weight[next_by_weight]) {
                next_by_weight += 1;
            }
            let Some(&v) = by_weight.get(next_by_weight) else {
                break; // everything assigned already
            };
            v
        };
        for u in touched.drain(..) {
            best[u.index()] = 0;
        }
        heap.clear();

        // absorb neighbours by heaviest connection while Rmax holds
        let mut v = seed_node;
        loop {
            p.assign(v, part);
            part_weight[part as usize] += g.node_weight(v);
            for (u, w) in g.weighted_neighbors(v) {
                debug_assert!(w > 0, "edge weights are strictly positive");
                if p.is_assigned(u) || w <= best[u.index()] {
                    continue;
                }
                if best[u.index()] == 0 {
                    touched.push(u);
                }
                best[u.index()] = w;
                heap.push((w, Reverse(u.0)));
            }
            let next = std::iter::from_fn(|| heap.pop())
                .map(|(_, Reverse(u))| NodeId(u))
                .find(|&u| !p.is_assigned(u));
            let Some(u) = next else { break };
            if part_weight[part as usize] + g.node_weight(u) > c.rmax {
                break; // paper: stop growing this part at Rmax
            }
            v = u;
        }
    }

    // best-fit sweep for leftovers (largest free space first)
    let leftovers = p.unassigned_nodes();
    for v in leftovers {
        let wv = g.node_weight(v);
        let fitting = (0..k)
            .filter(|&q| part_weight[q] + wv <= c.rmax)
            .max_by_key(|&q| (c.rmax - part_weight[q], Reverse(q)));
        let target = fitting.unwrap_or_else(|| {
            // overflow: most free space even though Rmax breaks
            (0..k)
                .max_by_key(|&q| (c.rmax.saturating_sub(part_weight[q]), Reverse(q)))
                .unwrap()
        });
        p.assign(v, target as u32);
        part_weight[target] += wv;
    }
    debug_assert!(p.is_complete());
    p
}

/// Goodness-ordered key for restart selection (lower is better):
/// `(violation count, violation magnitude, total cut, restart index)`.
type Goodness = (u64, u64, u64, usize);

fn run_restart(
    g: LevelView<'_>,
    k: usize,
    c: &Constraints,
    opts: &InitialOptions,
    r: usize,
) -> (Goodness, Partition) {
    let _sp = trace::span("gp", "restart", r as i64);
    let seed = derive_seed(opts.seed, r as u64);
    let first = if r == 0 {
        g.node_ids()
            .max_by_key(|&v| (g.node_weight(v), Reverse(v.0)))
            .expect("non-empty graph")
    } else {
        let mut rng = XorShift128Plus::new(seed);
        NodeId::from_index(rng.next_below(g.num_nodes()))
    };
    let mut p = grow_from(g, k, c, first);
    constrained_refine(
        g,
        &mut p,
        c,
        &RefineOptions {
            max_passes: opts.repair_passes,
            seed,
            protect_nonempty: true,
        },
    );
    let q = PartitionQuality::measure(g, &p);
    let (count, magnitude, cut) = q.goodness_key(c.rmax, c.bmax);
    ((count, magnitude, cut, r), p)
}

/// Greedy initial partitioning with restarts; returns the best partition
/// under the goodness order.
pub fn greedy_initial_partition<'a>(
    g: impl Into<LevelView<'a>>,
    k: usize,
    c: &Constraints,
    opts: &InitialOptions,
) -> Partition {
    let g = g.into();
    assert!(k >= 1);
    assert!(g.num_nodes() > 0, "cannot partition an empty graph");
    let restarts = opts.restarts.max(1);

    let best = if opts.parallel {
        // each restart records into the caller's trace session
        let scope = trace::current();
        (0..restarts)
            .into_par_iter()
            .map(|r| scope.run(|| run_restart(g, k, c, opts, r)))
            .min_by_key(|(key, _)| *key)
    } else {
        (0..restarts)
            .map(|r| run_restart(g, k, c, opts, r))
            .min_by_key(|(key, _)| *key)
    };
    best.expect("at least one restart").1
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
        let w = p.part_weights(&g);
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
