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
//! the `parallel` feature is enabled; selection reduces with a total
//! order, so the result is identical sequentially or in parallel.

use crate::refine::{constrained_refine, RefineOptions};
use ppn_graph::metrics::PartitionQuality;
use ppn_graph::prng::{derive_seed, XorShift128Plus};
use ppn_graph::trace;
use ppn_graph::{Constraints, NodeId, Partition, WeightedGraph};

#[cfg(feature = "parallel")]
use rayon::prelude::*;

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

/// One greedy allocation from a given seed node.
fn grow_from(g: &WeightedGraph, k: usize, c: &Constraints, first: NodeId, seed: u64) -> Partition {
    let n = g.num_nodes();
    let mut p = Partition::unassigned(n, k);
    let mut part_weight = vec![0u64; k];
    let mut rng = XorShift128Plus::new(seed);

    // heaviest-first order for choosing the next part's seed
    let mut by_weight: Vec<NodeId> = g.node_ids().collect();
    by_weight.sort_by_key(|&v| std::cmp::Reverse((g.node_weight(v), std::cmp::Reverse(v.0))));

    let mut next_seed = Some(first);
    for part in 0..k as u32 {
        let Some(seed_node) = next_seed
            .take()
            .or_else(|| by_weight.iter().copied().find(|&v| !p.is_assigned(v)))
        else {
            break; // everything assigned already
        };
        if p.is_assigned(seed_node) {
            // the chosen first node may already be taken in later parts
            if let Some(v) = by_weight.iter().copied().find(|&v| !p.is_assigned(v)) {
                p.assign(v, part);
                part_weight[part as usize] += g.node_weight(v);
            } else {
                break;
            }
        } else {
            p.assign(seed_node, part);
            part_weight[part as usize] += g.node_weight(seed_node);
        }

        // absorb neighbours by heaviest connection while Rmax holds
        loop {
            let mut best: Option<(u64, NodeId)> = None;
            for v in g.node_ids().filter(|&v| p.part_of(v) == part) {
                for &(u, e) in g.neighbors(v) {
                    if p.is_assigned(u) {
                        continue;
                    }
                    let w = g.edge_weight(e);
                    match best {
                        Some((bw, bu))
                            if (bw, std::cmp::Reverse(bu.0)) >= (w, std::cmp::Reverse(u.0)) => {}
                        _ => best = Some((w, u)),
                    }
                }
            }
            let Some((_, u)) = best else { break };
            if part_weight[part as usize] + g.node_weight(u) > c.rmax {
                break; // paper: stop growing this part at Rmax
            }
            p.assign(u, part);
            part_weight[part as usize] += g.node_weight(u);
        }
        let _ = &mut rng; // rng reserved for tie-breaking variants
    }

    // best-fit sweep for leftovers (largest free space first)
    let leftovers = p.unassigned_nodes();
    for v in leftovers {
        let wv = g.node_weight(v);
        let fitting = (0..k)
            .filter(|&q| part_weight[q] + wv <= c.rmax)
            .max_by_key(|&q| (c.rmax - part_weight[q], std::cmp::Reverse(q)));
        let target = fitting.unwrap_or_else(|| {
            // overflow: most free space even though Rmax breaks
            (0..k)
                .max_by_key(|&q| (c.rmax.saturating_sub(part_weight[q]), std::cmp::Reverse(q)))
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
    g: &WeightedGraph,
    k: usize,
    c: &Constraints,
    opts: &InitialOptions,
    r: usize,
) -> (Goodness, Partition) {
    let _sp = trace::span("gp", "restart", r as i64);
    let seed = derive_seed(opts.seed, r as u64);
    let first = if r == 0 {
        g.node_ids()
            .max_by_key(|&v| (g.node_weight(v), std::cmp::Reverse(v.0)))
            .expect("non-empty graph")
    } else {
        let mut rng = XorShift128Plus::new(seed);
        NodeId::from_index(rng.next_below(g.num_nodes()))
    };
    let mut p = grow_from(g, k, c, first, seed);
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
pub fn greedy_initial_partition(
    g: &WeightedGraph,
    k: usize,
    c: &Constraints,
    opts: &InitialOptions,
) -> Partition {
    assert!(k >= 1);
    assert!(g.num_nodes() > 0, "cannot partition an empty graph");
    let restarts = opts.restarts.max(1);

    let best = {
        #[cfg(feature = "parallel")]
        {
            if opts.parallel {
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
            }
        }
        #[cfg(not(feature = "parallel"))]
        {
            (0..restarts)
                .map(|r| run_restart(g, k, c, opts, r))
                .min_by_key(|(key, _)| *key)
        }
    };
    best.expect("at least one restart").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::edge_cut;

    fn chain_clusters() -> WeightedGraph {
        // 12 nodes in 4 natural triads, like the paper's experiments
        let mut g = WeightedGraph::new();
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
        g
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
