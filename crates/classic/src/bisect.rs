//! Bisection driver and recursive bisection to k parts.
//!
//! `bisect` combines greedy growing from several random seeds with FM
//! refinement and keeps the best result; `recursive_bisection` applies it
//! log₂(k) deep, splitting the target part count (and therefore weight
//! share) as evenly as possible — the standard initial-partitioning
//! pipeline of multilevel k-way partitioners, including METIS and the
//! paper's GP.

use crate::fm::{fm_refine_bisection, FmOptions};
use crate::grow::greedy_grow_bisection;
use crate::subgraph::induced_subgraph;
use ppn_graph::metrics::edge_cut;
use ppn_graph::prng::{derive_seed, XorShift128Plus};
use ppn_graph::{NodeId, Partition, WeightedGraph};

/// Options for [`bisect`].
#[derive(Clone, Debug)]
pub struct BisectOptions {
    /// Number of random growing seeds tried (best kept).
    pub restarts: usize,
    /// Fraction of the total weight targeted by side 0 (0.5 = balanced).
    pub target0_frac: f64,
    /// Allowed imbalance: each side may exceed its target by this factor.
    pub balance: f64,
    /// FM passes per restart.
    pub fm_passes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Absolute per-side weight caps. When set they replace the
    /// balance-derived caps — constrained recursive bisection uses this
    /// to hand each side its share of an `Rmax` budget.
    pub max_side_weight: Option<[u64; 2]>,
    /// Cut budget: candidates whose cut exceeds this count as
    /// infeasible in the restart selection (feasible-first, then
    /// lowest cut). Constrained recursive bisection sets it to
    /// `k0·k1·Bmax` — the traffic of every final part pair crossing
    /// this split must fit through `k0·k1` links; at a leaf split the
    /// bound is exact, because the pair's traffic *is* this cut.
    pub max_cut: Option<u64>,
}

impl Default for BisectOptions {
    fn default() -> Self {
        BisectOptions {
            restarts: 8,
            target0_frac: 0.5,
            balance: 1.05,
            fm_passes: 8,
            seed: 1,
            max_side_weight: None,
            max_cut: None,
        }
    }
}

/// Result of a bisection.
#[derive(Clone, Debug)]
pub struct Bisection {
    /// The 2-way partition.
    pub partition: Partition,
    /// Its edge cut.
    pub cut: u64,
}

/// Bisect `g` by growing from random seeds and refining with FM; the best
/// (feasible first, then lowest-cut) candidate wins.
pub fn bisect(g: &WeightedGraph, opts: &BisectOptions) -> Bisection {
    bisect_candidates(g, opts)
        .into_iter()
        .next()
        .expect("at least one candidate")
}

/// All distinct restart candidates of [`bisect`], best first (feasible
/// candidates before infeasible ones, then by cut, ties in restart
/// order). Constrained recursive bisection branches over this list when
/// the top candidate dooms a descendant subproblem.
pub fn bisect_candidates(g: &WeightedGraph, opts: &BisectOptions) -> Vec<Bisection> {
    let n = g.num_nodes();
    if n == 0 {
        return vec![Bisection {
            partition: Partition::unassigned(0, 2),
            cut: 0,
        }];
    }
    let total = g.total_node_weight();
    let target0 = (total as f64 * opts.target0_frac).round() as u64;
    let target1 = total - target0;
    let caps = opts.max_side_weight.unwrap_or([
        ((target0 as f64) * opts.balance).ceil() as u64,
        ((target1 as f64) * opts.balance).ceil() as u64,
    ]);
    let fm_opts = FmOptions {
        max_passes: opts.fm_passes,
        max_side_weight: caps,
        allow_empty_side: false,
    };

    let mut rng = XorShift128Plus::new(derive_seed(opts.seed, 0xB15EC7));
    let mut candidates: Vec<(bool, u64, Partition)> = Vec::new();
    for r in 0..opts.restarts.max(1) {
        // restart 0 always starts from the heaviest node for
        // reproducibility; later restarts are random
        let seed_node = if r == 0 {
            g.node_ids()
                .max_by_key(|&v| (g.node_weight(v), std::cmp::Reverse(v.0)))
                .unwrap()
        } else {
            NodeId::from_index(rng.next_below(n))
        };
        let mut p = greedy_grow_bisection(g, seed_node, target0);
        if n >= 2 {
            let sizes = p.part_sizes();
            if sizes[0] == 0 || sizes[1] == 0 {
                // degenerate growth (tiny graphs): force a split
                let v0 = NodeId(0);
                p.assign(v0, if sizes[0] == 0 { 0 } else { 1 });
            }
            fm_refine_bisection(g, &mut p, &fm_opts);
        }
        let w = p.part_weights(g.node_weights());
        let cut = edge_cut(g, &p);
        let feasible =
            w[0] <= caps[0] && w[1] <= caps[1] && opts.max_cut.is_none_or(|mc| cut <= mc);
        if !candidates.iter().any(|(_, _, q)| *q == p) {
            candidates.push((feasible, cut, p));
        }
    }
    // stable sort: feasible first, then cut, ties in restart order
    candidates.sort_by_key(|&(feasible, cut, _)| (!feasible, cut));
    candidates
        .into_iter()
        .map(|(_, cut, partition)| Bisection { partition, cut })
        .collect()
}

/// Recursively bisect `g` into `k` parts. The weight share assigned to
/// each half is proportional to the number of final parts it will hold,
/// so non-power-of-two `k` stays balanced.
/// Assumes the instance gate's weight bound (see the crate docs).
pub fn recursive_bisection(g: &WeightedGraph, k: usize, balance: f64, seed: u64) -> Partition {
    assert!(k >= 1, "k must be at least 1");
    let mut p = Partition::unassigned(g.num_nodes(), k);
    let all: Vec<NodeId> = g.node_ids().collect();
    rb_recurse(g, &all, k, 0, balance, seed, &mut p);
    p
}

fn rb_recurse(
    g: &WeightedGraph,
    nodes: &[NodeId],
    k: usize,
    part_base: u32,
    balance: f64,
    seed: u64,
    out: &mut Partition,
) {
    if k == 1 || nodes.len() <= 1 {
        for &v in nodes {
            out.assign(v, part_base);
        }
        // leftover parts (k > 1 but nothing to split) stay empty
        return;
    }
    let (sub, back) = induced_subgraph(g, nodes);
    let k0 = k.div_ceil(2);
    let k1 = k - k0;
    let opts = BisectOptions {
        restarts: 8,
        target0_frac: k0 as f64 / k as f64,
        balance,
        fm_passes: 8,
        seed: derive_seed(seed, part_base as u64 + k as u64 * 131),
        max_side_weight: None,
        max_cut: None,
    };
    let bi = bisect(&sub, &opts);
    let mut side0 = Vec::new();
    let mut side1 = Vec::new();
    for (i, &orig) in back.iter().enumerate() {
        if bi.partition.part_of(NodeId::from_index(i)) == 0 {
            side0.push(orig);
        } else {
            side1.push(orig);
        }
    }
    rb_recurse(g, &side0, k0, part_base, balance, seed, out);
    rb_recurse(g, &side1, k1, part_base + k0 as u32, balance, seed, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::imbalance;
    use ppn_graph::GraphBuilder;

    fn ladder(n: usize) -> WeightedGraph {
        // two parallel paths with rungs: 2n nodes
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..2 * n).map(|_| g.add_node(1)).collect();
        for i in 0..n - 1 {
            g.add_edge(ids[i], ids[i + 1], 2).unwrap();
            g.add_edge(ids[n + i], ids[n + i + 1], 2).unwrap();
        }
        for i in 0..n {
            g.add_edge(ids[i], ids[n + i], 1).unwrap();
        }
        g.build()
    }

    #[test]
    fn bisect_is_complete_and_balanced() {
        let g = ladder(8);
        let b = bisect(&g, &BisectOptions::default());
        assert!(b.partition.is_complete());
        assert!(imbalance(&g, &b.partition) <= 1.1);
        assert_eq!(b.cut, edge_cut(&g, &b.partition));
    }

    #[test]
    fn recursive_bisection_uses_all_parts() {
        let g = ladder(8);
        for k in [2, 3, 4, 5] {
            let p = recursive_bisection(&g, k, 1.1, 7);
            assert!(p.is_complete(), "k={k}");
            let sizes = p.part_sizes();
            assert_eq!(sizes.len(), k);
            assert!(
                sizes.iter().all(|&s| s > 0),
                "k={k} produced an empty part: {sizes:?}"
            );
        }
    }

    #[test]
    fn recursive_bisection_is_roughly_balanced() {
        let g = ladder(16);
        let p = recursive_bisection(&g, 4, 1.1, 3);
        let w = p.part_weights(g.node_weights());
        let max = *w.iter().max().unwrap();
        let min = *w.iter().min().unwrap();
        assert!(
            max <= min + 3,
            "parts badly unbalanced: {w:?} (uniform weights)"
        );
    }

    #[test]
    fn k1_puts_everything_in_part_zero() {
        let g = ladder(4);
        let p = recursive_bisection(&g, 1, 1.05, 9);
        assert!(p.is_complete());
        assert!(p.assignment().iter().all(|&a| a == 0));
    }

    #[test]
    fn bisect_deterministic_per_seed() {
        let g = ladder(6);
        let a = bisect(&g, &BisectOptions::default());
        let b = bisect(&g, &BisectOptions::default());
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.cut, b.cut);
    }

    #[test]
    fn asymmetric_target_respected() {
        let g = ladder(8); // total weight 16
        let opts = BisectOptions {
            target0_frac: 0.25,
            ..Default::default()
        };
        let b = bisect(&g, &opts);
        let w = b.partition.part_weights(g.node_weights());
        assert!(w[0] <= 6, "side 0 should hold ~4 of 16: {w:?}");
        assert!(w[0] >= 2, "side 0 shouldn't be empty-ish: {w:?}");
    }

    #[test]
    fn candidates_are_distinct_and_lead_with_the_winner() {
        let g = ladder(8);
        let cands = bisect_candidates(&g, &BisectOptions::default());
        assert!(!cands.is_empty());
        assert_eq!(
            cands[0].partition,
            bisect(&g, &BisectOptions::default()).partition
        );
        for i in 0..cands.len() {
            for j in (i + 1)..cands.len() {
                assert_ne!(cands[i].partition, cands[j].partition, "{i} vs {j}");
            }
        }
    }

    #[test]
    fn cut_budget_demotes_over_budget_candidates() {
        let g = ladder(8);
        let unbounded = bisect(&g, &BisectOptions::default());
        // a budget below the best cut makes every candidate infeasible —
        // selection still returns the lowest-cut one
        let opts = BisectOptions {
            max_cut: Some(unbounded.cut.saturating_sub(1)),
            ..Default::default()
        };
        let bounded = bisect(&g, &opts);
        assert_eq!(bounded.cut, unbounded.cut);
        // a generous budget changes nothing
        let opts = BisectOptions {
            max_cut: Some(u64::MAX),
            ..Default::default()
        };
        assert_eq!(bisect(&g, &opts).partition, unbounded.partition);
    }

    #[test]
    fn absolute_side_caps_override_balance() {
        let g = ladder(8); // total weight 16, uniform
        let opts = BisectOptions {
            max_side_weight: Some([5, 16]),
            ..Default::default()
        };
        let b = bisect(&g, &opts);
        let w = b.partition.part_weights(g.node_weights());
        assert!(w[0] <= 5, "side 0 must respect its absolute cap: {w:?}");
        assert!(b.partition.is_complete());
    }

    #[test]
    fn single_node_graph() {
        let g = GraphBuilder::with_uniform_nodes(1, 5).build();
        let p = recursive_bisection(&g, 2, 1.05, 1);
        assert!(p.is_complete());
    }
}
