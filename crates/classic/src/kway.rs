//! Direct k-way greedy boundary refinement.
//!
//! After recursive bisection produces a k-way partition (or after a
//! multilevel projection step), boundary nodes are greedily moved to the
//! neighbouring part they are most connected to, subject to balance caps.
//! This is the refinement METIS applies during un-coarsening and what
//! `metis-lite` uses; the paper's GP replaces the balance caps with the
//! bandwidth/resource admissibility test (see `gp-core`).
//!
//! The pass reads the graph through a [`LevelView`], so it refines a
//! [`WeightedGraph`] and a level of the flat coarsening arena alike.

use ppn_graph::prng::{derive_seed, XorShift128Plus};
use ppn_graph::{LevelView, NodeId, Partition, WeightedGraph};

/// Options for [`kway_refine`].
#[derive(Clone, Debug)]
pub struct KwayOptions {
    /// Per-part weight caps; a move into part `t` must keep its weight
    /// within `max_part_weight[t]`.
    pub max_part_weight: Vec<u64>,
    /// Maximum sweeps over the boundary.
    pub max_passes: usize,
    /// Visit order seed.
    pub seed: u64,
    /// Refuse to empty a part.
    pub protect_nonempty: bool,
}

impl KwayOptions {
    /// Uniform caps of `balance × total/k` per part.
    pub fn balanced(g: &WeightedGraph, k: usize, balance: f64) -> Self {
        let cap = ((g.total_node_weight() as f64 / k as f64) * balance).ceil() as u64;
        KwayOptions {
            max_part_weight: vec![cap; k],
            max_passes: 8,
            seed: 1,
            protect_nonempty: true,
        }
    }
}

/// Greedy k-way refinement: returns the number of moves applied. The cut
/// never increases (only strictly improving moves are taken).
/// Assumes the instance gate's weight bound (see the crate docs).
pub fn kway_refine<'a>(
    g: impl Into<LevelView<'a>>,
    p: &mut Partition,
    opts: &KwayOptions,
) -> usize {
    let g = g.into();
    let k = p.k();
    assert_eq!(opts.max_part_weight.len(), k, "cap vector length != k");
    assert!(
        p.is_complete(),
        "k-way refinement needs a complete partition"
    );

    let mut part_weight = p.part_weights(g.node_weights());
    let mut part_size = p.part_sizes();
    let mut rng = XorShift128Plus::new(derive_seed(opts.seed, 0x4A11));
    let mut conn = vec![0u64; k]; // scratch: connection weight to each part
    let mut total_moves = 0;

    for _ in 0..opts.max_passes {
        let mut order: Vec<NodeId> = (0..g.num_nodes()).map(NodeId::from_index).collect();
        rng.shuffle(&mut order);
        let mut moves = 0;

        for v in order {
            let from = p.part_of(v) as usize;
            if opts.protect_nonempty && part_size[from] == 1 {
                continue;
            }
            // connection weights to every part in v's neighbourhood
            let mut touched: Vec<usize> = Vec::new();
            for (u, w) in g.weighted_neighbors(v) {
                let q = p.part_of(u) as usize;
                if conn[q] == 0 {
                    touched.push(q);
                }
                conn[q] += w;
            }
            let wv = g.node_weight(v);
            let mut best: Option<(i64, usize)> = None;
            for &t in &touched {
                if t == from {
                    continue;
                }
                if part_weight[t] + wv > opts.max_part_weight[t] {
                    continue;
                }
                let gain = conn[t] as i64 - conn[from] as i64;
                match best {
                    Some((bg, bt)) if bg > gain || (bg == gain && bt <= t) => {}
                    _ => best = Some((gain, t)),
                }
            }
            if let Some((gain, t)) = best {
                if gain > 0 {
                    p.assign(v, t as u32);
                    part_weight[from] -= wv;
                    part_weight[t] += wv;
                    part_size[from] -= 1;
                    part_size[t] += 1;
                    moves += 1;
                }
            }
            for &t in &touched {
                conn[t] = 0;
            }
        }
        total_moves += moves;
        if moves == 0 {
            break;
        }
    }
    total_moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::edge_cut;
    use ppn_graph::GraphBuilder;

    /// Four K3 clusters in a ring, bridges weight 1, intra weight 10.
    fn four_clusters() -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..12).map(|_| g.add_node(1)).collect();
        for c in 0..4 {
            let b = c * 3;
            g.add_edge(n[b], n[b + 1], 10).unwrap();
            g.add_edge(n[b + 1], n[b + 2], 10).unwrap();
            g.add_edge(n[b], n[b + 2], 10).unwrap();
        }
        for c in 0..4 {
            g.add_edge(n[c * 3 + 2], n[((c + 1) % 4) * 3], 1).unwrap();
        }
        g.build()
    }

    #[test]
    fn refinement_reunites_clusters() {
        let g = four_clusters();
        // scramble one node per cluster into the next part
        let mut assign: Vec<u32> = (0..12).map(|i| (i / 3) as u32).collect();
        assign[0] = 1;
        assign[3] = 2;
        let mut p = Partition::from_assignment(assign, 4).unwrap();
        let before = edge_cut(&g, &p);
        let opts = KwayOptions::balanced(&g, 4, 1.34); // allow 4 per part
        let moves = kway_refine(&g, &mut p, &opts);
        let after = edge_cut(&g, &p);
        assert!(moves >= 2, "expected at least the two repair moves");
        assert!(after < before);
        assert_eq!(after, 4, "ideal clustering cuts only the 4 bridges");
    }

    #[test]
    fn refinement_never_increases_cut() {
        let g = four_clusters();
        for seed in 0..5 {
            let assign: Vec<u32> = (0..12).map(|i| ((i * 7 + seed) % 4) as u32).collect();
            let mut p = Partition::from_assignment(assign, 4).unwrap();
            let before = edge_cut(&g, &p);
            kway_refine(&g, &mut p, &KwayOptions::balanced(&g, 4, 1.5));
            assert!(edge_cut(&g, &p) <= before, "seed {seed}");
        }
    }

    #[test]
    fn caps_are_respected() {
        let g = four_clusters();
        let assign: Vec<u32> = (0..12).map(|i| (i / 3) as u32).collect();
        let mut p = Partition::from_assignment(assign, 4).unwrap();
        let opts = KwayOptions {
            max_part_weight: vec![3; 4],
            max_passes: 4,
            seed: 2,
            protect_nonempty: true,
        };
        kway_refine(&g, &mut p, &opts);
        assert!(p.part_weights(g.node_weights()).iter().all(|&w| w <= 3));
    }

    #[test]
    fn protect_nonempty_keeps_parts_alive() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        g.add_edge(a, b, 5).unwrap();
        let mut p = Partition::from_assignment(vec![0, 1], 2).unwrap();
        let opts = KwayOptions {
            max_part_weight: vec![2, 2],
            max_passes: 4,
            seed: 3,
            protect_nonempty: true,
        };
        let g = g.build();
        kway_refine(&g, &mut p, &opts);
        assert!(p.part_sizes().iter().all(|&s| s == 1));
    }

    #[test]
    fn converged_partition_reports_zero_moves() {
        let g = four_clusters();
        let assign: Vec<u32> = (0..12).map(|i| (i / 3) as u32).collect();
        let mut p = Partition::from_assignment(assign, 4).unwrap();
        let moves = kway_refine(&g, &mut p, &KwayOptions::balanced(&g, 4, 1.34));
        assert_eq!(moves, 0);
    }
}
