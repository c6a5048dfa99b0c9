//! Direct k-way greedy refinement, the refiner METIS applies during
//! un-coarsening and `metis-lite` uses.
//!
//! After recursive bisection produces a k-way partition (or after a
//! multilevel projection step), each pass visits every node in shuffled
//! order and moves it to the neighbouring part it is most connected to,
//! when that strictly lowers the cut and keeps the part within the
//! balance cap. The pass loop is ppn-graph's [`refine_passes`], the one
//! gp-core's and ppn-hyper's constrained refiners run; the paper's GP
//! replaces the balance cap with the bandwidth/resource admissibility
//! test (see `gp-core`).
//!
//! The pass reads the graph through a [`LevelView`], so it refines a
//! [`WeightedGraph`](ppn_graph::WeightedGraph) and a level of the flat
//! coarsening arena alike.

use ppn_graph::{refine_passes, LevelView, NodeId, PartLoads, Partition, PassModel, RefineOptions};

/// The balance cap `⌈factor × total / k⌉` of a part.
pub fn balanced_cap(total: u64, k: usize, factor: f64) -> u64 {
    ((total as f64 / k as f64) * factor).ceil() as u64
}

/// Greedy k-way refinement under the per-part weight cap `cap`: returns
/// the number of moves applied. The cut never increases (only strictly
/// improving moves are taken).
/// Assumes the instance gate's weight bound (see the crate docs).
pub fn kway_refine<'a>(
    g: impl Into<LevelView<'a>>,
    p: &mut Partition,
    cap: u64,
    opts: &RefineOptions,
) -> usize {
    let g = g.into();
    assert!(
        p.is_complete(),
        "k-way refinement needs a complete partition"
    );
    let mut model = KwayModel {
        g,
        loads: PartLoads::new(g.node_weights(), p, cap),
        protect_nonempty: opts.protect_nonempty,
        conn: vec![0; p.k()],
        touched: Vec::new(),
    };
    refine_passes(&mut model, p, opts, 0x4A11)
}

/// kway's half of the pass loop: the part loads, tracked against the
/// cap, and the mover's connection weight to each part.
struct KwayModel<'a> {
    g: LevelView<'a>,
    loads: PartLoads,
    protect_nonempty: bool,
    /// Connection weight from the mover to each part (k-length).
    conn: Vec<u64>,
    /// The parts whose `conn` entry is non-zero.
    touched: Vec<usize>,
}

impl PassModel for KwayModel<'_> {
    fn collect(&mut self, _p: &Partition, nodes: &mut Vec<NodeId>) {
        nodes.extend((0..self.g.num_nodes()).map(NodeId::from_index));
    }

    fn try_move(&mut self, p: &mut Partition, v: NodeId) -> bool {
        let from = p.part_of(v) as usize;
        if self.protect_nonempty && self.loads.size(from) == 1 {
            return false;
        }
        for (u, w) in self.g.weighted_neighbors(v) {
            let q = p.part_of(u) as usize;
            if self.conn[q] == 0 {
                self.touched.push(q);
            }
            self.conn[q] += w;
        }
        let wv = self.g.node_weight(v);
        let mut best: Option<(i64, usize)> = None;
        for &t in &self.touched {
            if t == from || !self.loads.fits(t, wv) {
                continue;
            }
            let gain = self.conn[t] as i64 - self.conn[from] as i64;
            match best {
                Some((bg, bt)) if bg > gain || (bg == gain && bt <= t) => {}
                _ => best = Some((gain, t)),
            }
        }
        for t in self.touched.drain(..) {
            self.conn[t] = 0;
        }
        match best {
            Some((gain, t)) if gain > 0 => {
                p.assign(v, t as u32);
                self.loads.shift(from, t, wv);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::edge_cut;
    use ppn_graph::{GraphBuilder, WeightedGraph};

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
        let cap = balanced_cap(g.total_node_weight(), 4, 1.34); // allow 4 per part
        let moves = kway_refine(&g, &mut p, cap, &RefineOptions::default());
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
            let cap = balanced_cap(g.total_node_weight(), 4, 1.5);
            kway_refine(&g, &mut p, cap, &RefineOptions::default());
            assert!(edge_cut(&g, &p) <= before, "seed {seed}");
        }
    }

    #[test]
    fn caps_are_respected() {
        let g = four_clusters();
        let assign: Vec<u32> = (0..12).map(|i| (i / 3) as u32).collect();
        let mut p = Partition::from_assignment(assign, 4).unwrap();
        let opts = RefineOptions {
            max_passes: 4,
            seed: 2,
            protect_nonempty: true,
        };
        kway_refine(&g, &mut p, 3, &opts);
        assert!(p.part_weights(g.node_weights()).iter().all(|&w| w <= 3));
    }

    #[test]
    fn protect_nonempty_keeps_parts_alive() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        g.add_edge(a, b, 5).unwrap();
        let mut p = Partition::from_assignment(vec![0, 1], 2).unwrap();
        let opts = RefineOptions {
            max_passes: 4,
            seed: 3,
            protect_nonempty: true,
        };
        let g = g.build();
        kway_refine(&g, &mut p, 2, &opts);
        assert!(p.part_sizes().iter().all(|&s| s == 1));
    }

    #[test]
    fn converged_partition_reports_zero_moves() {
        let g = four_clusters();
        let assign: Vec<u32> = (0..12).map(|i| (i / 3) as u32).collect();
        let mut p = Partition::from_assignment(assign, 4).unwrap();
        let cap = balanced_cap(g.total_node_weight(), 4, 1.34);
        let moves = kway_refine(&g, &mut p, cap, &RefineOptions::default());
        assert_eq!(moves, 0);
    }
}
