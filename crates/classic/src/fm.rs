//! Fiduccia–Mattheyses two-way refinement.
//!
//! The linear-time refinement pass of [FM82] as recalled in §II-A.2 of
//! the paper: single-node moves, alternating directions implicitly via a
//! balance guard, one move per node per pass, best-prefix rollback. Gains
//! are maintained in a [`GainHeap`](crate::gain::GainHeap) so a pass costs
//! O(E log E) — the `log` replaces the textbook bucket array to stay in
//! safe, allocation-friendly Rust; the number of heap operations is still
//! linear in the number of edge endpoints touched.
//!
//! The pass reads the graph only through [`GraphView`], so it refines a
//! [`WeightedGraph`] and a level of the flat coarsening arena alike.

use crate::gain::GainHeap;
use ppn_graph::{EdgeId, GraphView, NodeId, Partition, WeightedGraph};

/// Options for a two-way FM refinement.
#[derive(Clone, Debug)]
pub struct FmOptions {
    /// Maximum refinement passes (each pass is a full FM sweep with
    /// rollback). Refinement also stops as soon as a pass yields no
    /// improvement.
    pub max_passes: usize,
    /// Maximum summed node weight allowed on each side. A move into a
    /// side is admissible only if it respects this cap — or strictly
    /// reduces the total cap violation when the bisection starts
    /// overweight.
    pub max_side_weight: [u64; 2],
    /// Allow a side to be emptied completely (off by default: an empty
    /// FPGA is never useful and degenerate bisections break recursion).
    pub allow_empty_side: bool,
}

impl FmOptions {
    /// Balanced caps: each side may hold `balance × total/2`.
    pub fn balanced(g: &WeightedGraph, balance: f64) -> Self {
        let half = g.total_node_weight() as f64 / 2.0;
        let cap = (half * balance).ceil() as u64;
        FmOptions {
            max_passes: 8,
            max_side_weight: [cap, cap],
            allow_empty_side: false,
        }
    }
}

/// Statistics returned by [`fm_refine_bisection`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FmOutcome {
    /// Cut before refinement.
    pub initial_cut: u64,
    /// Cut after refinement (never worse than `initial_cut` as long as
    /// the start state was admissible).
    pub final_cut: u64,
    /// Passes executed.
    pub passes: usize,
    /// Moves surviving rollback across all passes.
    pub moves_applied: usize,
}

/// `v`'s `(neighbour, edge)` adjacency.
fn neighbors<G: GraphView>(g: &G, v: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
    (0..g.degree(v)).map(move |i| g.neighbor(v, i))
}

/// Weight of the edges crossing a complete bisection.
fn cut_weight<G: GraphView>(g: &G, p: &Partition) -> u64 {
    (0..g.num_edges())
        .map(|e| g.edge(EdgeId::from_index(e)))
        .filter(|&(u, v, _)| p.part_of(u) != p.part_of(v))
        .map(|(_, _, w)| w)
        .sum()
}

/// Gain of moving `v` to the other side: external minus internal
/// connection weight.
fn node_gain<G: GraphView>(g: &G, p: &Partition, v: NodeId) -> i64 {
    let side = p.part_of(v);
    let mut gain = 0i64;
    for (u, e) in neighbors(g, v) {
        let w = g.edge_weight(e) as i64;
        if p.part_of(u) == side {
            gain -= w;
        } else {
            gain += w;
        }
    }
    gain
}

/// Is moving `v` (weight `wv`) from side `s` to side `t` admissible?
///
/// The textbook FM balance criterion: intermediate states may exceed the
/// cap by up to one maximum node weight (`slack`) — without this, chunky
/// node weights deadlock every pass from a balanced start — but the
/// best-prefix selection at the end of the pass only commits states that
/// respect the strict caps. A move that strictly reduces the total cap
/// violation is always admissible (escape mode for infeasible starts).
#[allow(clippy::too_many_arguments)]
fn admissible(
    weights: &[u64; 2],
    sizes: &[usize; 2],
    caps: &[u64; 2],
    slack: u64,
    wv: u64,
    s: usize,
    t: usize,
    allow_empty: bool,
) -> bool {
    if !allow_empty && sizes[s] == 1 {
        return false;
    }
    if weights[t] + wv <= caps[t].saturating_add(slack) {
        return true;
    }
    // escape mode: strictly reduce the total violation
    let viol_before = weights[s].saturating_sub(caps[s]) + weights[t].saturating_sub(caps[t]);
    let viol_after =
        (weights[s] - wv).saturating_sub(caps[s]) + (weights[t] + wv).saturating_sub(caps[t]);
    viol_after < viol_before
}

/// Cap-violation magnitude of a weight vector.
#[inline]
fn violation(weights: &[u64; 2], caps: &[u64; 2]) -> u64 {
    weights[0].saturating_sub(caps[0]) + weights[1].saturating_sub(caps[1])
}

/// Refine a complete 2-way partition in place. Returns pass statistics.
///
/// Panics if `p` is not a complete bisection of `g`.
pub fn fm_refine_bisection<G: GraphView>(g: &G, p: &mut Partition, opts: &FmOptions) -> FmOutcome {
    assert_eq!(p.k(), 2, "FM refines bisections");
    assert_eq!(p.len(), g.num_nodes(), "partition matches graph");
    assert!(p.is_complete(), "FM needs a complete partition");

    let n = g.num_nodes();
    let node_ids = || (0..n).map(NodeId::from_index);
    let initial_cut = cut_weight(g, p);
    let mut cur_cut = initial_cut;
    let mut passes = 0;
    let mut moves_applied = 0;
    let caps = opts.max_side_weight;
    let slack = node_ids().map(|v| g.node_weight(v)).max().unwrap_or(0);

    for _ in 0..opts.max_passes {
        passes += 1;
        let pass_start_cut = cur_cut;

        let mut weights = [0u64; 2];
        for v in node_ids() {
            weights[p.part_of(v) as usize] += g.node_weight(v);
        }
        let mut sizes = {
            let s = p.part_sizes();
            [s[0], s[1]]
        };

        // one heap per *current* side; nodes are locked after moving so
        // they never re-enter.
        let mut heaps = [GainHeap::new(n), GainHeap::new(n)];
        let mut gains: Vec<i64> = vec![0; n];
        let mut locked = vec![false; n];
        for v in node_ids() {
            let gain = node_gain(g, p, v);
            gains[v.index()] = gain;
            heaps[p.part_of(v) as usize].update(v.0, gain);
        }

        // tentative move sequence and the (cut, violation) trace after
        // each move
        let mut seq: Vec<(NodeId, u32)> = Vec::new();
        let mut cut_trace: Vec<(u64, u64)> = Vec::new();

        loop {
            // choose the best admissible move over both directions
            let mut choice: Option<(i64, usize)> = None; // (gain, from side)
            #[allow(clippy::needless_range_loop)] // s indexes four arrays, not just heaps
            for s in 0..2 {
                let t = 1 - s;
                // only the top of each heap is inspected (the classic
                // formulation): a deeper element could be admissible but
                // checking it would break the linear pass bound.
                if let Some((gain, v)) = heaps[s].peek() {
                    let wv = g.node_weight(NodeId(v));
                    if admissible(
                        &weights,
                        &sizes,
                        &caps,
                        slack,
                        wv,
                        s,
                        t,
                        opts.allow_empty_side,
                    ) {
                        match choice {
                            Some((bg, _)) if bg >= gain => {}
                            _ => choice = Some((gain, s)),
                        }
                    }
                }
            }
            let Some((gain, s)) = choice else { break };
            let t = 1 - s;
            let (_, v) = heaps[s].pop().expect("peeked entry");
            let v = NodeId(v);
            let wv = g.node_weight(v);

            // apply tentatively
            locked[v.index()] = true;
            p.assign(v, t as u32);
            weights[s] -= wv;
            weights[t] += wv;
            sizes[s] -= 1;
            sizes[t] += 1;
            cur_cut = (cur_cut as i64 - gain) as u64;

            // update unlocked neighbour gains
            for (u, e) in neighbors(g, v) {
                if locked[u.index()] {
                    continue;
                }
                let w = g.edge_weight(e) as i64;
                let us = p.part_of(u) as usize;
                // v left u's side (us == s): edge was internal, now external → +2w
                // v joined u's side (us == t): edge was external, now internal → -2w
                let delta = if us == s { 2 * w } else { -2 * w };
                gains[u.index()] += delta;
                heaps[us].update(u.0, gains[u.index()]);
            }

            seq.push((v, s as u32));
            cut_trace.push((cur_cut, violation(&weights, &caps)));
        }

        // best prefix: minimise (cap violation, cut); earliest wins ties
        let mut best_idx: Option<usize> = None; // None = rollback all
        let mut best_cut = pass_start_cut;
        // violation at pass start: undo the move sequence on the weights
        let mut best_viol = {
            let mut w = weights;
            for &(v, from) in seq.iter().rev() {
                let wv = g.node_weight(v);
                let from = from as usize;
                w[from] += wv;
                w[1 - from] -= wv;
            }
            violation(&w, &caps)
        };
        for (i, &(cut, viol)) in cut_trace.iter().enumerate() {
            if (viol, cut) < (best_viol, best_cut) {
                best_cut = cut;
                best_viol = viol;
                best_idx = Some(i);
            }
        }

        // rollback moves after the best prefix
        let keep = best_idx.map(|i| i + 1).unwrap_or(0);
        for &(v, from) in seq[keep..].iter().rev() {
            p.assign(v, from);
        }
        cur_cut = best_cut;
        moves_applied += keep;

        if cur_cut >= pass_start_cut && keep == 0 {
            break; // converged
        }
        if cur_cut >= pass_start_cut {
            // kept moves only for balance repair; run at most one more pass
            if passes >= 2 {
                break;
            }
        }
    }

    debug_assert_eq!(cur_cut, cut_weight(g, p), "incremental cut drifted");
    FmOutcome {
        initial_cut,
        final_cut: cur_cut,
        passes,
        moves_applied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::edge_cut;

    /// Two K3 clusters joined by a light bridge; optimal bisection cuts
    /// only the bridge.
    fn two_triangles() -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(10)).collect();
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            g.add_edge(n[a], n[b], 10).unwrap();
        }
        g.add_edge(n[2], n[3], 1).unwrap();
        g
    }

    #[test]
    fn fm_finds_the_bridge_cut() {
        let g = two_triangles();
        // bad start: split across the clusters
        let mut p = Partition::from_assignment(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let opts = FmOptions::balanced(&g, 1.05);
        let out = fm_refine_bisection(&g, &mut p, &opts);
        assert_eq!(out.final_cut, 1, "should isolate the bridge");
        assert!(out.final_cut <= out.initial_cut);
        // balanced: 30/31 split within 5%
        let w = p.part_weights(&g);
        assert_eq!(w.iter().sum::<u64>(), 60);
        assert!(w[0] == 30 && w[1] == 30);
    }

    #[test]
    fn fm_never_worsens_cut() {
        let g = two_triangles();
        // already optimal
        let mut p = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1], 2).unwrap();
        let opts = FmOptions::balanced(&g, 1.05);
        let out = fm_refine_bisection(&g, &mut p, &opts);
        assert_eq!(out.initial_cut, 1);
        assert_eq!(out.final_cut, 1);
    }

    #[test]
    fn fm_respects_balance_caps() {
        let g = two_triangles();
        let mut p = Partition::from_assignment(vec![0, 1, 0, 1, 0, 1], 2).unwrap();
        let opts = FmOptions {
            max_passes: 8,
            max_side_weight: [30, 30],
            allow_empty_side: false,
        };
        fm_refine_bisection(&g, &mut p, &opts);
        let w = p.part_weights(&g);
        assert!(w[0] <= 30 && w[1] <= 30, "caps violated: {w:?}");
    }

    #[test]
    fn fm_repairs_overweight_start() {
        let g = two_triangles();
        // all nodes on side 0: massively overweight
        let mut p = Partition::from_assignment(vec![0, 0, 0, 0, 0, 1], 2).unwrap();
        let opts = FmOptions {
            max_passes: 8,
            max_side_weight: [35, 35],
            allow_empty_side: false,
        };
        fm_refine_bisection(&g, &mut p, &opts);
        let w = p.part_weights(&g);
        assert!(w[0] <= 35 && w[1] <= 35, "escape mode failed: {w:?}");
    }

    #[test]
    fn fm_does_not_empty_a_side() {
        // a single heavy edge: cut minimised by emptying one side, which
        // is forbidden
        let mut g = WeightedGraph::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        g.add_edge(a, b, 100).unwrap();
        let mut p = Partition::from_assignment(vec![0, 1], 2).unwrap();
        let opts = FmOptions {
            max_passes: 4,
            max_side_weight: [2, 2],
            allow_empty_side: false,
        };
        let out = fm_refine_bisection(&g, &mut p, &opts);
        assert_eq!(out.final_cut, 100);
        assert_eq!(p.part_sizes(), vec![1, 1]);
    }

    #[test]
    fn weighted_gains_prefer_heavy_external_edges() {
        // star: hub 0 with leaf 1 (w 100) on other side and leaves 2,3 on
        // same side (w 1 each); moving hub gains 100 - 2 = 98
        let mut g = WeightedGraph::new();
        let hub = g.add_node(1);
        let l1 = g.add_node(1);
        let l2 = g.add_node(1);
        let l3 = g.add_node(1);
        g.add_edge(hub, l1, 100).unwrap();
        g.add_edge(hub, l2, 1).unwrap();
        g.add_edge(hub, l3, 1).unwrap();
        let p = Partition::from_assignment(vec![0, 1, 0, 0], 2).unwrap();
        assert_eq!(node_gain(&g, &p, hub), 98);
        assert_eq!(node_gain(&g, &p, l1), 100);
        assert_eq!(node_gain(&g, &p, l2), -1);
    }

    #[test]
    fn outcome_reports_consistent_cuts() {
        let g = two_triangles();
        let mut p = Partition::from_assignment(vec![1, 0, 1, 0, 1, 0], 2).unwrap();
        let before = edge_cut(&g, &p);
        let out = fm_refine_bisection(&g, &mut p, &FmOptions::balanced(&g, 1.1));
        assert_eq!(out.initial_cut, before);
        assert_eq!(out.final_cut, edge_cut(&g, &p));
    }
}
