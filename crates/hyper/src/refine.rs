//! Boundary-driven constrained FM-style refinement under the
//! connectivity metric.
//!
//! Mirrors `gp_core::constrained_refine`: the primary objective is
//! violation magnitude against `Rmax`/`Bmax` (bandwidth charged per
//! spanned boundary, see [`crate::connectivity`]), the secondary
//! objective is the connectivity-(λ−1) cost. Each pass visits only the
//! pins of cut nets plus the nodes of `Rmax`-violating parts — interior
//! nodes of feasible parts cannot have a strictly improving move,
//! because moving one can only create a new cut net (raising cost and
//! never lowering any violation it doesn't touch).
//!
//! Move evaluation is *transactional*: the candidate move is applied to
//! the incremental [`NetConnectivity`] tracker and ppn-graph's part-load
//! ledger ([`PartLoads`], the one gp-core's refiner keeps), the O(1)
//! aggregates are read, and the move is reverted — two O(nets(v)·k)
//! tracker updates per candidate, no allocation, no rescans. Candidates
//! are restricted to the parts the node's nets already span (plus, when
//! its home part violates `Rmax`, the lightest part as a pure resource
//! escape).

use crate::connectivity::NetConnectivity;
use crate::hypergraph::{Hypergraph, NetId};
use ppn_graph::prng::{derive_seed, XorShift128Plus};
use ppn_graph::{Constraints, NodeId, PartLoads, Partition, RefineOptions};

/// The refinement engine: the tracker, its `Bmax` excess tracked, and
/// the part loads, their `Rmax` excess tracked.
struct HyperEngine {
    state: NetConnectivity,
    loads: PartLoads,
}

impl HyperEngine {
    fn new(hg: &Hypergraph, p: &Partition, c: &Constraints) -> Self {
        let mut state = NetConnectivity::new(hg, p);
        state.track_bmax(c.bmax);
        let loads = PartLoads::new(hg.node_weights(), p, c.rmax);
        HyperEngine { state, loads }
    }

    /// Total violation magnitude (bandwidth + resource). O(1).
    #[inline]
    fn violation(&self) -> u64 {
        self.state.tracked_excess() + self.loads.excess()
    }

    /// Move `v: from → to` through the loads and the tracker. Used for
    /// both trial and committed moves.
    fn shift(&mut self, hg: &Hypergraph, v: NodeId, from: u32, to: u32) {
        self.loads
            .shift(from as usize, to as usize, hg.node_weight(v));
        self.state.apply_move(hg, v, from, to);
    }

    /// `(Δviolation, Δconnectivity)` of the move `v: from → to`,
    /// evaluated by apply + revert.
    fn eval(&mut self, hg: &Hypergraph, v: NodeId, from: u32, to: u32) -> (i64, i64) {
        let viol0 = self.violation() as i64;
        let conn0 = self.state.connectivity_cost() as i64;
        self.shift(hg, v, from, to);
        let dviol = self.violation() as i64 - viol0;
        let dconn = self.state.connectivity_cost() as i64 - conn0;
        self.shift(hg, v, to, from);
        (dviol, dconn)
    }

    /// Nodes worth visiting this pass: pins of cut nets plus every node
    /// of an `Rmax`-violating part. `stamp` is a reusable n-length
    /// dedup buffer.
    fn collect_active(
        &self,
        hg: &Hypergraph,
        p: &Partition,
        out: &mut Vec<NodeId>,
        stamp: &mut [bool],
    ) {
        out.clear();
        stamp.iter_mut().for_each(|s| *s = false);
        for e in hg.net_ids() {
            if self.state.is_cut(e) {
                for &pin in hg.pins(e) {
                    if !stamp[pin as usize] {
                        stamp[pin as usize] = true;
                        out.push(NodeId(pin));
                    }
                }
            }
        }
        if self.loads.any_over() {
            for (i, &q) in p.assignment().iter().enumerate() {
                if self.loads.is_over(q as usize) && !stamp[i] {
                    stamp[i] = true;
                    out.push(NodeId::from_index(i));
                }
            }
        }
    }

    /// Find and apply the best strictly-improving move of `v`, if any.
    fn try_best_move(
        &mut self,
        hg: &Hypergraph,
        p: &mut Partition,
        v: NodeId,
        protect_nonempty: bool,
        targets: &mut Vec<u32>,
    ) -> bool {
        let k = self.state.k();
        let from = p.part_of(v);
        if protect_nonempty && self.loads.size(from as usize) == 1 {
            return false;
        }
        // candidate targets: parts already spanned by v's nets, plus the
        // lightest part when v's home violates Rmax
        targets.clear();
        for &net in hg.nets_of(v) {
            let e = NetId(net);
            for q in 0..k as u32 {
                if q != from && self.state.pin_count(e, q as usize) > 0 && !targets.contains(&q) {
                    targets.push(q);
                }
            }
        }
        if let Some(escape) = self.loads.escape(from as usize) {
            if !targets.contains(&escape) {
                targets.push(escape);
            }
        }
        let mut best: Option<(i64, i64, u32)> = None;
        // drain the scratch so `self` stays free for the trial moves
        while let Some(t) = targets.pop() {
            let (dviol, dconn) = self.eval(hg, v, from, t);
            if dviol < 0 || (dviol == 0 && dconn < 0) {
                let key = (dviol, dconn, t);
                if best.map(|b| key < b).unwrap_or(true) {
                    best = Some(key);
                }
            }
        }
        if let Some((_, _, t)) = best {
            self.shift(hg, v, from, t);
            p.assign(v, t);
            true
        } else {
            false
        }
    }
}

/// Constrained refinement sweep over a complete partition. Each pass
/// visits the active nodes in seeded random order; each visited node
/// takes its best strictly-improving `(Δviolation, Δconnectivity)`
/// move. Violations never increase; the connectivity cost never
/// increases while feasible. Returns the number of moves applied.
pub fn hyper_refine(
    hg: &Hypergraph,
    p: &mut Partition,
    c: &Constraints,
    opts: &RefineOptions,
) -> usize {
    assert!(p.is_complete(), "refinement needs a complete partition");
    if hg.num_nodes() == 0 || p.k() <= 1 {
        return 0;
    }
    let mut engine = HyperEngine::new(hg, p, c);
    let mut rng = XorShift128Plus::new(derive_seed(opts.seed, 0x4F1));
    let mut active: Vec<NodeId> = Vec::new();
    let mut stamp = vec![false; hg.num_nodes()];
    let mut targets: Vec<u32> = Vec::new();
    let mut total_moves = 0;
    for _ in 0..opts.max_passes {
        engine.collect_active(hg, p, &mut active, &mut stamp);
        rng.shuffle(&mut active);
        let mut moves = 0;
        for &v in &active {
            if engine.try_best_move(hg, p, v, opts.protect_nonempty, &mut targets) {
                moves += 1;
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
    use crate::hypergraph::HypergraphBuilder;
    use crate::metrics::measure;

    fn is_feasible(hg: &Hypergraph, p: &Partition, c: &Constraints) -> bool {
        c.check_quality(&measure(hg, p).0).is_feasible()
    }

    /// Two multicast stars sharing a middle consumer: hub 0 → {1,2,3},
    /// hub 4 → {3,5,6}; light 2-pin net {3, 6}.
    fn two_stars() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let n: Vec<_> = (0..7).map(|_| b.add_node(10)).collect();
        b.add_net(20, &[n[0], n[1], n[2], n[3]]);
        b.add_net(20, &[n[4], n[3], n[5], n[6]]);
        b.add_net(3, &[n[3], n[6]]);
        b.build()
    }

    #[test]
    fn refinement_reduces_connectivity_without_violating() {
        let hg = two_stars();
        let c = Constraints::new(50, 100);
        // scrambled start
        let mut p = Partition::from_assignment(vec![0, 1, 0, 1, 0, 1, 0], 2).unwrap();
        let before = measure(&hg, &p).0.total_cut;
        hyper_refine(&hg, &mut p, &c, &RefineOptions::default());
        let after = measure(&hg, &p).0.total_cut;
        assert!(after <= before, "{before} -> {after}");
        assert!(is_feasible(&hg, &p, &c));
    }

    #[test]
    fn refinement_repairs_bandwidth_violation() {
        let hg = two_stars();
        // both stars cut plus the bridge: traffic 20+20+3 over one boundary
        let mut p = Partition::from_assignment(vec![0, 1, 1, 0, 0, 1, 1], 2).unwrap();
        let c = Constraints::new(60, 25);
        assert!(!is_feasible(&hg, &p, &c));
        hyper_refine(&hg, &mut p, &c, &RefineOptions::default());
        assert!(
            is_feasible(&hg, &p, &c),
            "bandwidth repair failed: {:?}",
            measure(&hg, &p)
        );
    }

    #[test]
    fn refinement_repairs_resource_violation() {
        let hg = two_stars();
        let mut p = Partition::from_assignment(vec![0, 0, 0, 0, 0, 0, 1], 2).unwrap();
        let c = Constraints::new(40, 100);
        hyper_refine(&hg, &mut p, &c, &RefineOptions::default());
        assert!(
            is_feasible(&hg, &p, &c),
            "weights {:?}",
            p.part_weights(hg.node_weights())
        );
    }

    #[test]
    fn violations_never_increase() {
        let hg = two_stars();
        let c = Constraints::new(35, 22);
        for seed in 0..8u64 {
            let assign: Vec<u32> = (0..7).map(|i| ((i + seed as usize) % 3) as u32).collect();
            let mut p = Partition::from_assignment(assign, 3).unwrap();
            let v0 = measure(&hg, &p).0.goodness_key(c.rmax, c.bmax).1;
            hyper_refine(
                &hg,
                &mut p,
                &c,
                &RefineOptions {
                    seed,
                    ..Default::default()
                },
            );
            let v1 = measure(&hg, &p).0.goodness_key(c.rmax, c.bmax).1;
            assert!(v1 <= v0, "seed {seed}: violation {v0} -> {v1}");
        }
    }

    #[test]
    fn protect_nonempty_holds() {
        let hg = two_stars();
        let mut p = Partition::from_assignment(vec![0, 1, 1, 1, 1, 1, 1], 2).unwrap();
        hyper_refine(
            &hg,
            &mut p,
            &Constraints::unconstrained(),
            &RefineOptions::default(),
        );
        assert!(p.part_sizes().iter().all(|&s| s >= 1));
    }

    #[test]
    fn single_part_is_a_no_op() {
        let hg = two_stars();
        let mut p = Partition::all_in_one(7, 1);
        let moves = hyper_refine(
            &hg,
            &mut p,
            &Constraints::unconstrained(),
            &RefineOptions::default(),
        );
        assert_eq!(moves, 0);
    }
}
