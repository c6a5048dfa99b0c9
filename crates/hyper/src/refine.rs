//! Constrained refinement under the connectivity metric: ppn-hyper's
//! model of ppn-graph's one pass loop ([`refine_passes`]), which
//! gp-core's refiner runs too.
//!
//! The primary objective is violation magnitude against `Rmax`/`Bmax`
//! (bandwidth charged per spanned boundary, see [`crate::connectivity`]),
//! the secondary objective is the connectivity-(λ−1) cost. Each pass
//! visits only the pins of cut nets plus the nodes of `Rmax`-violating
//! parts — interior nodes of feasible parts cannot have a strictly
//! improving move, because moving one can only create a new cut net
//! (raising cost and never lowering any violation it doesn't touch).
//!
//! A move's resource half reads off ppn-graph's part-load ledger
//! ([`PartLoads::excess_change`], as gp-core's evaluation does). Its
//! bandwidth half and its cost are evaluated *transactionally*: the
//! candidate move is applied to the incremental [`NetConnectivity`]
//! tracker, the O(1) aggregates are read, and the move is reverted —
//! two O(nets(v)·k) tracker updates per candidate, no allocation, no
//! rescans. Candidates are restricted to the parts the node's nets
//! already span (plus, when its home part violates `Rmax`, the lightest
//! part as a pure resource escape).

use crate::connectivity::NetConnectivity;
use crate::hypergraph::{Hypergraph, NetId};
use ppn_graph::{
    refine_passes, Constraints, NodeId, PartLoads, Partition, PassModel, RefineOptions,
};

/// The refinement engine: the tracker, its `Bmax` excess tracked, the
/// part loads, their `Rmax` excess tracked, and reusable scratch.
struct HyperEngine<'a> {
    hg: &'a Hypergraph,
    state: NetConnectivity,
    loads: PartLoads,
    protect_nonempty: bool,
    /// n-length dedup marks of [`collect`](PassModel::collect).
    stamp: Vec<bool>,
    /// The mover's candidate target parts.
    targets: Vec<u32>,
}

impl HyperEngine<'_> {
    /// `(Δviolation, Δconnectivity)` of the move `v: from → to`. The
    /// tracker's excess and cost fit in `i64` under the instance gate's
    /// net bound (see the crate docs).
    fn eval(&mut self, v: NodeId, from: u32, to: u32) -> (i64, i64) {
        let hg = self.hg;
        let dres = self
            .loads
            .excess_change(from as usize, to as usize, hg.node_weight(v), 0);
        let bw0 = self.state.tracked_excess() as i64;
        let conn0 = self.state.connectivity_cost() as i64;
        self.state.apply_move(hg, v, from, to);
        let dbw = self.state.tracked_excess() as i64 - bw0;
        let dconn = self.state.connectivity_cost() as i64 - conn0;
        self.state.apply_move(hg, v, to, from);
        (dbw.saturating_add(dres), dconn)
    }
}

impl PassModel for HyperEngine<'_> {
    /// Pins of cut nets, nets in id order, then every node of an
    /// `Rmax`-violating part.
    fn collect(&mut self, p: &Partition, nodes: &mut Vec<NodeId>) {
        let hg = self.hg;
        self.stamp.iter_mut().for_each(|s| *s = false);
        for e in hg.net_ids() {
            if self.state.is_cut(e) {
                for &pin in hg.pins(e) {
                    if !self.stamp[pin as usize] {
                        self.stamp[pin as usize] = true;
                        nodes.push(NodeId(pin));
                    }
                }
            }
        }
        if self.loads.any_over() {
            for (i, &q) in p.assignment().iter().enumerate() {
                if self.loads.is_over(q as usize) && !self.stamp[i] {
                    self.stamp[i] = true;
                    nodes.push(NodeId::from_index(i));
                }
            }
        }
    }

    fn try_move(&mut self, p: &mut Partition, v: NodeId) -> bool {
        let k = self.state.k();
        let from = p.part_of(v);
        if self.protect_nonempty && self.loads.size(from as usize) == 1 {
            return false;
        }
        // candidate targets: parts already spanned by v's nets, plus the
        // lightest part when v's home violates Rmax
        let mut targets = std::mem::take(&mut self.targets);
        for &net in self.hg.nets_of(v) {
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
        while let Some(t) = targets.pop() {
            let (dviol, dconn) = self.eval(v, from, t);
            if dviol < 0 || (dviol == 0 && dconn < 0) {
                let key = (dviol, dconn, t);
                if best.map(|b| key < b).unwrap_or(true) {
                    best = Some(key);
                }
            }
        }
        self.targets = targets;
        let Some((_, _, t)) = best else {
            return false;
        };
        self.loads
            .shift(from as usize, t as usize, self.hg.node_weight(v));
        self.state.apply_move(self.hg, v, from, t);
        p.assign(v, t);
        true
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
    let mut state = NetConnectivity::new(hg, p);
    state.track_bmax(c.bmax);
    let mut engine = HyperEngine {
        hg,
        state,
        loads: PartLoads::new(hg.node_weights(), p, c.rmax),
        protect_nonempty: opts.protect_nonempty,
        stamp: vec![false; hg.num_nodes()],
        targets: Vec::new(),
    };
    refine_passes(&mut engine, p, opts, 0x4F1)
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
    fn part_weights_past_i64_refine_like_small_ones() {
        // gp-core's twin: a 4-cycle of 2-pin nets at node weights 4, 3,
        // 7, 2 and at 10^18 times those (total 1.6e19 > 2^63): every
        // resource quantity scales, so every decision, and the answer,
        // must be the same
        let cycle = |scale: u64| {
            let mut b = HypergraphBuilder::new();
            let n: Vec<_> = [4, 3, 7, 2]
                .iter()
                .map(|&w| b.add_node(w * scale))
                .collect();
            b.add_net(1, &[n[0], n[1]]);
            b.add_net(3, &[n[1], n[2]]);
            b.add_net(3, &[n[2], n[3]]);
            b.add_net(1, &[n[3], n[0]]);
            b.build()
        };
        let starts = [
            [0, 0, 1, 1],
            [0, 1, 1, 0],
            [1, 0, 0, 0],
            [0, 0, 0, 1],
            [0; 4],
        ];
        for (start, rmax) in starts.iter().flat_map(|s| [(s, 7), (s, 1), (s, 5)]) {
            let mut answers = Vec::new();
            for scale in [1, 1_000_000_000_000_000_000] {
                let hg = cycle(scale);
                let c = Constraints::new(rmax * scale, 1000);
                let mut p = Partition::from_assignment(start.to_vec(), 2).unwrap();
                let moves = hyper_refine(&hg, &mut p, &c, &RefineOptions::default());
                let (count, magnitude, cost) = measure(&hg, &p).0.goodness_key(c.rmax, c.bmax);
                answers.push((moves, p, count, magnitude / scale, cost));
            }
            assert_eq!(answers[0], answers[1], "start {start:?}, rmax {rmax}");
        }
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
