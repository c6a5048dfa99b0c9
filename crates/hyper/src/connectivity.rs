//! Incremental connectivity tracking — the hypergraph analogue of
//! [`ppn_graph::Boundary`], over the same [`CutMatrix`] the graph
//! engines keep.
//!
//! For a k-way partition, each net `e` has a *span* — the set of parts
//! holding at least one of its pins — of size λ(e). The tracker
//! maintains, per net, the part-pin counts (`counts[e][q]` pins of `e`
//! in part `q`), and from them the aggregates the refinement hot path
//! reads in O(1):
//!
//! * **cut nets** — nets with λ ≥ 2;
//! * **per-boundary traffic** — a [`CutMatrix`] charging each net's
//!   bandwidth once per spanned boundary: `w(e)` on the pair
//!   `(part(root(e)), q)` for every other spanned part `q`. A multicast
//!   stream leaves its producer's FPGA once per destination FPGA, not
//!   once per consumer, so this is what `Bmax` must bound. The matrix
//!   keeps its running violation excess against a tracked `Bmax`
//!   ([`CutMatrix::track_bmax`]);
//! * **connectivity cost** — `Σ w(e)·(λ(e) − 1)`, the objective: the
//!   matrix total, since each net charges its weight to λ − 1 pairs.
//!
//! Applying a move costs O(Σ_{e ∋ v} k) — each incident net's count row
//! is touched in two entries and its span contribution re-charged; no
//! other net is visited.

use crate::hypergraph::{Hypergraph, NetId};
use ppn_graph::{CutMatrix, NodeId, Partition};

/// Incrementally-maintained net connectivity state for a complete
/// partition of a hypergraph.
#[derive(Clone, Debug)]
pub struct NetConnectivity {
    k: usize,
    /// `counts[e * k + q]` — pins of net `e` in part `q`.
    counts: Vec<u32>,
    /// Span size λ(e) per net.
    lambda: Vec<u32>,
    /// Current part of each net's root pin.
    root_part: Vec<u32>,
    /// Number of nets with λ ≥ 2.
    cut_nets: usize,
    /// Per-boundary traffic (root part → each other spanned part); its
    /// total is the connectivity cost.
    traffic: CutMatrix,
}

impl NetConnectivity {
    /// Build the tracker for a complete partition.
    pub fn new(hg: &Hypergraph, p: &Partition) -> Self {
        assert_eq!(hg.num_nodes(), p.len(), "partition/hypergraph mismatch");
        assert!(p.is_complete(), "connectivity needs a complete partition");
        let k = p.k();
        let m = hg.num_nets();
        let mut s = NetConnectivity {
            k,
            counts: vec![0; m * k],
            lambda: vec![0; m],
            root_part: vec![0; m],
            cut_nets: 0,
            traffic: CutMatrix::zero(k),
        };
        for e in hg.net_ids() {
            let row = &mut s.counts[e.index() * k..(e.index() + 1) * k];
            for &pin in hg.pins(e) {
                let q = p.part_of(NodeId(pin)) as usize;
                if row[q] == 0 {
                    s.lambda[e.index()] += 1;
                }
                row[q] += 1;
            }
            let r = p.part_of(hg.root(e));
            s.root_part[e.index()] = r;
            let w = hg.net_weight(e);
            if s.lambda[e.index()] >= 2 {
                s.cut_nets += 1;
            }
            for (q, &c) in row.iter().enumerate() {
                if c > 0 && q != r as usize {
                    s.traffic.add(r as usize, q, w);
                }
            }
        }
        s
    }

    /// Number of parts.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Span size λ of net `e`.
    #[inline]
    pub fn lambda(&self, e: NetId) -> u32 {
        self.lambda[e.index()]
    }

    /// True when net `e` spans more than one part.
    #[inline]
    pub fn is_cut(&self, e: NetId) -> bool {
        self.lambda[e.index()] >= 2
    }

    /// Pins of net `e` in part `q`.
    #[inline]
    pub fn pin_count(&self, e: NetId, q: usize) -> u32 {
        self.counts[e.index() * self.k + q]
    }

    /// `Σ w(e)·(λ(e) − 1)` — the connectivity-(λ−1) objective, read
    /// as the traffic total. O(1).
    #[inline]
    pub fn connectivity_cost(&self) -> u64 {
        self.traffic.total_cut()
    }

    /// Number of nets crossing parts. O(1).
    #[inline]
    pub fn cut_nets(&self) -> usize {
        self.cut_nets
    }

    /// The per-boundary traffic matrix.
    #[inline]
    pub fn traffic(&self) -> &CutMatrix {
        &self.traffic
    }

    /// Track bandwidth violations against `bmax` (see
    /// [`CutMatrix::track_bmax`]).
    pub fn track_bmax(&mut self, bmax: u64) {
        self.traffic.track_bmax(bmax);
    }

    /// Incrementally-maintained bandwidth excess against the tracked
    /// `Bmax`. O(1).
    #[inline]
    pub fn tracked_excess(&self) -> u64 {
        self.traffic.tracked_excess()
    }

    /// Apply the move `v: from → to`. Partition entries are not read —
    /// the tracker is self-contained — so callers may rewrite `p` before
    /// or after. Cost: O(nets(v) · k).
    pub fn apply_move(&mut self, hg: &Hypergraph, v: NodeId, from: u32, to: u32) {
        if from == to {
            return;
        }
        let k = self.k;
        let (f, t) = (from as usize, to as usize);
        for &net in hg.nets_of(v) {
            let e = net as usize;
            let w = hg.net_weight(NetId(net));
            // 1. retract the net's boundary charges under the old span/root
            let old_root = self.root_part[e] as usize;
            for q in 0..k {
                if self.counts[e * k + q] > 0 && q != old_root {
                    self.traffic.sub(old_root, q, w);
                }
            }
            // 2. shift one pin, maintaining the λ and cut-net aggregates
            let row = &mut self.counts[e * k..(e + 1) * k];
            row[f] -= 1;
            if row[f] == 0 {
                self.lambda[e] -= 1;
                if self.lambda[e] == 1 {
                    self.cut_nets -= 1;
                }
            }
            if row[t] == 0 {
                self.lambda[e] += 1;
                if self.lambda[e] == 2 {
                    self.cut_nets += 1;
                }
            }
            row[t] += 1;
            // 3. the root pin carries the charging origin with it
            if hg.root(NetId(net)) == v {
                self.root_part[e] = to;
            }
            // 4. recharge under the new span/root
            let r = self.root_part[e] as usize;
            for q in 0..k {
                if self.counts[e * k + q] > 0 && q != r {
                    self.traffic.add(r, q, w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::HypergraphBuilder;

    /// 5 nodes; net A = {0,1,2,3} w 10 (root 0), net B = {3,4} w 4.
    fn fixture() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let n: Vec<_> = (0..5).map(|_| b.add_node(10)).collect();
        b.add_net(10, &[n[0], n[1], n[2], n[3]]);
        b.add_net(4, &[n[3], n[4]]);
        b.build()
    }

    fn assert_matches_fresh(s: &NetConnectivity, hg: &Hypergraph, p: &Partition) {
        let fresh = NetConnectivity::new(hg, p);
        assert_eq!(s.cut_nets, fresh.cut_nets, "cut nets");
        assert_eq!(s.lambda, fresh.lambda, "lambdas");
        assert_eq!(s.counts, fresh.counts, "counts");
        assert_eq!(s.root_part, fresh.root_part, "roots");
        assert_eq!(s.traffic, fresh.traffic, "traffic matrices");
        assert_eq!(s.connectivity_cost(), fresh.connectivity_cost(), "cost");
        assert_eq!(
            s.traffic.tracked_excess(),
            fresh.traffic.violation_magnitude(s.traffic.tracked_bmax()),
            "tracked excess"
        );
    }

    #[test]
    fn fresh_construction_counts_spans() {
        let hg = fixture();
        // parts: {0,1} {2,3} {4} — net A spans 2 parts, net B spans 2
        let p = Partition::from_assignment(vec![0, 0, 1, 1, 2], 3).unwrap();
        let s = NetConnectivity::new(&hg, &p);
        assert_eq!(s.lambda(NetId(0)), 2);
        assert_eq!(s.lambda(NetId(1)), 2);
        assert_eq!(s.cut_nets(), 2);
        // conn cost = 10·1 + 4·1
        assert_eq!(s.connectivity_cost(), 14);
        // net A charged (0,1) once: 10; net B root in part 1 → (1,2): 4
        assert_eq!(s.traffic().get(0, 1), 10);
        assert_eq!(s.traffic().get(1, 2), 4);
        assert_eq!(s.traffic().total_cut(), 14);
    }

    #[test]
    fn multicast_charged_once_per_boundary() {
        let hg = fixture();
        // spread net A's consumers over three parts: λ = 3, but each
        // boundary from the root's part is charged exactly once
        let p = Partition::from_assignment(vec![0, 1, 2, 2, 2], 3).unwrap();
        let s = NetConnectivity::new(&hg, &p);
        assert_eq!(s.lambda(NetId(0)), 3);
        assert_eq!(s.connectivity_cost(), 10 * 2);
        assert_eq!(s.traffic().get(0, 1), 10);
        assert_eq!(s.traffic().get(0, 2), 10);
        assert_eq!(s.traffic().get(1, 2), 0, "no charge between consumer parts");
        assert_eq!(s.traffic().max_local_bandwidth(), 10);
    }

    #[test]
    fn uncut_net_contributes_nothing() {
        let hg = fixture();
        let p = Partition::from_assignment(vec![0, 0, 0, 0, 0], 2).unwrap();
        let s = NetConnectivity::new(&hg, &p);
        assert_eq!(s.connectivity_cost(), 0);
        assert_eq!(s.cut_nets(), 0);
        assert_eq!(s.traffic().total_cut(), 0);
    }

    #[test]
    fn moves_match_fresh_construction() {
        let hg = fixture();
        let mut p = Partition::from_assignment(vec![0, 0, 1, 1, 2], 3).unwrap();
        let mut s = NetConnectivity::new(&hg, &p);
        s.track_bmax(6);
        // includes a root move (node 0 is net A's root, node 3 is net B's)
        for (v, to) in [(2u32, 0u32), (0, 1), (3, 2), (0, 0), (4, 0), (3, 1)] {
            let from = p.part_of(NodeId(v));
            s.apply_move(&hg, NodeId(v), from, to);
            p.assign(NodeId(v), to);
            assert_matches_fresh(&s, &hg, &p);
        }
    }

    #[test]
    fn conn_cost_equals_traffic_total_always() {
        let hg = fixture();
        let mut p = Partition::from_assignment(vec![0, 1, 2, 0, 1], 3).unwrap();
        let mut s = NetConnectivity::new(&hg, &p);
        // Σ w·(λ − 1) summed from the tracked spans, independently of
        // the matrix the cost is read from
        let spans_cost = |s: &NetConnectivity| -> u64 {
            hg.net_ids()
                .map(|e| hg.net_weight(e) * (s.lambda(e) as u64 - 1))
                .sum()
        };
        assert_eq!(s.connectivity_cost(), spans_cost(&s));
        for (v, to) in [(1u32, 0u32), (2, 1), (4, 2), (0, 2)] {
            let from = p.part_of(NodeId(v));
            s.apply_move(&hg, NodeId(v), from, to);
            p.assign(NodeId(v), to);
            assert_eq!(s.connectivity_cost(), spans_cost(&s));
        }
    }

    #[test]
    fn tracked_excess_matches_scan() {
        let hg = fixture();
        let p = Partition::from_assignment(vec![0, 1, 2, 2, 2], 3).unwrap();
        let mut s = NetConnectivity::new(&hg, &p);
        s.track_bmax(4);
        // pairs (0,1) = 10 and (0,2) = 10 each exceed 4 by 6
        assert_eq!(s.tracked_excess(), 12);
        assert_eq!(s.traffic().violation_magnitude(4), 12);
        assert_eq!(s.traffic().violations(4).len(), 2);
    }
}
