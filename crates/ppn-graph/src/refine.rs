//! The refinement all three k-way refiners share (paper §IV-C): the
//! one pass loop, its options and the part-load ledger.
//!
//! [`refine_passes`] is METIS's greedy k-way sweep. Each pass collects
//! the nodes a [`PassModel`] names, shuffles them with an
//! `XorShift128Plus` seeded from `derive_seed(opts.seed, salt)`, and
//! gives each node its best strictly improving move. The loop stops
//! after `max_passes` passes, or after a pass that moves nothing when
//! the model has no other move left. The models differ only in which
//! nodes a pass visits and what a better move is:
//!
//! * gp-core: the boundary plus the nodes of `Rmax`-violating parts;
//!   `(Δviolation, Δcut)`; pairwise exchanges once single moves run out;
//! * ppn-hyper: the pins of cut nets plus the nodes of `Rmax`-violating
//!   parts; `(Δviolation, Δconnectivity)`;
//! * gp-classic's `kway_refine`, the METIS baseline's refiner: every
//!   node; a positive cut gain into a part that stays within the
//!   balance cap.
//!
//! Each keeps its part weights and sizes in a [`PartLoads`], whose
//! excess over a tracked limit (`Rmax`, or kway's cap) is kept in step
//! with every move, so a violation magnitude reads in O(1).

use crate::ids::NodeId;
use crate::partition::Partition;
use crate::prng::{derive_seed, XorShift128Plus};
use crate::trace;

/// Options of a constrained refinement call.
#[derive(Clone, Debug)]
pub struct RefineOptions {
    /// Maximum sweeps.
    pub max_passes: usize,
    /// Visit-order seed.
    pub seed: u64,
    /// Never empty a part.
    pub protect_nonempty: bool,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            max_passes: 8,
            seed: 1,
            protect_nonempty: true,
        }
    }
}

/// A refinement engine that [`refine_passes`] drives.
pub trait PassModel {
    /// Push the nodes this pass visits onto `nodes` (empty on entry),
    /// in an order that depends only on the current state.
    fn collect(&mut self, p: &Partition, nodes: &mut Vec<NodeId>);
    /// Give `v` its best strictly improving move, if it has one. True
    /// when `v` moved.
    fn try_move(&mut self, p: &mut Partition, v: NodeId) -> bool;
    /// After a pass that moved nothing: make the moves that single
    /// moves cannot reach and return how many. The loop stops on 0,
    /// which is all a model without such moves returns.
    fn stalled(&mut self, _p: &mut Partition) -> usize {
        0
    }
}

/// Run the pass loop (see the module docs) over `model`; returns the
/// number of moves applied. Each pass is a `refine/pass` span with its
/// `moves_evaluated`, `moves_committed` and `moves_rejected` counters.
pub fn refine_passes<M: PassModel>(
    model: &mut M,
    p: &mut Partition,
    opts: &RefineOptions,
    salt: u64,
) -> usize {
    let mut rng = XorShift128Plus::new(derive_seed(opts.seed, salt));
    let mut nodes = Vec::new();
    let mut total = 0;
    for pass in 0..opts.max_passes {
        let _sp = trace::span("refine", "pass", pass as i64);
        nodes.clear();
        model.collect(p, &mut nodes);
        rng.shuffle(&mut nodes);
        trace::counter("refine", "moves_evaluated", nodes.len() as u64);
        let moves = nodes.iter().filter(|&&v| model.try_move(p, v)).count();
        total += moves;
        trace::counter("refine", "moves_committed", moves as u64);
        trace::counter("refine", "moves_rejected", (nodes.len() - moves) as u64);
        if moves == 0 {
            let extra = model.stalled(p);
            total += extra;
            if extra == 0 {
                break;
            }
        }
    }
    total
}

/// Per-part weights and node counts of a complete partition, with the
/// summed excess over a tracked `Rmax`, `Σ max(w − Rmax, 0)`, kept in
/// step with every [`shift`](PartLoads::shift).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartLoads {
    weights: Vec<u64>,
    sizes: Vec<usize>,
    rmax: u64,
    excess: u64,
}

impl PartLoads {
    /// The loads of `p`, where node v weighs `vwgt[v]`, tracked against
    /// `rmax`. One pass over the nodes.
    pub fn new(vwgt: &[u64], p: &Partition, rmax: u64) -> Self {
        let weights = p.part_weights(vwgt);
        let excess = weights.iter().map(|&w| w.saturating_sub(rmax)).sum();
        PartLoads {
            sizes: p.part_sizes(),
            weights,
            rmax,
            excess,
        }
    }

    /// Summed node weight per part.
    #[inline]
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Node count of part `q`.
    #[inline]
    pub fn size(&self, q: usize) -> usize {
        self.sizes[q]
    }

    /// `Σ max(w − Rmax, 0)` over the parts. O(1).
    #[inline]
    pub fn excess(&self) -> u64 {
        self.excess
    }

    /// True when part `q` weighs more than `Rmax`.
    #[inline]
    pub fn is_over(&self, q: usize) -> bool {
        self.weights[q] > self.rmax
    }

    /// True when part `q` stays within `Rmax` after taking weight `w`.
    #[inline]
    pub fn fits(&self, q: usize, w: u64) -> bool {
        self.weights[q].saturating_add(w) <= self.rmax
    }

    /// True when some part weighs more than `Rmax`.
    #[inline]
    pub fn any_over(&self) -> bool {
        self.weights.iter().any(|&w| w > self.rmax)
    }

    /// Where a node of the over-full part `from` can escape to: the
    /// lightest other part (ties to the smaller index). `None` when
    /// `from` holds `Rmax` or is the only part.
    #[inline]
    pub fn escape(&self, from: usize) -> Option<u32> {
        if !self.is_over(from) {
            return None;
        }
        (0..self.weights.len() as u32)
            .filter(|&t| t as usize != from)
            .min_by_key(|&t| (self.weights[t as usize], t))
    }

    /// Change in the excess when part `a` sends weight `out` to part
    /// `b` and takes `back` from it in return (`back = 0` for a single
    /// move; `a ≠ b`), saturated into `i64`. Exact while all parts
    /// together weigh at most `u64::MAX`, the instance gate's bound: a
    /// part weight past `i64::MAX` cannot wrap it.
    #[inline]
    pub fn excess_change(&self, a: usize, b: usize, out: u64, back: u64) -> i64 {
        let (before, after) = self.pair_excess(a, b, out, back);
        if after >= before {
            i64::try_from(after - before).unwrap_or(i64::MAX)
        } else {
            i64::try_from(before - after).map_or(i64::MIN, |d| -d)
        }
    }

    /// The summed excess of parts `a` and `b` before and after the
    /// exchange of [`excess_change`](PartLoads::excess_change). Neither
    /// sum exceeds the two parts' weight, which fits in `u64` under the
    /// instance gate's bound.
    #[inline]
    fn pair_excess(&self, a: usize, b: usize, out: u64, back: u64) -> (u64, u64) {
        let er = |w: u64| w.saturating_sub(self.rmax);
        let (wa, wb) = (self.weights[a], self.weights[b]);
        let after = er((wa - out).saturating_add(back)) + er((wb - back).saturating_add(out));
        (er(wa) + er(wb), after)
    }

    /// Move a node of weight `w` from part `from` to part `to`.
    #[inline]
    pub fn shift(&mut self, from: usize, to: usize, w: u64) {
        if from == to {
            return;
        }
        let (before, after) = self.pair_excess(from, to, w, 0);
        self.excess = self.excess - before + after;
        self.weights[from] -= w;
        self.weights[to] += w;
        self.sizes[from] -= 1;
        self.sizes[to] += 1;
    }
}
