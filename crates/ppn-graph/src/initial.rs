//! Greedy resource-bounded initial partitioning with restarts (paper
//! §IV-B), shared by both cost models.
//!
//! On the coarsest level:
//!
//! 1. part 0 grows from a seed node, every later part from the heaviest
//!    node still unassigned, each absorbing the unassigned node most
//!    strongly tied to it while `Rmax` holds ([`grow`]);
//! 2. leftover nodes go best-fit into the part with the most free space;
//! 3. if nothing fits, they overflow into the part with the most free
//!    space anyway ("even though this implies violating the Rmax
//!    constraint");
//! 4. the model's constrained refinement repairs the result.
//!
//! Because the outcome is sensitive to the first seed node, the whole
//! procedure restarts from random seed nodes a parametrised number of
//! times (default 10, paper §IV-B) and the goodness function picks the
//! winner ([`best_restart`]). What "tied" means is the model's
//! [`Frontier`]: gp-core's heaviest edge into the part, ppn-hyper's
//! summed weight of the nets touching the part.

use crate::cycle::Goodness;
use crate::ids::NodeId;
use crate::partition::Partition;
use crate::prng::{derive_seed, XorShift128Plus};
use crate::refine::RefineOptions;
use crate::trace;
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Options of a restarted initial partitioning.
#[derive(Clone, Debug)]
pub struct InitialOptions {
    /// Number of restarts (the first always seeds from the heaviest
    /// node; the rest use random seed nodes).
    pub restarts: usize,
    /// Refinement repair passes after each greedy allocation.
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

/// The growth frontier: a max-heap of `(gain, Reverse(node id))`, so the
/// top is the largest gain, ties to the smaller id.
pub type FrontierHeap = BinaryHeap<(u64, Reverse<u32>)>;

/// A cost model's half of [`grow`]: how a node joining the growing part
/// raises the gains of the unassigned nodes around it.
///
/// A gain may only rise while its part grows, and each rise pushes a
/// fresh heap entry. [`grow`] skips popped entries of assigned nodes; an
/// entry superseded by a later rise never reaches the top while its node
/// is unassigned. So the first entry that survives is exactly the node
/// a full scan of the frontier would pick.
pub trait Frontier {
    /// Forget the previous part's gains: a new part starts growing.
    fn reset(&mut self);
    /// `v` has just joined the growing part (it is assigned in `p`):
    /// push a fresh entry for every unassigned node whose gain rose.
    fn push(&mut self, v: NodeId, p: &Partition, heap: &mut FrontierHeap);
}

/// One greedy allocation into `k` parts from `first`, where node v
/// weighs `vwgt[v]`: the kernel every restart runs.
///
/// Part 0 grows from `first`, every later part from the heaviest node
/// still unassigned (ties to the smaller id). A part absorbs, one at a
/// time, the unassigned node with the largest gain (ties to the smaller
/// id) and stops at the first such node that would break `rmax`.
/// Leftovers then go best-fit into the part with the most free space, or
/// overflow into it when nothing fits.
pub fn grow(
    vwgt: &[u64],
    k: usize,
    rmax: u64,
    first: NodeId,
    frontier: &mut impl Frontier,
) -> Partition {
    assert!(k >= 1);
    let n = vwgt.len();
    let mut p = Partition::unassigned(n, k);
    let mut part_weight = vec![0u64; k];

    // heaviest-first order for choosing the next part's seed; nodes only
    // ever become assigned, so the first unassigned one moves forward
    let mut by_weight: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    by_weight.sort_by_key(|&v| Reverse((vwgt[v.index()], Reverse(v.0))));
    let mut next_by_weight = 0;
    let mut heap = FrontierHeap::new();

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
        frontier.reset();
        heap.clear();

        // absorb the largest-gain unassigned node while Rmax holds
        let mut v = seed_node;
        loop {
            p.assign(v, part);
            part_weight[part as usize] += vwgt[v.index()];
            frontier.push(v, &p, &mut heap);
            let next = std::iter::from_fn(|| heap.pop())
                .map(|(_, Reverse(u))| NodeId(u))
                .find(|&u| !p.is_assigned(u));
            let Some(u) = next else { break };
            if part_weight[part as usize] + vwgt[u.index()] > rmax {
                break; // paper: stop growing this part at Rmax
            }
            v = u;
        }
    }

    // best-fit sweep for leftovers (largest free space first)
    for v in p.unassigned_nodes() {
        let wv = vwgt[v.index()];
        let fitting = (0..k)
            .filter(|&q| part_weight[q] + wv <= rmax)
            .max_by_key(|&q| (rmax - part_weight[q], Reverse(q)));
        let target = fitting.unwrap_or_else(|| {
            // overflow: most free space even though Rmax breaks
            (0..k)
                .max_by_key(|&q| (rmax.saturating_sub(part_weight[q]), Reverse(q)))
                .unwrap()
        });
        p.assign(v, target as u32);
        part_weight[target] += wv;
    }
    debug_assert!(p.is_complete());
    p
}

/// Run `opts.restarts` (at least one) greedy allocations on a level
/// where node v weighs `vwgt[v]` and return the goodness-best.
///
/// Restart 0 grows from the heaviest node (ties to the smaller id),
/// restart r from a node drawn from `derive_seed(opts.seed, r)`. Each
/// restart `grow`s from that node, `repair`s the result with
/// `opts.repair_passes` passes under the same seed, and is ranked by
/// `(goodness, r)`, a total order: the answer is the same whether the
/// restarts run serially or, with [`InitialOptions::parallel`], on
/// rayon, where each records into the caller's trace session. Each
/// restart is one `{engine}:restart` span.
pub fn best_restart(
    engine: &'static str,
    vwgt: &[u64],
    opts: &InitialOptions,
    grow: impl Fn(NodeId) -> Partition + Sync,
    repair: impl Fn(&mut Partition, &RefineOptions) + Sync,
    goodness: impl Fn(&Partition) -> Goodness + Sync,
) -> Partition {
    assert!(!vwgt.is_empty(), "cannot partition an empty graph");
    let restart = |r: usize| {
        let _sp = trace::span(engine, "restart", r as i64);
        let seed = derive_seed(opts.seed, r as u64);
        let first = if r == 0 {
            (0..vwgt.len())
                .max_by_key(|&v| (vwgt[v], Reverse(v)))
                .map(NodeId::from_index)
                .unwrap()
        } else {
            NodeId::from_index(XorShift128Plus::new(seed).next_below(vwgt.len()))
        };
        let mut p = grow(first);
        let passes = RefineOptions {
            max_passes: opts.repair_passes,
            seed,
            protect_nonempty: true,
        };
        repair(&mut p, &passes);
        ((goodness(&p), r), p)
    };
    let restarts = 0..opts.restarts.max(1);
    let best = if opts.parallel {
        let scope = trace::current();
        restarts
            .into_par_iter()
            .map(|r| scope.run(|| restart(r)))
            .min_by_key(|(key, _)| *key)
    } else {
        restarts.map(restart).min_by_key(|(key, _)| *key)
    };
    best.expect("at least one restart").1
}
