//! Greedy resource-bounded initial partitioning on the coarsest
//! hypergraph, with restarts.
//!
//! The same shape as `gp_core::initial`: grow each part from a seed node
//! by absorbing the unassigned node with the heaviest *net connection*
//! into the part (summed bandwidth of nets with at least one pin already
//! inside, each net counted once) while `Rmax` holds; sweep leftovers
//! best-fit; overflow into the freest part when nothing fits; repair
//! with constrained refinement. Restarts (first from the heaviest node,
//! then from random seeds) are compared with the goodness order.

use crate::hypergraph::{Hypergraph, NetId};
use crate::metrics::measure;
use crate::refine::{hyper_refine, HyperRefineOptions};
use ppn_graph::prng::{derive_seed, XorShift128Plus};
use ppn_graph::{Constraints, NodeId, Partition};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Options for [`greedy_hyper_initial`].
#[derive(Clone, Debug)]
pub struct HyperInitialOptions {
    /// Number of restarts.
    pub restarts: usize,
    /// Refinement repair passes after the greedy allocation.
    pub repair_passes: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for HyperInitialOptions {
    fn default() -> Self {
        HyperInitialOptions {
            restarts: 10,
            repair_passes: 8,
            seed: 77,
        }
    }
}

/// Assign `v` to the part being grown and propagate gains: the first
/// pin a net places in the part adds its weight to every still-
/// unassigned pin of that net and pushes the pin's new gain onto the
/// frontier heap, O(log n) per pin of v's first-time nets; later pins of
/// the same net cost O(1).
#[allow(clippy::too_many_arguments)]
fn absorb(
    hg: &Hypergraph,
    p: &mut Partition,
    v: NodeId,
    part: u32,
    part_weight: &mut [u64],
    net_in_part: &mut [u32],
    touched_nets: &mut Vec<u32>,
    gain: &mut [u64],
    touched_nodes: &mut Vec<u32>,
    heap: &mut BinaryHeap<(u64, Reverse<u32>)>,
) {
    p.assign(v, part);
    part_weight[part as usize] += hg.node_weight(v);
    for &e in hg.nets_of(v) {
        if net_in_part[e as usize] == 0 {
            touched_nets.push(e);
            let w = hg.net_weight(NetId(e));
            for &pin in hg.pins(NetId(e)) {
                if !p.is_assigned(NodeId(pin)) {
                    if gain[pin as usize] == 0 {
                        touched_nodes.push(pin);
                    }
                    gain[pin as usize] += w;
                    heap.push((gain[pin as usize], Reverse(pin)));
                }
            }
        }
        net_in_part[e as usize] += 1;
    }
}

/// One greedy allocation from `first`, the kernel every restart runs.
///
/// Part 0 grows from `first`, every later part from the heaviest node
/// still unassigned (ties to the smaller id). A part absorbs, one at a
/// time, the unassigned pin of its nets with the heaviest net connection
/// (ties to the smaller id) and stops at the first such node that would
/// break `Rmax`. Leftovers then go best-fit into the part with the most
/// free space, or overflow into it when nothing fits.
///
/// The frontier is a max-heap keyed `(gain, Reverse(node id))`. A gain
/// only rises while its part grows, and each rise pushes a fresh entry.
/// Popped entries of absorbed nodes are skipped; an entry superseded by
/// a later rise never reaches the top while its node is unassigned. So
/// the first entry that survives is exactly the node a full scan of the
/// frontier would pick (`crates/hyper/tests/properties.rs` checks this
/// against that scan), and growing a part costs O(p log p) for the p
/// pins of its nets.
pub fn grow_from(hg: &Hypergraph, k: usize, c: &Constraints, first: NodeId) -> Partition {
    let n = hg.num_nodes();
    let mut p = Partition::unassigned(n, k);
    let mut part_weight = vec![0u64; k];
    // per-part scratch, cleared between parts via the touched lists:
    // pins each net already has inside the growing part, the gain of
    // every candidate (summed weight of its nets touching the part),
    // and the frontier heap of candidate gains
    let mut net_in_part = vec![0u32; hg.num_nets()];
    let mut touched_nets: Vec<u32> = Vec::new();
    let mut gain = vec![0u64; n];
    let mut touched_nodes: Vec<u32> = Vec::new();
    let mut heap: BinaryHeap<(u64, Reverse<u32>)> = BinaryHeap::new();

    // heaviest-first order for choosing the next part's seed; nodes only
    // ever become assigned, so the first unassigned one moves forward
    let mut by_weight: Vec<NodeId> = hg.node_ids().collect();
    by_weight.sort_by_key(|&v| Reverse((hg.node_weight(v), Reverse(v.0))));
    let mut next_by_weight = 0;

    for part in 0..k as u32 {
        for &e in &touched_nets {
            net_in_part[e as usize] = 0;
        }
        touched_nets.clear();
        for &u in &touched_nodes {
            gain[u as usize] = 0;
        }
        touched_nodes.clear();
        heap.clear();
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

        // absorb the heaviest-connected unassigned node while Rmax holds
        let mut v = seed_node;
        loop {
            absorb(
                hg,
                &mut p,
                v,
                part,
                &mut part_weight,
                &mut net_in_part,
                &mut touched_nets,
                &mut gain,
                &mut touched_nodes,
                &mut heap,
            );
            let next = std::iter::from_fn(|| heap.pop())
                .map(|(_, Reverse(u))| NodeId(u))
                .find(|&u| !p.is_assigned(u));
            let Some(u) = next else { break };
            if part_weight[part as usize] + hg.node_weight(u) > c.rmax {
                break; // stop growing this part at Rmax
            }
            v = u;
        }
    }

    // best-fit sweep for leftovers (largest free space first)
    for v in p.unassigned_nodes() {
        let wv = hg.node_weight(v);
        let fitting = (0..k)
            .filter(|&q| part_weight[q] + wv <= c.rmax)
            .max_by_key(|&q| (c.rmax - part_weight[q], Reverse(q)));
        let target = fitting.unwrap_or_else(|| {
            (0..k)
                .max_by_key(|&q| (c.rmax.saturating_sub(part_weight[q]), Reverse(q)))
                .unwrap()
        });
        p.assign(v, target as u32);
        part_weight[target] += wv;
    }
    debug_assert!(p.is_complete());
    p
}

/// Greedy initial partitioning with restarts; returns the best
/// partition under the goodness order `(violation count, magnitude,
/// connectivity cost, restart index)`.
pub fn greedy_hyper_initial(
    hg: &Hypergraph,
    k: usize,
    c: &Constraints,
    opts: &HyperInitialOptions,
) -> Partition {
    assert!(k >= 1);
    assert!(hg.num_nodes() > 0, "cannot partition an empty hypergraph");
    let restarts = opts.restarts.max(1);
    let mut best: Option<((u64, u64, u64, usize), Partition)> = None;
    for r in 0..restarts {
        let seed = derive_seed(opts.seed, r as u64);
        let first = if r == 0 {
            hg.node_ids()
                .max_by_key(|&v| (hg.node_weight(v), Reverse(v.0)))
                .expect("non-empty hypergraph")
        } else {
            let mut rng = XorShift128Plus::new(seed);
            NodeId::from_index(rng.next_below(hg.num_nodes()))
        };
        let mut p = grow_from(hg, k, c, first);
        hyper_refine(
            hg,
            &mut p,
            c,
            &HyperRefineOptions {
                max_passes: opts.repair_passes,
                seed,
                protect_nonempty: true,
            },
        );
        let (count, magnitude, cost) = measure(hg, &p).0.goodness_key(c.rmax, c.bmax);
        let key = (count, magnitude, cost, r);
        if best.as_ref().map(|(bk, _)| key < *bk).unwrap_or(true) {
            best = Some((key, p));
        }
    }
    best.expect("at least one restart").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::HypergraphBuilder;

    /// Four 3-pin cluster nets bridged by light 2-pin nets — the natural
    /// 4-way split cuts only the bridges.
    fn clusters() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let n: Vec<_> = (0..12)
            .map(|i| b.add_node(20 + (i as u64 * 7) % 30))
            .collect();
        for c in 0..4 {
            let base = c * 3;
            b.add_net(12, &[n[base], n[base + 1], n[base + 2]]);
        }
        for c in 0..3 {
            b.add_net(3, &[n[c * 3 + 2], n[(c + 1) * 3]]);
        }
        b.build()
    }

    #[test]
    fn produces_complete_partition() {
        let hg = clusters();
        let c = Constraints::new(120, 30);
        let p = greedy_hyper_initial(&hg, 4, &c, &HyperInitialOptions::default());
        assert!(p.is_complete());
        assert_eq!(p.k(), 4);
    }

    #[test]
    fn respects_rmax_when_feasible() {
        let hg = clusters();
        let c = Constraints::new(150, 100);
        let p = greedy_hyper_initial(&hg, 4, &c, &HyperInitialOptions::default());
        assert!(c.check_quality(&measure(&hg, &p).0).is_feasible());
    }

    #[test]
    fn overflows_gracefully_when_infeasible() {
        let hg = clusters();
        let c = Constraints::new(10, 100); // below the heaviest node
        let p = greedy_hyper_initial(&hg, 4, &c, &HyperInitialOptions::default());
        assert!(
            p.is_complete(),
            "overflow path must still assign everything"
        );
    }

    #[test]
    fn single_part_takes_everything() {
        let hg = clusters();
        let c = Constraints::unconstrained();
        let p = greedy_hyper_initial(&hg, 1, &c, &HyperInitialOptions::default());
        assert!(p.assignment().iter().all(|&a| a == 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let hg = clusters();
        let c = Constraints::new(130, 40);
        let a = greedy_hyper_initial(&hg, 4, &c, &HyperInitialOptions::default());
        let b = greedy_hyper_initial(&hg, 4, &c, &HyperInitialOptions::default());
        assert_eq!(a, b);
    }
}
