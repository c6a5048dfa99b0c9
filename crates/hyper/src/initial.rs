//! Greedy resource-bounded initial partitioning on the coarsest
//! hypergraph, with restarts, under the connectivity model.
//!
//! ppn-graph's growth kernel ([`ppn_graph::initial::grow`]) and restart
//! driver ([`best_restart`]) run the procedure gp-core runs on graphs;
//! this module supplies the hypergraph's frontier (the summed weight of
//! the nets touching the growing part), the repair ([`hyper_refine`])
//! and the connectivity goodness. Restarts run serially.

use crate::hypergraph::{Hypergraph, NetId};
use crate::metrics::measure;
use crate::refine::hyper_refine;
use ppn_graph::initial::{best_restart, Frontier, FrontierHeap};
use ppn_graph::{Constraints, InitialOptions, NodeId, Partition};
use std::cmp::Reverse;

/// The hypergraph model's frontier: the first pin a net places in the
/// growing part adds the net's weight to the gain of every still-
/// unassigned pin of that net, O(log n) per pin of a first-time net;
/// later pins of the same net cost O(1). Growing a part costs
/// O(p log p) for the p pins of its nets.
struct NetFrontier<'a> {
    hg: &'a Hypergraph,
    /// Nets with a pin in the growing part.
    net_in_part: Vec<bool>,
    /// Summed weight of the nets touching the part, per candidate.
    gain: Vec<u64>,
    /// Entries of the two vectors above to reset between parts.
    touched_nets: Vec<u32>,
    touched_nodes: Vec<u32>,
}

impl Frontier for NetFrontier<'_> {
    fn reset(&mut self) {
        for e in self.touched_nets.drain(..) {
            self.net_in_part[e as usize] = false;
        }
        for u in self.touched_nodes.drain(..) {
            self.gain[u as usize] = 0;
        }
    }

    fn push(&mut self, v: NodeId, p: &Partition, heap: &mut FrontierHeap) {
        let hg = self.hg;
        for &e in hg.nets_of(v) {
            if std::mem::replace(&mut self.net_in_part[e as usize], true) {
                continue;
            }
            self.touched_nets.push(e);
            let w = hg.net_weight(NetId(e));
            for &pin in hg.pins(NetId(e)) {
                if !p.is_assigned(NodeId(pin)) {
                    if self.gain[pin as usize] == 0 {
                        self.touched_nodes.push(pin);
                    }
                    self.gain[pin as usize] += w;
                    heap.push((self.gain[pin as usize], Reverse(pin)));
                }
            }
        }
    }
}

/// One greedy allocation from `first`, the kernel every restart runs:
/// [`ppn_graph::initial::grow`], where a part absorbs the unassigned pin
/// of its nets with the heaviest net connection (ties to the smaller
/// id). The first surviving frontier entry is exactly the node a full
/// scan of the frontier would pick (`crates/hyper/tests/properties.rs`
/// checks this against that scan).
pub fn grow_from(hg: &Hypergraph, k: usize, c: &Constraints, first: NodeId) -> Partition {
    let mut frontier = NetFrontier {
        hg,
        net_in_part: vec![false; hg.num_nets()],
        gain: vec![0; hg.num_nodes()],
        touched_nets: Vec::new(),
        touched_nodes: Vec::new(),
    };
    ppn_graph::initial::grow(hg.node_weights(), k, c.rmax, first, &mut frontier)
}

/// Greedy initial partitioning with restarts; returns the best
/// partition under the goodness order `(violation count, magnitude,
/// connectivity cost, restart index)`.
pub fn greedy_hyper_initial(
    hg: &Hypergraph,
    k: usize,
    c: &Constraints,
    opts: &InitialOptions,
) -> Partition {
    best_restart(
        "hyper",
        hg.node_weights(),
        opts,
        |first| grow_from(hg, k, c, first),
        |p, repair| {
            hyper_refine(hg, p, c, repair);
        },
        |p| measure(hg, p).0.goodness_key(c.rmax, c.bmax),
    )
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
        let p = greedy_hyper_initial(&hg, 4, &c, &InitialOptions::default());
        assert!(p.is_complete());
        assert_eq!(p.k(), 4);
    }

    #[test]
    fn respects_rmax_when_feasible() {
        let hg = clusters();
        let c = Constraints::new(150, 100);
        let p = greedy_hyper_initial(&hg, 4, &c, &InitialOptions::default());
        assert!(c.check_quality(&measure(&hg, &p).0).is_feasible());
    }

    #[test]
    fn overflows_gracefully_when_infeasible() {
        let hg = clusters();
        let c = Constraints::new(10, 100); // below the heaviest node
        let p = greedy_hyper_initial(&hg, 4, &c, &InitialOptions::default());
        assert!(
            p.is_complete(),
            "overflow path must still assign everything"
        );
    }

    #[test]
    fn single_part_takes_everything() {
        let hg = clusters();
        let c = Constraints::unconstrained();
        let p = greedy_hyper_initial(&hg, 1, &c, &InitialOptions::default());
        assert!(p.assignment().iter().all(|&a| a == 0));
    }

    #[test]
    fn deterministic_per_seed() {
        let hg = clusters();
        let c = Constraints::new(130, 40);
        let a = greedy_hyper_initial(&hg, 4, &c, &InitialOptions::default());
        let b = greedy_hyper_initial(&hg, 4, &c, &InitialOptions::default());
        assert_eq!(a, b);
    }
}
