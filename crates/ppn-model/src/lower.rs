//! Lowering a process network to the partitioning substrates.
//!
//! Two lowerings share the same node model (node weight = the process's
//! resource scalar) and differ in how channels become costs:
//!
//! * [`lower_to_graph`] — the paper's **edge-cut model**: one undirected
//!   edge per producer–consumer pair, weighted by the summed channel
//!   volume between them. A multicast channel contributes its *full*
//!   volume to every consumer's edge, which double-counts the stream
//!   when several consumers land on different FPGAs — the model error
//!   the hypergraph substrate exists to fix.
//! * [`lower_to_hypergraph`] — the **connectivity model**: one net per
//!   channel, pinned by the producer (the net's root) and every
//!   consumer, weighted by the channel volume. The connectivity-(λ−1)
//!   objective then charges the stream once per spanned FPGA boundary.
//!
//! Channel direction is irrelevant to the mapping problem — an
//! inter-FPGA link is consumed by traffic either way — and self-loops
//! never leave an FPGA, so both disappear here.

use crate::network::{ProcessId, ProcessNetwork};
use ppn_graph::{GraphBuilder, NodeId, WeightedGraph};
use ppn_hyper::{Hypergraph, HypergraphBuilder};

/// Options for [`lower_to_graph`].
#[derive(Clone, Debug)]
pub struct LoweringOptions {
    /// Divide channel volumes by this factor (e.g. app iterations) to
    /// express *sustained* bandwidth rather than total volume; weights
    /// are clamped to ≥ 1 so edges never vanish.
    pub volume_divisor: u64,
}

impl Default for LoweringOptions {
    fn default() -> Self {
        LoweringOptions { volume_divisor: 1 }
    }
}

/// Lower `net` to a [`WeightedGraph`]. Node `i` of the graph corresponds
/// to process `i` (labels carry the process names).
///
/// Panics unless `net` passes [`ProcessNetwork::validate`].
pub fn lower_to_graph(net: &ProcessNetwork, opts: &LoweringOptions) -> WeightedGraph {
    let div = opts.volume_divisor.max(1);
    let mut g = GraphBuilder::new();
    for p in net.process_ids() {
        let proc = net.process(p);
        g.add_labeled_node(proc.resources.scalar(), proc.name.clone());
    }
    for c in net.channel_ids() {
        let ch = net.channel(c);
        let w = (ch.volume / div).max(1);
        for consumer in ch.consumers() {
            if ch.from == consumer {
                continue; // intra-process state never crosses FPGAs
            }
            g.add_or_merge_edge(to_node(ch.from), to_node(consumer), w)
                .expect("a validated network has valid endpoints and bounded volumes");
        }
    }
    g.build()
}

/// Lower `net` to a [`Hypergraph`]: one net per channel, rooted at the
/// producer with all consumers as pins; self-loop channels (producer is
/// the only pin) are dropped. Node `i` corresponds to process `i`, as in
/// [`lower_to_graph`], so a partition of either substrate maps onto the
/// other unchanged.
pub fn lower_to_hypergraph(net: &ProcessNetwork, opts: &LoweringOptions) -> Hypergraph {
    let div = opts.volume_divisor.max(1);
    let mut b = HypergraphBuilder::new();
    for p in net.process_ids() {
        b.add_node(net.process(p).resources.scalar());
    }
    for c in net.channel_ids() {
        let ch = net.channel(c);
        let mut pins = vec![to_node(ch.from)];
        pins.extend(ch.consumers().filter(|&x| x != ch.from).map(to_node));
        if pins.len() < 2 {
            continue; // pure self-loop state
        }
        b.add_net((ch.volume / div).max(1), &pins);
    }
    b.build()
}

#[inline]
fn to_node(p: ProcessId) -> NodeId {
    NodeId(p.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowering_merges_bidirectional_channels() {
        let mut n = ProcessNetwork::new();
        let a = n.add_simple_process("a", 10, 1, 10);
        let b = n.add_simple_process("b", 20, 1, 10);
        n.add_channel(a, b, 30, 2);
        n.add_channel(b, a, 12, 2);
        let g = lower_to_graph(&n, &LoweringOptions::default());
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.edge_weight(e), 42);
        assert_eq!(g.label(NodeId(0)), Some("a"));
        assert_eq!(g.node_weight(NodeId(1)), 20);
    }

    #[test]
    fn self_loops_dropped() {
        let mut n = ProcessNetwork::new();
        let a = n.add_simple_process("a", 5, 1, 10);
        n.add_channel(a, a, 100, 1);
        let g = lower_to_graph(&n, &LoweringOptions::default());
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn volume_divisor_scales_with_floor_one() {
        let mut n = ProcessNetwork::new();
        let a = n.add_simple_process("a", 5, 1, 10);
        let b = n.add_simple_process("b", 5, 1, 10);
        n.add_channel(a, b, 1000, 2);
        let g = lower_to_graph(
            &n,
            &LoweringOptions {
                volume_divisor: 100,
            },
        );
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.edge_weight(e), 10);
        // tiny volume still yields weight 1
        let mut n2 = ProcessNetwork::new();
        let a = n2.add_simple_process("a", 5, 1, 10);
        let b = n2.add_simple_process("b", 5, 1, 10);
        n2.add_channel(a, b, 3, 2);
        let g2 = lower_to_graph(
            &n2,
            &LoweringOptions {
                volume_divisor: 100,
            },
        );
        assert_eq!(
            g2.edge_weight(g2.find_edge(NodeId(0), NodeId(1)).unwrap()),
            1
        );
    }

    #[test]
    fn zero_resource_process_gets_weight_one() {
        let mut n = ProcessNetwork::new();
        n.add_simple_process("stub", 0, 1, 1);
        let g = lower_to_graph(&n, &LoweringOptions::default());
        assert_eq!(g.node_weight(NodeId(0)), 1);
    }

    fn multicast_net() -> ProcessNetwork {
        let mut n = ProcessNetwork::new();
        let p = n.add_simple_process("prod", 10, 1, 40);
        let a = n.add_simple_process("a", 12, 1, 40);
        let b = n.add_simple_process("b", 14, 1, 40);
        let c = n.add_simple_process("c", 16, 1, 40);
        n.add_multicast_channel(p, &[a, b, c], 40, 4);
        n
    }

    #[test]
    fn graph_lowering_double_counts_multicast() {
        let n = multicast_net();
        let g = lower_to_graph(&n, &LoweringOptions::default());
        // one full-volume edge per consumer — 3 × 40
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.total_edge_weight(), 120);
    }

    #[test]
    fn hypergraph_lowering_emits_one_net_per_channel() {
        let n = multicast_net();
        let hg = lower_to_hypergraph(&n, &LoweringOptions::default());
        hg.validate().unwrap();
        assert_eq!(hg.num_nets(), 1);
        assert_eq!(hg.num_nodes(), 4);
        let net = ppn_hyper::NetId(0);
        assert_eq!(hg.root(net), NodeId(0));
        assert_eq!(hg.pins(net).len(), 4);
        assert_eq!(hg.net_weight(net), 40);
        assert_eq!(hg.node_weights(), &[10, 12, 14, 16]);
    }

    #[test]
    fn hypergraph_lowering_matches_graph_on_point_to_point() {
        let mut n = ProcessNetwork::new();
        let a = n.add_simple_process("a", 10, 1, 10);
        let b = n.add_simple_process("b", 20, 1, 10);
        n.add_channel(a, b, 30, 2);
        let hg = lower_to_hypergraph(&n, &LoweringOptions::default());
        assert_eq!(hg.num_nets(), 1);
        assert_eq!(hg.pins(ppn_hyper::NetId(0)), &[0, 1]);
        // self-loops vanish in both lowerings
        let mut n2 = ProcessNetwork::new();
        let s = n2.add_simple_process("s", 5, 1, 10);
        n2.add_channel(s, s, 100, 1);
        assert_eq!(
            lower_to_hypergraph(&n2, &LoweringOptions::default()).num_nets(),
            0
        );
    }
}
