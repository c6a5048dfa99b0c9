//! CSR-style incidence hypergraph.
//!
//! A hypergraph generalises the partitioning graph: a *net* (hyperedge)
//! connects an arbitrary set of *pins* (nodes). For process networks a
//! net is one FIFO channel together with every consumer of its token
//! stream — the producer is the net's first pin (its *root*), the
//! consumers follow. Modelling a multicast stream as one net is what
//! lets the connectivity-(λ−1) objective charge its bandwidth once per
//! spanned FPGA boundary instead of once per consumer, which is how a
//! real multi-FPGA link is consumed.
//!
//! The storage follows the flat CSR layout of
//! [`ppn_graph::WeightedGraph`]: two flat offset/value pairs, one
//! net-major (`net_off`/`pins`) and one node-major dual
//! (`node_off`/`node_nets`), plus node weights and net bandwidths.
//! Construction goes through [`HypergraphBuilder`], as graphs go through
//! [`ppn_graph::GraphBuilder`]; the built [`Hypergraph`] is immutable,
//! which keeps every incremental tracker honest.

use ppn_graph::{GraphBuilder, NodeId, WeightedGraph};
use serde::{Deserialize, Serialize};

/// Index of a net within a [`Hypergraph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NetId(pub u32);

impl NetId {
    /// Index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Incremental builder for a [`Hypergraph`].
#[derive(Clone, Debug, Default)]
pub struct HypergraphBuilder {
    vwgt: Vec<u64>,
    nets: Vec<(u64, Vec<u32>)>,
}

impl HypergraphBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with resource weight `w` (clamped to ≥ 1), returning
    /// its id.
    pub fn add_node(&mut self, w: u64) -> NodeId {
        let id = NodeId(self.vwgt.len() as u32);
        self.vwgt.push(w.max(1));
        id
    }

    /// Add a net of bandwidth `weight` over `pins`. The first pin is the
    /// net's *root* (the producer of the stream); duplicate pins are
    /// dropped keeping first occurrence, so a producer that also
    /// consumes its own stream contributes one pin. Panics on unknown
    /// pins or an empty pin list.
    pub fn add_net(&mut self, weight: u64, pins: &[NodeId]) -> NetId {
        assert!(!pins.is_empty(), "a net needs at least one pin");
        let mut dedup: Vec<u32> = Vec::with_capacity(pins.len());
        for &p in pins {
            assert!(
                (p.index()) < self.vwgt.len(),
                "net references unknown node {p:?}"
            );
            if !dedup.contains(&p.0) {
                dedup.push(p.0);
            }
        }
        let id = NetId(self.nets.len() as u32);
        self.nets.push((weight, dedup));
        id
    }

    /// Freeze into the immutable CSR form.
    pub fn build(self) -> Hypergraph {
        let n = self.vwgt.len();
        let mut net_off = Vec::with_capacity(self.nets.len() + 1);
        let mut pins = Vec::new();
        let mut net_wgt = Vec::with_capacity(self.nets.len());
        net_off.push(0);
        for (w, ps) in &self.nets {
            pins.extend_from_slice(ps);
            net_off.push(pins.len());
            net_wgt.push(*w);
        }
        // dual: nets incident to each node, by counting sort
        let mut deg = vec![0usize; n];
        for &p in &pins {
            deg[p as usize] += 1;
        }
        let mut node_off = Vec::with_capacity(n + 1);
        node_off.push(0);
        for d in &deg {
            node_off.push(node_off.last().unwrap() + d);
        }
        let mut cursor = node_off[..n].to_vec();
        let mut node_nets = vec![0u32; pins.len()];
        for (net, w) in self.nets.iter().enumerate() {
            for &p in &w.1 {
                node_nets[cursor[p as usize]] = net as u32;
                cursor[p as usize] += 1;
            }
        }
        Hypergraph {
            vwgt: self.vwgt,
            net_off,
            pins,
            net_wgt,
            node_off,
            node_nets,
        }
    }
}

/// Immutable CSR incidence hypergraph: node weights, net pins (net-major)
/// and the node→nets dual (node-major).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hypergraph {
    /// Node (resource) weights, length `n`.
    vwgt: Vec<u64>,
    /// Offsets into `pins`, length `num_nets + 1`.
    net_off: Vec<usize>,
    /// Concatenated pin lists; the first pin of each net is its root.
    pins: Vec<u32>,
    /// Net bandwidth weights, length `num_nets`.
    net_wgt: Vec<u64>,
    /// Offsets into `node_nets`, length `n + 1`.
    node_off: Vec<usize>,
    /// Concatenated incident-net lists per node.
    node_nets: Vec<u32>,
}

impl Hypergraph {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of nets.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.net_wgt.len()
    }

    /// Total number of pins across nets.
    #[inline]
    pub fn num_pins(&self) -> usize {
        self.pins.len()
    }

    /// Resource weight of node `v`.
    #[inline]
    pub fn node_weight(&self, v: NodeId) -> u64 {
        self.vwgt[v.index()]
    }

    /// All node weights.
    #[inline]
    pub fn node_weights(&self) -> &[u64] {
        &self.vwgt
    }

    /// Bandwidth weight of net `e`.
    #[inline]
    pub fn net_weight(&self, e: NetId) -> u64 {
        self.net_wgt[e.index()]
    }

    /// Pins of net `e`; the first entry is the net's root (producer).
    #[inline]
    pub fn pins(&self, e: NetId) -> &[u32] {
        &self.pins[self.net_off[e.index()]..self.net_off[e.index() + 1]]
    }

    /// Root pin (producer) of net `e`.
    #[inline]
    pub fn root(&self, e: NetId) -> NodeId {
        NodeId(self.pins(e)[0])
    }

    /// Nets incident to node `v`.
    #[inline]
    pub fn nets_of(&self, v: NodeId) -> &[u32] {
        &self.node_nets[self.node_off[v.index()]..self.node_off[v.index() + 1]]
    }

    /// Number of nets incident to `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.node_off[v.index() + 1] - self.node_off[v.index()]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.vwgt.len()).map(NodeId::from_index)
    }

    /// All net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.net_wgt.len()).map(|i| NetId(i as u32))
    }

    /// Total node weight.
    pub fn total_node_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Heaviest single node.
    pub fn max_node_weight(&self) -> u64 {
        self.vwgt.iter().copied().max().unwrap_or(0)
    }

    /// Total net bandwidth.
    pub fn total_net_weight(&self) -> u64 {
        self.net_wgt.iter().sum()
    }

    /// Build the degenerate hypergraph of a weighted graph: one 2-pin
    /// net per edge (lower node id first, as the root). On the result,
    /// connectivity-(λ−1) equals the graph's edge cut for every
    /// partition — the correctness anchor tying the hypergraph engine to
    /// `gp-core`.
    pub fn from_graph(g: &WeightedGraph) -> Self {
        let mut b = HypergraphBuilder::new();
        for v in g.node_ids() {
            b.add_node(g.node_weight(v));
        }
        for (u, v, w) in g.edges() {
            b.add_net(w, &[u, v]);
        }
        b.build()
    }

    /// Clique-expand into a weighted graph: a net of size `s` becomes a
    /// clique whose edges carry `max(w / (s − 1), 1)` each (the standard
    /// hMETIS-style approximation; exact for `s == 2`). Parallel edges
    /// from overlapping nets merge by summing.
    pub fn clique_expansion(&self) -> WeightedGraph {
        let mut g = GraphBuilder::new();
        for &w in &self.vwgt {
            g.add_node(w);
        }
        for e in self.net_ids() {
            let ps = self.pins(e);
            if ps.len() < 2 {
                continue;
            }
            let w = (self.net_weight(e) / (ps.len() as u64 - 1)).max(1);
            for i in 0..ps.len() {
                for j in (i + 1)..ps.len() {
                    g.add_or_merge_edge(NodeId(ps[i]), NodeId(ps[j]), w)
                        .expect("pins are distinct nodes");
                }
            }
        }
        g.build()
    }

    /// Structural validation: offsets monotone, pins in range and
    /// distinct per net, dual consistent with the pin lists.
    ///
    /// Raw CSR invariants come first — everything after them slices
    /// with these offsets, so a deserialized `Hypergraph` with
    /// truncated arrays or corrupt offsets must be rejected here rather
    /// than panicking inside [`pins`](Self::pins) /
    /// [`nets_of`](Self::nets_of).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        if self.net_off.len() != self.net_wgt.len() + 1 {
            return Err(format!(
                "net_off has {} entries for {} nets (want nets + 1)",
                self.net_off.len(),
                self.net_wgt.len()
            ));
        }
        if self.node_off.len() != n + 1 {
            return Err(format!(
                "node_off has {} entries for {n} nodes (want nodes + 1)",
                self.node_off.len()
            ));
        }
        if self.net_off[0] != 0 || self.node_off[0] != 0 {
            return Err("offset arrays must start at 0".to_string());
        }
        if self.net_off.windows(2).any(|w| w[0] > w[1]) {
            return Err("net_off is not monotone".to_string());
        }
        if self.node_off.windows(2).any(|w| w[0] > w[1]) {
            return Err("node_off is not monotone".to_string());
        }
        if *self.net_off.last().unwrap() != self.pins.len() {
            return Err(format!(
                "net_off ends at {} but there are {} pins (truncated input?)",
                self.net_off.last().unwrap(),
                self.pins.len()
            ));
        }
        if *self.node_off.last().unwrap() != self.node_nets.len() {
            return Err(format!(
                "node_off ends at {} but the dual has {} entries (truncated input?)",
                self.node_off.last().unwrap(),
                self.node_nets.len()
            ));
        }
        if let Some(&bad) = self
            .node_nets
            .iter()
            .find(|&&e| e as usize >= self.net_wgt.len())
        {
            return Err(format!("dual references net {bad} which does not exist"));
        }
        for e in self.net_ids() {
            let ps = self.pins(e);
            if ps.is_empty() {
                return Err(format!("net {} has no pins", e.0));
            }
            for (i, &p) in ps.iter().enumerate() {
                if p as usize >= n {
                    return Err(format!("net {} pin {p} out of range", e.0));
                }
                if ps[..i].contains(&p) {
                    return Err(format!("net {} has duplicate pin {p}", e.0));
                }
            }
        }
        let mut pin_count = 0usize;
        for v in self.node_ids() {
            for &net in self.nets_of(v) {
                if !self.pins(NetId(net)).contains(&v.0) {
                    return Err(format!("dual lists net {net} for node {v:?} spuriously"));
                }
                pin_count += 1;
            }
        }
        if pin_count != self.pins.len() {
            return Err(format!(
                "dual covers {pin_count} pins, incidence has {}",
                self.pins.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 nodes; net A = {0,1,2} w 6, net B = {2,3} w 5.
    pub(crate) fn small() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let n: Vec<_> = (0..4).map(|i| b.add_node(10 * (i + 1))).collect();
        b.add_net(6, &[n[0], n[1], n[2]]);
        b.add_net(5, &[n[2], n[3]]);
        b.build()
    }

    #[test]
    fn csr_shape_and_dual() {
        let h = small();
        h.validate().unwrap();
        assert_eq!(h.num_nodes(), 4);
        assert_eq!(h.num_nets(), 2);
        assert_eq!(h.num_pins(), 5);
        assert_eq!(h.pins(NetId(0)), &[0, 1, 2]);
        assert_eq!(h.root(NetId(1)), NodeId(2));
        assert_eq!(h.nets_of(NodeId(2)), &[0, 1]);
        assert_eq!(h.degree(NodeId(2)), 2);
        assert_eq!(h.total_node_weight(), 100);
        assert_eq!(h.total_net_weight(), 11);
        assert_eq!(h.max_node_weight(), 40);
    }

    #[test]
    fn corrupt_csr_is_rejected_not_panicking() {
        let good = small();
        // Each mutation mirrors a malformed/truncated serde payload; all
        // must produce an Err, never an out-of-bounds slice.
        let mut truncated_pins = good.clone();
        truncated_pins.pins.pop();
        assert!(truncated_pins.validate().unwrap_err().contains("truncated"));

        let mut bad_start = good.clone();
        bad_start.net_off[0] = 1;
        assert!(bad_start.validate().is_err());

        let mut non_monotone = good.clone();
        non_monotone.net_off[1] = 5;
        non_monotone.net_off[2] = 3;
        assert!(non_monotone.validate().is_err());

        let mut short_offsets = good.clone();
        short_offsets.net_off.pop();
        assert!(short_offsets.validate().unwrap_err().contains("net_off"));

        let mut truncated_dual = good.clone();
        truncated_dual.node_nets.pop();
        assert!(truncated_dual.validate().is_err());

        let mut phantom_net = good.clone();
        phantom_net.node_nets[0] = 99;
        assert!(phantom_net
            .validate()
            .unwrap_err()
            .contains("does not exist"));
    }

    #[test]
    fn duplicate_pins_are_dropped() {
        let mut b = HypergraphBuilder::new();
        let a = b.add_node(1);
        let c = b.add_node(1);
        b.add_net(3, &[a, c, a]);
        let h = b.build();
        assert_eq!(h.pins(NetId(0)), &[0, 1]);
        h.validate().unwrap();
    }

    #[test]
    fn from_graph_matches_edges() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(2);
        let c = g.add_node(3);
        let d = g.add_node(4);
        g.add_edge(a, c, 7).unwrap();
        g.add_edge(c, d, 9).unwrap();
        let g = g.build();
        let h = Hypergraph::from_graph(&g);
        h.validate().unwrap();
        assert_eq!(h.num_nets(), 2);
        assert!(h.net_ids().all(|e| h.pins(e).len() == 2));
        assert_eq!(h.total_net_weight(), 16);
        assert_eq!(h.node_weights(), &[2, 3, 4]);
    }

    #[test]
    fn clique_expansion_is_exact_on_two_pin_nets() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(2);
        let c = g.add_node(3);
        g.add_edge(a, c, 7).unwrap();
        let g = g.build();
        let h = Hypergraph::from_graph(&g);
        let back = h.clique_expansion();
        assert_eq!(back.num_edges(), 1);
        assert_eq!(back.edge_weight(back.find_edge(a, c).unwrap()), 7);
    }

    #[test]
    fn clique_expansion_splits_net_weight() {
        let h = small();
        let g = h.clique_expansion();
        // net A (w 6, 3 pins) → triangle of weight-3 edges; net B stays 5
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.edge_weight(g.find_edge(NodeId(0), NodeId(1)).unwrap()), 3);
        assert_eq!(g.edge_weight(g.find_edge(NodeId(2), NodeId(3)).unwrap()), 5);
    }

    #[test]
    fn serde_roundtrip() {
        let h = small();
        let s = serde_json::to_string(&h).unwrap();
        let back: Hypergraph = serde_json::from_str(&s).unwrap();
        assert_eq!(back, h);
    }
}
