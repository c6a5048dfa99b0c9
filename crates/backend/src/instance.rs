//! The unified problem instance: graph-or-hypergraph + `k` + constraints.

use ppn_graph::{Constraints, WeightedGraph};
use ppn_hyper::Hypergraph;
use ppn_model::{lower_to_graph, lower_to_hypergraph, LoweringOptions, ProcessNetwork};
use std::borrow::Cow;

/// One partitioning problem, consumable by every backend.
///
/// The edge-cut graph view is always present; the hypergraph view is
/// carried only when the workload has real multicast structure (a PPN
/// with `extra_consumers`). Graph backends partition `graph`; the
/// hypergraph backend partitions `hyper` when present and otherwise
/// falls back to the degenerate 2-pin embedding of `graph`, on which
/// both cost models coincide.
#[derive(Clone, Debug)]
pub struct PartitionInstance {
    /// Human-readable instance name (conformance tables key on it).
    pub name: String,
    /// Edge-cut view.
    pub graph: WeightedGraph,
    /// Multicast view, when the workload has one.
    pub hyper: Option<Hypergraph>,
    /// Number of parts (FPGAs).
    pub k: usize,
    /// The paper's `Rmax`/`Bmax`.
    pub constraints: Constraints,
}

impl PartitionInstance {
    /// Instance over a plain weighted graph. Construction never panics —
    /// degenerate shapes (`k == 0`, `k > n`) are caught by
    /// [`validate_instance`](crate::error::validate_instance) at the
    /// `partition` boundary instead.
    pub fn from_graph(
        name: impl Into<String>,
        graph: WeightedGraph,
        k: usize,
        constraints: Constraints,
    ) -> Self {
        PartitionInstance {
            name: name.into(),
            graph,
            hyper: None,
            k,
            constraints,
        }
    }

    /// Instance lowered from a process network: the per-consumer-edge
    /// graph and the one-net-per-channel hypergraph of the same PPN.
    pub fn from_network(
        name: impl Into<String>,
        net: &ProcessNetwork,
        k: usize,
        constraints: Constraints,
    ) -> Self {
        let opts = LoweringOptions::default();
        PartitionInstance {
            name: name.into(),
            graph: lower_to_graph(net, &opts),
            hyper: Some(lower_to_hypergraph(net, &opts)),
            k,
            constraints,
        }
    }

    /// Attach an explicit hypergraph view. Node counts and node weights
    /// are expected to agree; a mismatch is reported by
    /// [`validate`](Self::validate) /
    /// [`validate_instance`](crate::error::validate_instance), not by a
    /// panic here.
    pub fn with_hypergraph(mut self, hg: Hypergraph) -> Self {
        self.hyper = Some(hg);
        self
    }

    /// Number of nodes (processes) in the instance.
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// The hypergraph view: the attached one, or the degenerate 2-pin
    /// embedding of the graph (on which connectivity equals edge cut).
    pub fn hyper_view(&self) -> Cow<'_, Hypergraph> {
        match &self.hyper {
            Some(hg) => Cow::Borrowed(hg),
            None => Cow::Owned(Hypergraph::from_graph(&self.graph)),
        }
    }

    /// The views agree: an attached hypergraph passes its own checks
    /// and covers exactly the graph's nodes with the graph's node
    /// weights, so graph and hypergraph engines partition one resource
    /// vector. (The graph needs no check of its own; it is valid by
    /// construction.)
    pub fn validate(&self) -> Result<(), String> {
        if let Some(hg) = &self.hyper {
            hg.validate()?;
            if hg.num_nodes() != self.graph.num_nodes() {
                return Err(format!(
                    "hypergraph covers {} nodes, graph {}",
                    hg.num_nodes(),
                    self.graph.num_nodes()
                ));
            }
            let (hw, gw) = (hg.node_weights(), self.graph.node_weights());
            if let Some(v) = hw.iter().zip(gw).position(|(h, g)| h != g) {
                return Err(format!(
                    "hypergraph node {v} weighs {}, graph node {v} weighs {}",
                    hw[v], gw[v]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_gen::{multicast_network, MulticastSpec};
    use ppn_graph::GraphBuilder;

    #[test]
    fn graph_instance_embeds_two_pin_hyper_view() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(5);
        let b = g.add_node(5);
        g.add_edge(a, b, 3).unwrap();
        let g = g.build();
        let inst = PartitionInstance::from_graph("t", g, 2, Constraints::new(10, 10));
        inst.validate().unwrap();
        assert!(inst.hyper.is_none());
        let hv = inst.hyper_view();
        assert_eq!(hv.num_nets(), 1);
        assert_eq!(hv.num_nodes(), 2);
    }

    #[test]
    fn network_instance_carries_both_views() {
        let net = multicast_network(&MulticastSpec::ring(4, 3, 7));
        let inst = PartitionInstance::from_network("stars", &net, 2, Constraints::new(500, 500));
        inst.validate().unwrap();
        let hg = inst.hyper.as_ref().expect("multicast view");
        assert_eq!(hg.num_nodes(), inst.graph.num_nodes());
        // multicast: strictly fewer nets than consumer edges
        assert!(hg.num_nets() < inst.graph.num_edges() + hg.num_nodes());
    }

    #[test]
    fn mismatched_hypergraph_rejected_by_validate() {
        let mut g = GraphBuilder::new();
        g.add_node(5);
        let mut b = ppn_hyper::HypergraphBuilder::new();
        b.add_node(1);
        b.add_node(1);
        let g = g.build();
        let inst = PartitionInstance::from_graph("t", g, 1, Constraints::new(10, 10))
            .with_hypergraph(b.build());
        let err = inst.validate().unwrap_err();
        assert!(err.contains("hypergraph covers"), "{err}");
        assert!(crate::error::validate_instance(&inst).is_err());
    }

    #[test]
    fn reweighted_hypergraph_rejected_by_validate() {
        let g = GraphBuilder::with_uniform_nodes(3, 5).build();
        let mut b = ppn_hyper::HypergraphBuilder::new();
        for w in [5, 6, 7] {
            b.add_node(w);
        }
        let inst = PartitionInstance::from_graph("t", g, 1, Constraints::new(10, 10))
            .with_hypergraph(b.build());
        let err = inst.validate().unwrap_err();
        assert_eq!(err, "hypergraph node 1 weighs 6, graph node 1 weighs 5");
    }
}
