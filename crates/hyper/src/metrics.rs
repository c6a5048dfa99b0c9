//! Partition quality under the connectivity metric, as ppn-graph's
//! [`PartitionQuality`]: goodness ([`PartitionQuality::goodness_key`])
//! and feasibility ([`Constraints::check_quality`](ppn_graph::Constraints::check_quality))
//! read it exactly as they read an edge-cut measurement.

use crate::connectivity::NetConnectivity;
use crate::hypergraph::Hypergraph;
use ppn_graph::{Partition, PartitionQuality};

/// Measure `p` on `hg` under the connectivity model (a fresh scan; hot
/// paths keep a [`NetConnectivity`] instead). Returns the quality
/// record, whose `total_cut` is the connectivity cost
/// `Σ w(e)·(λ(e) − 1)` and whose `cut_matrix` is the per-boundary
/// traffic, and the number of nets spanning more than one part.
pub fn measure(hg: &Hypergraph, p: &Partition) -> (PartitionQuality, usize) {
    let s = NetConnectivity::new(hg, p);
    let q = PartitionQuality::from_parts(s.traffic().clone(), p.part_weights(hg.node_weights()));
    (q, s.cut_nets())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::HypergraphBuilder;
    use ppn_graph::Constraints;

    fn star() -> Hypergraph {
        // hub 0 (w 50) multicasting w-8 stream to 4 leaves (w 10)
        let mut b = HypergraphBuilder::new();
        let hub = b.add_node(50);
        let leaves: Vec<_> = (0..4).map(|_| b.add_node(10)).collect();
        let mut pins = vec![hub];
        pins.extend(leaves);
        b.add_net(8, &pins);
        b.build()
    }

    #[test]
    fn quality_measures_connectivity_not_pins() {
        let hg = star();
        // hub alone: one boundary, charged once — not once per leaf
        let p = Partition::from_assignment(vec![0, 1, 1, 1, 1], 2).unwrap();
        let (q, cut_nets) = measure(&hg, &p);
        assert_eq!(q.total_cut, 8);
        assert_eq!(cut_nets, 1);
        assert_eq!(q.max_local_bandwidth, 8);
        assert_eq!(q.max_resource, 50);
        assert_eq!(q.part_resources, vec![50, 40]);
    }

    #[test]
    fn check_reports_violations() {
        let hg = star();
        let p = Partition::from_assignment(vec![0, 1, 1, 1, 1], 2).unwrap();
        let (q, _) = measure(&hg, &p);
        let rep = Constraints::new(45, 7).check_quality(&q);
        assert_eq!(rep.resource_violations, vec![(0, 50)]);
        assert_eq!(rep.bandwidth_violations, vec![(0, 1, 8)]);
        assert!(!rep.is_feasible());
        assert!(Constraints::new(50, 8).check_quality(&q).is_feasible());
    }

    #[test]
    fn goodness_prefers_feasible() {
        let hg = star();
        let feasible = Partition::from_assignment(vec![0, 1, 1, 1, 1], 2).unwrap();
        let violating = Partition::from_assignment(vec![0, 0, 0, 0, 1], 2).unwrap();
        let (qa, _) = measure(&hg, &feasible);
        let (qb, _) = measure(&hg, &violating);
        assert!(qa.goodness_key(50, 8) < qb.goodness_key(50, 8));
    }
}
