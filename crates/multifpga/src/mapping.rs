//! Process→FPGA mappings and their feasibility.

use crate::platform::Platform;
use ppn_graph::Partition;
use ppn_model::{ProcessNetwork, ResourceVector};
use serde::{Deserialize, Serialize};

/// A mapping of every process of a network to an FPGA of a platform.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mapping {
    /// `assign[process] = fpga index`.
    pub assign: Vec<u32>,
    /// Number of FPGAs.
    pub k: usize,
}

impl Mapping {
    /// Build from a graph partition (node `i` ↔ process `i`).
    pub fn from_partition(p: &Partition) -> Self {
        assert!(p.is_complete(), "mapping needs a complete partition");
        Mapping {
            assign: p.assignment().to_vec(),
            k: p.k(),
        }
    }

    /// The FPGA of process `i`.
    pub fn fpga_of(&self, process: usize) -> usize {
        self.assign[process] as usize
    }

    /// Aggregate resources per FPGA.
    pub fn resources_per_fpga(&self, net: &ProcessNetwork) -> Vec<ResourceVector> {
        let mut out = vec![ResourceVector::ZERO; self.k];
        for p in net.process_ids() {
            out[self.fpga_of(p.index())] += net.process(p).resources;
        }
        out
    }

    /// Traffic per FPGA pair: summed channel volume crossing `(a, b)`,
    /// indexed `a * k + b` (symmetric, zero diagonal). A multicast
    /// channel's stream leaves the producer's FPGA once per *destination
    /// FPGA*, not once per consumer: the volume is charged on the pair
    /// `(fpga(producer), q)` for each distinct consumer FPGA `q` — the
    /// connectivity-metric charging of `ppn-hyper`. Point-to-point
    /// channels behave exactly as before.
    pub fn traffic_matrix(&self, net: &ProcessNetwork) -> Vec<u64> {
        let mut m = vec![0u64; self.k * self.k];
        let mut charged: Vec<usize> = Vec::new();
        for c in net.channel_ids() {
            let ch = net.channel(c);
            let a = self.fpga_of(ch.from.index());
            charged.clear();
            for consumer in ch.consumers() {
                let b = self.fpga_of(consumer.index());
                if b != a && !charged.contains(&b) {
                    charged.push(b);
                    m[a * self.k + b] += ch.volume;
                    m[b * self.k + a] += ch.volume;
                }
            }
        }
        m
    }

    /// Check the mapping against a platform (full vector resource check,
    /// per-pair bandwidth check against the *sustained* traffic
    /// `volume / horizon`, link-existence check for the topology).
    ///
    /// `horizon` is the number of cycles over which the volumes are
    /// sustained (the application's steady-state period); pass 1 to
    /// compare raw volumes against `bmax` like the paper's tables do.
    pub fn check(&self, net: &ProcessNetwork, platform: &Platform, horizon: u64) -> MappingReport {
        let horizon = horizon.max(1);
        let mut resource_violations = Vec::new();
        let per_fpga = self.resources_per_fpga(net);
        for (i, used) in per_fpga.iter().enumerate() {
            if !used.fits_in(&platform.fpgas[i].capacity) {
                resource_violations.push((i, *used));
            }
        }
        let traffic = self.traffic_matrix(net);
        let mut bandwidth_violations = Vec::new();
        let mut unlinked_pairs = Vec::new();
        for a in 0..self.k {
            for b in (a + 1)..self.k {
                let t = traffic[a * self.k + b];
                if t == 0 {
                    continue;
                }
                if !platform.linked(a, b) {
                    unlinked_pairs.push((a, b, t));
                }
                let sustained = t.div_ceil(horizon);
                if sustained > platform.bmax {
                    bandwidth_violations.push((a, b, sustained));
                }
            }
        }
        MappingReport {
            resource_violations,
            bandwidth_violations,
            unlinked_pairs,
        }
    }
}

/// Outcome of [`Mapping::check`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingReport {
    /// FPGAs whose capacity is exceeded (full resource vectors).
    pub resource_violations: Vec<(usize, ResourceVector)>,
    /// Pairs whose sustained traffic exceeds `bmax`.
    pub bandwidth_violations: Vec<(usize, usize, u64)>,
    /// Pairs that communicate but are not linked in the topology.
    pub unlinked_pairs: Vec<(usize, usize, u64)>,
}

impl MappingReport {
    /// No violations of any kind.
    pub fn is_feasible(&self) -> bool {
        self.resource_violations.is_empty()
            && self.bandwidth_violations.is_empty()
            && self.unlinked_pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::Partition;

    fn net2x2() -> ProcessNetwork {
        let mut n = ProcessNetwork::new();
        let a = n.add_simple_process("a", 300, 1, 10);
        let b = n.add_simple_process("b", 300, 1, 10);
        let c = n.add_simple_process("c", 300, 1, 10);
        let d = n.add_simple_process("d", 300, 1, 10);
        n.add_channel(a, b, 100, 4);
        n.add_channel(b, c, 10, 4);
        n.add_channel(c, d, 100, 4);
        n
    }

    #[test]
    fn feasible_mapping_passes() {
        let net = net2x2();
        let platform = Platform::homogeneous(2, 700, 10);
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let m = Mapping::from_partition(&p);
        let rep = m.check(&net, &platform, 1);
        assert!(rep.is_feasible(), "{rep:?}");
    }

    #[test]
    fn resource_violation_detected() {
        let net = net2x2();
        let platform = Platform::homogeneous(2, 500, 1000);
        let p = Partition::from_assignment(vec![0, 0, 0, 1], 2).unwrap();
        let m = Mapping::from_partition(&p);
        let rep = m.check(&net, &platform, 1);
        assert_eq!(rep.resource_violations.len(), 1);
        assert_eq!(rep.resource_violations[0].0, 0);
    }

    #[test]
    fn bandwidth_violation_detected() {
        let net = net2x2();
        let platform = Platform::homogeneous(2, 700, 50);
        // split across the heavy a-b channel: 100 > 50
        let p = Partition::from_assignment(vec![0, 1, 1, 1], 2).unwrap();
        let m = Mapping::from_partition(&p);
        let rep = m.check(&net, &platform, 1);
        assert_eq!(rep.bandwidth_violations, vec![(0, 1, 100)]);
    }

    #[test]
    fn horizon_scales_sustained_bandwidth() {
        let net = net2x2();
        let platform = Platform::homogeneous(2, 700, 50);
        let p = Partition::from_assignment(vec![0, 1, 1, 1], 2).unwrap();
        let m = Mapping::from_partition(&p);
        // over 2 cycles the sustained rate halves: 100/2 = 50 ≤ 50
        let rep = m.check(&net, &platform, 2);
        assert!(rep.bandwidth_violations.is_empty());
    }

    #[test]
    fn unlinked_pair_detected_on_ring() {
        let net = net2x2();
        let mut platform = Platform::homogeneous(4, 700, 1000);
        platform.topology = crate::platform::Topology::Ring;
        // b→c traffic between fpga 0 and 2, which a 4-ring does not link
        let p = Partition::from_assignment(vec![0, 0, 2, 2], 4).unwrap();
        let m = Mapping::from_partition(&p);
        let rep = m.check(&net, &platform, 1);
        assert_eq!(rep.unlinked_pairs, vec![(0, 2, 10)]);
        assert!(!rep.is_feasible());
    }

    #[test]
    fn multicast_traffic_charged_once_per_boundary() {
        let mut net = ProcessNetwork::new();
        let p = net.add_simple_process("p", 100, 1, 10);
        let a = net.add_simple_process("a", 100, 1, 10);
        let b = net.add_simple_process("b", 100, 1, 10);
        let c = net.add_simple_process("c", 100, 1, 10);
        net.add_multicast_channel(p, &[a, b, c], 60, 4);
        // producer on 0; consumers a,b on 1; c on 2 — two boundaries
        let part = Partition::from_assignment(vec![0, 1, 1, 2], 3).unwrap();
        let m = Mapping::from_partition(&part);
        let t = m.traffic_matrix(&net);
        assert_eq!(t[1], 60, "both consumers on FPGA 1 share one stream");
        assert_eq!(t[2], 60);
        assert_eq!(t[3 + 2], 0, "no traffic between consumer FPGAs");
        // the check path honours the same model
        let platform = Platform::homogeneous(3, 400, 60);
        assert!(m.check(&net, &platform, 1).is_feasible());
    }

    #[test]
    fn traffic_matrix_is_symmetric() {
        let net = net2x2();
        let p = Partition::from_assignment(vec![0, 1, 0, 1], 2).unwrap();
        let m = Mapping::from_partition(&p);
        let t = m.traffic_matrix(&net);
        assert_eq!(t[1], t[2]);
        assert_eq!(t[0], 0);
        // a-b (100) + b-c (10) + c-d (100) all cross
        assert_eq!(t[1], 210);
    }
}
