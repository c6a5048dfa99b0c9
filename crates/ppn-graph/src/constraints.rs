//! Hard mapping constraints and feasibility reporting.
//!
//! The paper's novel contribution is *checking* partitions against two
//! platform limits at once:
//!
//! * `rmax` — resources available on one FPGA (per-part node-weight sum);
//! * `bmax` — bandwidth of the link between any two FPGAs (per-pair cut).

use crate::graph::WeightedGraph;
use crate::metrics::{CutMatrix, PartitionQuality};
use crate::partition::Partition;
use serde::{Deserialize, Serialize};

/// The two hard constraints of the mapping problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Constraints {
    /// Maximum resources per part (per FPGA), `Rmax` in the paper.
    pub rmax: u64,
    /// Maximum bandwidth between any pair of parts, `Bmax` in the paper.
    pub bmax: u64,
}

impl Constraints {
    /// Construct a constraint set.
    pub fn new(rmax: u64, bmax: u64) -> Self {
        Constraints { rmax, bmax }
    }

    /// Effectively unconstrained (both limits at `u64::MAX`); turns the
    /// constrained partitioner into a plain cut minimiser.
    pub fn unconstrained() -> Self {
        Constraints {
            rmax: u64::MAX,
            bmax: u64::MAX,
        }
    }

    /// Quick necessary-condition check: no single node may exceed `rmax`,
    /// and total weight must fit into `k * rmax`.
    pub fn admits(&self, g: &WeightedGraph, k: usize) -> bool {
        g.max_node_weight() <= self.rmax
            && g.total_node_weight() <= self.rmax.saturating_mul(k as u64)
    }

    /// Resource budget of a subproblem that will eventually hold
    /// `parts` final parts: `parts × Rmax`, saturating. Recursive
    /// bisection splits its `Rmax` budget with this — a side destined to
    /// become `parts` FPGAs may weigh at most this much and still admit
    /// a feasible completion.
    pub fn resource_budget(&self, parts: usize) -> u64 {
        self.rmax.saturating_mul(parts as u64)
    }

    /// Evaluate a partition, producing a full report.
    pub fn check(&self, g: &WeightedGraph, p: &Partition) -> ConstraintReport {
        let quality = PartitionQuality::measure(g, p);
        self.check_quality(&quality)
    }

    /// Evaluate a pre-measured quality record.
    pub fn check_quality(&self, quality: &PartitionQuality) -> ConstraintReport {
        let resource_violations: Vec<(usize, u64)> = quality
            .part_resources
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r > self.rmax)
            .map(|(i, &r)| (i, r))
            .collect();
        let bandwidth_violations = quality.cut_matrix.violations(self.bmax);
        ConstraintReport {
            rmax: self.rmax,
            bmax: self.bmax,
            resource_violations,
            bandwidth_violations,
        }
    }

    /// True when the partition satisfies both constraints.
    pub fn is_feasible(&self, g: &WeightedGraph, p: &Partition) -> bool {
        self.check(g, p).is_feasible()
    }

    /// Violation magnitude of a cut matrix + part weights against these
    /// constraints (0 when feasible). Used by goodness ordering.
    pub fn violation_magnitude(&self, cut: &CutMatrix, part_weights: &[u64]) -> u64 {
        let bw = cut.violation_magnitude(self.bmax);
        let res: u64 = part_weights
            .iter()
            .filter(|&&r| r > self.rmax)
            .map(|&r| r - self.rmax)
            .sum();
        bw + res
    }
}

/// Outcome of checking a partition against [`Constraints`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstraintReport {
    /// The `Rmax` the check was performed against.
    pub rmax: u64,
    /// The `Bmax` the check was performed against.
    pub bmax: u64,
    /// Parts whose resource usage exceeds `rmax`, as `(part, usage)`.
    pub resource_violations: Vec<(usize, u64)>,
    /// Part pairs whose traffic exceeds `bmax`, as `(a, b, traffic)`.
    pub bandwidth_violations: Vec<(usize, usize, u64)>,
}

impl ConstraintReport {
    /// True when no constraint is violated.
    pub fn is_feasible(&self) -> bool {
        self.resource_violations.is_empty() && self.bandwidth_violations.is_empty()
    }

    /// Number of violated constraints (parts + pairs).
    pub fn violation_count(&self) -> usize {
        self.resource_violations.len() + self.bandwidth_violations.len()
    }

    /// Total amount by which constraints are exceeded.
    pub fn violation_magnitude(&self) -> u64 {
        let r: u64 = self
            .resource_violations
            .iter()
            .map(|&(_, u)| u - self.rmax)
            .sum();
        let b: u64 = self
            .bandwidth_violations
            .iter()
            .map(|&(_, _, t)| t - self.bmax)
            .sum();
        r + b
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        if self.is_feasible() {
            "feasible".to_string()
        } else {
            format!(
                "INFEASIBLE: {} resource violation(s), {} bandwidth violation(s), magnitude {}",
                self.resource_violations.len(),
                self.bandwidth_violations.len(),
                self.violation_magnitude()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ids::NodeId;

    fn star() -> WeightedGraph {
        // hub 0 (weight 50), leaves 1..=4 (weight 10), edges weight 8
        let mut g = GraphBuilder::new();
        let hub = g.add_node(50);
        for _ in 0..4 {
            let leaf = g.add_node(10);
            g.add_edge(hub, leaf, 8).unwrap();
        }
        g.build()
    }

    #[test]
    fn feasible_partition_reports_clean() {
        let g = star();
        // hub alone, leaves together: cut = 32, pairwise = 32
        let p = Partition::from_assignment(vec![0, 1, 1, 1, 1], 2).unwrap();
        let c = Constraints::new(50, 32);
        let rep = c.check(&g, &p);
        assert!(rep.is_feasible());
        assert_eq!(rep.violation_count(), 0);
        assert_eq!(rep.violation_magnitude(), 0);
        assert_eq!(rep.summary(), "feasible");
    }

    #[test]
    fn bandwidth_violation_detected() {
        let g = star();
        let p = Partition::from_assignment(vec![0, 1, 1, 1, 1], 2).unwrap();
        let c = Constraints::new(100, 31);
        let rep = c.check(&g, &p);
        assert!(!rep.is_feasible());
        assert_eq!(rep.bandwidth_violations, vec![(0, 1, 32)]);
        assert_eq!(rep.violation_magnitude(), 1);
        assert!(rep.summary().contains("INFEASIBLE"));
    }

    #[test]
    fn resource_violation_detected() {
        let g = star();
        let p = Partition::from_assignment(vec![0, 0, 1, 1, 1], 2).unwrap();
        // part 0 weighs 60
        let c = Constraints::new(59, 1000);
        let rep = c.check(&g, &p);
        assert_eq!(rep.resource_violations, vec![(0, 60)]);
        assert_eq!(rep.violation_magnitude(), 1);
    }

    #[test]
    fn admits_rejects_oversized_nodes() {
        let g = star();
        assert!(!Constraints::new(40, 10).admits(&g, 4)); // hub is 50
        assert!(Constraints::new(50, 10).admits(&g, 2)); // 90 total <= 100
        assert!(!Constraints::new(50, 10).admits(&g, 1)); // 90 > 50
    }

    #[test]
    fn resource_budget_scales_and_saturates() {
        let c = Constraints::new(40, 10);
        assert_eq!(c.resource_budget(1), 40);
        assert_eq!(c.resource_budget(3), 120);
        assert_eq!(Constraints::unconstrained().resource_budget(2), u64::MAX);
    }

    #[test]
    fn unconstrained_always_feasible() {
        let g = star();
        let p = Partition::from_assignment(vec![0, 1, 0, 1, 0], 2).unwrap();
        assert!(Constraints::unconstrained().is_feasible(&g, &p));
    }

    #[test]
    fn violation_magnitude_combines_both() {
        let g = star();
        let p = Partition::from_assignment(vec![0, 1, 1, 1, 1], 2).unwrap();
        let cut = CutMatrix::compute(&g, &p);
        let weights = p.part_weights(g.node_weights());
        let c = Constraints::new(45, 30); // res 50 > 45 (by 5), bw 32 > 30 (by 2)
        assert_eq!(c.violation_magnitude(&cut, &weights), 7);
    }

    #[test]
    fn report_is_serialisable() {
        let g = star();
        let p = Partition::from_assignment(vec![0, 1, 1, 1, 1], 2).unwrap();
        let rep = Constraints::new(50, 32).check(&g, &p);
        let s = serde_json::to_string(&rep).unwrap();
        let back: ConstraintReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back, rep);
    }

    #[test]
    fn check_ignores_unassigned() {
        let g = star();
        let mut p = Partition::unassigned(5, 2);
        p.assign(NodeId(0), 0);
        let rep = Constraints::new(50, 8).check(&g, &p);
        assert!(rep.is_feasible());
    }
}
