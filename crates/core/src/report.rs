//! Result and trace types for the GP partitioner.

use crate::params::MatchingKind;
use ppn_graph::metrics::PartitionQuality;
use ppn_graph::{ConstraintReport, Degradation, Partition};
use serde::{Deserialize, Serialize};

/// Trace of one intermediate-clustering attempt inside one V-cycle —
/// enough to reconstruct the paper's Fig. 1 style multilevel diagram and
/// to audit the goodness-driven selection.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CycleTrace {
    /// V-cycle index (0-based).
    pub cycle: usize,
    /// Intermediate attempt index within the cycle.
    pub attempt: usize,
    /// Node counts of the hierarchy graphs, finest first.
    pub hierarchy_sizes: Vec<usize>,
    /// Winning matching heuristic per level, finest first.
    pub matchings: Vec<MatchingKind>,
    /// Index of the intermediate evaluation level (into
    /// `hierarchy_sizes`).
    pub mid_level: usize,
    /// Goodness key of the candidate at the intermediate level
    /// `(violations, magnitude, cut)` — lower is better.
    pub goodness_at_mid: (u64, u64, u64),
    /// Whether this attempt won the cycle's a-posteriori comparison.
    pub selected: bool,
}

/// Outcome of a GP run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GpResult {
    /// The best k-way partition found.
    pub partition: Partition,
    /// Quality metrics of that partition.
    pub quality: PartitionQuality,
    /// Constraint check against the requested `Rmax`/`Bmax`.
    pub report: ConstraintReport,
    /// True when both constraints hold.
    pub feasible: bool,
    /// V-cycles executed before returning.
    pub cycles_used: usize,
    /// Per-attempt traces.
    pub trace: Vec<CycleTrace>,
    /// Set when a [`Budget`](ppn_graph::Budget) cut the run short and
    /// the partition is best-so-far rather than fully converged.
    #[serde(default)]
    pub degraded: Option<Degradation>,
}

/// The partitioner exhausted its cycle budget without meeting the
/// constraints — the paper's "either impossible or we have to give the
/// tool more time" outcome. The best attempt is carried along.
#[derive(Clone, Debug)]
pub struct GpInfeasible {
    /// Best (least-violating) result found.
    pub best: GpResult,
}

impl std::fmt::Display for GpInfeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "partitioning with these constraints is either impossible or needs more \
             iterations: after {} cycle(s) the best candidate still has {} violation(s) \
             (magnitude {})",
            self.best.cycles_used,
            self.best.report.violation_count(),
            self.best.report.violation_magnitude()
        )
    }
}

impl std::error::Error for GpInfeasible {}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::CutMatrix;

    fn dummy_result(feasible: bool) -> GpResult {
        let partition = Partition::from_assignment(vec![0, 1], 2).unwrap();
        let quality = PartitionQuality {
            total_cut: 5,
            max_local_bandwidth: 5,
            max_resource: 10,
            part_resources: vec![10, 8],
            cut_matrix: CutMatrix::zero(2),
        };
        let report = ConstraintReport {
            rmax: 10,
            bmax: 10,
            resource_violations: if feasible { vec![] } else { vec![(0, 12)] },
            bandwidth_violations: vec![],
        };
        GpResult {
            partition,
            quality,
            report,
            feasible,
            cycles_used: 3,
            trace: vec![],
            degraded: None,
        }
    }

    #[test]
    fn infeasible_message_mentions_paper_wording() {
        let err = GpInfeasible {
            best: dummy_result(false),
        };
        let msg = err.to_string();
        assert!(msg.contains("impossible"));
        assert!(msg.contains("3 cycle(s)"));
        assert!(msg.contains("1 violation(s)"));
    }

    #[test]
    fn result_serialises() {
        let r = dummy_result(true);
        let s = serde_json::to_string(&r).unwrap();
        let back: GpResult = serde_json::from_str(&s).unwrap();
        assert_eq!(back.feasible, r.feasible);
        assert_eq!(back.quality.total_cut, 5);
    }
}
