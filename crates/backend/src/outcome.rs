//! The unified result type every backend returns.

use ppn_graph::metrics::PartitionQuality;
use ppn_graph::{ConstraintReport, Constraints, Partition, WeightedGraph};
use ppn_hyper::{HyperQuality, Hypergraph};
use serde::{Deserialize, Serialize};

/// Which objective a backend optimises and reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CostModel {
    /// Total weighted edge cut; pairwise bandwidth charges each cut
    /// edge once (graph engines).
    EdgeCut,
    /// `Σ w(e)·(λ(e) − 1)`; a multicast net's bandwidth is charged once
    /// per spanned boundary (the hypergraph engine).
    Connectivity,
}

impl std::fmt::Display for CostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostModel::EdgeCut => write!(f, "edge-cut"),
            CostModel::Connectivity => write!(f, "connectivity"),
        }
    }
}

/// Cut-vs-migration trade-off of an incremental repartition: how much
/// of the deployment had to move relative to the previous assignment.
/// All integer so the report stays `Eq` and bit-deterministic; the
/// fraction is derived on demand.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// Node weight placed off its previous (projected) part.
    pub mass: u64,
    /// Total node weight of the repartitioned graph (the fraction's
    /// denominator).
    pub total: u64,
}

impl MigrationReport {
    /// Migrated fraction of the total node weight, in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.mass as f64 / self.total as f64
        }
    }
}

/// The cost side of an outcome — the row a comparison table prints.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostReport {
    /// Cost model of `objective` and the bandwidth entries.
    pub model: CostModel,
    /// Edge cut ([`CostModel::EdgeCut`]) or connectivity cost
    /// ([`CostModel::Connectivity`]).
    pub objective: u64,
    /// Nets spanning more than one part (connectivity model only).
    pub cut_nets: Option<usize>,
    /// Largest per-part resource usage (what `Rmax` bounds).
    pub max_resource: u64,
    /// Largest pairwise traffic under the model (what `Bmax` bounds).
    pub max_local_bandwidth: u64,
    /// Per-part resource usage.
    pub part_resources: Vec<u64>,
    /// Migration cost relative to a previous assignment; populated by
    /// `repartition`, absent on from-scratch runs (and on outcomes
    /// serialised before the service layer existed).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub migration: Option<MigrationReport>,
}

/// Whether a backend ran to completion or returned best-so-far because
/// a [`Budget`](ppn_graph::Budget) cut it short. Degraded outcomes are
/// still complete, valid assignments — only their quality is reduced.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Completion {
    /// Every phase ran to its configured fixed point.
    #[default]
    Full,
    /// A phase stopped early; the assignment is the best one available
    /// at that point.
    Degraded {
        /// The phase that was cut short (`coarsen`, `initial`, `refine`).
        phase: String,
        /// Why it stopped (`deadline expired`, `memory budget …`).
        reason: String,
    },
}

impl Completion {
    /// Build from an engine's optional degradation record.
    pub fn from_degradation(d: Option<ppn_graph::Degradation>) -> Self {
        match d {
            Some(d) => Completion::Degraded {
                phase: d.phase,
                reason: d.reason,
            },
            None => Completion::Full,
        }
    }

    /// True when the run was cut short.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Completion::Degraded { .. })
    }
}

/// One named phase timing (seconds). Timings are measured wall-clock —
/// never compare them across runs. Since the trace subsystem landed,
/// every backend populates these rows from the same `timed_span` /
/// span-derived sites that feed `ppn_graph::trace`; this struct is the
/// serde-stable view of those spans, kept so CLI/JSON output is
/// unchanged.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase name (`coarsen`, `initial`, `refine`, `total`, …).
    pub phase: String,
    /// Wall-clock seconds.
    pub seconds: f64,
}

impl PhaseTiming {
    /// Construct a timing row.
    pub fn new(phase: &str, seconds: f64) -> Self {
        PhaseTiming {
            phase: phase.to_string(),
            seconds,
        }
    }
}

/// What every backend returns: assignment, cost, verdict, timings.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PartitionOutcome {
    /// Registry name of the backend that produced this.
    pub backend: String,
    /// The complete k-way assignment (best attempt when infeasible).
    pub partition: Partition,
    /// Cost report under the backend's native model.
    pub cost: CostReport,
    /// Constraint check of `partition` against the instance's
    /// `Rmax`/`Bmax` under the same model.
    pub report: ConstraintReport,
    /// True when `report` has no violations.
    pub feasible: bool,
    /// Full run vs budget-degraded best-so-far (defaults to `Full` for
    /// outcomes serialised before budgets existed).
    #[serde(default)]
    pub completion: Completion,
    /// Per-phase wall-clock timings.
    pub timings: Vec<PhaseTiming>,
}

impl PartitionOutcome {
    /// Measure `p` on the edge-cut model and assemble the outcome.
    pub fn measure_edge(
        backend: &str,
        g: &WeightedGraph,
        p: Partition,
        c: &Constraints,
        timings: Vec<PhaseTiming>,
    ) -> Self {
        let q = PartitionQuality::measure(g, &p);
        let report = c.check_quality(&q);
        let feasible = report.is_feasible();
        PartitionOutcome {
            backend: backend.to_string(),
            partition: p,
            cost: CostReport {
                model: CostModel::EdgeCut,
                objective: q.total_cut,
                cut_nets: None,
                max_resource: q.max_resource,
                max_local_bandwidth: q.max_local_bandwidth,
                part_resources: q.part_resources,
                migration: None,
            },
            report,
            feasible,
            completion: Completion::Full,
            timings,
        }
    }

    /// Measure `p` on the connectivity model and assemble the outcome.
    pub fn measure_conn(
        backend: &str,
        hg: &Hypergraph,
        p: Partition,
        c: &Constraints,
        timings: Vec<PhaseTiming>,
    ) -> Self {
        let q = HyperQuality::measure(hg, &p);
        let report = q.check(c);
        let feasible = report.is_feasible();
        PartitionOutcome {
            backend: backend.to_string(),
            partition: p,
            cost: CostReport {
                model: CostModel::Connectivity,
                objective: q.connectivity_cost,
                cut_nets: Some(q.cut_nets),
                max_resource: q.max_resource,
                max_local_bandwidth: q.max_local_bandwidth,
                part_resources: q.part_resources,
                migration: None,
            },
            report,
            feasible,
            completion: Completion::Full,
            timings,
        }
    }

    /// Mark this outcome with how far the run got (builder style).
    pub fn with_completion(mut self, completion: Completion) -> Self {
        self.completion = completion;
        self
    }

    /// Summed seconds over all phases (the `total` row when present,
    /// otherwise the sum of what was recorded).
    pub fn total_seconds(&self) -> f64 {
        if let Some(t) = self.timings.iter().find(|t| t.phase == "total") {
            return t.seconds;
        }
        self.timings.iter().map(|t| t.seconds).sum()
    }

    /// Determinism comparison: everything except the timings.
    pub fn same_result(&self, other: &Self) -> bool {
        self.backend == other.backend
            && self.partition == other.partition
            && self.cost == other.cost
            && self.report == other.report
            && self.feasible == other.feasible
            && self.completion == other.completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(10)).collect();
        g.add_edge(n[0], n[1], 3).unwrap();
        g.add_edge(n[1], n[2], 5).unwrap();
        g.add_edge(n[2], n[3], 3).unwrap();
        g.add_edge(n[3], n[0], 5).unwrap();
        g
    }

    #[test]
    fn edge_outcome_measures_and_checks() {
        let g = square();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let c = Constraints::new(20, 10);
        let out = PartitionOutcome::measure_edge("gp", &g, p, &c, vec![]);
        assert_eq!(out.cost.objective, 10); // edges 1-2 and 3-0
        assert_eq!(out.cost.max_resource, 20);
        assert!(out.feasible);
        assert_eq!(out.cost.model, CostModel::EdgeCut);
        assert_eq!(out.cost.cut_nets, None);
    }

    #[test]
    fn conn_outcome_charges_once_per_boundary() {
        let mut b = ppn_hyper::HypergraphBuilder::new();
        let hub = b.add_node(10);
        let l1 = b.add_node(10);
        let l2 = b.add_node(10);
        b.add_net(7, &[hub, l1, l2]);
        let hg = b.build();
        let p = Partition::from_assignment(vec![0, 1, 1], 2).unwrap();
        let c = Constraints::new(25, 7);
        let out = PartitionOutcome::measure_conn("hyper", &hg, p, &c, vec![]);
        assert_eq!(out.cost.objective, 7);
        assert_eq!(out.cost.cut_nets, Some(1));
        assert!(out.feasible);
    }

    #[test]
    fn verdict_matches_report() {
        let g = square();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let c = Constraints::new(15, 10); // each part weighs 20 > 15
        let out = PartitionOutcome::measure_edge("gp", &g, p, &c, vec![]);
        assert!(!out.feasible);
        assert_eq!(out.report.resource_violations.len(), 2);
    }

    #[test]
    fn same_result_ignores_timings() {
        let g = square();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let c = Constraints::new(20, 10);
        let a = PartitionOutcome::measure_edge("gp", &g, p.clone(), &c, vec![]);
        let b =
            PartitionOutcome::measure_edge("gp", &g, p, &c, vec![PhaseTiming::new("total", 1.0)]);
        assert!(a.same_result(&b));
        assert_eq!(b.total_seconds(), 1.0);
        assert_eq!(a.total_seconds(), 0.0);
    }

    #[test]
    fn outcome_serialises() {
        let g = square();
        let p = Partition::from_assignment(vec![0, 1, 0, 1], 2).unwrap();
        let c = Constraints::new(20, 100);
        let out = PartitionOutcome::measure_edge("kway", &g, p, &c, vec![]);
        let s = serde_json::to_string(&out).unwrap();
        let back: PartitionOutcome = serde_json::from_str(&s).unwrap();
        assert!(out.same_result(&back));
    }
}
