//! The unified result type every backend returns.

use ppn_graph::metrics::PartitionQuality;
use ppn_graph::{ConstraintReport, Constraints, Partition, WeightedGraph};
use ppn_hyper::Hypergraph;
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

/// What every backend returns: assignment, cost, verdict. Everything in
/// it is determined by the instance and seed, so equal runs compare
/// equal; phase timings live in the run's trace session.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
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
}

impl PartitionOutcome {
    /// Measure `p` on the edge-cut model and assemble the outcome.
    pub fn measure_edge(backend: &str, g: &WeightedGraph, p: Partition, c: &Constraints) -> Self {
        let q = PartitionQuality::measure(g, &p);
        Self::from_quality(backend, p, CostModel::EdgeCut, q, None, c)
    }

    /// Measure `p` on the connectivity model and assemble the outcome.
    pub fn measure_conn(backend: &str, hg: &Hypergraph, p: Partition, c: &Constraints) -> Self {
        let (q, cut_nets) = ppn_hyper::measure(hg, &p);
        Self::from_quality(backend, p, CostModel::Connectivity, q, Some(cut_nets), c)
    }

    /// Assemble the outcome of `p` from its quality `q` under `model`
    /// (`cut_nets` is the connectivity model's cut-net count), for a
    /// caller that already holds `q` exactly: the cost report reads
    /// `q`, and the constraint report is `c`'s check of it.
    pub fn from_quality(
        backend: &str,
        p: Partition,
        model: CostModel,
        q: PartitionQuality,
        cut_nets: Option<usize>,
        c: &Constraints,
    ) -> Self {
        let report = c.check_quality(&q);
        let feasible = report.is_feasible();
        PartitionOutcome {
            backend: backend.to_string(),
            partition: p,
            cost: CostReport {
                model,
                objective: q.total_cut,
                cut_nets,
                max_resource: q.max_resource,
                max_local_bandwidth: q.max_local_bandwidth,
                part_resources: q.part_resources,
                migration: None,
            },
            report,
            feasible,
            completion: Completion::Full,
        }
    }

    /// Mark this outcome with how far the run got (builder style).
    pub fn with_completion(mut self, completion: Completion) -> Self {
        self.completion = completion;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::GraphBuilder;

    fn square() -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(10)).collect();
        g.add_edge(n[0], n[1], 3).unwrap();
        g.add_edge(n[1], n[2], 5).unwrap();
        g.add_edge(n[2], n[3], 3).unwrap();
        g.add_edge(n[3], n[0], 5).unwrap();
        g.build()
    }

    #[test]
    fn edge_outcome_measures_and_checks() {
        let g = square();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let c = Constraints::new(20, 10);
        let out = PartitionOutcome::measure_edge("gp", &g, p, &c);
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
        let out = PartitionOutcome::measure_conn("hyper", &hg, p, &c);
        assert_eq!(out.cost.objective, 7);
        assert_eq!(out.cost.cut_nets, Some(1));
        assert!(out.feasible);
    }

    #[test]
    fn verdict_matches_report() {
        let g = square();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let c = Constraints::new(15, 10); // each part weighs 20 > 15
        let out = PartitionOutcome::measure_edge("gp", &g, p, &c);
        assert!(!out.feasible);
        assert_eq!(out.report.resource_violations.len(), 2);
    }

    #[test]
    fn outcome_serialises() {
        let g = square();
        let p = Partition::from_assignment(vec![0, 1, 0, 1], 2).unwrap();
        let c = Constraints::new(20, 100);
        let out = PartitionOutcome::measure_edge("kway", &g, p, &c);
        let s = serde_json::to_string(&out).unwrap();
        let back: PartitionOutcome = serde_json::from_str(&s).unwrap();
        assert_eq!(out, back);
    }
}
