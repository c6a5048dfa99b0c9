//! The five engines of the workspace, ported onto [`Partitioner`].

use crate::instance::PartitionInstance;
use crate::outcome::{Completion, CostModel, PartitionOutcome, PhaseTiming};
use crate::Partitioner;
use gp_classic::bisect::recursive_bisection;
use gp_classic::kway::{kway_refine, KwayOptions};
use gp_core::{gp_partition_budgeted, GpParams};
use metis_lite::{kway_partition, rb_partition_budgeted, MetisOptions, RbParams};
use ppn_graph::prng::derive_seed;
use ppn_graph::trace;
use ppn_graph::{Budget, Degradation, Partition, Stop};
use ppn_hyper::{hyper_partition_budgeted, HyperParams};

/// Contiguous-fill fallback for budgetless engines (`kway`, `metis`)
/// when their checkpoint refuses the run (`memory` names what the
/// ledger could not fit): a complete, balanced, zero-effort assignment
/// marked degraded.
fn degraded_fill(
    backend: &str,
    inst: &PartitionInstance,
    phase: &str,
    stop: Stop,
    memory: &str,
) -> PartitionOutcome {
    let cause = match stop {
        Stop::Memory => format!("memory budget cannot fit the {memory}"),
        Stop::Deadline => "deadline expired".to_string(),
    };
    let p = Partition::contiguous_balanced(inst.graph.node_weights(), inst.k);
    PartitionOutcome::measure_edge(backend, &inst.graph, p, &inst.constraints, vec![])
        .with_completion(Completion::from_degradation(Some(Degradation::new(
            phase,
            format!("{cause}; contiguous fill over {} nodes", inst.num_nodes()),
        ))))
}

/// Working-set bound for the budgetless flat/multilevel engines: both
/// materialize per-node assignment state and per-edge scratch roughly
/// twice over across their pipeline.
fn flat_bytes_estimate(inst: &PartitionInstance) -> u64 {
    2 * (inst.num_nodes() as u64 * 24 + inst.graph.num_edges() as u64 * 32)
}

/// Trivial outcome for the zero-node instance (every backend shares it:
/// the engines assert non-empty graphs, the contract forbids panics).
fn empty_outcome(backend: &str, inst: &PartitionInstance) -> PartitionOutcome {
    PartitionOutcome::measure_edge(
        backend,
        &inst.graph,
        Partition::unassigned(0, inst.k),
        &inst.constraints,
        vec![],
    )
}

/// The paper's engine: cyclic multilevel k-way GP (`gp-core`).
#[derive(Clone, Debug, Default)]
pub struct GpBackend {
    /// Engine parameters (seed is overridden per run).
    pub params: GpParams,
}

impl Partitioner for GpBackend {
    fn name(&self) -> &'static str {
        "gp"
    }

    fn description(&self) -> &'static str {
        "the paper's cyclic multilevel k-way engine under Rmax/Bmax (gp-core)"
    }

    fn cost_model(&self) -> CostModel {
        CostModel::EdgeCut
    }

    fn run_budgeted(
        &self,
        inst: &PartitionInstance,
        seed: u64,
        budget: &Budget,
    ) -> PartitionOutcome {
        if inst.num_nodes() == 0 {
            return empty_outcome(self.name(), inst);
        }
        let params = self.params.clone().with_seed(seed);
        let r = match gp_partition_budgeted(&inst.graph, inst.k, &inst.constraints, &params, budget)
        {
            Ok(r) => r,
            Err(e) => e.best,
        };
        let timings = vec![
            PhaseTiming::new("coarsen", r.phases.coarsen_s),
            PhaseTiming::new("initial", r.phases.initial_s),
            PhaseTiming::new("refine", r.phases.refine_s),
        ];
        PartitionOutcome::measure_edge(
            self.name(),
            &inst.graph,
            r.partition,
            &inst.constraints,
            timings,
        )
        .with_completion(Completion::from_degradation(r.degraded))
    }
}

/// Constrained multilevel recursive bisection (`metis-lite::rb`).
#[derive(Clone, Debug, Default)]
pub struct RbBackend {
    /// Engine parameters (seed is overridden per run).
    pub params: RbParams,
}

impl Partitioner for RbBackend {
    fn name(&self) -> &'static str {
        "rb"
    }

    fn description(&self) -> &'static str {
        "constrained multilevel recursive bisection with per-side Rmax budgets (metis-lite::rb)"
    }

    fn cost_model(&self) -> CostModel {
        CostModel::EdgeCut
    }

    fn run_budgeted(
        &self,
        inst: &PartitionInstance,
        seed: u64,
        budget: &Budget,
    ) -> PartitionOutcome {
        if inst.num_nodes() == 0 {
            return empty_outcome(self.name(), inst);
        }
        let params = self.params.clone().with_seed(seed);
        let r = match rb_partition_budgeted(&inst.graph, inst.k, &inst.constraints, &params, budget)
        {
            Ok(r) => r,
            Err(e) => e.best,
        };
        let timings = vec![
            PhaseTiming::new("coarsen", r.phases.coarsen_s),
            PhaseTiming::new("bisect", r.phases.initial_s),
            PhaseTiming::new("refine", r.phases.refine_s),
        ];
        PartitionOutcome::measure_edge(
            self.name(),
            &inst.graph,
            r.partition,
            &inst.constraints,
            timings,
        )
        .with_completion(Completion::from_degradation(r.degraded))
    }
}

/// Flat (single-level) recursive bisection + greedy k-way refinement —
/// the classical pipeline of `gp-classic`, without coarsening and
/// without constraint awareness.
#[derive(Clone, Debug)]
pub struct KwayBackend {
    /// Allowed imbalance of each bisection and of the refinement caps.
    pub balance: f64,
    /// Refinement sweeps.
    pub refine_passes: usize,
}

impl Default for KwayBackend {
    fn default() -> Self {
        KwayBackend {
            balance: 1.1,
            refine_passes: 8,
        }
    }
}

impl Partitioner for KwayBackend {
    fn name(&self) -> &'static str {
        "kway"
    }

    fn description(&self) -> &'static str {
        "flat recursive bisection + greedy k-way refinement, balance-only (gp-classic)"
    }

    fn cost_model(&self) -> CostModel {
        CostModel::EdgeCut
    }

    fn run_budgeted(
        &self,
        inst: &PartitionInstance,
        seed: u64,
        budget: &Budget,
    ) -> PartitionOutcome {
        if inst.num_nodes() == 0 {
            return empty_outcome(self.name(), inst);
        }
        let g = &inst.graph;
        let k = inst.k;
        let work = (g.num_edges() as u64).saturating_mul(k as u64);
        if let Err(stop) = budget.checkpoint(self.name(), "bisect", work, flat_bytes_estimate(inst))
        {
            return degraded_fill(self.name(), inst, "bisect", stop, "bisection working set");
        }
        let _run = trace::span("kway", "partition", g.num_nodes() as i64);
        let sp = trace::timed_span("kway", "bisect", k as i64);
        let mut p = recursive_bisection(g, k, self.balance, seed);
        let bisect_s = sp.finish();
        let mut degraded = None;
        let sp = trace::timed_span("kway", "refine", k as i64);
        if budget.checkpoint(self.name(), "refine", 0, 0).is_ok() {
            let mut opts = KwayOptions::balanced(g, k, self.balance);
            opts.max_passes = self.refine_passes;
            opts.seed = derive_seed(seed, 0x4B);
            kway_refine(g, &mut p, &opts);
        } else {
            degraded = Some(Degradation::new(
                "refine",
                "deadline expired after bisection; refinement skipped",
            ));
        }
        let refine_s = sp.finish();
        PartitionOutcome::measure_edge(
            self.name(),
            g,
            p,
            &inst.constraints,
            vec![
                PhaseTiming::new("bisect", bisect_s),
                PhaseTiming::new("refine", refine_s),
            ],
        )
        .with_completion(Completion::from_degradation(degraded))
    }
}

/// The unconstrained METIS-style baseline (`metis-lite`).
#[derive(Clone, Debug, Default)]
pub struct MetisBackend {
    /// Engine options (seed is overridden per run).
    pub options: MetisOptions,
}

impl Partitioner for MetisBackend {
    fn name(&self) -> &'static str {
        "metis"
    }

    fn description(&self) -> &'static str {
        "unconstrained METIS-style multilevel k-way baseline, balance only (metis-lite)"
    }

    fn cost_model(&self) -> CostModel {
        CostModel::EdgeCut
    }

    fn run_budgeted(
        &self,
        inst: &PartitionInstance,
        seed: u64,
        budget: &Budget,
    ) -> PartitionOutcome {
        if inst.num_nodes() > 0 {
            let work = inst.graph.num_edges() as u64;
            let bytes = flat_bytes_estimate(inst);
            if let Err(stop) = budget.checkpoint(self.name(), "kway", work, bytes) {
                return degraded_fill(self.name(), inst, "kway", stop, "hierarchy working set");
            }
            budget.fault_point(self.name(), "kway");
        }
        let sp = trace::timed_span("metis", "total", inst.num_nodes() as i64);
        let r = kway_partition(&inst.graph, inst.k, &self.options.clone().with_seed(seed));
        let total_s = sp.finish();
        PartitionOutcome::measure_edge(
            self.name(),
            &inst.graph,
            r.partition,
            &inst.constraints,
            vec![PhaseTiming::new("total", total_s)],
        )
    }
}

/// The connectivity-metric multilevel hypergraph engine (`ppn-hyper`).
#[derive(Clone, Debug, Default)]
pub struct HyperBackend {
    /// Engine parameters (seed is overridden per run).
    pub params: HyperParams,
}

impl Partitioner for HyperBackend {
    fn name(&self) -> &'static str {
        "hyper"
    }

    fn description(&self) -> &'static str {
        "multilevel connectivity-metric hypergraph engine under Rmax/Bmax (ppn-hyper)"
    }

    fn cost_model(&self) -> CostModel {
        CostModel::Connectivity
    }

    fn run_budgeted(
        &self,
        inst: &PartitionInstance,
        seed: u64,
        budget: &Budget,
    ) -> PartitionOutcome {
        if inst.num_nodes() == 0 {
            return empty_outcome(self.name(), inst);
        }
        let hg = inst.hyper_view();
        let params = self.params.clone().with_seed(seed);
        let sp = trace::timed_span("hyper", "total", inst.num_nodes() as i64);
        let r = match hyper_partition_budgeted(&hg, inst.k, &inst.constraints, &params, budget) {
            Ok(r) => r,
            Err(e) => e.best,
        };
        let total_s = sp.finish();
        PartitionOutcome::measure_conn(
            self.name(),
            &hg,
            r.partition,
            &inst.constraints,
            vec![PhaseTiming::new("total", total_s)],
        )
        .with_completion(Completion::from_degradation(r.degraded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::Constraints;
    use ppn_graph::GraphBuilder;
    use ppn_graph::WeightedGraph;

    fn tiny_instance(k: usize) -> PartitionInstance {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..6).map(|_| g.add_node(4)).collect();
        for i in 0..5 {
            g.add_edge(n[i], n[i + 1], 2).unwrap();
        }
        let c = Constraints::new(24, 24);
        let g = g.build();
        PartitionInstance::from_graph("tiny", g, k, c)
    }

    #[test]
    fn every_backend_completes_the_tiny_instance() {
        let inst = tiny_instance(2);
        for b in crate::registry::backends() {
            let out = b.run(&inst, 11);
            assert!(out.partition.is_complete(), "{}", b.name());
            assert_eq!(out.partition.k(), 2, "{}", b.name());
            assert_eq!(out.backend, b.name());
            assert!(out.feasible, "{} on a trivially feasible chain", b.name());
        }
    }

    #[test]
    fn every_backend_survives_k_greater_than_n() {
        let inst = tiny_instance(9); // 6 nodes, 9 parts
        for b in crate::registry::backends() {
            let out = b.run(&inst, 3);
            assert!(out.partition.is_complete(), "{}", b.name());
            assert_eq!(out.partition.k(), 9, "{}", b.name());
        }
    }

    #[test]
    fn every_backend_survives_the_empty_graph() {
        let inst = PartitionInstance::from_graph(
            "empty",
            WeightedGraph::default(),
            3,
            Constraints::new(5, 5),
        );
        for b in crate::registry::backends() {
            let out = b.run(&inst, 1);
            assert_eq!(out.partition.len(), 0, "{}", b.name());
        }
    }

    #[test]
    fn hyper_backend_uses_the_multicast_view() {
        let net = ppn_gen::multicast_network(&ppn_gen::MulticastSpec::ring(4, 4, 5));
        let inst =
            PartitionInstance::from_network("stars", &net, 2, Constraints::new(10_000, 10_000));
        let hyper = HyperBackend::default().run(&inst, 7);
        let gp = GpBackend::default().run(&inst, 7);
        assert_eq!(hyper.cost.model, CostModel::Connectivity);
        assert_eq!(gp.cost.model, CostModel::EdgeCut);
        // multicast charging can only lower the objective
        assert!(hyper.cost.objective <= gp.cost.objective + inst.graph.total_edge_weight());
    }
}
