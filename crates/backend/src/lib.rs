//! # ppn-backend
//!
//! The unified [`Partitioner`] contract over every partitioning engine
//! in the workspace, the registry that makes them interchangeable, and
//! the generated instance families the cross-backend conformance suite
//! runs them on.
//!
//! "High-Quality Hypergraph Partitioning" (Schlag et al.) argues that
//! multiple engines sharing one substrate is what makes quality
//! comparisons meaningful at all. This crate is that shared substrate's
//! front door:
//!
//! * a *problem instance* is a graph — optionally paired with the
//!   multicast hypergraph view of the same network — plus `k` and the
//!   paper's `Rmax`/`Bmax` constraints ([`PartitionInstance`]);
//! * an *outcome* is an assignment, a cost report under the backend's
//!   native cost model, a feasibility verdict with the full constraint
//!   report, and per-phase wall-clock timings ([`PartitionOutcome`]);
//! * a *backend* is anything implementing [`Partitioner`]. Five ship
//!   here ([`registry::backends`]): the paper's cyclic k-way GP
//!   (`gp`), constrained multilevel recursive bisection (`rb`), flat
//!   recursive bisection + greedy k-way refinement (`kway`), the
//!   unconstrained METIS-style baseline (`metis`), and the
//!   connectivity-metric hypergraph engine (`hyper`).
//!
//! Every backend honours the same contract: it never panics on
//! degenerate input (`k > n`, impossible `Rmax`), always returns a
//! complete assignment, and reports a verdict that matches an
//! independent re-check of the returned partition — properties the
//! differential suite in `tests/partitioner_matrix.rs` (repo root)
//! asserts for every backend × instance × seed cell.

pub mod backends;
pub mod batch;
pub mod error;
pub mod instance;
pub mod outcome;
pub mod registry;
pub mod repartition;
pub mod robust;
pub mod suite;

pub use backends::{GpBackend, HyperBackend, KwayBackend, MetisBackend, RbBackend};
pub use batch::{BatchItemResult, BatchSession, BatchSummary};
pub use error::{validate_instance, validate_instance_shape, ExhaustKind, PartitionError};
pub use instance::PartitionInstance;
pub use outcome::{
    Completion, CostModel, CostReport, MigrationReport, PartitionOutcome, PhaseTiming,
};
pub use ppn_graph::{trace, Budget, Degradation, DeltaMap, GraphDelta};
pub use registry::{backend_by_name, backend_names, backends};
pub use repartition::{repartition, RepartitionOptions, RepartitionOutcome};
pub use robust::{robust_partition, validate_chain, BackendAttempt, RobustOutcome};
pub use suite::{
    conformance_matrix, degenerate_matrix, incremental_matrix, infeasible_matrix, reference_verify,
};

use ppn_graph::{Constraints, Stop};

/// A k-way partitioning engine behind the unified contract.
///
/// `run_budgeted` must be total: any [`PartitionInstance`] — including
/// `k > n` and constraint sets no partition can satisfy — yields a
/// complete best-attempt [`PartitionOutcome`], never a panic. The
/// verdict is whatever an independent re-check of the returned
/// partition gives under the backend's [`CostModel`]. The same
/// `(instance, seed)` pair under an unlimited budget must reproduce the
/// identical partition.
///
/// [`partition`](Partitioner::partition) is the hardened front door:
/// it validates the instance first, converts a raised cancel flag into
/// [`PartitionError::BudgetExhausted`], and contains engine panics as
/// [`PartitionError::BackendPanicked`] instead of unwinding into the
/// caller.
pub trait Partitioner {
    /// Registry name (`gp`, `rb`, `kway`, `metis`, `hyper`).
    fn name(&self) -> &'static str;

    /// One-line description for `gp backends` and docs.
    fn description(&self) -> &'static str;

    /// The cost model the outcome's objective and feasibility use.
    fn cost_model(&self) -> CostModel;

    /// Partition the instance with the given seed under a cooperative
    /// [`Budget`]. When the budget expires mid-run the backend returns
    /// its best-so-far assignment with
    /// [`Completion::Degraded`] — it does not error and does not panic.
    fn run_budgeted(
        &self,
        inst: &PartitionInstance,
        seed: u64,
        budget: &Budget,
    ) -> PartitionOutcome;

    /// Partition the instance with the given seed and no budget.
    fn run(&self, inst: &PartitionInstance, seed: u64) -> PartitionOutcome {
        self.run_budgeted(inst, seed, &Budget::unlimited())
    }

    /// The validated, panic-free boundary: reject malformed instances
    /// with [`PartitionError::InvalidInstance`] before the engine sees
    /// them, turn a raised cancel flag into
    /// [`PartitionError::BudgetExhausted`], and catch engine panics as
    /// [`PartitionError::BackendPanicked`].
    fn partition(
        &self,
        inst: &PartitionInstance,
        seed: u64,
        budget: &Budget,
    ) -> Result<PartitionOutcome, PartitionError> {
        validate_instance(inst)?;
        if budget.cancelled() {
            return Err(PartitionError::BudgetExhausted {
                backend: self.name().to_string(),
                phase: "start".to_string(),
                kind: error::ExhaustKind::Cancelled,
            });
        }
        // Pre-flight the memory ledger before the engine allocates
        // anything: a ledger that cannot admit even one byte per node
        // cannot hold an assignment vector, let alone a hierarchy. (An
        // expired deadline is the engine's to degrade, and the engine's
        // own checkpoints are the alloc-fault sites.)
        if budget.admits(0, inst.num_nodes() as u64) == Err(Stop::Memory) {
            return Err(PartitionError::BudgetExhausted {
                backend: self.name().to_string(),
                phase: "start".to_string(),
                kind: error::ExhaustKind::Memory,
            });
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run_budgeted(inst, seed, budget)
        }));
        match result {
            Ok(outcome) => {
                if budget.cancelled() {
                    return Err(PartitionError::BudgetExhausted {
                        backend: self.name().to_string(),
                        phase: "finish".to_string(),
                        kind: error::ExhaustKind::Cancelled,
                    });
                }
                Ok(outcome)
            }
            Err(payload) => Err(PartitionError::BackendPanicked {
                backend: self.name().to_string(),
                message: panic_message(payload.as_ref()),
            }),
        }
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Convenience: resolve a backend by name and run it (legacy untyped
/// path; `run` is total, so resolution is the only failure mode).
pub fn run_backend(
    name: &str,
    inst: &PartitionInstance,
    seed: u64,
) -> Result<PartitionOutcome, PartitionError> {
    let b = backend_by_name(name).ok_or_else(|| PartitionError::UnknownBackend {
        name: name.to_string(),
        available: backend_names().iter().map(|s| s.to_string()).collect(),
    })?;
    Ok(b.run(inst, seed))
}

/// The constraints every backend treats as "effectively unconstrained"
/// in doc examples and smoke tests.
pub fn generous_constraints(inst: &PartitionInstance) -> Constraints {
    Constraints::new(
        inst.graph.total_node_weight().max(1),
        inst.graph.total_edge_weight().max(1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_gen::community_graph;

    #[test]
    fn run_backend_resolves_and_rejects() {
        let g = community_graph(2, 6, 1, 8, 1, 5);
        let c = Constraints::new(g.total_node_weight(), g.total_edge_weight());
        let inst = PartitionInstance::from_graph("t", g, 2, c);
        let out = run_backend("gp", &inst, 7).unwrap();
        assert!(out.partition.is_complete());
        assert!(run_backend("nope", &inst, 7).is_err());
    }
}
