//! The registry-level fallback driver: try an ordered list of backends
//! until one answers.
//!
//! [`robust_partition`] is what a caller who wants *an* answer — not a
//! particular engine's answer — uses: it walks the backend list in
//! order, running each through the hardened
//! [`Partitioner::partition`](crate::Partitioner::partition) boundary
//! (validation, cancel handling, panic containment), and returns the
//! first outcome together with a ledger of every attempt. A backend
//! that panics (say, under fault injection) or errors is recorded and
//! the next one is tried; only when every backend fails does the driver
//! itself fail.
//!
//! Validation runs once up front: a malformed instance fails fast with
//! [`PartitionError::InvalidInstance`] rather than being rejected k
//! times in a row.

use crate::error::{validate_instance, ExhaustKind, PartitionError};
use crate::instance::PartitionInstance;
use crate::outcome::PartitionOutcome;
use crate::registry::backend_by_name;
use ppn_graph::{trace, Budget};
use std::time::Instant;

/// One entry of the fallback ledger: which backend was tried and how it
/// went.
#[derive(Clone, Debug)]
pub struct BackendAttempt {
    /// Registry name of the backend.
    pub backend: String,
    /// `None` when this backend produced the returned outcome; the
    /// error it failed with otherwise.
    pub error: Option<PartitionError>,
    /// Wall-clock seconds this attempt ran, successful or not.
    pub seconds: f64,
}

/// The result of [`robust_partition`]: the first successful outcome
/// plus the full attempt ledger (failed attempts first, the winning one
/// last).
#[derive(Clone, Debug)]
pub struct RobustOutcome {
    /// Outcome of the backend that answered.
    pub outcome: PartitionOutcome,
    /// Name of the backend that answered.
    pub served_by: String,
    /// Every attempt in order, the successful one included.
    pub attempts: Vec<BackendAttempt>,
}

impl RobustOutcome {
    /// True when at least one earlier backend failed before the answer.
    pub fn fell_back(&self) -> bool {
        self.attempts.len() > 1
    }
}

/// The default fallback order: the paper's engine first, then the
/// constrained recursive-bisection alternative, then the unconstrained
/// baseline that always produces *some* balanced assignment.
pub const DEFAULT_FALLBACK_CHAIN: &[&str] = &["gp", "rb", "metis"];

/// Resolve every name of a fallback chain up front, naming the first
/// entry that does not exist. A chain is configuration, not data: an
/// unknown backend in position 3 must fail before position 1 burns its
/// attempt, not at attempt time (callers would otherwise see the typo
/// only on the day the earlier backends happen to fail).
pub fn validate_chain(chain: &[&str]) -> Result<(), PartitionError> {
    for &name in chain {
        if backend_by_name(name).is_none() {
            return Err(PartitionError::UnknownBackend {
                name: name.to_string(),
                available: crate::registry::backend_names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            });
        }
    }
    Ok(())
}

/// Run `inst` through `chain` (backend names, in fallback order; empty
/// means [`DEFAULT_FALLBACK_CHAIN`]) under one shared `budget`. Returns
/// the first backend's outcome that survives the hardened boundary,
/// along with the attempt ledger. When the whole chain fails and a
/// memory-kind [`PartitionError::BudgetExhausted`] was among the
/// failures, the chain is retried once with
/// [`Budget::with_reduced_footprint`] configs (fewer restarts, serial
/// refinement, narrower recursion) — those shed attempts appear in the
/// ledger as `{name}+reduced`. Fails with:
///
/// * [`PartitionError::InvalidInstance`] — the instance is malformed
///   (checked once, before any backend runs);
/// * [`PartitionError::UnknownBackend`] — a name in `chain` does not
///   resolve (configuration error, fail fast);
/// * [`PartitionError::BudgetExhausted`] — the cancel flag was raised
///   (memory-kind exhaustions are recorded and the chain continues);
/// * [`PartitionError::AllBackendsFailed`] — every backend errored,
///   reduced-footprint retries included.
pub fn robust_partition(
    inst: &PartitionInstance,
    seed: u64,
    budget: &Budget,
    chain: &[&str],
) -> Result<RobustOutcome, PartitionError> {
    validate_instance(inst)?;
    let chain = if chain.is_empty() {
        DEFAULT_FALLBACK_CHAIN
    } else {
        chain
    };
    validate_chain(chain)?;
    let mut attempts: Vec<BackendAttempt> = Vec::with_capacity(chain.len());
    let _chain_sp = trace::span("robust", "chain", chain.len() as i64);
    if let Some(r) = run_chain(inst, seed, budget, chain, &mut attempts, "")? {
        return Ok(r);
    }
    // Every backend failed. When memory exhaustion was implicated,
    // retry the chain once under reduced-footprint configs before
    // giving up: a run that could not fit its full working set may
    // well fit a slimmer one.
    let memory_implicated = attempts.iter().any(|a| {
        matches!(
            a.error,
            Some(PartitionError::BudgetExhausted {
                kind: ExhaustKind::Memory,
                ..
            })
        )
    });
    if memory_implicated && !budget.cancelled() {
        trace::instant("robust", "reduced_footprint_retry", attempts.len() as i64);
        let reduced = budget.clone().with_reduced_footprint();
        if let Some(r) = run_chain(inst, seed, &reduced, chain, &mut attempts, "+reduced")? {
            return Ok(r);
        }
    }
    Err(PartitionError::AllBackendsFailed {
        attempts: attempts
            .into_iter()
            .map(|a| {
                (
                    a.backend,
                    a.error.map(|e| e.to_string()).unwrap_or_default(),
                )
            })
            .collect(),
    })
}

/// One walk of the fallback chain under `budget`. Returns the first
/// surviving outcome (with the full ledger, `suffix` appended to this
/// pass's entry names), `None` when every backend failed, or an error
/// for unknown names and cancellation.
fn run_chain(
    inst: &PartitionInstance,
    seed: u64,
    budget: &Budget,
    chain: &[&str],
    attempts: &mut Vec<BackendAttempt>,
    suffix: &str,
) -> Result<Option<RobustOutcome>, PartitionError> {
    for (idx, &name) in chain.iter().enumerate() {
        let backend = backend_by_name(name).ok_or_else(|| PartitionError::UnknownBackend {
            name: name.to_string(),
            available: crate::registry::backend_names()
                .iter()
                .map(|s| s.to_string())
                .collect(),
        })?;
        let att_sp = trace::span("robust", backend.name(), idx as i64);
        let start = Instant::now();
        let result = backend.partition(inst, seed, budget);
        let seconds = start.elapsed().as_secs_f64();
        drop(att_sp);
        match result {
            Ok(outcome) => {
                let served_by = outcome.backend.clone();
                trace::instant("robust", "served", idx as i64);
                attempts.push(BackendAttempt {
                    backend: format!("{name}{suffix}"),
                    error: None,
                    seconds,
                });
                return Ok(Some(RobustOutcome {
                    outcome,
                    served_by,
                    attempts: std::mem::take(attempts),
                }));
            }
            // Cancellation is the caller saying "stop": do not burn the
            // rest of the chain on an answer nobody wants. Memory
            // exhaustion is different — another backend (or a slimmer
            // config) may still fit, so it is recorded and the walk
            // continues.
            Err(
                e @ PartitionError::BudgetExhausted {
                    kind: ExhaustKind::Cancelled,
                    ..
                },
            ) => return Err(e),
            Err(e) => {
                trace::instant_label("robust", "attempt_failed", idx as i64, &e.to_string());
                trace::counter("robust", "fallback_attempts", 1);
                attempts.push(BackendAttempt {
                    backend: format!("{name}{suffix}"),
                    error: Some(e),
                    seconds,
                });
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::GraphBuilder;
    use ppn_graph::{Constraints, WeightedGraph};

    fn chain_graph(n: usize) -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(4)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 2).unwrap();
        }
        g.build()
    }

    fn inst(k: usize) -> PartitionInstance {
        PartitionInstance::from_graph("t", chain_graph(8), k, Constraints::new(32, 32))
    }

    #[test]
    fn first_backend_serves_when_healthy() {
        let r = robust_partition(&inst(2), 7, &Budget::unlimited(), &[]).unwrap();
        assert_eq!(r.served_by, "gp");
        assert!(!r.fell_back());
        assert!(r.outcome.partition.is_complete());
    }

    #[test]
    fn invalid_instance_fails_before_any_backend() {
        let bad = inst(0);
        let err = robust_partition(&bad, 7, &Budget::unlimited(), &[]).unwrap_err();
        assert!(matches!(err, PartitionError::InvalidInstance { .. }));
    }

    #[test]
    fn unknown_backend_in_chain_is_a_config_error() {
        let err = robust_partition(&inst(2), 7, &Budget::unlimited(), &["gp2"]).unwrap_err();
        assert!(matches!(err, PartitionError::UnknownBackend { .. }));
    }

    #[test]
    fn unknown_backend_mid_chain_fails_before_any_attempt() {
        // "gp" would answer immediately — but the chain as configured is
        // broken, and that must surface up front, naming the bad entry
        let err =
            robust_partition(&inst(2), 7, &Budget::unlimited(), &["gp", "tpyo", "rb"]).unwrap_err();
        match err {
            PartitionError::UnknownBackend { name, .. } => assert_eq!(name, "tpyo"),
            other => panic!("expected UnknownBackend, got {other:?}"),
        }
        assert!(validate_chain(&["gp", "rb", "metis"]).is_ok());
        assert!(matches!(
            validate_chain(&["rb", "nope"]).unwrap_err(),
            PartitionError::UnknownBackend { .. }
        ));
    }

    #[test]
    fn cancelled_budget_is_a_hard_error() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(true));
        let budget = Budget::unlimited().with_cancel(flag);
        let err = robust_partition(&inst(2), 7, &budget, &[]).unwrap_err();
        assert!(matches!(err, PartitionError::BudgetExhausted { .. }));
    }

    #[test]
    fn memory_exhaustion_walks_chain_and_retries_reduced() {
        // A 4-byte ledger cannot admit even the assignment vector, so
        // every backend fails memory-kind at the boundary; the driver
        // must walk the whole chain, retry it reduced, and only then
        // give up — never short-circuit like cancellation does.
        let budget = Budget::unlimited().with_max_bytes(4);
        let err = robust_partition(&inst(2), 7, &budget, &[]).unwrap_err();
        match err {
            PartitionError::AllBackendsFailed { attempts } => {
                assert_eq!(attempts.len(), 2 * DEFAULT_FALLBACK_CHAIN.len());
                assert!(attempts.iter().any(|(b, _)| b == "gp+reduced"));
                assert!(attempts.iter().all(|(_, e)| e.contains("out of memory")));
            }
            other => panic!("expected AllBackendsFailed, got {other:?}"),
        }
    }

    #[test]
    fn custom_chain_is_respected() {
        let r = robust_partition(&inst(2), 7, &Budget::unlimited(), &["metis", "gp"]).unwrap();
        assert_eq!(r.served_by, "metis");
        assert_eq!(r.attempts.len(), 1);
    }
}
