//! The typed error taxonomy of the `Partitioner` boundary.
//!
//! [`PartitionError`] is what
//! [`Partitioner::partition`](crate::Partitioner::partition) and the
//! [`robust_partition`](crate::robust::robust_partition) driver return
//! instead of panicking: malformed instances are rejected up front by
//! [`validate_instance`], engine panics are contained at the trait
//! boundary and surfaced as [`BackendPanicked`](PartitionError::BackendPanicked),
//! and cancelled budgets become [`BudgetExhausted`](PartitionError::BudgetExhausted).
//! A mere deadline expiry is *not* an error — engines degrade gracefully
//! and report it via [`Completion::Degraded`](crate::outcome::Completion).

use crate::instance::PartitionInstance;
use std::fmt;

/// What exhausted a budget at a hard boundary (see
/// [`PartitionError::BudgetExhausted`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExhaustKind {
    /// The cancel flag was raised.
    #[default]
    Cancelled,
    /// The memory ledger cannot admit the minimum working set.
    Memory,
}

/// Why a partition request failed. Every variant carries enough context
/// for a one-line diagnostic; none carries a backtrace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartitionError {
    /// The instance failed structural validation and no engine ever saw
    /// it (malformed graph, `k == 0`, `k > n`, zero constraint limits,
    /// overflowing weights, mismatched views).
    InvalidInstance {
        /// Instance name.
        instance: String,
        /// What the validation gate rejected.
        reason: String,
    },
    /// The constraints provably admit no partition (e.g. a single node
    /// outweighs `Rmax`). Raised by strict callers such as the CLI —
    /// engines themselves still return best-attempt outcomes.
    Infeasible {
        /// Instance name.
        instance: String,
        /// Why no feasible partition can exist / was found.
        reason: String,
    },
    /// The budget was exhausted at a hard boundary: the cancel flag was
    /// raised (the caller no longer wants an answer), or the memory
    /// ledger cannot admit even the minimum working set. A mere deadline
    /// expiry — and memory pressure an engine can shed by degrading —
    /// does not error.
    BudgetExhausted {
        /// Backend that observed the exhaustion.
        backend: String,
        /// Phase at which the exhaustion was observed.
        phase: String,
        /// What was exhausted (cancellation vs memory).
        kind: ExhaustKind,
    },
    /// The engine panicked and the trait boundary's `catch_unwind`
    /// contained it.
    BackendPanicked {
        /// Backend whose engine panicked.
        backend: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// No backend with this registry name exists.
    UnknownBackend {
        /// The name that failed to resolve.
        name: String,
        /// Names that would have resolved.
        available: Vec<String>,
    },
    /// Every backend in a fallback chain failed; `attempts` records each
    /// `(backend, error)` in order.
    AllBackendsFailed {
        /// Per-backend failure descriptions, in attempt order.
        attempts: Vec<(String, String)>,
    },
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::InvalidInstance { instance, reason } => {
                write!(f, "invalid instance `{instance}`: {reason}")
            }
            PartitionError::Infeasible { instance, reason } => {
                write!(f, "infeasible instance `{instance}`: {reason}")
            }
            PartitionError::BudgetExhausted {
                backend,
                phase,
                kind,
            } => {
                let what = match kind {
                    ExhaustKind::Cancelled => "cancelled",
                    ExhaustKind::Memory => "out of memory",
                };
                write!(f, "budget exhausted: backend `{backend}` {what} in {phase}")
            }
            PartitionError::BackendPanicked { backend, message } => {
                write!(f, "backend `{backend}` panicked: {message}")
            }
            PartitionError::UnknownBackend { name, available } => {
                write!(
                    f,
                    "unknown backend `{name}` (available: {})",
                    available.join(", ")
                )
            }
            PartitionError::AllBackendsFailed { attempts } => {
                write!(f, "all backends failed:")?;
                for (b, e) in attempts {
                    write!(f, " [{b}: {e}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for PartitionError {}

/// The validation gate every
/// [`Partitioner::partition`](crate::Partitioner::partition) call runs before
/// its engine sees the instance. Checks are O(V + E + pins): structural
/// graph validity (zero weights, self loops, dangling endpoints,
/// duplicate edges), `k` in `1..=n`, nonzero `Rmax`/`Bmax`, summed
/// weights that fit in `u64`, and — when a hypergraph view is attached —
/// its own invariants plus node-count agreement with the graph.
pub fn validate_instance(inst: &PartitionInstance) -> Result<(), PartitionError> {
    let invalid = |reason: String| PartitionError::InvalidInstance {
        instance: inst.name.clone(),
        reason,
    };
    validate_instance_shape(inst)?;
    inst.graph.validate().map_err(|e| invalid(e.to_string()))?;
    if let Some(hg) = &inst.hyper {
        hg.validate().map_err(invalid)?;
        if hg.num_nodes() != inst.graph.num_nodes() {
            return Err(invalid(format!(
                "hypergraph covers {} nodes, graph {}",
                hg.num_nodes(),
                inst.graph.num_nodes()
            )));
        }
    }
    Ok(())
}

/// The instance-level subset of [`validate_instance`]: `k` in `1..=n`,
/// nonzero `Rmax`/`Bmax`, and weight totals that fit in `u64` — but not
/// the structural graph pass (adjacency ↔ edge-list agreement,
/// duplicate edges). For callers whose graph is valid by construction
/// — [`GraphDelta::apply`](ppn_graph::GraphDelta::apply) rebuilds from
/// an already-validated base — re-proving structure would double the
/// cost of an incremental warm start.
pub fn validate_instance_shape(inst: &PartitionInstance) -> Result<(), PartitionError> {
    let invalid = |reason: String| PartitionError::InvalidInstance {
        instance: inst.name.clone(),
        reason,
    };
    if inst.k == 0 {
        return Err(invalid("k must be at least 1".into()));
    }
    if inst.k > inst.num_nodes() {
        return Err(invalid(format!(
            "k={} exceeds the {} nodes of the instance",
            inst.k,
            inst.num_nodes()
        )));
    }
    if inst.constraints.rmax == 0 {
        return Err(invalid("Rmax must be positive".into()));
    }
    if inst.constraints.bmax == 0 {
        return Err(invalid("Bmax must be positive".into()));
    }
    // Engines and metrics sum weights in u64; reject instances whose
    // totals would wrap rather than letting a hot loop overflow.
    let mut total_w: u64 = 0;
    for &w in inst.graph.node_weights() {
        total_w = total_w
            .checked_add(w)
            .ok_or_else(|| invalid("total node weight overflows u64".into()))?;
    }
    let mut total_b: u64 = 0;
    for (_, _, w) in inst.graph.edges() {
        total_b = total_b
            .checked_add(w)
            .ok_or_else(|| invalid("total edge weight overflows u64".into()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::GraphBuilder;
    use ppn_graph::{Constraints, WeightedGraph};

    fn chain(n: usize) -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(4)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 2).unwrap();
        }
        g.build()
    }

    fn inst(k: usize, rmax: u64, bmax: u64) -> PartitionInstance {
        PartitionInstance::from_graph("t", chain(6), k, Constraints::new(rmax, bmax))
    }

    #[test]
    fn well_formed_instance_passes() {
        validate_instance(&inst(2, 24, 24)).unwrap();
    }

    #[test]
    fn degenerate_shapes_are_rejected_with_reasons() {
        let cases = [
            (inst(0, 24, 24), "k must be"),
            (inst(9, 24, 24), "exceeds"),
            (inst(2, 0, 24), "Rmax"),
            (inst(2, 24, 0), "Bmax"),
        ];
        for (bad, needle) in cases {
            let err = validate_instance(&bad).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg} should mention {needle}");
            assert!(matches!(err, PartitionError::InvalidInstance { .. }));
        }
    }

    #[test]
    fn overflowing_weights_are_rejected() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(u64::MAX);
        let b = g.add_node(u64::MAX);
        g.add_edge(a, b, 1).unwrap();
        let g = g.build();
        let bad = PartitionInstance::from_graph("big", g, 2, Constraints::unconstrained());
        let err = validate_instance(&bad).unwrap_err();
        assert!(err.to_string().contains("overflows"));
    }

    #[test]
    fn mismatched_hyper_view_is_rejected() {
        let mut b = ppn_hyper::HypergraphBuilder::new();
        let x = b.add_node(1);
        let y = b.add_node(1);
        b.add_net(1, &[x, y]);
        let mut i = inst(2, 24, 24);
        i.hyper = Some(b.build());
        let err = validate_instance(&i).unwrap_err();
        assert!(err.to_string().contains("hypergraph covers"));
    }

    #[test]
    fn display_is_one_line() {
        let errs: Vec<PartitionError> = vec![
            PartitionError::BudgetExhausted {
                backend: "gp".into(),
                phase: "refine".into(),
                kind: ExhaustKind::Cancelled,
            },
            PartitionError::BudgetExhausted {
                backend: "gp".into(),
                phase: "start".into(),
                kind: ExhaustKind::Memory,
            },
            PartitionError::BackendPanicked {
                backend: "gp".into(),
                message: "injected fault at gp:refine".into(),
            },
            PartitionError::UnknownBackend {
                name: "nope".into(),
                available: vec!["gp".into(), "rb".into()],
            },
            PartitionError::AllBackendsFailed {
                attempts: vec![("gp".into(), "panicked".into())],
            },
        ];
        for e in errs {
            assert!(!e.to_string().contains('\n'));
        }
    }
}
