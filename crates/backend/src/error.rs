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
    /// The instance failed validation and no engine ever saw it
    /// (`k == 0`, `k > n`, zero constraint limits, overflowing weights,
    /// a malformed or mismatched hypergraph view).
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

/// The bound [`validate_instance`] puts on an instance's total edge
/// weight: it must stay below 2^62. Every engine computes edge gains in
/// `i64`, and a gain is at most twice a node's weighted degree, so below
/// this bound every gain fits by construction.
///
/// An attached hypergraph's nets are held below the same bound, summed
/// as Σ w(e)·(|pins(e)| − 1). A net spanning λ parts costs w·(λ − 1) ≤
/// w·(|pins| − 1), so the connectivity cost stays below it; that net
/// charges w to λ − 1 cells of the pair-traffic matrix, so every cell
/// and the matrix's total stay below it too; and the hypergraph
/// refiner's `i64` deltas are differences of such values, so they fit.
/// For 2-pin nets the sum is the total net weight, so the degenerate
/// embedding of a graph inherits the edge bound.
pub const MAX_TOTAL_EDGE_WEIGHT: u64 = 1 << 62;

/// The validation gate every
/// [`Partitioner::partition`](crate::Partitioner::partition) call runs before
/// its engine sees the instance: `k` in `1..=n`, nonzero `Rmax`/`Bmax`,
/// a total node weight that fits in `u64`, a total edge weight below
/// [`MAX_TOTAL_EDGE_WEIGHT`], and — through
/// [`PartitionInstance::validate`] — an attached hypergraph view's own
/// invariants and node-count agreement with the graph, then that view's
/// Σ w(e)·(|pins(e)| − 1) below the same bound. Graph structure
/// is not re-checked here: a [`WeightedGraph`](ppn_graph::WeightedGraph)
/// is valid by construction, because [`GraphBuilder`](ppn_graph::GraphBuilder)
/// checks every edge and the JSON reader and
/// [`GraphDelta::apply`](ppn_graph::GraphDelta::apply) validate what
/// they read.
pub fn validate_instance(inst: &PartitionInstance) -> Result<(), PartitionError> {
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
    // Engines and metrics sum weights in u64, and edge gains in i64;
    // reject instances whose totals would wrap rather than letting a hot
    // loop overflow.
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
            .filter(|&t| t < MAX_TOTAL_EDGE_WEIGHT)
            .ok_or_else(|| {
                invalid(format!(
                    "total edge weight reaches the bound 2^62 = {MAX_TOTAL_EDGE_WEIGHT}, \
                     past which edge gains overflow i64"
                ))
            })?;
    }
    inst.validate().map_err(invalid)?;
    if let Some(hg) = &inst.hyper {
        let mut total_net: u64 = 0;
        for e in hg.net_ids() {
            total_net = (hg.pins(e).len() as u64 - 1)
                .checked_mul(hg.net_weight(e))
                .and_then(|c| total_net.checked_add(c))
                .filter(|&t| t < MAX_TOTAL_EDGE_WEIGHT)
                .ok_or_else(|| {
                    invalid(format!(
                        "hypergraph net weight, summed as w(e)·(|pins(e)| − 1), reaches the \
                         bound 2^62 = {MAX_TOTAL_EDGE_WEIGHT}, past which connectivity gains \
                         overflow i64"
                    ))
                })?;
        }
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
    fn edge_weight_total_is_bounded_below_2_pow_62() {
        // two edges just under the bound each pass alone, and their sum
        // is rejected, naming the bound
        let path = |w1: u64, w2: u64| {
            let mut g = GraphBuilder::new();
            let ids: Vec<_> = (0..3).map(|_| g.add_node(1)).collect();
            g.add_edge(ids[0], ids[1], w1).unwrap();
            g.add_edge(ids[1], ids[2], w2).unwrap();
            PartitionInstance::from_graph("heavy", g.build(), 2, Constraints::unconstrained())
        };
        validate_instance(&path(MAX_TOTAL_EDGE_WEIGHT - 2, 1)).unwrap();
        for (w1, w2) in [(MAX_TOTAL_EDGE_WEIGHT - 1, 1), (u64::MAX, 1)] {
            let err = validate_instance(&path(w1, w2)).unwrap_err();
            assert!(matches!(err, PartitionError::InvalidInstance { .. }));
            assert!(err.to_string().contains("2^62"), "{err}");
        }
    }

    #[test]
    fn hypergraph_net_total_is_bounded_below_2_pow_62() {
        // a 3-pin net costs its weight twice and a 2-pin net once: the
        // sum w·(|pins| − 1) just under the bound passes, at it fails
        let hyper = |w3: u64, w2: u64| {
            let mut b = ppn_hyper::HypergraphBuilder::new();
            let ids: Vec<_> = (0..6).map(|_| b.add_node(4)).collect();
            b.add_net(w3, &ids[0..3]);
            b.add_net(w2, &ids[3..5]);
            inst(2, 24, 24).with_hypergraph(b.build())
        };
        let half = MAX_TOTAL_EDGE_WEIGHT / 2;
        validate_instance(&hyper(half - 1, 1)).unwrap();
        for (w3, w2) in [(half - 1, 2), (half, 0), (u64::MAX, 1), (1, u64::MAX)] {
            let err = validate_instance(&hyper(w3, w2)).unwrap_err();
            assert!(matches!(err, PartitionError::InvalidInstance { .. }));
            assert!(err.to_string().contains("2^62"), "{err}");
        }
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
