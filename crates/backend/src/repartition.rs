//! Incremental repartitioning: answer a drifted workload from the
//! previous assignment instead of re-running the full V-cycle.
//!
//! The KaHyPar V-cycle discipline shows that refining from a good prior
//! assignment beats re-partitioning from scratch; [`repartition`] is
//! that idea as a service entry point. Given the instance a previous
//! outcome answered, that outcome's assignment, and a [`GraphDelta`]
//! describing what changed since, the driver
//!
//! 1. applies the delta ([`GraphDelta::apply`]) and projects the old
//!    assignment onto the successor graph ([`DeltaMap::project`]);
//! 2. places the nodes the delta inserted (greedy: the neighbourhood
//!    part with the most traffic that still fits `Rmax`, else the
//!    lightest part);
//! 3. warm-starts [`constrained_refine_migration`] from the projected
//!    assignment with the blended `λ·Δcut + (1−λ)·Δmigration` gain —
//!    constraint violations stay lexicographically dominant, so the
//!    `Rmax`/`Bmax` contracts hold exactly as in a cold run;
//! 4. reports the cut *and* the migration bill ([`MigrationReport`]) in
//!    the outcome's [`CostReport`](crate::CostReport). The cut matrix
//!    and part weights come from the refinement engine's final state,
//!    which is exact, so the answer is not measured again.
//!
//! When the delta's blast radius exceeds
//! [`RepartitionOptions::max_churn`] — or the previous assignment
//! cannot be projected (wrong length, wrong `k`) — the warm start is
//! not worth its bias and the driver falls back to a from-scratch
//! [`robust_partition`] run on the successor instance, still reporting
//! migration relative to the projection. Budgets degrade the warm path
//! the same way they degrade engines: an expired deadline or a blocked
//! memory reservation skips refinement and returns the placed
//! projection with [`Completion::Degraded`], never a panic.

use crate::error::{validate_instance, ExhaustKind, PartitionError};
use crate::instance::PartitionInstance;
use crate::outcome::{Completion, CostModel, MigrationReport, PartitionOutcome};
use crate::robust::{robust_partition, BackendAttempt};
use gp_core::{constrained_refine_migration, migration_mass, MigrationOptions, RefineOptions};
use ppn_graph::metrics::PartitionQuality;
use ppn_graph::{trace, Budget, DeltaMap, GraphDelta, NodeId, Partition, Stop, WeightedGraph};

/// Tuning of the incremental path.
#[derive(Clone, Debug)]
pub struct RepartitionOptions {
    /// Per-mille weight on `Δcut` in the blended warm-start gain; the
    /// remainder to 1000 charges `Δmigration`. 1000 chases the cut as
    /// hard as a cold run; 0 never moves a node the constraints don't
    /// force.
    pub lambda_permille: u32,
    /// Churn fraction ([`GraphDelta::churn_fraction`]) above which the
    /// warm start is abandoned for a from-scratch run.
    pub max_churn: f64,
    /// Maximum warm-start refinement sweeps.
    pub max_passes: usize,
    /// Fallback chain for from-scratch runs (empty =
    /// [`crate::robust::DEFAULT_FALLBACK_CHAIN`]).
    pub chain: Vec<String>,
}

impl Default for RepartitionOptions {
    fn default() -> Self {
        RepartitionOptions {
            lambda_permille: 700,
            max_churn: 0.25,
            max_passes: 8,
            chain: Vec::new(),
        }
    }
}

/// What [`repartition`] returns: the outcome over the successor graph,
/// the successor instance itself (the caller's next "previous"), the
/// index map, and how the answer was produced.
#[derive(Clone, Debug)]
pub struct RepartitionOutcome {
    /// Outcome over the successor graph; `cost.migration` is always
    /// populated.
    pub outcome: PartitionOutcome,
    /// The successor instance (delta applied, same `k`/constraints).
    pub instance: PartitionInstance,
    /// How base and successor index spaces relate.
    pub map: DeltaMap,
    /// True when the warm-start path answered; false when the driver
    /// fell back to a from-scratch run.
    pub warm_start: bool,
    /// Attempt ledger of the from-scratch fallback (empty on the warm
    /// path).
    pub attempts: Vec<BackendAttempt>,
}

/// Conservative byte estimate of the warm path's working set: a CSR copy
/// of the graph plus the reference/assignment vectors. Refinement reads
/// the graph in place, so this over-prices it; the estimates change
/// together with the layout, so `--memory-mb` decisions stay put until
/// then.
fn warm_bytes_estimate(g: &WeightedGraph) -> u64 {
    (g.num_nodes() as u64) * 24 + (g.num_edges() as u64) * 32
}

/// Greedy placement of the nodes the delta inserted: each unassigned
/// node goes to the neighbourhood part with the most traffic that still
/// fits `Rmax`, else the lightest part overall. Deterministic (index
/// order, lowest part wins ties).
fn place_new_nodes(g: &WeightedGraph, p: &mut Partition, rmax: u64) -> usize {
    let k = p.k();
    let mut part_weights = p.part_weights(g.node_weights());
    let mut conn = vec![0u64; k];
    let mut placed = 0;
    for i in 0..g.num_nodes() {
        let v = NodeId::from_index(i);
        if p.is_assigned(v) {
            continue;
        }
        conn.iter_mut().for_each(|c| *c = 0);
        for &(u, e) in g.neighbors(v) {
            let q = p.part_of(u);
            if q != Partition::UNASSIGNED {
                conn[q as usize] += g.edge_weight(e);
            }
        }
        let wv = g.node_weight(v);
        let fitting = (0..k)
            .filter(|&q| part_weights[q] + wv <= rmax)
            .max_by_key(|&q| (conn[q], std::cmp::Reverse(q)));
        let q = fitting.unwrap_or_else(|| {
            (0..k)
                .min_by_key(|&q| (part_weights[q], q))
                .expect("k >= 1")
        });
        p.assign(v, q as u32);
        part_weights[q] += wv;
        placed += 1;
    }
    placed
}

/// Incrementally repartition: see the module docs for the pipeline.
/// `base` is the instance the previous outcome answered (its graph is
/// the delta's base), `prev` that outcome's assignment. Fails with
/// [`PartitionError::InvalidInstance`] when the delta does not apply to
/// the base graph or the successor instance is malformed, and with
/// whatever [`robust_partition`] fails with on the fallback path.
pub fn repartition(
    base: &PartitionInstance,
    prev: &Partition,
    delta: &GraphDelta,
    opts: &RepartitionOptions,
    seed: u64,
    budget: &Budget,
) -> Result<RepartitionOutcome, PartitionError> {
    let _sp = trace::span("repart", "repartition", base.num_nodes() as i64);
    let invalid = |reason: String| PartitionError::InvalidInstance {
        instance: base.name.clone(),
        reason,
    };
    if prev.len() != base.num_nodes() {
        return Err(invalid(format!(
            "previous assignment covers {} nodes, base graph has {}",
            prev.len(),
            base.num_nodes()
        )));
    }
    if prev.k() != base.k {
        return Err(invalid(format!(
            "previous assignment has k={}, instance wants k={}",
            prev.k(),
            base.k
        )));
    }
    if !prev.is_complete() {
        return Err(invalid("previous assignment is incomplete".to_string()));
    }

    // -- apply the delta ----------------------------------------------
    let churn = delta.churn_fraction(base.num_nodes());
    let (graph, map) = delta
        .apply(&base.graph)
        .map_err(|e| invalid(format!("delta does not apply: {e}")))?;
    let inst = PartitionInstance::from_graph(base.name.clone(), graph, base.k, base.constraints);
    validate_instance(&inst)?;
    trace::counter("repart", "churn_permille", (churn * 1000.0) as u64);

    // The reference the migration term charges against: old nodes keep
    // their part, inserted nodes are free movers.
    let reference = map
        .project(prev)
        .map_err(|e| invalid(format!("projection failed: {e}")))?;

    // -- warm start or fall back --------------------------------------
    let warm_viable = churn <= opts.max_churn && inst.k <= inst.num_nodes();
    if !warm_viable {
        trace::instant("repart", "fallback_scratch", (churn * 1000.0) as i64);
        let chain: Vec<&str> = opts.chain.iter().map(|s| s.as_str()).collect();
        let r = robust_partition(&inst, seed, budget, &chain)?;
        let mut outcome = r.outcome;
        outcome.cost.migration = Some(MigrationReport {
            mass: migration_mass(
                reference.assignment(),
                outcome.partition.assignment(),
                inst.graph.node_weights(),
            ),
            total: inst.graph.total_node_weight(),
        });
        return Ok(RepartitionOutcome {
            outcome,
            instance: inst,
            map,
            warm_start: false,
            attempts: r.attempts,
        });
    }

    let warm = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        warm_start(&inst, &reference, opts, seed, budget)
    }));
    match warm {
        Ok(Ok(outcome)) => Ok(RepartitionOutcome {
            outcome,
            instance: inst,
            map,
            warm_start: true,
            attempts: Vec::new(),
        }),
        Ok(Err(e)) => Err(e),
        Err(payload) => Err(PartitionError::BackendPanicked {
            backend: "repart".to_string(),
            message: crate::panic_message(payload.as_ref()),
        }),
    }
}

/// The warm path proper: place, refine under the migration objective,
/// report the refined state. Budget checks sit at the phase boundaries;
/// a blocked memory reservation or an expired deadline degrades to the
/// placed projection, which is measured.
fn warm_start(
    inst: &PartitionInstance,
    reference: &Partition,
    opts: &RepartitionOptions,
    seed: u64,
    budget: &Budget,
) -> Result<PartitionOutcome, PartitionError> {
    let exhausted = |phase: &str, kind: ExhaustKind| PartitionError::BudgetExhausted {
        backend: "repart".to_string(),
        phase: phase.to_string(),
        kind,
    };
    if budget.cancelled() {
        return Err(exhausted("warm_start", ExhaustKind::Cancelled));
    }
    budget.fault_point("repart", "warm_start");
    let _sp = trace::span("repart", "warm_start", inst.num_nodes() as i64);

    // -- place --------------------------------------------------------
    let mut p = reference.clone();
    let placed = place_new_nodes(&inst.graph, &mut p, inst.constraints.rmax);
    trace::counter("repart", "placed_nodes", placed as u64);

    // -- refine (skipped under pressure, never failed) ----------------
    let estimate = warm_bytes_estimate(&inst.graph);
    // the reservation is held until refinement is done
    let mut reservation = budget.begin_reservation();
    let stop = budget
        .checkpoint("repart", "warm_start", 0, estimate)
        .and_then(|()| {
            reservation
                .try_grow(estimate)
                .then_some(())
                .ok_or(Stop::Memory)
        });
    let refined = match stop {
        Err(Stop::Memory) => Err(format!(
            "memory budget cannot admit {estimate} B working set"
        )),
        Err(Stop::Deadline) => Err("deadline expired before refinement".to_string()),
        Ok(()) => {
            let (moves, state) = constrained_refine_migration(
                &inst.graph,
                &mut p,
                &inst.constraints,
                &RefineOptions {
                    max_passes: opts.max_passes,
                    seed,
                    protect_nonempty: true,
                },
                &MigrationOptions {
                    reference: reference.assignment(),
                    lambda_permille: opts.lambda_permille,
                },
            );
            trace::counter("repart", "warm_moves", moves as u64);
            Ok(state)
        }
    };
    if budget.cancelled() {
        return Err(exhausted("finish", ExhaustKind::Cancelled));
    }

    // -- measure ------------------------------------------------------
    let mass = migration_mass(
        reference.assignment(),
        p.assignment(),
        inst.graph.node_weights(),
    );
    trace::counter("migration", "mass", mass);
    let c = &inst.constraints;
    let (mut out, degraded) = match refined {
        Ok(state) => {
            let q = PartitionQuality::from_parts(state.cut, state.loads.weights().to_vec());
            let out = PartitionOutcome::from_quality("repart", p, CostModel::EdgeCut, q, None, c);
            (out, None)
        }
        Err(reason) => (
            PartitionOutcome::measure_edge("repart", &inst.graph, p, c),
            Some(reason),
        ),
    };
    out.cost.migration = Some(MigrationReport {
        mass,
        total: inst.graph.total_node_weight(),
    });
    if let Some(reason) = degraded {
        out = out.with_completion(Completion::Degraded {
            phase: "warm_start".to_string(),
            reason,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::Constraints;
    use ppn_graph::GraphBuilder;

    fn ring(n: usize) -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(4)).collect();
        for i in 0..n {
            g.add_edge(ids[i], ids[(i + 1) % n], 2).unwrap();
        }
        g.build()
    }

    fn base_instance(n: usize, k: usize) -> PartitionInstance {
        let g = ring(n);
        let c = Constraints::new(g.total_node_weight(), g.total_edge_weight());
        PartitionInstance::from_graph("ring", g, k, c)
    }

    fn solved(inst: &PartitionInstance) -> Partition {
        crate::registry::backend_by_name("gp")
            .unwrap()
            .run(inst, 7)
            .partition
    }

    #[test]
    fn empty_delta_warm_start_keeps_the_assignment() {
        let base = base_instance(16, 4);
        let prev = solved(&base);
        let r = repartition(
            &base,
            &prev,
            &GraphDelta::default(),
            &RepartitionOptions::default(),
            7,
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(r.warm_start);
        let mig = r.outcome.cost.migration.as_ref().unwrap();
        // a refined previous answer is a fixed point under λ < 1000:
        // leaving it would bill migration for cut the blend won't buy
        assert_eq!(mig.mass, 0, "empty delta must not migrate anything");
        assert_eq!(r.outcome.partition, prev);
    }

    #[test]
    fn small_delta_stays_warm_and_reports_migration() {
        let base = base_instance(20, 4);
        let prev = solved(&base);
        let delta = GraphDelta {
            add_nodes: vec![4],
            add_edges: vec![(0, 20, 3)],
            node_drift: vec![(5, 6)],
            ..Default::default()
        };
        let r = repartition(
            &base,
            &prev,
            &delta,
            &RepartitionOptions::default(),
            7,
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(r.warm_start);
        assert!(r.outcome.partition.is_complete());
        assert_eq!(r.outcome.partition.len(), 21);
        let mig = r.outcome.cost.migration.as_ref().unwrap();
        assert_eq!(mig.total, r.instance.graph.total_node_weight());
        assert!(mig.fraction() <= 1.0);
    }

    #[test]
    fn warm_outcome_equals_a_fresh_measure() {
        // the warm path reports the engine's final state instead of
        // measuring the answer: it must be exactly what measuring gives,
        // loose limits and violated ones alike
        for (n, k, limits, seed) in [
            (20, 4, None, 7),
            (40, 3, None, 1),
            (33, 5, Some((30, 3)), 3),
            (24, 2, Some((40, 1)), 5),
        ] {
            let mut base = base_instance(n, k);
            if let Some((rmax, bmax)) = limits {
                base.constraints = Constraints::new(rmax, bmax);
            }
            let prev = solved(&base);
            let m = n as u32;
            let delta = GraphDelta {
                add_nodes: vec![9, 9],
                add_edges: vec![(0, m, 5), (m, m + 1, 7), (3, m + 1, 2)],
                node_drift: vec![(5, 12)],
                ..Default::default()
            };
            let r = repartition(
                &base,
                &prev,
                &delta,
                &RepartitionOptions::default(),
                seed,
                &Budget::unlimited(),
            )
            .unwrap();
            assert!(r.warm_start);
            let mut fresh = PartitionOutcome::measure_edge(
                "repart",
                &r.instance.graph,
                r.outcome.partition.clone(),
                &r.instance.constraints,
            );
            fresh.cost.migration = r.outcome.cost.migration.clone();
            assert_eq!(r.outcome, fresh, "ring {n}, k {k}, limits {limits:?}");
        }
    }

    #[test]
    fn large_delta_falls_back_to_scratch() {
        let base = base_instance(8, 2);
        let prev = solved(&base);
        // touch every node: churn 1.0 >> max_churn
        let delta = GraphDelta {
            node_drift: (0..8).map(|i| (i as u32, 5)).collect(),
            ..Default::default()
        };
        let r = repartition(
            &base,
            &prev,
            &delta,
            &RepartitionOptions::default(),
            7,
            &Budget::unlimited(),
        )
        .unwrap();
        assert!(!r.warm_start);
        assert!(!r.attempts.is_empty());
        assert!(r.outcome.cost.migration.is_some());
        assert!(r.outcome.partition.is_complete());
    }

    #[test]
    fn mismatched_previous_assignment_is_rejected() {
        let base = base_instance(8, 2);
        let wrong_len = Partition::from_assignment(vec![0, 1], 2).unwrap();
        let err = repartition(
            &base,
            &wrong_len,
            &GraphDelta::default(),
            &RepartitionOptions::default(),
            7,
            &Budget::unlimited(),
        )
        .unwrap_err();
        assert!(matches!(err, PartitionError::InvalidInstance { .. }));
        let wrong_k = Partition::from_assignment(vec![0; 8], 3).unwrap();
        let err = repartition(
            &base,
            &wrong_k,
            &GraphDelta::default(),
            &RepartitionOptions::default(),
            7,
            &Budget::unlimited(),
        )
        .unwrap_err();
        assert!(matches!(err, PartitionError::InvalidInstance { .. }));
    }

    #[test]
    fn bad_delta_is_an_invalid_instance_error() {
        let base = base_instance(8, 2);
        let prev = solved(&base);
        let delta = GraphDelta {
            remove_nodes: vec![99],
            ..Default::default()
        };
        let err = repartition(
            &base,
            &prev,
            &delta,
            &RepartitionOptions::default(),
            7,
            &Budget::unlimited(),
        )
        .unwrap_err();
        match err {
            PartitionError::InvalidInstance { reason, .. } => {
                assert!(reason.contains("delta does not apply"), "{reason}");
            }
            other => panic!("expected InvalidInstance, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_degrades_instead_of_failing() {
        let base = base_instance(16, 4);
        let prev = solved(&base);
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let r = repartition(
            &base,
            &prev,
            &GraphDelta::default(),
            &RepartitionOptions::default(),
            7,
            &budget,
        )
        .unwrap();
        assert!(r.warm_start);
        assert!(r.outcome.completion.is_degraded());
        assert!(r.outcome.partition.is_complete());
    }

    #[test]
    fn node_removal_shrinks_the_answer() {
        let base = base_instance(12, 3);
        let prev = solved(&base);
        let delta = GraphDelta {
            remove_nodes: vec![0, 7],
            ..Default::default()
        };
        let r = repartition(
            &base,
            &prev,
            &delta,
            &RepartitionOptions::default(),
            7,
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(r.outcome.partition.len(), 10);
        assert!(r.outcome.partition.is_complete());
        assert_eq!(r.map.old_to_new[0], Partition::UNASSIGNED);
    }
}
