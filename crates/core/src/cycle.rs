//! The GP V-cycle (paper §IV), run as one cycle body over ppn-graph's
//! cycle driver ([`run_cycles`]).
//!
//! One *cycle* is: coarsen the input to `coarsen_to` nodes with
//! best-of-three matchings → greedy constrained initial partitioning with
//! restarts → constrained refinement while un-coarsening. Unlike textbook
//! MLKWP, GP does not un-coarsen in one shot: within each cycle several
//! *intermediate clusterings* are generated (different coarsening RNG
//! streams), each refined up to an intermediate hierarchy level, compared
//! a posteriori with the goodness function, and only the winner continues
//! to the top. The driver re-runs the cycle — re-coarsening "randomly,
//! cyclically" — until one is feasible or `max_cycles` have run, and
//! returns the goodness-best attempt: feasible, or the paper's
//! impossible-or-more-time outcome. It also owns the cycle checkpoint,
//! the degradation record and the level walk both refinement legs take;
//! the seed streams, fallbacks and reduced-footprint clamps are gp's.

use crate::coarsen::{gp_coarsen_flat_budgeted_observed, FlatHierarchy};
use crate::initial::{greedy_initial_partition, InitialOptions};
use crate::params::{GpParams, MatchingKind};
use crate::refine::{constrained_refine, constrained_refine_parallel_csr, RefineOptions};
use ppn_graph::arena::LevelArena;
use ppn_graph::budget::{Budget, Stop};
use ppn_graph::cycle::{run_cycles, BestAttempt, Goodness};
use ppn_graph::metrics::PartitionQuality;
use ppn_graph::prng::derive_seed;
use ppn_graph::trace;
use ppn_graph::{Constraints, Partition, WeightedGraph};
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;
use std::sync::Arc;

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
    pub goodness_at_mid: Goodness,
    /// Whether this attempt won the cycle's a-posteriori comparison.
    pub selected: bool,
}

/// What gp's hierarchy for one cycle depends on besides the graph: the
/// key it is shared under through a [`HierarchySlot`](ppn_graph::HierarchySlot).
#[derive(PartialEq)]
struct LevelsKey {
    matchings: Vec<MatchingKind>,
    coarsen_to: usize,
    seed: u64,
}

/// Refine level `i` of `hier` in place on its arena slice
/// ([`LevelView`](ppn_graph::LevelView)) — no per-level graph is
/// materialised. With `parallel`, levels at or above
/// [`parallel_refine_min_nodes`](GpParams::parallel_refine_min_nodes)
/// take the parallel frozen-evaluation sweep.
fn refine_level(
    hier: &FlatHierarchy,
    i: usize,
    p: &mut Partition,
    c: &Constraints,
    params: &GpParams,
    stream: u64,
    parallel: bool,
) {
    let level = hier.level(i);
    let opts = RefineOptions {
        max_passes: params.refine_passes,
        seed: derive_seed(params.seed, stream ^ (i as u64) << 8),
        protect_nonempty: true,
    };
    if parallel && level.num_nodes() >= params.parallel_refine_min_nodes {
        constrained_refine_parallel_csr(level, p, c, &opts);
    } else {
        constrained_refine(level, p, c, &opts);
    }
}

/// Run the full GP algorithm: its goodness-best attempt
/// ([`BestAttempt::feasible`] tells whether the constraints are met) and
/// the per-attempt traces of every cycle run.
/// Assumes the instance gate's weight bound (see the crate docs).
pub fn gp_partition(
    g: &WeightedGraph,
    k: usize,
    c: &Constraints,
    params: &GpParams,
) -> (BestAttempt, Vec<CycleTrace>) {
    gp_partition_budgeted(g, k, c, params, &Budget::unlimited())
}

/// [`gp_partition`] under a cooperative [`Budget`]. Checks happen only
/// at cycle/level/attempt boundaries, so with `Budget::unlimited()` the
/// run is bit-identical to the unbudgeted entry point. On deadline
/// expiry the engine returns its best partition so far — always complete
/// and always projected to the finest graph — and records what was cut
/// short in [`BestAttempt::degraded`]. When the budget lends a
/// [`HierarchySlot`](ppn_graph::HierarchySlot), cycle 0 reads its
/// hierarchy from the slot, or builds it and offers it there; the answer
/// is the same either way.
/// Assumes the instance gate's weight bound (see the crate docs).
pub fn gp_partition_budgeted(
    g: &WeightedGraph,
    k: usize,
    c: &Constraints,
    params: &GpParams,
    budget: &Budget,
) -> (BestAttempt, Vec<CycleTrace>) {
    assert!(k >= 1, "k must be at least 1");
    assert!(g.num_nodes() > 0, "cannot partition an empty graph");

    let _run = trace::span("gp", "partition", g.num_nodes() as i64);
    let mut trace: Vec<CycleTrace> = Vec::new();
    let matchings = params.effective_matchings();
    let goodness_of = |p: &Partition| PartitionQuality::measure(g, p).goodness_key(c.rmax, c.bmax);
    // Reduced-footprint budgets (the fallback driver's memory-shed
    // retry) trade quality for bytes: fewer initial restarts, a single
    // intermediate attempt, and serial refinement — the parallel sweep
    // clones per-shard evaluation buffers.
    let reduced = budget.reduced_footprint();
    let initial_restarts = if reduced {
        params.initial_restarts.min(2)
    } else {
        params.initial_restarts
    };
    let intermediate_attempts = if reduced {
        1
    } else {
        params.intermediate_attempts
    };
    let parallel = params.parallel && !reduced;

    let best = run_cycles("gp", budget, params.max_cycles, |run, cycle| {
        let cycle_seed = derive_seed(params.seed, 0xC1C + cycle as u64);

        // When the budget cannot plausibly fit even one matching level —
        // in wall-clock or in tracked bytes — skip building the level
        // arena too (an O(V + E) copy of the input): the truncated
        // hierarchy's coarsest level would be the input graph itself, so
        // the contiguous fallback below lands on the same partition
        // either way. This gate spends no `gp:coarsen` fault hits: those
        // belong to the coarsening's own checkpoints.
        let level0_bytes = LevelArena::level_bytes_estimate(g.num_nodes(), g.num_edges());
        if let Err(stop) = budget.admits(g.num_edges() as u64, level0_bytes) {
            let reason = match stop {
                Stop::Memory => {
                    "memory budget cannot fit the level arena; contiguous fallback on the input graph"
                }
                Stop::Deadline => "deadline expired; contiguous fallback on the input graph",
            };
            run.degrade("coarsen", reason);
            let p = Partition::contiguous_balanced(g.node_weights(), k);
            run.offer(goodness_of(&p), p);
            return ControlFlow::Break(());
        }

        // hierarchy for this cycle ("go back to coarsening phase …
        // randomly, cyclically") — built in the flat level arena
        budget.fault_point("gp", "coarsen");
        let sp = trace::span("gp", "coarsen", cycle as i64);
        // the reservation is declared before the hierarchy so it drops
        // after it: the ledger bytes stay claimed while the arena lives
        let mut reservation = budget.begin_reservation();
        let mut build = || {
            gp_coarsen_flat_budgeted_observed(
                g,
                &matchings,
                params.coarsen_to,
                cycle_seed,
                budget,
                &mut reservation,
                &mut |_| {},
            )
        };
        // cycle 0's hierarchy depends on neither k nor the constraints,
        // so the runs of one batch group (one graph, several configs)
        // share it through the budget's slot. A slot comes only without
        // a ledger, so the reservation above tracks nothing then.
        let (hier, coarsen_cut_short) = match budget.hierarchy_slot().filter(|_| cycle == 0) {
            Some(slot) => {
                let key = LevelsKey {
                    matchings: matchings.clone(),
                    coarsen_to: params.coarsen_to,
                    seed: cycle_seed,
                };
                slot.get_or_build("gp", key, build)
            }
            None => {
                let (hier, cut_short) = build();
                (Arc::new(hier), cut_short)
            }
        };
        drop(sp);
        if let Some(reason) = coarsen_cut_short {
            run.degrade("coarsen", reason);
        }
        let levels = hier.depth() - 1;
        let mid = levels / 2;
        let sizes = hier.size_trace();
        let level_winners = hier.winners.clone();
        let level = |i: usize| (hier.map(i), hier.level(i).num_edges() as u64);

        // When the budget is already spent — a truncated hierarchy can
        // leave a coarsest level of any size — skip the greedy initial
        // search entirely: take the O(n) contiguous fallback on the
        // coarsest level and project it to the top without refinement.
        // This bounds the post-expiry tail to validation + O(n) work.
        let coarsest = hier.level(levels);
        let coarsest_work =
            (coarsest.num_edges() as u64).saturating_mul(initial_restarts.max(1) as u64);
        if budget
            .checkpoint("gp", "initial", coarsest_work, 0)
            .is_err()
        {
            run.degrade(
                "initial",
                "deadline expired; contiguous fallback on the coarsest level",
            );
            let p0 = Partition::contiguous_balanced(coarsest.node_weights(), k);
            let p = hier.project_to_finest(p0, levels);
            run.offer(goodness_of(&p), p);
            return ControlFlow::Break(());
        }

        // the coarsest graph is tiny (~coarsen_to nodes); materialise it
        // once per cycle for the initial partitioner, adjacency in edge
        // creation order even when it is a JSON input's uncoarsened level
        let coarsest = hier.coarsest_graph();

        // generate intermediate clustering candidates
        budget.fault_point("gp", "initial");
        let attempts = intermediate_attempts.max(1);
        let mut candidates: Vec<(Goodness, Partition)> = Vec::with_capacity(attempts);
        for attempt in 0..attempts {
            let _att = trace::span("gp", "attempt", attempt as i64);
            if attempt > 0 && budget.checkpoint("gp", "initial", 0, 0).is_err() {
                run.degrade(
                    "initial",
                    format!("deadline expired after {attempt} intermediate attempt(s)"),
                );
                break;
            }
            let attempt_seed = derive_seed(cycle_seed, attempt as u64);
            let sp = trace::span("gp", "initial", attempt as i64);
            let p0 = greedy_initial_partition(
                &coarsest,
                k,
                c,
                &InitialOptions {
                    restarts: initial_restarts,
                    repair_passes: params.refine_passes,
                    seed: attempt_seed,
                    parallel: params.parallel,
                },
            );
            drop(sp);
            // refine from the coarsest up to the intermediate level
            let sp = trace::span("gp", "refine", attempt as i64);
            let p_mid = run.walk_up(mid..levels, p0, level, |i, p| {
                refine_level(&hier, i, p, c, params, attempt_seed, parallel)
            });
            drop(sp);
            // level `mid` exists for every mid <= levels (level `levels`
            // is the coarsest); measure it straight off the arena slice
            let goodness =
                PartitionQuality::measure(hier.level(mid), &p_mid).goodness_key(c.rmax, c.bmax);
            trace.push(CycleTrace {
                cycle,
                attempt,
                hierarchy_sizes: sizes.clone(),
                matchings: level_winners.clone(),
                mid_level: mid,
                goodness_at_mid: goodness,
                selected: false,
            });
            candidates.push((goodness, p_mid));
        }

        // a-posteriori selection of the best intermediate clustering
        // (attempt 0 always runs, so `candidates` is never empty)
        let winner_idx = candidates
            .iter()
            .enumerate()
            .min_by_key(|(i, (good, _))| (*good, *i))
            .map(|(i, _)| i)
            .expect("at least one attempt");
        let trace_base = trace.len() - candidates.len();
        trace[trace_base + winner_idx].selected = true;
        let (_, p_mid) = candidates.swap_remove(winner_idx);

        // continue the winner to the top
        budget.fault_point("gp", "refine");
        let sp = trace::span("gp", "refine", -1);
        let top_stream = derive_seed(cycle_seed, 0x70);
        let p_top = run.walk_up(0..mid, p_mid, level, |i, p| {
            refine_level(&hier, i, p, c, params, top_stream, parallel)
        });
        drop(sp);
        run.offer(goodness_of(&p_top), p_top);
        ControlFlow::Continue(())
    });
    (best, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::edge_cut;
    use ppn_graph::GraphBuilder;

    /// Four triads with light bridges — feasible for sensible constraints.
    fn four_triads() -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..12)
            .map(|i| g.add_node(30 + (i as u64 % 4) * 5))
            .collect();
        for c in 0..4 {
            let b = c * 3;
            g.add_edge(n[b], n[b + 1], 8).unwrap();
            g.add_edge(n[b + 1], n[b + 2], 8).unwrap();
            g.add_edge(n[b], n[b + 2], 8).unwrap();
        }
        for c in 0..4 {
            g.add_edge(n[c * 3], n[((c + 1) % 4) * 3 + 1], 2).unwrap();
        }
        g.build()
    }

    #[test]
    fn feasible_instance_is_solved() {
        let g = four_triads();
        let c = Constraints::new(150, 20);
        let (r, _) = gp_partition(&g, 4, &c, &GpParams::default());
        assert!(r.feasible());
        assert!(r.partition.is_complete());
        assert!(c.is_feasible(&g, &r.partition));
        assert_eq!(r.goodness.2, edge_cut(&g, &r.partition));
    }

    #[test]
    fn impossible_instance_reports_infeasible() {
        let g = four_triads();
        // rmax below the heaviest node: provably impossible
        let c = Constraints::new(10, 1000);
        let (r, _) = gp_partition(&g, 4, &c, &GpParams::default());
        assert!(!r.feasible());
        assert!(!c.is_feasible(&g, &r.partition));
        assert!(r.partition.is_complete());
        assert_eq!(r.cycles_used, GpParams::default().max_cycles);
    }

    #[test]
    fn trace_records_attempts_and_selection() {
        let g = four_triads();
        let c = Constraints::new(150, 20);
        let params = GpParams {
            coarsen_to: 6,
            intermediate_attempts: 3,
            ..GpParams::default()
        };
        let (r, trace) = gp_partition(&g, 4, &c, &params);
        assert!(r.feasible());
        assert!(!trace.is_empty());
        // each cycle has exactly one selected attempt
        for cyc in 0..r.cycles_used {
            let selected = trace
                .iter()
                .filter(|t| t.cycle == cyc && t.selected)
                .count();
            let total = trace.iter().filter(|t| t.cycle == cyc).count();
            if total > 0 {
                assert_eq!(selected, 1, "cycle {cyc} should select exactly one");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = four_triads();
        let c = Constraints::new(150, 20);
        let (a, _) = gp_partition(&g, 4, &c, &GpParams::default());
        let (b, _) = gp_partition(&g, 4, &c, &GpParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn early_exit_on_feasibility() {
        let g = four_triads();
        let c = Constraints::new(500, 500); // trivially feasible
        let (r, _) = gp_partition(&g, 2, &c, &GpParams::default());
        assert!(r.feasible());
        assert_eq!(r.cycles_used, 1, "should stop after the first cycle");
    }

    #[test]
    fn small_graph_without_coarsening_works() {
        let g = four_triads(); // 12 nodes < coarsen_to=100 → no levels
        let c = Constraints::new(150, 25);
        let (r, trace) = gp_partition(&g, 4, &c, &GpParams::default());
        assert!(r.feasible());
        for t in &trace {
            assert_eq!(t.hierarchy_sizes.len(), 1);
        }
    }

    #[test]
    fn unlimited_budget_is_bit_identical() {
        let g = four_triads();
        let c = Constraints::new(150, 20);
        let (plain, _) = gp_partition(&g, 4, &c, &GpParams::default());
        let (budgeted, _) =
            gp_partition_budgeted(&g, 4, &c, &GpParams::default(), &Budget::unlimited());
        assert!(plain.feasible());
        assert_eq!(plain, budgeted);
        assert!(budgeted.degraded.is_none());
    }

    #[test]
    fn expired_deadline_degrades_but_returns_a_complete_partition() {
        let g = four_triads();
        let c = Constraints::new(150, 20);
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let (r, _) = gp_partition_budgeted(&g, 4, &c, &GpParams::default(), &budget);
        assert!(r.partition.is_complete());
        assert_eq!(r.partition.k(), 4);
        let d = r.degraded.expect("a zero deadline must cut the run short");
        assert!(!d.phase.is_empty());
    }

    #[test]
    fn memory_cap_degrades_but_stays_valid() {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..240).map(|_| g.add_node(4)).collect();
        for i in 0..240 {
            g.add_edge(n[i], n[(i + 1) % 240], 3).unwrap();
        }
        let c = Constraints::new(500, 1_000);

        // a ledger too small for even the finest level: contiguous
        // fallback on the input graph, reported as a memory degradation
        let budget = Budget::unlimited().with_max_bytes(1024);
        let g = g.build();
        let (r, _) = gp_partition_budgeted(&g, 4, &c, &GpParams::default(), &budget);
        assert!(r.partition.is_complete());
        assert_eq!(r.partition.k(), 4);
        let d = r.degraded.expect("a 1KiB cap must cut the run short");
        assert_eq!(d.phase, "coarsen");
        assert!(d.reason.contains("memory"), "reason: {}", d.reason);
        assert_eq!(
            budget.memory_ledger().unwrap().used(),
            0,
            "reservations must drain when the run ends"
        );

        // a ledger that fits level 0 but not a second level: coarsening
        // is cut short, the answer is still complete and deterministic
        let est0 = ppn_graph::arena::LevelArena::level_bytes_estimate(g.num_nodes(), g.num_edges());
        let make_budget = || Budget::unlimited().with_max_bytes(est0 + est0 / 2);
        let (a, _) = gp_partition_budgeted(&g, 4, &c, &GpParams::default(), &make_budget());
        let (b, _) = gp_partition_budgeted(&g, 4, &c, &GpParams::default(), &make_budget());
        assert!(a.partition.is_complete());
        assert_eq!(a.partition, b.partition, "memory caps stay deterministic");
        let d = a.degraded.expect("capped ledger must degrade");
        assert_eq!(d.phase, "coarsen");
        assert!(d.reason.contains("memory"), "reason: {}", d.reason);
    }

    #[test]
    fn reduced_footprint_still_solves() {
        let g = four_triads();
        let c = Constraints::new(150, 20);
        let budget = Budget::unlimited().with_reduced_footprint();
        let (r, _) = gp_partition_budgeted(&g, 4, &c, &GpParams::default(), &budget);
        assert!(r.feasible());
        assert!(r.partition.is_complete());
    }

    #[test]
    fn large_graph_exercises_hierarchy() {
        // 4 communities of 60 nodes each
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..240).map(|_| g.add_node(4)).collect();
        for comm in 0..4 {
            let b = comm * 60;
            for i in 0..60 {
                g.add_edge(n[b + i], n[b + (i + 1) % 60], 10).unwrap();
                g.add_edge(n[b + i], n[b + (i + 7) % 60], 6).unwrap();
            }
        }
        for comm in 0..4 {
            g.add_edge(n[comm * 60], n[((comm + 1) % 4) * 60 + 3], 2)
                .unwrap();
        }
        let c = Constraints::new(260, 40);
        let g = g.build();
        let (r, trace) = gp_partition(&g, 4, &c, &GpParams::default());
        assert!(r.feasible());
        assert!(
            trace[0].hierarchy_sizes.len() > 1,
            "240 nodes must trigger coarsening: {:?}",
            trace[0].hierarchy_sizes
        );
    }
}
