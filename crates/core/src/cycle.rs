//! The GP V-cycle driver (paper §IV).
//!
//! One *cycle* is: coarsen the input to `coarsen_to` nodes with
//! best-of-three matchings → greedy constrained initial partitioning with
//! restarts → constrained refinement while un-coarsening. Unlike textbook
//! MLKWP, GP does not un-coarsen in one shot: within each cycle several
//! *intermediate clusterings* are generated (different coarsening RNG
//! streams), each refined up to an intermediate hierarchy level, compared
//! a posteriori with the goodness function, and only the winner continues
//! to the top. If the top-level partition still violates the constraints
//! the whole process repeats — re-coarsening "randomly, cyclically" — up
//! to `max_cycles` times before reporting the paper's
//! impossible-or-more-time message.

use crate::coarsen::{gp_coarsen_flat_budgeted_observed, FlatHierarchy};
use crate::initial::{greedy_initial_partition, InitialOptions};
use crate::params::GpParams;
use crate::refine::{constrained_refine, constrained_refine_parallel_csr, RefineOptions};
use crate::report::{CycleTrace, GpInfeasible, GpResult, PhaseSeconds};
use ppn_graph::arena::LevelArena;
use ppn_graph::budget::{Budget, Degradation, Stop};
use ppn_graph::metrics::PartitionQuality;
use ppn_graph::prng::derive_seed;
use ppn_graph::trace;
use ppn_graph::{Constraints, Partition, WeightedGraph};

/// Refine `p` upward through arena levels `from..to` (finest-first
/// indexing, iterated coarse→fine). On entry `p` lives on the graph
/// *coarser* than level `to-1` — projecting through `hier.map(i)` lands
/// on level `i`. Each level refines directly on its arena slice
/// ([`LevelView`](ppn_graph::LevelView)) — no per-level graph is
/// materialised. Levels at or above
/// [`parallel_refine_min_nodes`](GpParams::parallel_refine_min_nodes)
/// take the parallel frozen-evaluation sweep.
///
/// The budget is consulted once per level: when it expires (or the
/// remaining wall-clock cannot fit the level's edge count) the loop
/// keeps projecting up — an O(n) must-finish step, or the partition
/// would live on the wrong graph — but skips the refinement sweeps.
#[allow(clippy::too_many_arguments)]
fn refine_up(
    hier: &FlatHierarchy,
    range: std::ops::Range<usize>,
    mut p: Partition,
    c: &Constraints,
    params: &GpParams,
    stream: u64,
    budget: &Budget,
    degraded: &mut Option<Degradation>,
) -> Partition {
    for i in range.rev() {
        let _lvl = trace::span("gp", "level", i as i64);
        p = p.project(hier.map(i));
        let level = hier.level(i);
        if budget
            .checkpoint("gp", "refine", level.num_edges() as u64, 0)
            .is_err()
        {
            degraded.get_or_insert_with(|| {
                Degradation::new(
                    "refine",
                    format!("deadline expired; projecting level {i} without refinement"),
                )
            });
            continue;
        }
        let opts = RefineOptions {
            max_passes: params.refine_passes,
            seed: derive_seed(params.seed, stream ^ (i as u64) << 8),
            protect_nonempty: true,
        };
        // reduced-footprint budgets pin refinement to the serial sweep —
        // the parallel path clones per-shard evaluation buffers
        let parallel = params.parallel && !budget.reduced_footprint();
        if parallel && level.num_nodes() >= params.parallel_refine_min_nodes {
            constrained_refine_parallel_csr(level, &mut p, c, &opts);
        } else {
            constrained_refine(level, &mut p, c, &opts);
        }
    }
    p
}

/// Run the full GP algorithm. Returns `Ok` when the constraints are met,
/// `Err(GpInfeasible)` (carrying the best attempt) otherwise.
pub fn gp_partition(
    g: &WeightedGraph,
    k: usize,
    c: &Constraints,
    params: &GpParams,
) -> Result<GpResult, Box<GpInfeasible>> {
    gp_partition_budgeted(g, k, c, params, &Budget::unlimited())
}

/// [`gp_partition`] under a cooperative [`Budget`]. Checks happen only
/// at cycle/level/attempt boundaries, so with `Budget::unlimited()` the
/// run is bit-identical to the unbudgeted entry point. On deadline
/// expiry the engine returns its best partition so far — always complete
/// and always projected to the finest graph — and records what was cut
/// short in [`GpResult::degraded`].
pub fn gp_partition_budgeted(
    g: &WeightedGraph,
    k: usize,
    c: &Constraints,
    params: &GpParams,
    budget: &Budget,
) -> Result<GpResult, Box<GpInfeasible>> {
    assert!(k >= 1, "k must be at least 1");
    assert!(g.num_nodes() > 0, "cannot partition an empty graph");

    let _run = trace::span("gp", "partition", g.num_nodes() as i64);
    let mut best: Option<((u64, u64, u64), Partition)> = None;
    let mut trace: Vec<CycleTrace> = Vec::new();
    let mut cycles_used = 0;
    let mut phases = PhaseSeconds::default();
    let mut degraded: Option<Degradation> = None;
    let matchings = params.effective_matchings();
    // Reduced-footprint budgets (the fallback driver's memory-shed
    // retry) trade quality for bytes: fewer initial restarts, a single
    // intermediate attempt, serial refinement (see refine_up).
    let initial_restarts = if budget.reduced_footprint() {
        params.initial_restarts.min(2)
    } else {
        params.initial_restarts
    };
    let intermediate_attempts = if budget.reduced_footprint() {
        1
    } else {
        params.intermediate_attempts
    };

    'cycles: for cycle in 0..params.max_cycles.max(1) {
        let _cyc = trace::span("gp", "cycle", cycle as i64);
        if cycle > 0 && budget.checkpoint("gp", "cycle", 0, 0).is_err() {
            degraded.get_or_insert_with(|| {
                Degradation::new("cycle", format!("deadline expired after {cycle} cycle(s)"))
            });
            break;
        }
        cycles_used = cycle + 1;
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
            degraded.get_or_insert_with(|| Degradation::new("coarsen", reason));
            let p = Partition::contiguous_balanced(g.node_weights(), k);
            let goodness = PartitionQuality::measure(g, &p).goodness_key(c.rmax, c.bmax);
            if best.as_ref().map(|(bg, _)| goodness < *bg).unwrap_or(true) {
                best = Some((goodness, p));
            }
            break 'cycles;
        }

        // hierarchy for this cycle ("go back to coarsening phase …
        // randomly, cyclically") — built in the flat level arena
        budget.fault_point("gp", "coarsen");
        let sp = trace::timed_span("gp", "coarsen", cycle as i64);
        // the reservation is declared before the hierarchy so it drops
        // after it: the ledger bytes stay claimed while the arena lives
        let mut reservation = budget.begin_reservation();
        let (hier, coarsen_cut_short) = gp_coarsen_flat_budgeted_observed(
            g,
            &matchings,
            params.coarsen_to,
            cycle_seed,
            budget,
            &mut reservation,
            &mut |_| {},
        );
        phases.coarsen_s += sp.finish();
        if let Some(reason) = coarsen_cut_short {
            degraded.get_or_insert_with(|| Degradation::new("coarsen", reason));
        }
        let levels = hier.depth() - 1;
        let mid = levels / 2;
        let sizes = hier.size_trace();
        let level_winners = hier.winners.clone();

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
            degraded.get_or_insert_with(|| {
                Degradation::new(
                    "initial",
                    "deadline expired; contiguous fallback on the coarsest level",
                )
            });
            let mut p = Partition::contiguous_balanced(coarsest.node_weights(), k);
            for i in (0..levels).rev() {
                p = p.project(hier.map(i));
            }
            let goodness = PartitionQuality::measure(g, &p).goodness_key(c.rmax, c.bmax);
            let is_better = best.as_ref().map(|(bg, _)| goodness < *bg).unwrap_or(true);
            if is_better {
                best = Some((goodness, p));
            }
            break 'cycles;
        }

        // the coarsest graph is tiny (~coarsen_to nodes); materialise it
        // once per cycle for the initial partitioner, adjacency in edge
        // creation order even when it is a JSON input's uncoarsened level
        let coarsest = hier.coarsest_graph();

        // generate intermediate clustering candidates
        budget.fault_point("gp", "initial");
        let attempts = intermediate_attempts.max(1);
        let mut candidates: Vec<((u64, u64, u64), Partition)> = Vec::with_capacity(attempts);
        for attempt in 0..attempts {
            let _att = trace::span("gp", "attempt", attempt as i64);
            if attempt > 0 && budget.checkpoint("gp", "initial", 0, 0).is_err() {
                degraded.get_or_insert_with(|| {
                    Degradation::new(
                        "initial",
                        format!("deadline expired after {attempt} intermediate attempt(s)"),
                    )
                });
                break;
            }
            let attempt_seed = derive_seed(cycle_seed, attempt as u64);
            let sp = trace::timed_span("gp", "initial", attempt as i64);
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
            phases.initial_s += sp.finish();
            // refine from the coarsest up to the intermediate level
            let sp = trace::timed_span("gp", "refine", attempt as i64);
            let p_mid = refine_up(
                &hier,
                mid..levels,
                p0,
                c,
                params,
                attempt_seed,
                budget,
                &mut degraded,
            );
            phases.refine_s += sp.finish();
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
        let sp = trace::timed_span("gp", "refine", -1);
        let p_top = refine_up(
            &hier,
            0..mid,
            p_mid,
            c,
            params,
            derive_seed(cycle_seed, 0x70),
            budget,
            &mut degraded,
        );
        phases.refine_s += sp.finish();
        let quality = PartitionQuality::measure(g, &p_top);
        let goodness = quality.goodness_key(c.rmax, c.bmax);

        let is_better = match &best {
            None => true,
            Some((bg, _)) => goodness < *bg,
        };
        if is_better {
            best = Some((goodness, p_top));
        }
        // feasible ⇒ violations are zero ⇒ goodness.0 == 0
        if best.as_ref().map(|(g, _)| g.0 == 0).unwrap_or(false) {
            break 'cycles;
        }
    }

    if let Some(d) = &degraded {
        trace::instant_label("gp", "degraded", 0, &format!("{}: {}", d.phase, d.reason));
    }
    let (_, partition) = best.expect("at least one cycle ran");
    let quality = PartitionQuality::measure(g, &partition);
    let report = c.check_quality(&quality);
    let feasible = report.is_feasible();
    let result = GpResult {
        partition,
        quality,
        report,
        feasible,
        cycles_used,
        trace,
        phases,
        degraded,
    };
    if feasible {
        Ok(result)
    } else {
        Err(Box::new(GpInfeasible { best: result }))
    }
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
        let r = gp_partition(&g, 4, &c, &GpParams::default()).expect("feasible");
        assert!(r.feasible);
        assert!(r.partition.is_complete());
        assert!(c.is_feasible(&g, &r.partition));
        assert_eq!(r.quality.total_cut, edge_cut(&g, &r.partition));
    }

    #[test]
    fn impossible_instance_reports_infeasible() {
        let g = four_triads();
        // rmax below the heaviest node: provably impossible
        let c = Constraints::new(10, 1000);
        let err = gp_partition(&g, 4, &c, &GpParams::default()).unwrap_err();
        assert!(!err.best.feasible);
        assert!(err.to_string().contains("impossible"));
        assert!(err.best.partition.is_complete());
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
        let r = gp_partition(&g, 4, &c, &params).expect("feasible");
        assert!(!r.trace.is_empty());
        // each cycle has exactly one selected attempt
        for cyc in 0..r.cycles_used {
            let selected = r
                .trace
                .iter()
                .filter(|t| t.cycle == cyc && t.selected)
                .count();
            let total = r.trace.iter().filter(|t| t.cycle == cyc).count();
            if total > 0 {
                assert_eq!(selected, 1, "cycle {cyc} should select exactly one");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = four_triads();
        let c = Constraints::new(150, 20);
        let a = gp_partition(&g, 4, &c, &GpParams::default()).unwrap();
        let b = gp_partition(&g, 4, &c, &GpParams::default()).unwrap();
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn phase_timings_are_recorded() {
        let g = four_triads();
        let c = Constraints::new(150, 20);
        let r = gp_partition(&g, 4, &c, &GpParams::default()).unwrap();
        // every run coarsens, partitions and refines at least once
        assert!(r.phases.initial_s > 0.0, "{:?}", r.phases);
        assert!(r.phases.total_s() >= r.phases.initial_s);
    }

    #[test]
    fn early_exit_on_feasibility() {
        let g = four_triads();
        let c = Constraints::new(500, 500); // trivially feasible
        let r = gp_partition(&g, 2, &c, &GpParams::default()).unwrap();
        assert_eq!(r.cycles_used, 1, "should stop after the first cycle");
    }

    #[test]
    fn small_graph_without_coarsening_works() {
        let g = four_triads(); // 12 nodes < coarsen_to=100 → no levels
        let c = Constraints::new(150, 25);
        let r = gp_partition(&g, 4, &c, &GpParams::default()).unwrap();
        assert!(r.feasible);
        for t in &r.trace {
            assert_eq!(t.hierarchy_sizes.len(), 1);
        }
    }

    #[test]
    fn unlimited_budget_is_bit_identical() {
        let g = four_triads();
        let c = Constraints::new(150, 20);
        let plain = gp_partition(&g, 4, &c, &GpParams::default()).expect("feasible");
        let budgeted = gp_partition_budgeted(&g, 4, &c, &GpParams::default(), &Budget::unlimited())
            .expect("feasible");
        assert_eq!(plain.partition, budgeted.partition);
        assert!(budgeted.degraded.is_none());
    }

    #[test]
    fn expired_deadline_degrades_but_returns_a_complete_partition() {
        let g = four_triads();
        let c = Constraints::new(150, 20);
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let r = match gp_partition_budgeted(&g, 4, &c, &GpParams::default(), &budget) {
            Ok(r) => r,
            Err(e) => e.best,
        };
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
        let r = gp_partition_budgeted(&g, 4, &c, &GpParams::default(), &budget)
            .unwrap_or_else(|e| e.best);
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
        let a = gp_partition_budgeted(&g, 4, &c, &GpParams::default(), &make_budget())
            .unwrap_or_else(|e| e.best);
        let b = gp_partition_budgeted(&g, 4, &c, &GpParams::default(), &make_budget())
            .unwrap_or_else(|e| e.best);
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
        let r = gp_partition_budgeted(&g, 4, &c, &GpParams::default(), &budget).expect("feasible");
        assert!(r.feasible);
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
        let r = gp_partition(&g, 4, &c, &GpParams::default()).expect("feasible");
        assert!(r.feasible);
        assert!(
            r.trace[0].hierarchy_sizes.len() > 1,
            "240 nodes must trigger coarsening: {:?}",
            r.trace[0].hierarchy_sizes
        );
    }
}
