//! Timed calls into the public layer entry points — the only place the
//! benchmark calls below `Partitioner::partition`, `BatchSession::run`
//! and `repartition`.
//!
//! [`replay_gp`] repeats what `GpBackend::partition` does under an
//! unlimited budget, call for call: validation, then per cycle the flat
//! coarsening, the greedy initial partitioning per intermediate attempt,
//! the CSR refine entry per level, the mid-level and top-level quality
//! measurements, and the same early exit once a cycle is feasible. It
//! draws the same `derive_seed` streams, so its partition must be
//! bit-identical to the one the real entry point returned; the callers
//! check that. Each call is timed from outside, so the layer seconds
//! plus the unattributed residual add up to the replay's wall-clock.
//!
//! Other layers (the `rb` and `hyper` engines, delta application,
//! quality measurement) are timed per call.

use gp_core::{
    constrained_refine_csr, constrained_refine_parallel_csr, gp_coarsen_flat_budgeted_observed,
    greedy_initial_partition, FlatHierarchy, GpParams, InitialOptions, MatchingKind, RefineOptions,
};
use ppn_backend::{
    validate_instance, PartitionError, PartitionInstance, PartitionOutcome, Partitioner,
};
use ppn_graph::metrics::PartitionQuality;
use ppn_graph::prng::derive_seed;
use ppn_graph::{Budget, Constraints, DeltaMap, GraphDelta, GraphError, Partition, WeightedGraph};
use std::time::Instant;

/// Busy seconds and work counts per layer, summed over a traced run.
#[derive(Default, Debug)]
pub struct Layers {
    pub validate_s: f64,
    /// Whole coarsening calls (contraction included).
    pub coarsen_s: f64,
    /// The contraction part of `coarsen_s`.
    pub contract_s: f64,
    pub coarsen_calls: u64,
    pub levels: u64,
    pub coarsest_nodes: u64,
    pub hier_edges: u64,
    pub input_edges: u64,
    pub arena_bytes_max: u64,
    /// Tournament wins and entrant seconds, indexed random, heavy-edge,
    /// k-means.
    pub wins: [u64; 3],
    pub match_s: [f64; 3],
    pub initial_s: f64,
    pub initial_calls: u64,
    /// Projection plus the refine entry, per level.
    pub refine_s: f64,
    pub refine_moves: u64,
    pub quality_s: f64,
    pub cycles: u64,
    /// Wall-clock of every `replay_gp` call, and the part of it no
    /// timed layer call accounts for.
    pub replay_wall_s: f64,
    pub replay_residual_s: f64,
    pub rb_s: f64,
    pub hyper_s: f64,
    pub delta_s: f64,
    // service layers, timed around the public entry points
    pub batch_overhead_s: f64,
    pub fallbacks: u64,
    pub warm_s: f64,
    pub scratch_s: f64,
    pub steps: u64,
    pub warm_steps: u64,
    pub moved_nodes: u64,
    pub migration_sum: f64,
}

impl Layers {
    /// Busy seconds of the layers a replay splits its wall-clock into
    /// (contraction and entrant seconds are nested inside coarsening).
    fn attributed_s(&self) -> f64 {
        self.validate_s + self.coarsen_s + self.initial_s + self.refine_s + self.quality_s
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    out
}

fn entrant(kind: MatchingKind) -> Option<usize> {
    match kind {
        MatchingKind::Random => Some(0),
        MatchingKind::HeavyEdge => Some(1),
        MatchingKind::KMeans => Some(2),
        MatchingKind::HeavyEdgeNodeScan => None,
    }
}

/// Replay `GpBackend::default().partition(inst, seed, &Budget::unlimited())`
/// layer by layer and return its partition.
pub fn replay_gp(
    inst: &PartitionInstance,
    seed: u64,
    acc: &mut Layers,
) -> Result<Partition, PartitionError> {
    let wall = Instant::now();
    let attributed_before = acc.attributed_s();
    timed(&mut acc.validate_s, || validate_instance(inst))?;
    let (g, k, c) = (&inst.graph, inst.k, &inst.constraints);
    let params = GpParams::default().with_seed(seed);
    let matchings = params.effective_matchings();
    let mut best: Option<((u64, u64, u64), Partition)> = None;
    for cycle in 0..params.max_cycles.max(1) {
        acc.cycles += 1;
        let cycle_seed = derive_seed(params.seed, 0xC1C + cycle as u64);
        let hier = coarsen(g, &matchings, params.coarsen_to, cycle_seed, acc);
        let levels = hier.depth() - 1;
        let mid = levels / 2;
        let coarsest = hier.coarsest_graph();
        let mut candidates = Vec::new();
        for attempt in 0..params.intermediate_attempts.max(1) {
            let attempt_seed = derive_seed(cycle_seed, attempt as u64);
            let opts = InitialOptions {
                restarts: params.initial_restarts,
                repair_passes: params.refine_passes,
                seed: attempt_seed,
                parallel: params.parallel,
            };
            let p0 = timed(&mut acc.initial_s, || {
                greedy_initial_partition(&coarsest, k, c, &opts)
            });
            acc.initial_calls += 1;
            let p_mid = refine_up(&hier, mid..levels, p0, c, &params, attempt_seed, acc);
            let goodness = timed(&mut acc.quality_s, || {
                PartitionQuality::measure_csr(hier.level(mid).csr_view(), &p_mid)
                    .goodness_key(c.rmax, c.bmax)
            });
            candidates.push((goodness, p_mid));
        }
        let winner = (0..candidates.len())
            .min_by_key(|&i| (candidates[i].0, i))
            .expect("at least one attempt");
        let (_, p_mid) = candidates.swap_remove(winner);
        let top_stream = derive_seed(cycle_seed, 0x70);
        let p_top = refine_up(&hier, 0..mid, p_mid, c, &params, top_stream, acc);
        let goodness = timed(&mut acc.quality_s, || {
            PartitionQuality::measure(g, &p_top).goodness_key(c.rmax, c.bmax)
        });
        if best.as_ref().is_none_or(|(bg, _)| goodness < *bg) {
            best = Some((goodness, p_top));
        }
        if best.as_ref().is_some_and(|(bg, _)| bg.0 == 0) {
            break;
        }
    }
    let (_, partition) = best.expect("at least one cycle ran");
    // the engine's closing measurement, then the outcome's own
    timed(&mut acc.quality_s, || {
        c.check_quality(&PartitionQuality::measure(g, &partition))
    });
    timed(&mut acc.quality_s, || {
        c.check_quality(&PartitionQuality::measure(g, &partition))
    });
    let wall_s = wall.elapsed().as_secs_f64();
    acc.replay_wall_s += wall_s;
    acc.replay_residual_s += wall_s - (acc.attributed_s() - attributed_before);
    Ok(partition)
}

/// One cycle's hierarchy, with the observed hook's per-level seconds.
fn coarsen(
    g: &WeightedGraph,
    kinds: &[MatchingKind],
    coarsen_to: usize,
    seed: u64,
    acc: &mut Layers,
) -> FlatHierarchy {
    let budget = Budget::unlimited();
    let mut reservation = budget.begin_reservation();
    let (mut contract_s, mut match_s) = (0.0, [0.0; 3]);
    let (hier, _) = timed(&mut acc.coarsen_s, || {
        gp_coarsen_flat_budgeted_observed(
            g,
            kinds,
            coarsen_to,
            seed,
            &budget,
            &mut reservation,
            &mut |level| {
                contract_s += level.contract_s;
                for h in &level.heuristics {
                    if let Some(i) = entrant(h.kind) {
                        match_s[i] += h.seconds;
                    }
                }
            },
        )
    });
    acc.contract_s += contract_s;
    for (total, s) in acc.match_s.iter_mut().zip(match_s) {
        *total += s;
    }
    for &w in &hier.winners {
        if let Some(i) = entrant(w) {
            acc.wins[i] += 1;
        }
    }
    let depth = hier.depth();
    acc.coarsen_calls += 1;
    acc.levels += (depth - 1) as u64;
    acc.coarsest_nodes += hier.arena.level_nodes(depth - 1) as u64;
    acc.hier_edges += (0..depth)
        .map(|l| hier.arena.level_edges(l) as u64)
        .sum::<u64>();
    acc.input_edges += g.num_edges() as u64;
    acc.arena_bytes_max = acc.arena_bytes_max.max(hier.arena.total_bytes() as u64);
    hier
}

/// Project and refine through levels `range` (iterated coarse to fine),
/// choosing the serial or parallel CSR entry as the engine does.
fn refine_up(
    hier: &FlatHierarchy,
    range: std::ops::Range<usize>,
    mut p: Partition,
    c: &Constraints,
    params: &GpParams,
    stream: u64,
    acc: &mut Layers,
) -> Partition {
    for i in range.rev() {
        let t = Instant::now();
        p = p.project(hier.map(i));
        let level = hier.level(i).csr_view();
        let opts = RefineOptions {
            max_passes: params.refine_passes,
            seed: derive_seed(params.seed, stream ^ ((i as u64) << 8)),
            protect_nonempty: true,
        };
        let moves = if params.parallel && level.num_nodes() >= params.parallel_refine_min_nodes {
            constrained_refine_parallel_csr(level, &mut p, c, &opts)
        } else {
            constrained_refine_csr(level, &mut p, c, &opts)
        };
        acc.refine_moves += moves as u64;
        acc.refine_s += t.elapsed().as_secs_f64();
    }
    p
}

/// One `partition` call of a non-gp backend, timed into `slot`.
pub fn time_backend(
    backend: &dyn Partitioner,
    inst: &PartitionInstance,
    seed: u64,
    slot: &mut f64,
) -> Result<PartitionOutcome, PartitionError> {
    timed(slot, || backend.partition(inst, seed, &Budget::unlimited()))
}

/// `GraphDelta::apply`, timed into the delta layer.
pub fn apply_delta(
    delta: &GraphDelta,
    base: &WeightedGraph,
    acc: &mut Layers,
) -> Result<(WeightedGraph, DeltaMap), GraphError> {
    timed(&mut acc.delta_s, || delta.apply(base))
}

/// `PartitionQuality::measure`, timed into the quality layer.
pub fn measure(g: &WeightedGraph, p: &Partition, acc: &mut Layers) -> PartitionQuality {
    timed(&mut acc.quality_s, || PartitionQuality::measure(g, p))
}
