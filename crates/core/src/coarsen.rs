//! GP coarsening: best-of-three matchings per level (paper §IV-A).
//!
//! "We use in this work all three heuristics algorithms (Random, HEM,
//! K-Means) to get the matching. These heuristics are employed at
//! different times, multiple times, in order to find the best matching
//! for the given graph. Each time we compare the results of the three
//! heuristics with each other and choose the best one."
//!
//! The comparison criterion is the *absorbed edge weight* — the total
//! bandwidth hidden inside coarse nodes. Maximising it minimises the
//! bandwidth any partition of the coarse graph can possibly expose,
//! which is the quantity the `Bmax` constraint cares about. Ties go to
//! the matching with more pairs (faster shrinkage), then to the earlier
//! heuristic in the configured list (determinism).
//!
//! ## Hot-path engineering
//!
//! The per-level tournament is the partitioner's dominant cost at scale,
//! so the loop does its shared work once:
//!
//! * a [`MatchScratch`] builds the shuffled+sorted edge order **once per
//!   level** (the `gp:edge_order` span, before any entrant starts) and
//!   shares it between heavy-edge and k-means matching (each heuristic
//!   used to allocate and re-sort its own copy). Its entries are
//!   `(weight, u, v)` triples, so both heuristics read endpoints in
//!   sequence instead of looking each edge id up at random. The radix
//!   sort behind it needs a second buffer of the level's edge count,
//!   allocated per level, and each entrant allocates its own
//!   [`Matching`];
//! * a [`Matching`] keeps 4-byte mates, counts its pairs as they are
//!   added (the tournament's second key and the stall check read the
//!   count, not a scan) and tracks its absorbed weight incrementally
//!   (`Matching::absorbed`, O(1)) instead of re-scanning matched pairs
//!   with `find_edge` probes;
//! * the hierarchy lives in one flat CSR [`LevelArena`]: each
//!   contraction appends its coarse edges straight onto the arena's
//!   arrays instead of building a `WeightedGraph` or a temporary edge
//!   list, and levels hand out zero-copy [`LevelView`]s.

use crate::kmeans::{kmeans_matching, kmeans_matching_prepared};
use crate::params::MatchingKind;
use gp_classic::matching::{
    heavy_edge_matching, heavy_edge_matching_node_scan, heavy_edge_matching_prepared,
    shuffled_sorted_edges,
};
use ppn_graph::arena::{LevelArena, LevelView};
use ppn_graph::budget::{Budget, Reservation, Stop};
use ppn_graph::matching::{random_maximal_matching, Matching};
use ppn_graph::prng::derive_seed;
use ppn_graph::trace;
use ppn_graph::{Partition, WeightedGraph};
use rayon::prelude::*;

/// Seed stream of the per-level shared edge order (distinct from every
/// per-heuristic stream).
const EDGE_ORDER_STREAM: u64 = 0xED6E;

thread_local! {
    /// The tournament edge order retained *across* coarsening runs on
    /// one thread. A batch driver partitions many instances back to
    /// back; parking the buffer here between runs lets the next item
    /// reuse it.
    static SCRATCH_POOL: std::cell::RefCell<Option<MatchScratch>> =
        const { std::cell::RefCell::new(None) };
}

/// Take the thread's parked scratch (fresh on the first run, or when a
/// nested coarsen call already holds it).
fn pool_take() -> MatchScratch {
    match SCRATCH_POOL.with(|p| p.borrow_mut().take()) {
        Some(scratch) => {
            trace::counter("batch", "scratch_reuse", 1);
            scratch
        }
        None => MatchScratch::default(),
    }
}

/// Park the scratch for the thread's next run.
fn pool_put(scratch: MatchScratch) {
    SCRATCH_POOL.with(|p| *p.borrow_mut() = Some(scratch));
}

/// True when this thread has a parked scratch pool from an earlier run
/// — i.e. the next coarsen call will amortize its setup. Exposed for
/// the batch-session tests.
pub fn scratch_pool_warm() -> bool {
    SCRATCH_POOL.with(|p| p.borrow().is_some())
}

/// Reusable per-level working memory for the matching tournament: the
/// shuffled-then-sorted `(weight, u, v)` order shared by heavy-edge and
/// k-means matching. `prepare` rebuilds it over the previous level's
/// order; the radix sort allocates a second buffer of the level's edge
/// count and keeps whichever of the two holds the result.
#[derive(Clone, Debug, Default)]
pub struct MatchScratch {
    edges: Vec<(u64, u32, u32)>,
}

impl MatchScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the shared edge order for one level.
    pub fn prepare<'a>(&mut self, g: impl Into<LevelView<'a>>, seed: u64) {
        shuffled_sorted_edges(g, seed, &mut self.edges);
    }

    /// The prepared `(weight, u, v)` order, heaviest first.
    pub fn edges(&self) -> &[(u64, u32, u32)] {
        &self.edges
    }
}

/// Run one matching heuristic standalone (the heuristic builds any edge
/// order it needs itself). The tournament goes through
/// [`best_matching_in`] instead, which shares one prepared order.
pub fn run_matching<'a>(kind: MatchingKind, g: impl Into<LevelView<'a>>, seed: u64) -> Matching {
    let g = g.into();
    match kind {
        MatchingKind::Random => random_maximal_matching(g, seed),
        MatchingKind::HeavyEdge => heavy_edge_matching(g, seed),
        MatchingKind::KMeans => kmeans_matching(g, seed),
        MatchingKind::HeavyEdgeNodeScan => heavy_edge_matching_node_scan(g, seed),
    }
}

/// Run one heuristic over the level's shared edge order.
fn run_matching_prepared(
    kind: MatchingKind,
    g: LevelView<'_>,
    seed: u64,
    edges: &[(u64, u32, u32)],
) -> Matching {
    match kind {
        MatchingKind::Random => random_maximal_matching(g, seed),
        MatchingKind::HeavyEdge => heavy_edge_matching_prepared(g, edges),
        MatchingKind::KMeans => kmeans_matching_prepared(g, seed, edges),
        MatchingKind::HeavyEdgeNodeScan => heavy_edge_matching_node_scan(g, seed),
    }
}

/// Wall-clock seconds one tournament entrant took at one level (the
/// winner's name alone does not say what the losers cost).
#[derive(Clone, Debug)]
pub struct HeuristicTiming {
    /// The heuristic.
    pub kind: MatchingKind,
    /// Seconds spent producing its matching. The shared edge order,
    /// built once per level before any entrant starts, is not included;
    /// its `gp:edge_order` span times it.
    pub seconds: f64,
}

/// Pick the best matching among `kinds` for `g` (see module docs for the
/// criterion). Returns the winning kind alongside the matching.
///
/// The heuristics of the tournament run concurrently on rayon; the
/// winner is selected with a total order (absorbed weight, pair count,
/// earliest heuristic), so the result is identical at any thread count.
pub fn best_matching<'a>(
    kinds: &[MatchingKind],
    g: impl Into<LevelView<'a>>,
    seed: u64,
) -> (MatchingKind, Matching) {
    let (kind, m, _) = best_matching_in(kinds, g, seed, &mut MatchScratch::new());
    (kind, m)
}

/// [`best_matching`] with a caller-held [`MatchScratch`]; also returns
/// the per-heuristic timings. The scratch's edge order is (re)built here
/// from the level seed and shared by every entrant, so a level sorts the
/// edge list exactly once.
pub fn best_matching_in<'a>(
    kinds: &[MatchingKind],
    g: impl Into<LevelView<'a>>,
    seed: u64,
    scratch: &mut MatchScratch,
) -> (MatchingKind, Matching, Vec<HeuristicTiming>) {
    let g = g.into();
    assert!(!kinds.is_empty(), "need at least one matching heuristic");
    // only the edge-scan heuristics consume the shared order — skip its
    // build for pure Random/node-scan ablations
    let needs_order = kinds
        .iter()
        .any(|k| matches!(k, MatchingKind::HeavyEdge | MatchingKind::KMeans));
    if needs_order {
        let _sp = trace::span("gp", "edge_order", g.num_edges() as i64);
        scratch.prepare(g, derive_seed(seed, EDGE_ORDER_STREAM));
    } else {
        scratch.edges.clear();
    }
    let edges = scratch.edges();
    type Scored = (
        (u64, usize, std::cmp::Reverse<usize>),
        MatchingKind,
        Matching,
        f64,
    );
    let score = |(i, kind): (usize, MatchingKind)| -> Scored {
        let sp = trace::timed_span("gp", "matching_entrant", i as i64);
        let m = run_matching_prepared(kind, g, derive_seed(seed, i as u64), edges);
        let seconds = sp.finish();
        let key = (m.absorbed(), m.num_pairs(), std::cmp::Reverse(i));
        (key, kind, m, seconds)
    };
    let indexed: Vec<(usize, MatchingKind)> = kinds.iter().copied().enumerate().collect();
    // each entrant records into the caller's trace session
    let scope = trace::current();
    let scored: Vec<Scored> = indexed
        .into_par_iter()
        .map(|entrant| scope.run(|| score(entrant)))
        .collect();
    let timings: Vec<HeuristicTiming> = scored
        .iter()
        .map(|(_, kind, _, seconds)| HeuristicTiming {
            kind: *kind,
            seconds: *seconds,
        })
        .collect();
    let (_, kind, m, _) = scored
        .into_iter()
        .max_by_key(|(key, _, _, _)| *key)
        .expect("at least one heuristic");
    (kind, m, timings)
}

/// Per-level coarsening statistics reported to the observer of
/// [`gp_coarsen_flat_budgeted_observed`]. The timing fields are
/// populated from the same `timed_span` sites that emit `gp:matching` /
/// `gp:contract` trace spans, so this callback is effectively a
/// per-level consumer of those spans.
#[derive(Clone, Debug)]
pub struct LevelTiming {
    /// Level index (0 = finest).
    pub level: usize,
    /// Nodes of the finer graph.
    pub fine_nodes: usize,
    /// Edges of the finer graph.
    pub fine_edges: usize,
    /// Nodes after contraction.
    pub coarse_nodes: usize,
    /// Which heuristic won the tournament.
    pub matching_kind: MatchingKind,
    /// Seconds spent in the matching tournament.
    pub matching_s: f64,
    /// Seconds spent contracting.
    pub contract_s: f64,
    /// Seconds per tournament entrant, in `kinds` order.
    pub heuristics: Vec<HeuristicTiming>,
}

/// The GP coarsening hierarchy, stored in a flat CSR level arena: each
/// contraction appends compact u32/u64 arrays into shared allocations
/// instead of building a [`WeightedGraph`] per level, and levels hand out
/// zero-copy [`LevelView`]s for matching and refinement.
///
/// A level's view is exactly what the same graph as a [`WeightedGraph`]
/// would hand out, so every seeded heuristic consumes the same edge and
/// adjacency order and the hierarchy equals the textbook
/// match-then-contract loop level by level (`tests/flat_hierarchy.rs`
/// pins this).
#[derive(Clone, Debug)]
pub struct FlatHierarchy {
    /// The levels' storage.
    pub arena: LevelArena,
    /// Which heuristic won at each contracted level (finest first); one
    /// entry per contraction, i.e. `arena.num_levels() - 1`.
    pub winners: Vec<MatchingKind>,
}

impl FlatHierarchy {
    /// Number of graphs in the hierarchy (contractions + 1).
    pub fn depth(&self) -> usize {
        self.arena.num_levels()
    }

    /// Node counts per graph, finest first (the paper's Fig. 1 trace).
    pub fn size_trace(&self) -> Vec<usize> {
        self.arena.size_trace()
    }

    /// Borrow level `i` (0 = finest).
    pub fn level(&self, i: usize) -> LevelView<'_> {
        self.arena.level(i)
    }

    /// Fine→coarse map from level `i` to level `i + 1`.
    pub fn map(&self, i: usize) -> &[u32] {
        self.arena.map_slice(i)
    }

    /// Carry a partition of level `from` to the finest level by
    /// projection alone: no refinement and no budget checkpoint.
    pub fn project_to_finest(&self, mut p: Partition, from: usize) -> Partition {
        for i in (0..from).rev() {
            p = p.project(self.map(i));
        }
        p
    }

    /// Materialise the coarsest level as an owned graph (unlabeled) for
    /// the initial partitioner — at `coarsen_to` nodes this is tiny. Its
    /// adjacency is in edge creation order ([`LevelView::to_graph`]).
    pub fn coarsest_graph(&self) -> WeightedGraph {
        self.arena.top().to_graph()
    }
}

/// Build a GP hierarchy down to `coarsen_to` nodes, choosing the best of
/// the configured matchings at every level (unlimited budget, no
/// observer).
pub fn gp_coarsen_flat(
    g: &WeightedGraph,
    kinds: &[MatchingKind],
    coarsen_to: usize,
    seed: u64,
) -> FlatHierarchy {
    let budget = Budget::unlimited();
    let mut res = budget.begin_reservation();
    gp_coarsen_flat_budgeted_observed(g, kinds, coarsen_to, seed, &budget, &mut res, &mut |_| {}).0
}

/// [`gp_coarsen_flat`] under a [`Budget`], with a per-level observer:
/// the budget is consulted only at level boundaries (a level's matching
/// tournament and contraction run uninterrupted), and a level is started
/// only when the `gp:coarsen` [`Budget::checkpoint`] admits its edge
/// count and arena growth, which is then reserved
/// ([`LevelArena::try_reserve_level`] against `res`; the caller owns the
/// reservation so the tracked bytes stay reserved for as long as it
/// keeps the hierarchy alive). Returns the hierarchy built so far plus
/// the truncation reason when the budget stopped coarsening early —
/// `None` means the hierarchy is exactly what an unlimited budget
/// produces.
#[allow(clippy::too_many_arguments)]
pub fn gp_coarsen_flat_budgeted_observed(
    g: &WeightedGraph,
    kinds: &[MatchingKind],
    coarsen_to: usize,
    seed: u64,
    budget: &Budget,
    res: &mut Reservation,
    observe: &mut dyn FnMut(&LevelTiming),
) -> (FlatHierarchy, Option<String>) {
    let mut cut_short: Option<String> = None;
    // Reserve the finest level before materialising it; refusal cannot
    // skip the arena (the hierarchy needs level 0 to exist) but stops
    // coarsening before it doubles the footprint. The conservative
    // estimate contracts to the measured size right after. Only memory
    // is asked here: the deadline is the first level's question.
    let est0 = LevelArena::level_bytes_estimate(g.num_nodes(), g.num_edges());
    if budget.checkpoint("gp", "coarsen", 0, est0) == Err(Stop::Memory) || !res.try_grow(est0) {
        cut_short = Some(format!(
            "memory budget cannot fit the finest level ({est0} bytes)"
        ));
    }
    let mut arena = LevelArena::from_graph(g);
    if cut_short.is_none() {
        res.shrink(est0.saturating_sub(arena.total_bytes() as u64));
    }
    let mut winners = Vec::new();
    let mut match_scratch = pool_take();
    let mut round = 0u64;
    while cut_short.is_none() && arena.top().num_nodes() > coarsen_to {
        let _lvl = trace::span("gp", "coarsen_level", round as i64);
        let top = arena.num_levels() - 1;
        let (fine_nodes, fine_edges) = (arena.level_nodes(top), arena.level_edges(top));
        // the level's matching work and the arena growth it would append
        let want = arena.next_level_bytes_bound();
        let stop = budget
            .checkpoint("gp", "coarsen", fine_edges as u64, want)
            .and_then(|()| arena.try_reserve_level(res).map_err(|_| Stop::Memory));
        let reserved = match stop {
            Ok(bytes) => bytes,
            Err(Stop::Memory) => {
                cut_short = Some(format!(
                    "memory budget cannot fit coarsen level {round} ({want} bytes)"
                ));
                break;
            }
            Err(Stop::Deadline) => {
                cut_short = Some(format!(
                    "deadline cannot fit coarsen level {round} over {fine_edges} edges"
                ));
                break;
            }
        };
        let sp = trace::timed_span("gp", "matching", round as i64);
        let (kind, m, heuristics) = best_matching_in(
            kinds,
            arena.top(),
            derive_seed(seed, 0x6C + round),
            &mut match_scratch,
        );
        let matching_s = sp.finish();
        let coarse_nodes = m.coarse_node_count();
        if coarse_nodes as f64 > fine_nodes as f64 * 0.95 {
            trace::counter("gp", "matching_stall", 1);
            res.shrink(reserved); // no level appended after all
            break; // stalled (e.g. star graphs)
        }
        let sp = trace::timed_span("gp", "contract", round as i64);
        let before = arena.total_bytes();
        let cn = arena.contract_top(&m);
        res.shrink(reserved.saturating_sub((arena.total_bytes() - before) as u64));
        let contract_s = sp.finish();
        observe(&LevelTiming {
            level: round as usize,
            fine_nodes,
            fine_edges,
            coarse_nodes: cn,
            matching_kind: kind,
            matching_s,
            contract_s,
            heuristics,
        });
        winners.push(kind);
        round += 1;
    }
    if let Some(reason) = &cut_short {
        trace::instant_label("gp", "coarsen_cut_short", round as i64, reason);
    }
    pool_put(match_scratch);
    (FlatHierarchy { arena, winners }, cut_short)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::GraphBuilder;

    /// The paper's three matchings plus the node-scan HEM variant.
    const FOUR_KINDS: [MatchingKind; 4] = [
        MatchingKind::Random,
        MatchingKind::HeavyEdge,
        MatchingKind::KMeans,
        MatchingKind::HeavyEdgeNodeScan,
    ];

    fn ring(n: usize, w: u64) -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(w)).collect();
        for i in 0..n {
            g.add_edge(ids[i], ids[(i + 1) % n], 1 + (i as u64 % 5))
                .unwrap();
        }
        g.build()
    }

    #[test]
    fn best_matching_picks_highest_absorption() {
        // heavy-edge absorbs the most on a weight-skewed ring
        let g = ring(32, 4);
        let (kind, m, timings) =
            best_matching_in(&MatchingKind::ALL, &g, 7, &mut MatchScratch::new());
        assert!(m.validate(&g));
        assert_eq!(timings.len(), MatchingKind::ALL.len());
        // whatever wins must absorb at least as much as every entrant,
        // re-run over the identical shared order
        let absorbed = m.absorbed_weight(&g);
        let mut scratch = MatchScratch::new();
        scratch.prepare(&g, derive_seed(7, EDGE_ORDER_STREAM));
        for (i, &k) in MatchingKind::ALL.iter().enumerate() {
            let alt = run_matching_prepared(k, g.view(), derive_seed(7, i as u64), scratch.edges());
            assert!(
                absorbed >= alt.absorbed_weight(&g),
                "{kind} absorbed {absorbed} < {k} {}",
                alt.absorbed_weight(&g)
            );
        }
    }

    #[test]
    fn tournament_absorbed_counter_is_exact() {
        let g = ring(48, 3);
        let mut scratch = MatchScratch::new();
        scratch.prepare(&g, derive_seed(11, EDGE_ORDER_STREAM));
        for kind in FOUR_KINDS {
            let m = run_matching_prepared(kind, g.view(), derive_seed(11, 2), scratch.edges());
            assert_eq!(m.absorbed(), m.absorbed_weight(&g), "{kind}");
        }
    }

    #[test]
    fn hierarchy_reaches_target() {
        let g = ring(256, 2);
        let h = gp_coarsen_flat(&g, &MatchingKind::ALL, 32, 5);
        assert!(h.coarsest_graph().num_nodes() <= 32);
        assert_eq!(
            h.coarsest_graph().total_node_weight(),
            g.total_node_weight()
        );
        let trace = h.size_trace();
        assert_eq!(trace[0], 256);
        assert!(
            trace.windows(2).all(|w| w[1] < w[0]),
            "sizes must shrink: {trace:?}"
        );
        assert_eq!(h.winners.len(), h.depth() - 1);
        assert!(h.winners.iter().all(|k| MatchingKind::ALL.contains(k)));
    }

    #[test]
    fn single_heuristic_hierarchy_works() {
        let g = ring(64, 1);
        for kind in FOUR_KINDS {
            let h = gp_coarsen_flat(&g, &[kind], 16, 3);
            assert!(
                h.coarsest_graph().num_nodes() <= 16 || h.depth() == 1,
                "{kind}: {:?}",
                h.size_trace()
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = ring(64, 2);
        let a = gp_coarsen_flat(&g, &MatchingKind::ALL, 16, 9);
        let b = gp_coarsen_flat(&g, &MatchingKind::ALL, 16, 9);
        assert_eq!(a.size_trace(), b.size_trace());
        assert_eq!(a.winners, b.winners);
        for i in 0..a.depth() - 1 {
            assert_eq!(a.map(i), b.map(i));
        }
    }

    #[test]
    fn flat_hierarchy_handles_tiny_and_stalled_graphs() {
        // already at target: no contraction
        let g = ring(8, 1);
        let flat = gp_coarsen_flat(&g, &MatchingKind::ALL, 16, 3);
        assert_eq!(flat.depth(), 1);
        assert!(flat.winners.is_empty());
        // star graph stalls the matching quickly
        let mut star = GraphBuilder::new();
        let hub = star.add_node(1);
        let spokes: Vec<_> = (0..24).map(|_| star.add_node(1)).collect();
        for s in spokes {
            star.add_edge(hub, s, 1).unwrap();
        }
        let star = star.build();
        let flat = gp_coarsen_flat(&star, &MatchingKind::ALL, 4, 7);
        assert_eq!(flat.depth(), 1, "{:?}", flat.size_trace());
    }

    #[test]
    fn observer_reports_per_heuristic_timings() {
        let g = ring(256, 2);
        let budget = Budget::unlimited();
        let mut res = budget.begin_reservation();
        let mut rows = Vec::new();
        let _ = gp_coarsen_flat_budgeted_observed(
            &g,
            &MatchingKind::ALL,
            32,
            5,
            &budget,
            &mut res,
            &mut |t| rows.push((t.level, t.heuristics.len())),
        );
        assert!(!rows.is_empty());
        for (level, n) in rows {
            assert_eq!(n, MatchingKind::ALL.len(), "level {level}");
        }
    }
}
