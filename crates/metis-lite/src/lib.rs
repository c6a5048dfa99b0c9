//! # metis-lite
//!
//! A from-scratch Rust reimplementation of the *unconstrained* multilevel
//! k-way partitioning pipeline popularised by METIS (Karypis & Kumar,
//! SISC 1998) — the baseline the paper compares its constrained
//! partitioner against (Tables I–III use METIS 5.1.0 with default
//! parameters).
//!
//! Pipeline:
//!
//! 1. **Coarsening** — heavy-edge matching (node-scan variant) and
//!    contraction until the graph is below `coarsen_to` nodes or a
//!    matching keeps more than 95% of its nodes. The levels live in one
//!    [`LevelArena`], the flat hierarchy `gp` and `rb` coarsen on too;
//!    only the matching and its seed stream (`0xC0A5 + round`) are
//!    metis's own;
//! 2. **Initial partitioning** — recursive bisection (greedy growing +
//!    FM) on the coarsest level, materialised as a graph;
//! 3. **Un-coarsening** — projection through each level's fine→coarse
//!    map followed by greedy direct k-way boundary refinement of that
//!    level's [`LevelView`] under a balance cap.
//!
//! Exactly like METIS, the only "constraint" honoured is load balance
//! (the `ufactor`); bandwidth between part pairs and absolute per-part
//! resource caps are *not* modelled — which is the behaviour gap the
//! paper's GP algorithm fills (see `gp-core`).
//!
//! The [`rb`] module is the crate's second, *constrained* engine: a
//! multilevel recursive-bisection route to k parts that splits the
//! `Rmax` budget across subproblems and finishes with gp-core's
//! `Bmax`-aware k-way repair — the Schlag-style alternative to GP's
//! direct k-way cycle, exposed as the `rb` backend of `ppn-backend`.

pub mod options;
pub mod rb;

use gp_classic::bisect::recursive_bisection;
use gp_classic::kway::{kway_refine, KwayOptions};
use gp_classic::matching::heavy_edge_matching_node_scan;
use ppn_graph::metrics::PartitionQuality;
use ppn_graph::prng::derive_seed;
use ppn_graph::{GraphView, LevelArena, LevelView, Partition, WeightedGraph};

pub use options::MetisOptions;
pub use rb::{rb_partition, rb_partition_budgeted, RbInfeasible, RbParams, RbResult};

/// Result of a `metis-lite` run.
#[derive(Clone, Debug)]
pub struct KwayResult {
    /// The k-way partition of the input graph.
    pub partition: Partition,
    /// Quality metrics (cut, pairwise bandwidth, resources).
    pub quality: PartitionQuality,
    /// Number of multilevel levels used (1 = no coarsening happened).
    pub levels: usize,
}

/// Partition `g` into `k` parts minimising total edge cut under the
/// balance factor of `opts` (METIS semantics: no bandwidth or resource
/// constraints).
pub fn kway_partition(g: &WeightedGraph, k: usize, opts: &MetisOptions) -> KwayResult {
    assert!(k >= 1, "k must be at least 1");
    let n = g.num_nodes();
    if n == 0 || k == 1 {
        let partition = Partition::all_in_one(n, k);
        let quality = PartitionQuality::measure(g, &partition);
        return KwayResult {
            partition,
            quality,
            levels: 1,
        };
    }

    // 1. coarsen until `coarsen_to` nodes remain or the matching stalls
    // (a star, for one, matches a single pair per round)
    let _run = ppn_graph::trace::span("metis", "kway", n as i64);
    let sp = ppn_graph::trace::span("metis", "coarsen", n as i64);
    let coarsen_to = opts.coarsen_to.max(2 * k);
    let mut arena = LevelArena::from_graph(g);
    for round in 0.. {
        let top = arena.top();
        if top.num_nodes() <= coarsen_to {
            break;
        }
        let m = heavy_edge_matching_node_scan(&top, derive_seed(opts.seed, 0xC0A5 + round));
        if m.coarse_node_count() as f64 > top.num_nodes() as f64 * 0.95 {
            break;
        }
        arena.contract_top(&m);
    }
    let coarsest = arena.top();
    drop(sp);

    // 2. initial partitioning on the coarsest level
    let sp = ppn_graph::trace::span("metis", "initial", coarsest.num_nodes() as i64);
    let mut part = recursive_bisection(
        &coarsest.to_graph(),
        k,
        opts.ufactor,
        derive_seed(opts.seed, 0x1217),
    );
    // METIS's balance cap of `ufactor × total/k` plus the level's own
    // heaviest node, saturating so weights near `u64::MAX` cannot
    // overflow it
    let refine_opts = |level: &LevelView<'_>, stream: u64| {
        let cap = ((level.total_node_weight() as f64 / k as f64) * opts.ufactor).ceil() as u64;
        KwayOptions {
            max_part_weight: vec![cap.saturating_add(level.max_node_weight()); k],
            max_passes: opts.refine_passes,
            seed: derive_seed(opts.seed, stream),
            protect_nonempty: true,
        }
    };
    kway_refine(&coarsest, &mut part, &refine_opts(&coarsest, 0xF0));
    drop(sp);

    // 3. project back through the hierarchy, refining at each level
    let contracted = arena.num_levels() - 1;
    let _ref = ppn_graph::trace::span("metis", "refine", contracted as i64);
    for i in (0..contracted).rev() {
        let _lvl = ppn_graph::trace::span("metis", "level", i as i64);
        part = part.project(arena.map_slice(i));
        let level = arena.level(i);
        kway_refine(&level, &mut part, &refine_opts(&level, 0xF1 + i as u64));
    }

    let quality = PartitionQuality::measure(g, &part);
    KwayResult {
        partition: part,
        quality,
        levels: arena.num_levels(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::{edge_cut, imbalance};

    fn clustered(clusters: usize, size: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..clusters * size).map(|_| g.add_node(2)).collect();
        for c in 0..clusters {
            let b = c * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    g.add_edge(n[b + i], n[b + j], 20).unwrap();
                }
            }
        }
        for c in 0..clusters {
            let next = (c + 1) % clusters;
            g.add_edge(n[c * size], n[next * size + 1], 1).unwrap();
        }
        g
    }

    #[test]
    fn partitions_clustered_graph_along_clusters() {
        let g = clustered(4, 5);
        let r = kway_partition(&g, 4, &MetisOptions::default());
        assert!(r.partition.is_complete());
        // ideal: each cluster is one part; cut = the 4 weight-1 bridges
        assert_eq!(edge_cut(&g, &r.partition), 4);
        assert!(imbalance(&g, &r.partition) < 1.05);
    }

    #[test]
    fn quality_matches_partition() {
        let g = clustered(3, 4);
        let r = kway_partition(&g, 3, &MetisOptions::default());
        assert_eq!(r.quality.total_cut, edge_cut(&g, &r.partition));
        assert_eq!(
            r.quality.max_resource,
            *r.partition.part_weights(&g).iter().max().unwrap()
        );
    }

    #[test]
    fn k1_is_trivial() {
        let g = clustered(2, 3);
        let r = kway_partition(&g, 1, &MetisOptions::default());
        assert_eq!(r.quality.total_cut, 0);
        assert!(r.partition.assignment().iter().all(|&a| a == 0));
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = WeightedGraph::new();
        let r = kway_partition(&g, 4, &MetisOptions::default());
        assert_eq!(r.partition.len(), 0);
    }

    #[test]
    fn all_parts_nonempty_for_reasonable_graphs() {
        let g = clustered(4, 6);
        for k in [2, 3, 4, 6] {
            let r = kway_partition(&g, k, &MetisOptions::default());
            let sizes = r.partition.part_sizes();
            assert!(
                sizes.iter().all(|&s| s > 0),
                "k={k} produced empty part: {sizes:?}"
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = clustered(4, 5);
        let a = kway_partition(&g, 4, &MetisOptions::default());
        let b = kway_partition(&g, 4, &MetisOptions::default());
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn multilevel_engages_on_larger_graphs() {
        // 200 nodes > default coarsen_to=100 → at least one level
        let g = clustered(10, 20);
        let r = kway_partition(&g, 4, &MetisOptions::default());
        assert!(r.levels > 1, "expected coarsening on a 200-node graph");
        assert!(r.partition.is_complete());
    }

    fn grid(w: usize, h: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..w * h).map(|_| g.add_node(1)).collect();
        for r in 0..h {
            for c in 0..w {
                let i = r * w + c;
                if c + 1 < w {
                    g.add_edge(n[i], n[i + 1], 1).unwrap();
                }
                if r + 1 < h {
                    g.add_edge(n[i], n[i + w], 1).unwrap();
                }
            }
        }
        g
    }

    #[test]
    fn grid_coarsens_through_several_levels() {
        // 400 nodes, coarsen_to 100: each matching roughly halves the
        // grid, so it takes at least two contractions
        let g = grid(20, 20);
        let r = kway_partition(&g, 2, &MetisOptions::default().with_seed(1));
        assert!(r.levels >= 3, "levels {}", r.levels);
        assert!(r.partition.is_complete());
    }

    #[test]
    fn small_graph_is_not_coarsened() {
        let g = grid(3, 3);
        let r = kway_partition(&g, 2, &MetisOptions::default().with_seed(3));
        assert_eq!(r.levels, 1);
        assert!(r.partition.is_complete());
    }

    #[test]
    fn star_graph_coarsening_stall_stops() {
        // a star can only contract one pair per round: the first
        // matching keeps 50 of 51 nodes, over the 95% stall line, so the
        // loop stops there, far above coarsen_to
        let mut g = WeightedGraph::new();
        let hub = g.add_node(1);
        for _ in 0..50 {
            let leaf = g.add_node(1);
            g.add_edge(hub, leaf, 1).unwrap();
        }
        let opts = MetisOptions {
            coarsen_to: 4,
            ..MetisOptions::default().with_seed(4)
        };
        let r = kway_partition(&g, 2, &opts);
        assert_eq!(r.levels, 1, "coarsening should stall-stop");
        assert!(r.partition.is_complete());
    }

    #[test]
    fn ignores_bandwidth_constraints_by_design() {
        // a graph engineered so the min-cut partition carries pairwise
        // traffic of 30: metis-lite happily returns it — a Bmax of 20
        // would be violated, and metis-lite has no notion of Bmax.
        let mut g = WeightedGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(10);
        let c = g.add_node(10);
        let d = g.add_node(10);
        g.add_edge(a, b, 100).unwrap();
        g.add_edge(c, d, 100).unwrap();
        g.add_edge(b, c, 30).unwrap();
        let r = kway_partition(&g, 2, &MetisOptions::default());
        assert_eq!(r.quality.total_cut, 30);
        assert_eq!(r.quality.max_local_bandwidth, 30);
    }
}
