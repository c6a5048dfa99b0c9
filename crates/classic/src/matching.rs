//! Heavy-Edge Matching (HEM).
//!
//! Paper §IV-A: "the edges are sorted according to their weights and
//! matching begins by selecting the heaviest edge. All the edges are
//! visited in descending order and edges with un-matched end points are
//! selected." Contracting heavy edges first hides as much bandwidth as
//! possible inside coarse nodes, which directly lowers the cut any
//! partition of the coarse graph can expose.

use ppn_graph::matching::Matching;
use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{LevelView, NodeId};

/// Build the shuffled-then-sorted `(weight, u, v)` order the edge-scan
/// heuristics consume, into `buf` (cleared first). The seeded shuffle
/// runs before a stable sort by descending weight, so ties inside a
/// weight class keep a seeded random order. Factored out so a
/// coarsening level can build this order once and share it between
/// heavy-edge and k-means matching instead of each heuristic allocating
/// and re-sorting its own copy.
///
/// Each entry carries its edge's endpoints in stored orientation, so a
/// heuristic reads the order in sequence instead of looking each edge
/// up by id. A `(u64, u32, u32)` takes the 16 bytes a padded
/// `(u64, u32)` would, and the shuffle and the stable sort move whole
/// entries: the order is the edge id order's, endpoints attached.
///
/// The sort is a radix sort, O(E) per byte in which the level's weights
/// differ, and gives the order a stable comparison sort gives
/// (`crates/classic/tests/properties.rs` checks it against `shuffle` +
/// `sort_by_key(Reverse)`).
///
/// The order depends only on the edge list, so a level of the flat
/// arena and the same graph as a
/// [`WeightedGraph`](ppn_graph::WeightedGraph) feed the heuristics the
/// same stream.
pub fn shuffled_sorted_edges<'a>(
    g: impl Into<LevelView<'a>>,
    seed: u64,
    buf: &mut Vec<(u64, u32, u32)>,
) {
    let g = g.into();
    buf.clear();
    buf.extend(g.edges().map(|(u, v, w)| (w, u.0, v.0)));
    let mut rng = XorShift128Plus::new(seed);
    rng.shuffle(buf);
    sort_heaviest_first(buf);
}

/// Stable sort of `(weight, u, v)` entries by descending weight: an LSD
/// radix sort on `!weight`, one counting pass per byte that is not the
/// same in every weight. Weights that vary in one or two bytes (the
/// common case at every coarsening level) cost one or two passes. The
/// scatter needs a second buffer of `buf`'s length, allocated here and
/// freed on return; `buf` ends up holding whichever of the two the last
/// pass wrote.
fn sort_heaviest_first(buf: &mut Vec<(u64, u32, u32)>) {
    let Some(&(w0, _, _)) = buf.first() else {
        return;
    };
    let varying = buf.iter().fold(0u64, |acc, &(w, _, _)| acc | (w ^ w0));
    let shifts: Vec<u32> = (0..64)
        .step_by(8)
        .filter(|&s| (varying >> s) & 0xFF != 0)
        .collect();
    if shifts.is_empty() {
        return; // one weight class: the shuffle is the order
    }
    let digit = |w: u64, s: u32| ((!w >> s) & 0xFF) as usize;
    let mut counts = vec![[0usize; 256]; shifts.len()];
    for &(w, _, _) in buf.iter() {
        for (c, &s) in counts.iter_mut().zip(&shifts) {
            c[digit(w, s)] += 1;
        }
    }
    let mut src = std::mem::take(buf);
    let mut dst = vec![(0u64, 0u32, 0u32); src.len()];
    for (c, &s) in counts.iter_mut().zip(&shifts) {
        let mut start = 0;
        for slot in c.iter_mut() {
            let here = *slot;
            *slot = start;
            start += here;
        }
        for &item in &src {
            let slot = &mut c[digit(item.0, s)];
            dst[*slot] = item;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    *buf = src;
}

/// Heavy-edge matching: visit edges in descending weight order, matching
/// endpoints that are both free. Ties are broken by a seeded shuffle so
/// that repeated coarsening attempts explore different contractions.
pub fn heavy_edge_matching<'a>(g: impl Into<LevelView<'a>>, seed: u64) -> Matching {
    let g = g.into();
    let mut edges = Vec::new();
    shuffled_sorted_edges(g, seed, &mut edges);
    heavy_edge_matching_prepared(g, &edges)
}

/// Heavy-edge matching over a prepared [`shuffled_sorted_edges`] order.
/// Deterministic given the order; the per-level tournament shares one
/// prepared order between this and k-means matching. The endpoints come
/// from the order itself, so the only random reads are the mate probes.
pub fn heavy_edge_matching_prepared<'a>(
    g: impl Into<LevelView<'a>>,
    edges: &[(u64, u32, u32)],
) -> Matching {
    let g = g.into();
    let mut m = Matching::empty(g.num_nodes());
    for &(w, u, v) in edges {
        let (u, v) = (NodeId(u), NodeId(v));
        if !m.is_matched(u) && !m.is_matched(v) {
            m.add_pair_absorbing(u, v, w);
        }
    }
    m
}

/// Heavy-edge matching in the *node-scan* style used by METIS: visit
/// nodes in random order; an unmatched node matches its heaviest
/// unmatched neighbour. Cheaper than the sort for large graphs and the
/// variant `metis-lite` uses.
pub fn heavy_edge_matching_node_scan<'a>(g: impl Into<LevelView<'a>>, seed: u64) -> Matching {
    let g = g.into();
    let mut rng = XorShift128Plus::new(seed);
    let mut order: Vec<NodeId> = (0..g.num_nodes()).map(NodeId::from_index).collect();
    rng.shuffle(&mut order);
    let mut m = Matching::empty(g.num_nodes());
    for v in order {
        if m.is_matched(v) {
            continue;
        }
        let mut best: Option<(u64, NodeId)> = None;
        for (u, w) in g.weighted_neighbors(v) {
            if m.is_matched(u) {
                continue;
            }
            match best {
                Some((bw, bu)) if bw > w || (bw == w && bu <= u) => {}
                _ => best = Some((w, u)),
            }
        }
        if let Some((w, u)) = best {
            m.add_pair_absorbing(v, u, w);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::GraphBuilder;
    use ppn_graph::WeightedGraph;

    /// path with a distinguishing heavy middle edge: 0 -1- 1 -100- 2 -1- 3
    fn heavy_middle() -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(1)).collect();
        g.add_edge(n[0], n[1], 1).unwrap();
        g.add_edge(n[1], n[2], 100).unwrap();
        g.add_edge(n[2], n[3], 1).unwrap();
        g.build()
    }

    #[test]
    fn hem_prefers_heavy_edges() {
        for seed in 0..10 {
            let g = heavy_middle();
            let m = heavy_edge_matching(&g, seed);
            assert!(m.validate(&g));
            assert_eq!(
                m.mate_of(NodeId(1)),
                Some(NodeId(2)),
                "seed {seed} failed to take the heaviest edge"
            );
        }
    }

    #[test]
    fn hem_is_maximal() {
        for seed in 0..10 {
            let g = heavy_middle();
            let m = heavy_edge_matching(&g, seed);
            assert!(m.is_maximal(&g));
        }
    }

    #[test]
    fn node_scan_also_takes_heavy_edge() {
        for seed in 0..10 {
            let g = heavy_middle();
            let m = heavy_edge_matching_node_scan(&g, seed);
            assert!(m.validate(&g));
            assert!(m.is_maximal(&g));
            // whichever of 1/2 is visited first grabs the 100-edge unless
            // its endpoint was already taken via a 1-edge; with this
            // topology mate(1)==2 always holds when either is visited
            // first while both free.
        }
    }

    #[test]
    fn hem_absorbs_more_weight_than_random_on_average() {
        use ppn_graph::matching::random_maximal_matching;
        // skewed weights make HEM clearly better
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..8).map(|_| g.add_node(1)).collect();
        for i in 0..8 {
            for j in (i + 1)..8 {
                let w = if j == i + 1 { 50 } else { 1 };
                g.add_edge(n[i], n[j], w).unwrap();
            }
        }
        let g = g.build();
        let hem_abs: u64 = (0..10)
            .map(|s| heavy_edge_matching(&g, s).absorbed_weight(&g))
            .sum();
        let rnd_abs: u64 = (0..10)
            .map(|s| random_maximal_matching(&g, s).absorbed_weight(&g))
            .sum();
        assert!(
            hem_abs > rnd_abs,
            "HEM absorbed {hem_abs} vs random {rnd_abs}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = heavy_middle();
        assert_eq!(heavy_edge_matching(&g, 5), heavy_edge_matching(&g, 5));
        assert_eq!(
            heavy_edge_matching_node_scan(&g, 5),
            heavy_edge_matching_node_scan(&g, 5)
        );
    }

    #[test]
    fn prepared_variant_is_the_same_matching() {
        let g = heavy_middle();
        let mut edges = Vec::new();
        for seed in 0..8 {
            shuffled_sorted_edges(&g, seed, &mut edges);
            assert_eq!(
                heavy_edge_matching_prepared(&g, &edges),
                heavy_edge_matching(&g, seed)
            );
        }
    }

    #[test]
    fn absorbed_counter_matches_scan_for_both_variants() {
        let g = heavy_middle();
        for seed in 0..8 {
            let a = heavy_edge_matching(&g, seed);
            assert_eq!(a.absorbed(), a.absorbed_weight(&g));
            let b = heavy_edge_matching_node_scan(&g, seed);
            assert_eq!(b.absorbed(), b.absorbed_weight(&g));
        }
    }
}
