//! K-Means matching (paper §IV-A, third heuristic).
//!
//! The paper describes clustering nodes "on the basis of their weight"
//! and matching "a subset of near nodes ... accordingly" (after Khan's
//! multilevel-TSP scheme). Our concretisation, documented in DESIGN.md:
//!
//! 1. run 1-D Lloyd's k-means on the node *resource weights* with
//!    `max(2, n/8)` clusters — this groups processes of similar size;
//! 2. inside each cluster, match graph-adjacent nodes greedily by
//!    heaviest connecting edge;
//! 3. sweep the same heaviest-first order once more and pair the nodes
//!    step 2 left unmatched with any unmatched neighbour, across
//!    clusters, so the contraction keeps shrinking where the clusters
//!    alone would stall it.
//!
//! The effect is a contraction whose coarse nodes have mostly
//! homogeneous weights — exactly what the resource-constrained initial
//! partitioning wants to see (uneven coarse nodes make `Rmax`
//! bin-packing needlessly hard). Pairing *within* a weight cluster is
//! the property the paper's text emphasises; the greedy heavy-edge
//! tie-break keeps the cut low.
//!
//! ## The assignment step is the coarsening bottleneck
//!
//! With `k = n/8` clusters, the textbook Lloyd assignment scans every
//! centroid per node per iteration — O(n²·iters/8), ~4 billion
//! comparisons at 32k nodes, which made k-means matching dominate the
//! entire partitioner. [`assign_fast`] replaces the scan with a binary
//! search over the sorted centroids: in 1-D the nearest centroid is
//! always one of the two values bracketing the query, so each node costs
//! O(log k) and an iteration costs O((n + k)·log k). A property test
//! pins it to the *identical* assignment a linear scan makes —
//! including Rust's first-minimal-index tie-break — on arbitrary
//! inputs, so the fast path cannot drift.

use gp_classic::matching::shuffled_sorted_edges;
use ppn_graph::matching::Matching;
use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{LevelView, NodeId};

/// One Lloyd assignment step in O((n + k)·log k): sort the centroids
/// (keeping the smallest original index per duplicated value), binary
/// search each value's insertion point, and compare only the two
/// bracketing centroids with the same float operations as a linear scan
/// (`min_by` over all centroids, first minimal index wins). Produces the
/// identical assignment (property-tested).
pub fn assign_fast(values: &[f64], centroids: &[f64]) -> Vec<u32> {
    let mut out = vec![0u32; values.len()];
    let mut sorted = Vec::new();
    assign_fast_into(values, centroids, &mut sorted, &mut out);
    out
}

/// [`assign_fast`] writing into caller-owned buffers so the Lloyd loop
/// stays allocation-free across iterations.
fn assign_fast_into(
    values: &[f64],
    centroids: &[f64],
    sorted: &mut Vec<(f64, u32)>,
    out: &mut [u32],
) {
    debug_assert_eq!(values.len(), out.len());
    if centroids.is_empty() {
        out.fill(0);
        return;
    }
    sorted.clear();
    sorted.extend(centroids.iter().enumerate().map(|(i, &c)| (c, i as u32)));
    // sort by value then index: stable position of duplicates, with the
    // smallest original index first so dedup keeps exactly the centroid
    // the scan's first-minimal-index rule would pick
    sorted.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.1.cmp(&b.1))
    });
    sorted.dedup_by(|next, prev| next.0 == prev.0);
    for (i, &v) in values.iter().enumerate() {
        let hi = sorted.partition_point(|&(c, _)| c < v);
        let best = if hi == 0 {
            sorted[0].1
        } else if hi == sorted.len() {
            sorted[hi - 1].1
        } else {
            let (cl, il) = sorted[hi - 1];
            let (ch, ih) = sorted[hi];
            // exact same distance expressions as the linear scan, so
            // float rounding can never disagree
            let dl = (v - cl).abs();
            let dh = (v - ch).abs();
            if dl < dh {
                il
            } else if dh < dl {
                ih
            } else {
                il.min(ih)
            }
        };
        out[i] = best;
    }
}

/// 1-D Lloyd's k-means over `values` with the O((n + k)·log k)
/// assignment step; returns the cluster index of each element.
/// Deterministic given the seed; empty clusters are dropped.
pub fn kmeans_1d(values: &[f64], k: usize, seed: u64, iters: usize) -> Vec<u32> {
    let n = values.len();
    let k = k.clamp(1, n.max(1));
    if n == 0 {
        return Vec::new();
    }
    // init: k quantile seeds over the sorted values (deterministic,
    // spread across the range), jittered slightly by the seed for
    // restart diversity
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mut rng = XorShift128Plus::new(seed);
    let mut centroids: Vec<f64> = (0..k)
        .map(|i| {
            let q = (i * (n - 1)) / k.max(1);
            let jitter = (rng.next_u64() % 100) as f64 / 1e4;
            sorted[q] + jitter
        })
        .collect();

    let mut assign = vec![0u32; n];
    let mut next = vec![0u32; n];
    let mut sort_buf: Vec<(f64, u32)> = Vec::new();
    let mut sums = vec![0.0; k];
    let mut counts = vec![0usize; k];
    for _ in 0..iters {
        assign_fast_into(values, &centroids, &mut sort_buf, &mut next);
        let changed = next != assign;
        assign.copy_from_slice(&next);
        sums.fill(0.0);
        counts.fill(0);
        for (i, &c) in assign.iter().enumerate() {
            sums[c as usize] += values[i];
            counts[c as usize] += 1;
        }
        for c in 0..k {
            if counts[c] > 0 {
                centroids[c] = sums[c] / counts[c] as f64;
            }
        }
        if !changed {
            break;
        }
    }
    assign
}

/// K-means matching over a prepared `(weight, u, v)` order (see
/// `gp_classic::shuffled_sorted_edges`): the per-level tournament builds
/// the order once and shares it with heavy-edge matching. `seed` still
/// drives the k-means centroid jitter. Both sweeps read the endpoints
/// from the order; the cluster ids are 4 bytes per node.
pub fn kmeans_matching_prepared<'a>(
    g: impl Into<LevelView<'a>>,
    seed: u64,
    edges: &[(u64, u32, u32)],
) -> Matching {
    let g = g.into();
    let n = g.num_nodes();
    let mut m = Matching::empty(n);
    if n < 2 {
        return m;
    }
    let values: Vec<f64> = g.node_weights().iter().map(|&w| w as f64).collect();
    let k = (n / 8).max(2).min(n);
    let clusters = kmeans_1d(&values, k, seed, 32);

    // heavy-edge scan restricted to same-cluster endpoints
    for &(w, u, v) in edges {
        if clusters[u as usize] != clusters[v as usize] {
            continue;
        }
        let (u, v) = (NodeId(u), NodeId(v));
        if !m.is_matched(u) && !m.is_matched(v) {
            m.add_pair_absorbing(u, v, w);
        }
    }
    // second sweep: allow cross-cluster pairs for still-unmatched nodes
    // so the contraction keeps shrinking (pure within-cluster matching
    // can stall on weight-diverse graphs)
    for &(w, u, v) in edges {
        let (u, v) = (NodeId(u), NodeId(v));
        if !m.is_matched(u) && !m.is_matched(v) {
            m.add_pair_absorbing(u, v, w);
        }
    }
    m
}

/// K-means matching: cluster nodes by weight, then heavy-edge match
/// within each cluster; a second heavy-edge sweep then pairs nodes left
/// unmatched across clusters. A node stays a singleton only when every
/// neighbour is already matched, as in the other matchings.
pub fn kmeans_matching<'a>(g: impl Into<LevelView<'a>>, seed: u64) -> Matching {
    let g = g.into();
    let mut edges = Vec::new();
    shuffled_sorted_edges(g, seed ^ 0x4B4D_4541_4E53, &mut edges);
    kmeans_matching_prepared(g, seed, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::GraphBuilder;

    #[test]
    fn kmeans_1d_separates_two_blobs() {
        let values = vec![1.0, 1.1, 0.9, 10.0, 10.2, 9.8];
        let assign = kmeans_1d(&values, 2, 1, 50);
        assert_eq!(assign[0], assign[1]);
        assert_eq!(assign[1], assign[2]);
        assert_eq!(assign[3], assign[4]);
        assert_eq!(assign[4], assign[5]);
        assert_ne!(assign[0], assign[3]);
    }

    #[test]
    fn kmeans_1d_handles_degenerate_inputs() {
        assert!(kmeans_1d(&[], 3, 1, 10).is_empty());
        assert_eq!(kmeans_1d(&[5.0], 3, 1, 10), vec![0]);
        let same = kmeans_1d(&[2.0, 2.0, 2.0], 2, 1, 10);
        assert_eq!(same.len(), 3);
    }

    #[test]
    fn matching_is_valid_and_pairs_similar_weights() {
        // two weight classes: 8 light (w=10) in a cycle, 8 heavy (w=100)
        // in a cycle, one light-heavy bridge
        let mut g = GraphBuilder::new();
        let light: Vec<_> = (0..8).map(|_| g.add_node(10)).collect();
        let heavy: Vec<_> = (0..8).map(|_| g.add_node(100)).collect();
        for i in 0..8 {
            g.add_edge(light[i], light[(i + 1) % 8], 5).unwrap();
            g.add_edge(heavy[i], heavy[(i + 1) % 8], 5).unwrap();
        }
        g.add_edge(light[0], heavy[0], 5).unwrap();
        let g = g.build();
        let m = kmeans_matching(&g, 3);
        assert!(m.validate(&g));
        // most pairs stay within a weight class
        let mut same_class = 0;
        let mut cross = 0;
        for v in g.node_ids() {
            if let Some(u) = m.mate_of(v) {
                if v < u {
                    let wv = g.node_weight(v);
                    let wu = g.node_weight(u);
                    if wv == wu {
                        same_class += 1;
                    } else {
                        cross += 1;
                    }
                }
            }
        }
        assert!(
            same_class >= 6,
            "expected mostly within-class pairs, got {same_class} same / {cross} cross"
        );
    }

    #[test]
    fn matching_deterministic_per_seed() {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..10).map(|i| g.add_node(1 + i % 3)).collect();
        for i in 0..10 {
            g.add_edge(n[i], n[(i + 1) % 10], 1 + (i as u64 % 4))
                .unwrap();
        }
        let g = g.build();
        assert_eq!(kmeans_matching(&g, 5), kmeans_matching(&g, 5));
    }

    #[test]
    fn single_node_graph_unmatched() {
        let g = GraphBuilder::with_uniform_nodes(1, 4).build();
        let m = kmeans_matching(&g, 1);
        assert_eq!(m.matched_nodes(), 0);
    }
}
