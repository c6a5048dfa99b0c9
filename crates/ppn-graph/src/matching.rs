//! Matchings for the coarsening phase.
//!
//! A matching is a set of edges with no shared endpoints; contracting the
//! matched pairs halves (at best) the node count per level. The three
//! heuristics the paper runs side by side (Random, Heavy-Edge, K-Means)
//! live in `gp-core`; this module defines the shared representation plus
//! the basic random maximal matching used by every multilevel scheme.

use crate::arena::LevelView;
use crate::ids::{EdgeId, NodeId};
use crate::prng::XorShift128Plus;

/// A node's mate slot when it is unmatched.
const UNMATCHED: u32 = u32::MAX;

/// A matching over the nodes of a graph: `mate[v]` holds `u` iff edge
/// `(v, u)` belongs to the matching, and `u32::MAX` otherwise.
/// Unmatched nodes are carried over to the coarse graph as singletons.
/// Mates are 4-byte node ids, so the arrays every heuristic probes at
/// random stay half the size an `Option<NodeId>` per node would take.
#[derive(Clone, Debug)]
pub struct Matching {
    mate: Vec<u32>,
    /// Pairs added so far, so [`num_pairs`](Matching::num_pairs) and
    /// [`coarse_node_count`](Matching::coarse_node_count) (the
    /// tournament's key and the coarsening loops' stall checks) do not
    /// scan every node.
    pairs: usize,
    /// Sum of matched-edge weights, maintained by
    /// [`add_pair_absorbing`](Matching::add_pair_absorbing). The coarsening
    /// tournament compares matchings by this quantity at every level, so
    /// it must be O(1) — the authoritative full scan survives as
    /// [`absorbed_weight`](Matching::absorbed_weight) and the two are
    /// property-tested to agree for every heuristic.
    absorbed: u64,
}

/// Equality is over the pairing only: a matching built with
/// [`add_pair`](Matching::add_pair) equals one with the same pairs built
/// with [`add_pair_absorbing`](Matching::add_pair_absorbing), even though
/// their tracked [`absorbed`](Matching::absorbed) counters differ.
impl PartialEq for Matching {
    fn eq(&self, other: &Self) -> bool {
        self.mate == other.mate
    }
}

impl Eq for Matching {}

impl Matching {
    /// Empty matching over `n` nodes.
    pub fn empty(n: usize) -> Self {
        Matching {
            mate: vec![UNMATCHED; n],
            pairs: 0,
            absorbed: 0,
        }
    }

    /// Number of nodes covered (matched nodes; always even).
    pub fn matched_nodes(&self) -> usize {
        2 * self.pairs
    }

    /// Number of matched pairs.
    #[inline]
    pub fn num_pairs(&self) -> usize {
        self.pairs
    }

    /// Number of nodes the coarse graph will have after contraction.
    #[inline]
    pub fn coarse_node_count(&self) -> usize {
        self.mate.len() - self.pairs
    }

    /// Partner of `v`, if matched.
    #[inline]
    pub fn mate_of(&self, v: NodeId) -> Option<NodeId> {
        match self.mate[v.index()] {
            UNMATCHED => None,
            u => Some(NodeId(u)),
        }
    }

    /// True if `v` is matched.
    #[inline]
    pub fn is_matched(&self, v: NodeId) -> bool {
        self.mate[v.index()] != UNMATCHED
    }

    /// Record the pair `(u, v)`. Panics (debug) if either is matched.
    pub fn add_pair(&mut self, u: NodeId, v: NodeId) {
        debug_assert!(u != v, "cannot match a node with itself");
        debug_assert!(!self.is_matched(u), "{u:?} already matched");
        debug_assert!(!self.is_matched(v), "{v:?} already matched");
        self.mate[u.index()] = v.0;
        self.mate[v.index()] = u.0;
        self.pairs += 1;
    }

    /// Record the pair `(u, v)` and credit the weight of the matched edge
    /// to the running absorbed total. Every matching heuristic pairs
    /// endpoints of an edge it is currently looking at, so the weight is
    /// already in hand — recording it here makes
    /// [`absorbed`](Matching::absorbed) O(1) where the scan in
    /// [`absorbed_weight`](Matching::absorbed_weight) pays a `find_edge`
    /// probe per matched pair.
    pub fn add_pair_absorbing(&mut self, u: NodeId, v: NodeId, w: u64) {
        self.add_pair(u, v);
        self.absorbed += w;
    }

    /// Incrementally tracked absorbed weight: the sum of the `w` values
    /// passed to [`add_pair_absorbing`](Matching::add_pair_absorbing).
    /// Equals [`absorbed_weight`](Matching::absorbed_weight) whenever
    /// every pair was added through the absorbing entry point with its
    /// matched edge's weight (all in-tree heuristics do).
    #[inline]
    pub fn absorbed(&self) -> u64 {
        self.absorbed
    }

    /// Number of nodes this matching is defined over.
    pub fn len(&self) -> usize {
        self.mate.len()
    }

    /// True when defined over zero nodes.
    pub fn is_empty(&self) -> bool {
        self.mate.is_empty()
    }

    /// Check symmetry (`mate[mate[v]] == v`), no self-matches, and that
    /// every matched pair is an actual edge of `g`.
    pub fn validate<'a>(&self, g: impl Into<LevelView<'a>>) -> bool {
        let g = g.into();
        if self.mate.len() != g.num_nodes() {
            return false;
        }
        for vi in 0..g.num_nodes() {
            let v = NodeId::from_index(vi);
            if let Some(u) = self.mate_of(v) {
                if u == v {
                    return false;
                }
                if self.mate_of(u) != Some(v) {
                    return false;
                }
                if g.find_edge(u, v).is_none() {
                    return false;
                }
            }
        }
        true
    }

    /// True when no unmatched node has an unmatched neighbour (the
    /// matching cannot be extended): the definition of *maximal*.
    pub fn is_maximal<'a>(&self, g: impl Into<LevelView<'a>>) -> bool {
        let g = g.into();
        g.node_ids()
            .all(|v| self.is_matched(v) || g.neighbors(v).iter().all(|&(u, _)| self.is_matched(u)))
    }

    /// Sum of the edge weights absorbed by the matching (weight hidden
    /// inside coarse nodes after contraction). This is the reference
    /// O(matched · degree) scan; hot paths read the incrementally
    /// maintained [`absorbed`](Matching::absorbed) instead.
    pub fn absorbed_weight<'a>(&self, g: impl Into<LevelView<'a>>) -> u64 {
        let g = g.into();
        let mut s = 0;
        for vi in 0..g.num_nodes() {
            let v = NodeId::from_index(vi);
            if let Some(u) = self.mate_of(v) {
                if v < u {
                    if let Some(e) = g.find_edge(v, u) {
                        s += g.edge_weight(e);
                    }
                }
            }
        }
        s
    }
}

/// Random maximal matching (paper §IV-A): visit nodes in random order; an
/// unmatched node picks a uniformly random unmatched neighbour.
///
/// The candidate list is built in adjacency order, so the same graph
/// yields the bit-identical matching per seed whether it is a frozen
/// [`WeightedGraph`](crate::WeightedGraph) or an arena level.
pub fn random_maximal_matching<'a>(g: impl Into<LevelView<'a>>, seed: u64) -> Matching {
    let g = g.into();
    let mut rng = XorShift128Plus::new(seed);
    let mut order: Vec<NodeId> = (0..g.num_nodes()).map(NodeId::from_index).collect();
    rng.shuffle(&mut order);
    let mut m = Matching::empty(g.num_nodes());
    // `(neighbour, edge id)` pairs: only the winner's weight is read
    // from the edge list
    let mut candidates: Vec<(NodeId, EdgeId)> = Vec::new();
    for v in order {
        if m.is_matched(v) {
            continue;
        }
        candidates.clear();
        candidates.extend(g.neighbors(v).iter().filter(|&&(u, _)| !m.is_matched(u)));
        if candidates.is_empty() {
            continue;
        }
        let (u, e) = candidates[rng.next_below(candidates.len())];
        m.add_pair_absorbing(v, u, g.edge_weight(e));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, WeightedGraph};

    fn path(n: usize) -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| g.add_node(1)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 1).unwrap();
        }
        g.build()
    }

    #[test]
    fn empty_matching_properties() {
        let m = Matching::empty(5);
        assert_eq!(m.matched_nodes(), 0);
        assert_eq!(m.num_pairs(), 0);
        assert_eq!(m.coarse_node_count(), 5);
        assert!(!m.is_matched(NodeId(0)));
    }

    #[test]
    fn add_pair_is_symmetric() {
        let mut m = Matching::empty(4);
        m.add_pair(NodeId(1), NodeId(3));
        assert_eq!(m.mate_of(NodeId(1)), Some(NodeId(3)));
        assert_eq!(m.mate_of(NodeId(3)), Some(NodeId(1)));
        assert_eq!(m.num_pairs(), 1);
        assert_eq!(m.coarse_node_count(), 3);
    }

    #[test]
    fn random_matching_is_valid_and_maximal() {
        for seed in 0..20 {
            let g = path(17);
            let m = random_maximal_matching(&g, seed);
            assert!(m.validate(&g), "seed {seed} gave an invalid matching");
            assert!(m.is_maximal(&g), "seed {seed} gave a non-maximal matching");
        }
    }

    #[test]
    fn random_matching_on_edgeless_graph_is_empty() {
        let g = GraphBuilder::with_uniform_nodes(6, 1).build();
        let m = random_maximal_matching(&g, 1);
        assert_eq!(m.matched_nodes(), 0);
        assert!(m.is_maximal(&g));
    }

    #[test]
    fn random_matching_deterministic_per_seed() {
        let g = path(31);
        let a = random_maximal_matching(&g, 99);
        let b = random_maximal_matching(&g, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_usually_differ() {
        let g = path(31);
        let a = random_maximal_matching(&g, 1);
        let b = random_maximal_matching(&g, 2);
        assert_ne!(
            a, b,
            "two seeds producing identical matchings on a 31-path is astronomically unlikely"
        );
    }

    #[test]
    fn validate_rejects_non_edges() {
        let g = path(4); // edges 0-1,1-2,2-3
        let mut m = Matching::empty(4);
        m.add_pair(NodeId(0), NodeId(3)); // not an edge
        assert!(!m.validate(&g));
    }

    #[test]
    fn absorbed_weight_counts_matched_edges_once() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        let c = g.add_node(1);
        let d = g.add_node(1);
        g.add_edge(a, b, 5).unwrap();
        g.add_edge(c, d, 7).unwrap();
        g.add_edge(b, c, 100).unwrap();
        let g = g.build();
        let mut m = Matching::empty(4);
        m.add_pair(a, b);
        m.add_pair(c, d);
        assert_eq!(m.absorbed_weight(&g), 12);
    }

    #[test]
    fn add_pair_absorbing_tracks_the_scan() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        let c = g.add_node(1);
        let d = g.add_node(1);
        g.add_edge(a, b, 5).unwrap();
        g.add_edge(c, d, 7).unwrap();
        let g = g.build();
        let mut m = Matching::empty(4);
        assert_eq!(m.absorbed(), 0);
        m.add_pair_absorbing(a, b, 5);
        m.add_pair_absorbing(c, d, 7);
        assert_eq!(m.absorbed(), 12);
        assert_eq!(m.absorbed(), m.absorbed_weight(&g));
    }

    #[test]
    fn random_matching_absorbed_is_exact() {
        let g = path(17);
        for seed in 0..10 {
            let m = random_maximal_matching(&g, seed);
            assert_eq!(m.absorbed(), m.absorbed_weight(&g), "seed {seed}");
        }
    }

    #[test]
    fn unmatched_nodes_read_none() {
        let mut m = Matching::empty(6);
        m.add_pair(NodeId(4), NodeId(0));
        for v in [1, 2, 3, 5] {
            assert_eq!(m.mate_of(NodeId(v)), None, "node {v}");
            assert!(!m.is_matched(NodeId(v)), "node {v}");
        }
        assert_eq!(m.mate_of(NodeId(0)), Some(NodeId(4)));
        assert_eq!(m.mate_of(NodeId(4)), Some(NodeId(0)));
    }

    #[test]
    fn pair_counter_equals_a_scan_after_mixed_adds() {
        let mut m = Matching::empty(9);
        m.add_pair(NodeId(0), NodeId(8));
        m.add_pair_absorbing(NodeId(3), NodeId(1), 4);
        m.add_pair(NodeId(5), NodeId(2));
        m.add_pair_absorbing(NodeId(7), NodeId(6), 9);
        let matched = (0..9).filter(|&v| m.is_matched(NodeId(v))).count();
        assert_eq!(m.matched_nodes(), matched);
        assert_eq!(m.num_pairs(), matched / 2);
        assert_eq!(m.coarse_node_count(), 9 - matched / 2);
        assert_eq!(m.absorbed(), 13);
    }

    #[test]
    fn equality_ignores_the_absorbed_counter() {
        let mut a = Matching::empty(4);
        a.add_pair(NodeId(0), NodeId(1));
        let mut b = Matching::empty(4);
        b.add_pair_absorbing(NodeId(1), NodeId(0), 5);
        assert_ne!(a.absorbed(), b.absorbed());
        assert_eq!(a, b);
        b.add_pair(NodeId(2), NodeId(3));
        assert_ne!(a, b);
    }

    #[test]
    fn maximality_detects_extensible_matching() {
        let g = path(4);
        let mut m = Matching::empty(4);
        m.add_pair(NodeId(1), NodeId(2));
        // nodes 0 and 3 are unmatched but have no unmatched neighbours
        assert!(m.is_maximal(&g));
        let m2 = Matching::empty(4);
        assert!(!m2.is_maximal(&g));
    }
}
