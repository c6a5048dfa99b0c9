//! Graph contraction — the coarsening step of the multilevel scheme.
//!
//! Given a [`Matching`], each matched pair becomes one coarse node whose
//! weight is the *sum* of the pair's weights; unmatched nodes carry over
//! unchanged. Edges are re-targeted through the fine→coarse map; parallel
//! edges that arise are merged with summed weights, and edges internal to
//! a pair disappear (their weight is "absorbed"). These are exactly the
//! semantics described in §IV-A of the paper.
//!
//! Two invariants make contraction safe for partitioning, and are enforced
//! by tests and property tests:
//!
//! 1. total node weight is preserved;
//! 2. for any coarse partition, the cut on the coarse graph equals the cut
//!    of the projected partition on the fine graph.

use crate::graph::WeightedGraph;
use crate::ids::NodeId;
use crate::matching::Matching;

/// The fine→coarse node map produced by [`contract`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoarseMap {
    /// `map[fine] = coarse` index.
    pub map: Vec<u32>,
    /// Number of coarse nodes.
    pub coarse_nodes: usize,
}

impl CoarseMap {
    /// Coarse node of a fine node.
    #[inline]
    pub fn coarse_of(&self, fine: NodeId) -> NodeId {
        NodeId(self.map[fine.index()])
    }

    /// Fine nodes grouped per coarse node.
    pub fn groups(&self) -> Vec<Vec<NodeId>> {
        let mut g = vec![Vec::new(); self.coarse_nodes];
        for (i, &c) in self.map.iter().enumerate() {
            g[c as usize].push(NodeId::from_index(i));
        }
        g
    }
}

/// First contraction pass: create coarse nodes (pairs when visiting the
/// smaller endpoint, singletons for unmatched nodes) and fill the
/// fine→coarse map.
/// Labels are combined as `"a+b"` for merged pairs so coarse nodes remain
/// traceable in DOT dumps.
fn build_coarse_nodes(
    g: &WeightedGraph,
    matching: &Matching,
    map: &mut [u32],
    coarse: &mut WeightedGraph,
) {
    for v in g.node_ids() {
        if map[v.index()] != u32::MAX {
            continue;
        }
        match matching.mate_of(v) {
            Some(u) => {
                let w = g.node_weight(v) + g.node_weight(u);
                let id = match (g.label(v), g.label(u)) {
                    (Some(a), Some(b)) => coarse.add_labeled_node(w, format!("{a}+{b}")),
                    _ => coarse.add_node(w),
                };
                map[v.index()] = id.0;
                map[u.index()] = id.0;
            }
            None => {
                let id = match g.label(v) {
                    Some(a) => coarse.add_labeled_node(g.node_weight(v), a.to_string()),
                    None => coarse.add_node(g.node_weight(v)),
                };
                map[v.index()] = id.0;
            }
        }
    }
}

/// Fine edges absorbed into a coarse node carry this sentinel in
/// [`ContractScratch::pair_a`].
const ABSORBED: u32 = u32::MAX;

/// Reusable working memory for [`contract_with`]. The multilevel loop
/// contracts once per level; holding one scratch across levels makes the
/// edge-merge pass allocation-free in steady state (every buffer is
/// `clear()` + `resize()`d, so capacity is retained).
#[derive(Clone, Debug, Default)]
pub struct ContractScratch {
    /// Normalized (min) coarse endpoint per fine edge, or [`ABSORBED`].
    pair_a: Vec<u32>,
    /// Normalized (max) coarse endpoint per fine edge.
    pair_b: Vec<u32>,
    /// Representative fine-edge id of each fine edge's coarse pair (the
    /// smallest fine edge id mapping to the same pair).
    rep: Vec<u32>,
    /// Merged weight, accumulated at the representative's slot.
    acc: Vec<u64>,
    /// Counting-sort offsets over `pair_a` (coarse nodes + 1 entries).
    counts: Vec<u32>,
    /// Fine edge ids stably bucketed by `pair_a`.
    order: Vec<u32>,
    /// Last-seen marker per coarse node: `pair_a + 1` tags the group the
    /// node was last seen in (groups have distinct `pair_a`, so tags
    /// never collide across groups).
    marker: Vec<u32>,
    /// First-occurrence fine edge id per marked coarse node.
    slot: Vec<u32>,
}

impl ContractScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Contract `g` along `matching`, producing the coarse graph and the
/// fine→coarse map. Parallel edges merge with the classic last-seen
/// marker array in O(V + E) instead of an O(degree) `find_edge` probe
/// per fine edge, and `scratch` is reused across calls.
///
/// The merge works in first-occurrence order, so the coarse edge list —
/// and therefore every seeded heuristic running on the coarse graph — is
/// exactly what a naive `add_or_merge_edge` loop over the fine edges
/// produces (property-tested): fine edges are bucketed stably by their
/// smaller coarse endpoint (counting sort), parallels inside a bucket
/// are detected with a marker keyed by the larger endpoint, and merged
/// edges are emitted at the position of the smallest fine edge id of
/// their pair.
pub fn contract_with(
    g: &WeightedGraph,
    matching: &Matching,
    scratch: &mut ContractScratch,
) -> (WeightedGraph, CoarseMap) {
    assert_eq!(matching.len(), g.num_nodes(), "matching/graph mismatch");
    let n = g.num_nodes();
    let ne = g.num_edges();
    let mut map = vec![u32::MAX; n];
    let mut coarse = WeightedGraph::new();
    build_coarse_nodes(g, matching, &mut map, &mut coarse);
    let cn = coarse.num_nodes();

    let s = scratch;
    s.pair_a.clear();
    s.pair_a.resize(ne, 0);
    s.pair_b.clear();
    s.pair_b.resize(ne, 0);
    s.rep.clear();
    s.rep.resize(ne, 0);
    s.acc.clear();
    s.acc.resize(ne, 0);
    s.counts.clear();
    s.counts.resize(cn + 1, 0);
    s.marker.clear();
    s.marker.resize(cn, 0);
    s.slot.clear();
    s.slot.resize(cn, 0);

    // Normalize endpoints and count bucket sizes.
    for (i, (u, v, _)) in g.edges().enumerate() {
        let (cu, cv) = (map[u.index()], map[v.index()]);
        if cu == cv {
            s.pair_a[i] = ABSORBED; // internal to a pair: weight absorbed
            continue;
        }
        let (a, b) = if cu < cv { (cu, cv) } else { (cv, cu) };
        s.pair_a[i] = a;
        s.pair_b[i] = b;
        s.counts[a as usize] += 1;
    }
    // Prefix sums turn counts into running bucket cursors.
    let mut sum = 0u32;
    for c in s.counts.iter_mut() {
        let here = *c;
        *c = sum;
        sum += here;
    }
    // Stable bucket by the smaller endpoint (ascending fine edge id
    // within each bucket, so a pair's first entry is its smallest id).
    s.order.clear();
    s.order.resize(sum as usize, 0);
    for i in 0..ne {
        let a = s.pair_a[i];
        if a != ABSORBED {
            let cursor = &mut s.counts[a as usize];
            s.order[*cursor as usize] = i as u32;
            *cursor += 1;
        }
    }
    // Merge parallels: within bucket `a`, the marker tags the larger
    // endpoint with `a + 1`; the first hit records the representative,
    // later hits accumulate onto it.
    for &ei in &s.order {
        let i = ei as usize;
        let a = s.pair_a[i];
        let b = s.pair_b[i] as usize;
        let w = g.edge_weight(crate::ids::EdgeId::from_index(i));
        if s.marker[b] != a + 1 {
            s.marker[b] = a + 1;
            s.slot[b] = ei;
            s.rep[i] = ei;
            s.acc[i] = w;
        } else {
            let r = s.slot[b];
            s.rep[i] = r;
            s.acc[r as usize] += w;
        }
    }
    // Emit merged edges in ascending representative id = first-occurrence
    // creation order, preserving the fine orientation.
    for i in 0..ne {
        if s.pair_a[i] != ABSORBED && s.rep[i] == i as u32 {
            let (u, v, _) = g.edge(crate::ids::EdgeId::from_index(i));
            coarse.push_edge_unchecked(NodeId(map[u.index()]), NodeId(map[v.index()]), s.acc[i]);
        }
    }

    (
        coarse,
        CoarseMap {
            map,
            coarse_nodes: cn,
        },
    )
}

/// Contract `g` along `matching` with a one-shot scratch. Multilevel
/// loops should hold a [`ContractScratch`] and call [`contract_with`]
/// instead to avoid re-allocating the merge buffers every level.
pub fn contract(g: &WeightedGraph, matching: &Matching) -> (WeightedGraph, CoarseMap) {
    contract_with(g, matching, &mut ContractScratch::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::random_maximal_matching;
    use crate::metrics::edge_cut;
    use crate::partition::Partition;

    fn k4() -> WeightedGraph {
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..4).map(|i| g.add_node(i + 1)).collect();
        for i in 0..4 {
            for j in (i + 1)..4 {
                g.add_edge(n[i], n[j], (i + j) as u64 + 1).unwrap();
            }
        }
        g
    }

    #[test]
    fn contract_preserves_total_node_weight() {
        let g = k4();
        let m = random_maximal_matching(&g, 3);
        let (c, map) = contract(&g, &m);
        assert_eq!(c.total_node_weight(), g.total_node_weight());
        assert_eq!(map.coarse_nodes, c.num_nodes());
        c.validate().unwrap();
    }

    #[test]
    fn contract_merges_parallel_edges() {
        // square 0-1-2-3-0; match (0,1) and (2,3): coarse graph has one
        // edge carrying the two cross edges 1-2 and 3-0.
        let mut g = WeightedGraph::new();
        let n: Vec<_> = (0..4).map(|_| g.add_node(1)).collect();
        g.add_edge(n[0], n[1], 1).unwrap();
        g.add_edge(n[1], n[2], 2).unwrap();
        g.add_edge(n[2], n[3], 3).unwrap();
        g.add_edge(n[3], n[0], 4).unwrap();
        let mut m = Matching::empty(4);
        m.add_pair(n[0], n[1]);
        m.add_pair(n[2], n[3]);
        let (c, _) = contract(&g, &m);
        assert_eq!(c.num_nodes(), 2);
        assert_eq!(c.num_edges(), 1);
        assert_eq!(c.total_edge_weight(), 6); // 2 + 4 cross, 1 + 3 absorbed
    }

    #[test]
    fn projected_cut_equals_coarse_cut() {
        let g = k4();
        for seed in 0..10 {
            let m = random_maximal_matching(&g, seed);
            let (c, map) = contract(&g, &m);
            // arbitrary coarse partition: alternate parts
            let assign: Vec<u32> = (0..c.num_nodes() as u32).map(|i| i % 2).collect();
            let pc = Partition::from_assignment(assign, 2).unwrap();
            let pf = pc.project(&map.map);
            assert_eq!(edge_cut(&c, &pc), edge_cut(&g, &pf), "seed {seed}");
        }
    }

    #[test]
    fn singletons_carry_over() {
        let mut g = WeightedGraph::new();
        let a = g.add_labeled_node(5, "a");
        let b = g.add_labeled_node(6, "b");
        let c0 = g.add_labeled_node(7, "c");
        g.add_edge(a, b, 2).unwrap();
        g.add_edge(b, c0, 3).unwrap();
        let mut m = Matching::empty(3);
        m.add_pair(a, b);
        let (c, map) = contract(&g, &m);
        assert_eq!(c.num_nodes(), 2);
        // merged node weight 11, singleton weight 7
        let weights: Vec<u64> = c.node_ids().map(|v| c.node_weight(v)).collect();
        assert!(weights.contains(&11) && weights.contains(&7));
        // label of merged node combines both
        let merged = map.coarse_of(a);
        assert_eq!(c.label(merged), Some("a+b"));
        assert_eq!(map.coarse_of(a), map.coarse_of(b));
        assert_ne!(map.coarse_of(a), map.coarse_of(c0));
    }

    #[test]
    fn empty_matching_gives_isomorphic_graph() {
        let g = k4();
        let m = Matching::empty(4);
        let (c, map) = contract(&g, &m);
        assert_eq!(c.num_nodes(), g.num_nodes());
        assert_eq!(c.num_edges(), g.num_edges());
        assert_eq!(c.total_edge_weight(), g.total_edge_weight());
        assert_eq!(map.groups().len(), 4);
    }

    #[test]
    fn groups_partition_fine_nodes() {
        let g = k4();
        let m = random_maximal_matching(&g, 11);
        let (_, map) = contract(&g, &m);
        let groups = map.groups();
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 4);
        for (ci, group) in groups.iter().enumerate() {
            assert!(!group.is_empty(), "coarse node {ci} has no fine nodes");
            for &f in group {
                assert_eq!(map.coarse_of(f).index(), ci);
            }
        }
    }
}
