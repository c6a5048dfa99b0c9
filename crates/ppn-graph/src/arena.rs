//! Flat CSR-native level arena for the multilevel hierarchy.
//!
//! [`LevelArena`] stores the whole hierarchy in a handful of flat
//! arrays: node weights, CSR adjacency (`(neighbour, edge id)` pairs and
//! their weights), the edge list, and the fine→coarse maps are appended
//! level by level into shared allocations, with per-level offset
//! metadata carving out [`LevelView`]s. A frozen
//! [`WeightedGraph`] is stored exactly as one level, so
//! [`WeightedGraph::view`] yields the same [`LevelView`] type, seeding
//! the arena ([`LevelArena::from_graph`]) is a slice copy, and every
//! matching, refinement and metric routine reads one layout.
//!
//! Contraction ([`LevelArena::contract_top`]) follows §IV-A of the
//! paper: each matched pair becomes one coarse node weighing the pair's
//! sum, unmatched nodes carry over, fine edges are re-targeted through
//! the fine→coarse map, parallels merge with summed weights, and edges
//! inside a pair are absorbed. So total node weight is preserved, and a
//! coarse partition cuts exactly what its projection cuts on the fine
//! level. Coarse nodes are numbered in first-visit order, and coarse
//! edges come out in the order a naive `add_or_merge_edge` loop over the
//! fine edges creates them, with each node's adjacency in edge creation
//! order: the order every seeded heuristic consumes.
//! `tests/properties.rs` checks all of this against such a naive oracle
//! on single and chained levels, on both sides of
//! [`PARALLEL_EDGE_THRESHOLD`]. The arena carries no labels: nothing in
//! the partitioning pipeline reads them, and a per-node `Option<String>`
//! is exactly the allocation the arena exists to avoid.
//!
//! The parallel edge merge shards fine edges across worker threads
//! (per-thread bucket counts + a deterministic shard-major merge), so its
//! output is independent of `RAYON_NUM_THREADS` by construction; see
//! [`merge_coarse_edges_parallel`].

use crate::graph::WeightedGraph;
use crate::ids::{EdgeId, NodeId};
use crate::matching::Matching;
use rayon::prelude::*;

/// Fine edges internal to a matched pair carry this sentinel as their
/// normalized smaller endpoint (their weight is absorbed).
const ABSORBED: u32 = u32::MAX;

/// Edge count above which [`LevelArena::contract_top`] uses the sharded
/// parallel merge; below it the serial merge wins on overhead.
pub const PARALLEL_EDGE_THRESHOLD: usize = 32_768;

/// Offsets of one level inside the arena's flat arrays.
#[derive(Clone, Copy, Debug)]
struct LevelMeta {
    /// Into `vwgt` (and the level-local node id space).
    node_off: usize,
    /// Into `xadj`; the run is `num_nodes + 1` long with level-local
    /// offsets starting at 0, so a level's `xadj` slice is directly a
    /// CSR offset array.
    xadj_off: usize,
    /// Into `adj`/`adjwgt`.
    adj_off: usize,
    /// Into `eu`/`ev`/`ew`.
    edge_off: usize,
    /// Into `map` — the fine→coarse map from this level to the next.
    /// Meaningful only once the level has been contracted.
    map_off: usize,
    num_nodes: usize,
    num_edges: usize,
}

/// The whole multilevel hierarchy in flat arrays (see module docs).
#[derive(Clone, Debug, Default)]
pub struct LevelArena {
    /// Node weights, all levels concatenated.
    vwgt: Vec<u64>,
    /// Per-level CSR offsets (level-local), `n + 1` entries per level.
    xadj: Vec<usize>,
    /// Concatenated `(neighbour, edge id)` pairs (level-local ids).
    adj: Vec<(NodeId, EdgeId)>,
    /// Edge weights aligned with `adj`.
    adjwgt: Vec<u64>,
    /// Edge endpoints in stored (creation) orientation, level-local ids.
    eu: Vec<u32>,
    ev: Vec<u32>,
    /// Edge weights in edge id order.
    ew: Vec<u64>,
    /// Fine→coarse maps, one run per contracted level.
    map: Vec<u32>,
    levels: Vec<LevelMeta>,
}

impl LevelArena {
    /// Seed the arena with `g` as level 0: a copy of its slices.
    pub fn from_graph(g: &WeightedGraph) -> Self {
        let g = g.view();
        // Power-of-two capacity leaves the first coarse levels room to
        // append, as building level 0 by pushes did. Exact capacity made
        // the first contraction reallocate every array, which raised
        // peak RSS on repeated mid-size runs by about a tenth.
        fn seed<T: Copy>(s: &[T]) -> Vec<T> {
            let mut v = Vec::with_capacity(s.len().next_power_of_two());
            v.extend_from_slice(s);
            v
        }
        LevelArena {
            vwgt: seed(g.vwgt),
            xadj: seed(g.xadj),
            adj: seed(g.adj),
            adjwgt: seed(g.adjwgt),
            eu: seed(g.eu),
            ev: seed(g.ev),
            ew: seed(g.ew),
            map: Vec::new(),
            levels: vec![LevelMeta {
                node_off: 0,
                xadj_off: 0,
                adj_off: 0,
                edge_off: 0,
                map_off: 0,
                num_nodes: g.num_nodes(),
                num_edges: g.num_edges(),
            }],
        }
    }

    /// Number of levels currently stored (≥ 1 once seeded).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Node count of level `l`.
    #[inline]
    pub fn level_nodes(&self, l: usize) -> usize {
        self.levels[l].num_nodes
    }

    /// Edge count of level `l`.
    #[inline]
    pub fn level_edges(&self, l: usize) -> usize {
        self.levels[l].num_edges
    }

    /// Borrow level `l`.
    pub fn level(&self, l: usize) -> LevelView<'_> {
        let m = self.levels[l];
        LevelView {
            vwgt: &self.vwgt[m.node_off..m.node_off + m.num_nodes],
            xadj: &self.xadj[m.xadj_off..m.xadj_off + m.num_nodes + 1],
            adj: &self.adj[m.adj_off..m.adj_off + 2 * m.num_edges],
            adjwgt: &self.adjwgt[m.adj_off..m.adj_off + 2 * m.num_edges],
            eu: &self.eu[m.edge_off..m.edge_off + m.num_edges],
            ev: &self.ev[m.edge_off..m.edge_off + m.num_edges],
            ew: &self.ew[m.edge_off..m.edge_off + m.num_edges],
        }
    }

    /// Borrow the coarsest (most recently appended) level.
    #[inline]
    pub fn top(&self) -> LevelView<'_> {
        self.level(self.levels.len() - 1)
    }

    /// The fine→coarse map from level `l` to level `l + 1`.
    pub fn map_slice(&self, l: usize) -> &[u32] {
        assert!(
            l + 1 < self.levels.len(),
            "level {l} has not been contracted"
        );
        let m = self.levels[l];
        &self.map[m.map_off..m.map_off + m.num_nodes]
    }

    /// Node counts per level, finest first — the hierarchy's size trace.
    pub fn size_trace(&self) -> Vec<usize> {
        self.levels.iter().map(|m| m.num_nodes).collect()
    }

    /// Total bytes held by the arena's flat arrays (footprint reporting).
    pub fn total_bytes(&self) -> usize {
        self.vwgt.len() * 8
            + self.xadj.len() * std::mem::size_of::<usize>()
            + self.adj.len() * std::mem::size_of::<(NodeId, EdgeId)>()
            + self.adjwgt.len() * 8
            + self.eu.len() * 4
            + self.ev.len() * 4
            + self.ew.len() * 8
            + self.map.len() * 4
            + self.levels.len() * std::mem::size_of::<LevelMeta>()
    }

    /// Bytes a level holding `n` nodes and `ne` edges occupies in the
    /// flat arrays (the per-array terms of [`total_bytes`](Self::total_bytes)).
    /// Used to pre-flight level 0 before [`from_graph`](Self::from_graph)
    /// and, with the top level's own counts, to bound the next coarse
    /// level — contraction never grows node or edge counts.
    pub fn level_bytes_estimate(n: usize, ne: usize) -> u64 {
        let n = n as u64;
        let ne = ne as u64;
        // vwgt 8 + xadj 8 per node (+1 sentinel); adj 4+4
        // and adjwgt 8 per half-edge (2 per edge); eu/ev 4+4, ew 8 per
        // edge; one LevelMeta.
        n * 16 + 8 + ne * 48 + std::mem::size_of::<LevelMeta>() as u64
    }

    /// Upper bound on the bytes one more contraction can append: the
    /// coarse level is no larger than the top level, plus the top
    /// level's fine→coarse map (4 bytes per fine node).
    pub fn next_level_bytes_bound(&self) -> u64 {
        let m = self.levels[self.levels.len() - 1];
        Self::level_bytes_estimate(m.num_nodes, m.num_edges) + m.num_nodes as u64 * 4
    }

    /// Fallible pre-reservation of the next coarse level against `res`'s
    /// memory ledger. On success the conservative bound is reserved and
    /// returned (`Ok(bytes)`) — after [`contract_top`](Self::contract_top)
    /// the caller should
    /// [`Reservation::shrink`](crate::budget::Reservation::shrink) the
    /// unused slack. On refusal nothing is reserved and the bound comes
    /// back as `Err(bytes)` so the caller can degrade with an exact
    /// message.
    pub fn try_reserve_level(&self, res: &mut crate::budget::Reservation) -> Result<u64, u64> {
        let want = self.next_level_bytes_bound();
        if res.try_grow(want) {
            Ok(want)
        } else {
            Err(want)
        }
    }

    /// Contract the top level along `matching`, appending the coarse
    /// level, and return its node count. Node, edge and adjacency order
    /// are those of a naive re-target-and-merge loop over the top level
    /// (see the module docs). Uses the sharded parallel merge above
    /// [`PARALLEL_EDGE_THRESHOLD`] edges.
    pub fn contract_top(&mut self, matching: &Matching) -> usize {
        let top = self.levels.len() - 1;
        let m = self.levels[top];
        assert_eq!(matching.len(), m.num_nodes, "matching/level mismatch");
        let n = m.num_nodes;
        let ne = m.num_edges;

        // --- coarse nodes + fine→coarse map, in first-visit order ---
        let map_off = self.map.len();
        self.map.resize(map_off + n, u32::MAX);
        let node_off = self.vwgt.len();
        {
            let vwgt_fine_end = node_off;
            let mut cn = 0u32;
            for v in 0..n {
                if self.map[map_off + v] != u32::MAX {
                    continue;
                }
                let wv = self.vwgt[m.node_off + v];
                match matching.mate_of(NodeId::from_index(v)) {
                    Some(u) => {
                        let w = wv + self.vwgt[m.node_off + u.index()];
                        self.map[map_off + v] = cn;
                        self.map[map_off + u.index()] = cn;
                        self.vwgt.push(w);
                    }
                    None => {
                        self.map[map_off + v] = cn;
                        self.vwgt.push(wv);
                    }
                }
                cn += 1;
            }
            debug_assert_eq!(self.vwgt.len() - vwgt_fine_end, cn as usize);
        }
        let cn = self.vwgt.len() - node_off;
        self.levels[top].map_off = map_off;

        // --- merge fine edges into coarse edges ---
        let map = &self.map[map_off..map_off + n];
        let eu = &self.eu[m.edge_off..m.edge_off + ne];
        let ev = &self.ev[m.edge_off..m.edge_off + ne];
        let ew = &self.ew[m.edge_off..m.edge_off + ne];
        let coarse_edges = if ne >= PARALLEL_EDGE_THRESHOLD {
            merge_coarse_edges_parallel(eu, ev, ew, map, cn)
        } else {
            merge_coarse_edges_serial(eu, ev, ew, map, cn)
        };

        // --- append the coarse level: edge arrays, then its adjacency ---
        let edge_off = self.eu.len();
        let cne = coarse_edges.len();
        for &(u, v, w) in &coarse_edges {
            self.eu.push(u);
            self.ev.push(v);
            self.ew.push(w);
        }
        let xadj_off = self.xadj.len();
        let adj_off = self.adj.len();
        append_adjacency(
            cn,
            &self.eu[edge_off..],
            &self.ev[edge_off..],
            &self.ew[edge_off..],
            &mut self.xadj,
            &mut self.adj,
            &mut self.adjwgt,
        );

        self.levels.push(LevelMeta {
            node_off,
            xadj_off,
            adj_off,
            edge_off,
            map_off: 0,
            num_nodes: cn,
            num_edges: cne,
        });
        cn
    }
}

/// Append the CSR adjacency of an `n`-node level with edge list
/// `(eu, ev, ew)`: `n + 1` level-local offsets onto `xadj`, and each
/// node's `(neighbour, edge id)` pairs and weights onto `adj`/`adjwgt`,
/// in ascending edge id (counting sort by endpoint). This is the order a
/// node's incident edges were created in, which the builder, delta
/// application and contraction all preserve.
pub(crate) fn append_adjacency(
    n: usize,
    eu: &[u32],
    ev: &[u32],
    ew: &[u64],
    xadj: &mut Vec<usize>,
    adj: &mut Vec<(NodeId, EdgeId)>,
    adjwgt: &mut Vec<u64>,
) {
    let mut cursor = vec![0usize; n];
    for (&u, &v) in eu.iter().zip(ev) {
        cursor[u as usize] += 1;
        cursor[v as usize] += 1;
    }
    // degrees → level-local offsets; `cursor` becomes each node's write
    // position
    xadj.reserve(n + 1);
    xadj.push(0);
    let mut sum = 0usize;
    for c in cursor.iter_mut() {
        let deg = *c;
        *c = sum;
        sum += deg;
        xadj.push(sum);
    }
    let base = adj.len();
    adj.resize(base + sum, (NodeId(0), EdgeId(0)));
    for (e, (&u, &v)) in eu.iter().zip(ev).enumerate() {
        let e = EdgeId::from_index(e);
        for (from, to) in [(u, v), (v, u)] {
            let at = &mut cursor[from as usize];
            adj[base + *at] = (NodeId(to), e);
            *at += 1;
        }
    }
    adjwgt.extend(adj[base..].iter().map(|&(_, e)| ew[e.index()]));
}

/// One graph in the arena's layout, borrowed: a level of the arena, or
/// a whole [`WeightedGraph`] ([`WeightedGraph::view`]). `Copy`,
/// all-slice — handing one to a matching heuristic or the refinement
/// engine costs nothing.
///
/// Edges enumerate in creation (id) order, and each node's adjacency
/// lists its incident edges in creation order. The one exception is an
/// input graph read from JSON, whose adjacency keeps the order the file
/// lists ([`graph_from_json`](crate::io::json::graph_from_json)); so
/// does the arena level seeded from it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelView<'a> {
    pub(crate) vwgt: &'a [u64],
    pub(crate) xadj: &'a [usize],
    pub(crate) adj: &'a [(NodeId, EdgeId)],
    pub(crate) adjwgt: &'a [u64],
    pub(crate) eu: &'a [u32],
    pub(crate) ev: &'a [u32],
    pub(crate) ew: &'a [u64],
}

impl<'a> LevelView<'a> {
    /// The view itself: the spelling the benchmark harness still uses
    /// for a level's CSR form.
    #[inline]
    pub fn csr_view(&self) -> Self {
        *self
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.vwgt.len()
    }

    /// Number of (merged, undirected) edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.eu.len()
    }

    /// Resource weight of node `v`.
    #[inline]
    pub fn node_weight(&self, v: NodeId) -> u64 {
        self.vwgt[v.index()]
    }

    /// All node weights, indexed by `NodeId::index()`.
    #[inline]
    pub fn node_weights(&self) -> &'a [u64] {
        self.vwgt
    }

    /// Endpoints and weight of edge `e`, in stored orientation.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, u64) {
        let i = e.index();
        (NodeId(self.eu[i]), NodeId(self.ev[i]), self.ew[i])
    }

    /// Bandwidth weight of edge `e`.
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> u64 {
        self.ew[e.index()]
    }

    /// Iterator over `(u, v, w)` for every edge, in id order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + 'a {
        let (eu, ev, ew) = (self.eu, self.ev, self.ew);
        (0..eu.len()).map(move |i| (NodeId(eu[i]), NodeId(ev[i]), ew[i]))
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.xadj[v.index() + 1] - self.xadj[v.index()]
    }

    /// `v`'s `(neighbour, edge id)` pairs.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &'a [(NodeId, EdgeId)] {
        &self.adj[self.xadj[v.index()]..self.xadj[v.index() + 1]]
    }

    /// Edge weights aligned with [`neighbors`](LevelView::neighbors).
    #[inline]
    pub fn neighbor_weights(&self, v: NodeId) -> &'a [u64] {
        &self.adjwgt[self.xadj[v.index()]..self.xadj[v.index() + 1]]
    }

    /// `v`'s `(neighbour, edge weight)` pairs.
    #[inline]
    pub fn weighted_neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, u64)> + 'a {
        self.neighbors(v)
            .iter()
            .zip(self.neighbor_weights(v))
            .map(|(&(u, _), &w)| (u, w))
    }

    /// The edge between `u` and `v`, if present (scan of the smaller
    /// adjacency).
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a)
            .iter()
            .find(|&&(n, _)| n == b)
            .map(|&(_, e)| e)
    }

    /// Sum of incident edge weights of `v`.
    pub fn weighted_degree(&self, v: NodeId) -> u64 {
        self.neighbor_weights(v).iter().sum()
    }

    /// Total node weight.
    pub fn total_node_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Total edge weight.
    pub fn total_edge_weight(&self) -> u64 {
        self.ew.iter().sum()
    }

    /// The heaviest node weight (0 for an empty graph).
    pub fn max_node_weight(&self) -> u64 {
        self.vwgt.iter().copied().max().unwrap_or(0)
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Materialise the view as an unlabeled [`WeightedGraph`] with the
    /// same node and edge order, each node's adjacency rebuilt in edge
    /// creation order. That is the stored order of every level but a
    /// JSON input's (see the type docs).
    pub fn to_graph(&self) -> WeightedGraph {
        WeightedGraph::from_view(*self)
    }
}

/// Serial coarse-edge merge: re-target fine edges `(eu, ev, ew)` through
/// `map` and merge parallels in O(V + E): fine edges are bucketed stably
/// by their smaller coarse endpoint (counting sort), and parallels inside
/// a bucket are found with a last-seen marker keyed by the larger
/// endpoint. Returns the coarse edge list `(u, v, w)` in emission order —
/// ascending smallest-fine-id representative, fine orientation preserved
/// — which is exactly a naive `add_or_merge_edge` loop's creation order.
pub fn merge_coarse_edges_serial(
    eu: &[u32],
    ev: &[u32],
    ew: &[u64],
    map: &[u32],
    coarse_nodes: usize,
) -> Vec<(u32, u32, u64)> {
    let ne = eu.len();
    let mut pair_a = vec![0u32; ne];
    let mut pair_b = vec![0u32; ne];
    let mut counts = vec![0u32; coarse_nodes + 1];
    for i in 0..ne {
        let (cu, cv) = (map[eu[i] as usize], map[ev[i] as usize]);
        if cu == cv {
            pair_a[i] = ABSORBED;
            continue;
        }
        let (a, b) = if cu < cv { (cu, cv) } else { (cv, cu) };
        pair_a[i] = a;
        pair_b[i] = b;
        counts[a as usize] += 1;
    }
    let mut sum = 0u32;
    for c in counts.iter_mut() {
        let here = *c;
        *c = sum;
        sum += here;
    }
    let mut order = vec![0u32; sum as usize];
    for (i, &a) in pair_a.iter().enumerate() {
        if a != ABSORBED {
            let cursor = &mut counts[a as usize];
            order[*cursor as usize] = i as u32;
            *cursor += 1;
        }
    }
    let mut marker = vec![0u32; coarse_nodes];
    let mut slot = vec![0u32; coarse_nodes];
    let mut is_rep = vec![false; ne];
    let mut acc = vec![0u64; ne];
    for &ei in &order {
        let i = ei as usize;
        let a = pair_a[i];
        let b = pair_b[i] as usize;
        if marker[b] != a + 1 {
            marker[b] = a + 1;
            slot[b] = ei;
            is_rep[i] = true;
            acc[i] = ew[i];
        } else {
            acc[slot[b] as usize] += ew[i];
        }
    }
    emit_coarse_edges(eu, ev, map, &is_rep, &acc)
}

/// Parallel coarse-edge merge, output bit-identical to
/// [`merge_coarse_edges_serial`] at any `RAYON_NUM_THREADS`:
///
/// 1. fine edges are cut into contiguous shards; each worker normalizes
///    its shard's endpoints through `map` and tallies per-shard bucket
///    counts (the *per-thread bucket shards*);
/// 2. a serial pass merges the shard counts shard-major — within a
///    bucket, shard `s`'s edges land after every earlier shard's — so the
///    bucketed order is ascending fine edge id exactly as the serial
///    stable scatter produces (the *deterministic merge*);
/// 3. the bucketed order is cut into contiguous segments at bucket
///    boundaries; each worker merges its segment's parallels with a
///    private marker array (buckets never span segments, so merges are
///    independent) and returns its `(representative, weight)` list;
/// 4. a serial pass scatters those onto the per-edge arrays and emits in
///    ascending representative id.
///
/// Steps 1 and 3 carry the O(E) random access into `map` and the marker
/// merge; the serial steps are sequential scans.
pub fn merge_coarse_edges_parallel(
    eu: &[u32],
    ev: &[u32],
    ew: &[u64],
    map: &[u32],
    coarse_nodes: usize,
) -> Vec<(u32, u32, u64)> {
    let ne = eu.len();
    if ne == 0 {
        return Vec::new();
    }
    let shards = rayon::current_num_threads().min(ne).max(1);
    let chunk = ne.div_ceil(shards);

    // -- step 1: parallel normalize + per-shard bucket counts --
    let mut pair_a = vec![0u32; ne];
    let mut pair_b = vec![0u32; ne];
    let shard_counts: Vec<Vec<u32>> = {
        let tasks: Vec<(usize, &mut [u32], &mut [u32])> = pair_a
            .chunks_mut(chunk)
            .zip(pair_b.chunks_mut(chunk))
            .enumerate()
            .map(|(ci, (pa, pb))| (ci * chunk, pa, pb))
            .collect();
        tasks
            .into_par_iter()
            .map(|(start, pa, pb)| {
                let mut counts = vec![0u32; coarse_nodes];
                for (off, (pa, pb)) in pa.iter_mut().zip(pb.iter_mut()).enumerate() {
                    let i = start + off;
                    let (cu, cv) = (map[eu[i] as usize], map[ev[i] as usize]);
                    if cu == cv {
                        *pa = ABSORBED;
                        continue;
                    }
                    let (a, b) = if cu < cv { (cu, cv) } else { (cv, cu) };
                    *pa = a;
                    *pb = b;
                    counts[a as usize] += 1;
                }
                counts
            })
            .collect()
    };

    // -- step 2: shard-major merge of the counts into bucket starts and
    // per-shard write cursors --
    let mut bucket_start = vec![0u32; coarse_nodes + 1];
    for counts in &shard_counts {
        for (b, &c) in counts.iter().enumerate() {
            bucket_start[b + 1] += c;
        }
    }
    for b in 0..coarse_nodes {
        bucket_start[b + 1] += bucket_start[b];
    }
    let total = bucket_start[coarse_nodes] as usize;
    let mut order = vec![0u32; total];
    {
        // stable scatter in ascending fine edge id — identical bucketed
        // order to the serial merge regardless of shard count
        let mut cursors: Vec<u32> = bucket_start[..coarse_nodes].to_vec();
        for (i, &a) in pair_a.iter().enumerate() {
            if a != ABSORBED {
                let cursor = &mut cursors[a as usize];
                order[*cursor as usize] = i as u32;
                *cursor += 1;
            }
        }
    }

    // -- step 3: segment `order` at bucket boundaries, merge segments in
    // parallel with private markers --
    let mut segments: Vec<std::ops::Range<usize>> = Vec::with_capacity(shards);
    {
        let target = total.div_ceil(shards).max(1);
        let mut seg_start = 0usize;
        let mut next_cut = target;
        for b in 0..coarse_nodes {
            let end = bucket_start[b + 1] as usize;
            if end >= next_cut && end > seg_start {
                segments.push(seg_start..end);
                seg_start = end;
                next_cut = end + target;
            }
        }
        if seg_start < total {
            segments.push(seg_start..total);
        }
    }
    let seg_reps: Vec<Vec<(u32, u64)>> = segments
        .into_par_iter()
        .map(|range| {
            let mut marker = vec![0u32; coarse_nodes];
            // index into `reps` of the marked node's representative
            let mut rep_at = vec![0u32; coarse_nodes];
            let mut reps: Vec<(u32, u64)> = Vec::new();
            for &ei in &order[range] {
                let i = ei as usize;
                let a = pair_a[i];
                let b = pair_b[i] as usize;
                if marker[b] != a + 1 {
                    marker[b] = a + 1;
                    rep_at[b] = reps.len() as u32;
                    reps.push((ei, ew[i]));
                } else {
                    reps[rep_at[b] as usize].1 += ew[i];
                }
            }
            reps
        })
        .collect();

    // -- step 4: serial scatter + emission in ascending representative id --
    let mut is_rep = vec![false; ne];
    let mut acc = vec![0u64; ne];
    for reps in &seg_reps {
        for &(rep, w) in reps {
            is_rep[rep as usize] = true;
            acc[rep as usize] = w;
        }
    }
    emit_coarse_edges(eu, ev, map, &is_rep, &acc)
}

/// Emit merged coarse edges in ascending representative (fine edge) id,
/// preserving the fine orientation — the shared tail of both merge paths.
fn emit_coarse_edges(
    eu: &[u32],
    ev: &[u32],
    map: &[u32],
    is_rep: &[bool],
    acc: &[u64],
) -> Vec<(u32, u32, u64)> {
    let mut out = Vec::new();
    for i in 0..eu.len() {
        if is_rep[i] {
            out.push((map[eu[i] as usize], map[ev[i] as usize], acc[i]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::matching::random_maximal_matching;
    use crate::prng::XorShift128Plus;

    /// Random simple graph: `n` nodes, ~`extra` chords over a ring.
    fn random_graph(n: usize, extra: usize, seed: u64) -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let mut rng = XorShift128Plus::new(seed);
        let ids: Vec<_> = (0..n).map(|_| g.add_node(1 + rng.next_u64() % 9)).collect();
        for i in 0..n {
            g.add_edge(ids[i], ids[(i + 1) % n], 1 + rng.next_u64() % 7)
                .unwrap();
        }
        for _ in 0..extra {
            let a = rng.next_below(n);
            let b = rng.next_below(n);
            if a != b {
                let _ = g.add_or_merge_edge(ids[a], ids[b], 1 + rng.next_u64() % 7);
            }
        }
        g.build()
    }

    #[test]
    fn level_reservation_bounds_and_degrades() {
        let g = random_graph(50, 40, 5);
        let mut arena = LevelArena::from_graph(&g);
        // the static estimate covers what from_graph actually allocated
        let est0 = LevelArena::level_bytes_estimate(g.num_nodes(), g.num_edges());
        assert!(est0 >= arena.total_bytes() as u64);
        // a generous ledger admits a level and the bound covers reality
        let budget = crate::budget::Budget::unlimited().with_max_bytes(4 * est0);
        let mut res = budget.begin_reservation();
        let want = arena.try_reserve_level(&mut res).expect("fits");
        let before = arena.total_bytes();
        let m = random_maximal_matching(&g, 99);
        arena.contract_top(&m);
        let grew = (arena.total_bytes() - before) as u64;
        assert!(grew <= want, "bound {want} must cover actual growth {grew}");
        res.shrink(want - grew);
        assert_eq!(res.bytes(), grew);
        // a tiny ledger refuses without reserving anything
        let tiny = crate::budget::Budget::unlimited().with_max_bytes(16);
        let mut res = tiny.begin_reservation();
        let want = arena.try_reserve_level(&mut res).expect_err("must refuse");
        assert!(want > 16);
        assert_eq!(res.bytes(), 0);
        assert_eq!(tiny.memory_ledger().unwrap().used(), 0);
    }

    #[test]
    fn base_level_mirrors_graph() {
        let g = random_graph(40, 30, 7);
        let arena = LevelArena::from_graph(&g);
        assert_eq!(arena.num_levels(), 1);
        assert_eq!(arena.level(0), g.view());
    }

    #[test]
    fn to_graph_round_trips_structure() {
        let g = random_graph(30, 20, 9);
        let arena = LevelArena::from_graph(&g);
        let back = arena.level(0).to_graph();
        back.validate().unwrap();
        assert_eq!(back.view(), arena.level(0));
        assert!(back.node_ids().all(|v| back.label(v).is_none()));
    }

    #[test]
    fn parallel_merge_matches_serial() {
        for seed in 0..8 {
            let g = random_graph(80, 120, seed);
            let m = random_maximal_matching(&g, seed ^ 0x33);
            let arena = LevelArena::from_graph(&g);
            let lv = arena.level(0);
            // build the map the same way contract_top does
            let mut map = vec![u32::MAX; g.num_nodes()];
            let mut cn = 0u32;
            for v in 0..g.num_nodes() {
                if map[v] != u32::MAX {
                    continue;
                }
                if let Some(u) = m.mate_of(NodeId::from_index(v)) {
                    map[u.index()] = cn;
                }
                map[v] = cn;
                cn += 1;
            }
            let serial = merge_coarse_edges_serial(lv.eu, lv.ev, lv.ew, &map, cn as usize);
            let parallel = merge_coarse_edges_parallel(lv.eu, lv.ev, lv.ew, &map, cn as usize);
            assert_eq!(serial, parallel, "seed {seed}");
        }
    }

    #[test]
    fn merges_on_empty_edge_lists() {
        assert!(merge_coarse_edges_serial(&[], &[], &[], &[0, 1], 2).is_empty());
        assert!(merge_coarse_edges_parallel(&[], &[], &[], &[0, 1], 2).is_empty());
    }
}
