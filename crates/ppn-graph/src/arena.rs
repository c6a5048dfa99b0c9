//! Flat CSR-native level arena for the multilevel hierarchy.
//!
//! A hierarchy that rebuilds a full [`WeightedGraph`] per level pays for
//! `Vec<Vec<(NodeId, EdgeId)>>` adjacency, per-node label options and
//! one heap allocation per node; at a million nodes the rebuild cost and
//! pointer-chasing dominate coarsening. [`LevelArena`] stores the
//! whole hierarchy in a handful of flat arrays instead: node weights,
//! CSR adjacency (ids, edge ids, weights), the edge list, and the
//! fine→coarse maps are appended level by level into shared allocations,
//! with per-level offset metadata carving out [`LevelView`]s.
//!
//! Contraction ([`LevelArena::contract_top`]) follows §IV-A of the
//! paper: each matched pair becomes one coarse node weighing the pair's
//! sum, unmatched nodes carry over, fine edges are re-targeted through
//! the fine→coarse map, parallels merge with summed weights, and edges
//! inside a pair are absorbed. So total node weight is preserved, and a
//! coarse partition cuts exactly what its projection cuts on the fine
//! level. Coarse nodes are numbered in first-visit order, and coarse
//! edges come out in the order a naive `add_or_merge_edge` loop over the
//! fine edges creates them, with adjacency in `push_edge` order: the
//! order every seeded heuristic consumes. `tests/properties.rs` checks
//! all of this against such a naive oracle on single and chained levels,
//! on both sides of [`PARALLEL_EDGE_THRESHOLD`]. The arena carries no
//! labels: nothing in the partitioning pipeline reads them, and a
//! per-node `Option<String>` is exactly the allocation the arena exists
//! to avoid.
//!
//! The parallel edge merge shards fine edges across worker threads
//! (per-thread bucket counts + a deterministic shard-major merge), so its
//! output is independent of `RAYON_NUM_THREADS` by construction; see
//! [`merge_coarse_edges_parallel`].

use crate::csr::CsrView;
use crate::graph::WeightedGraph;
use crate::ids::{EdgeId, NodeId};
use crate::matching::Matching;
use crate::view::GraphView;
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
    /// Into `adjncy`/`adj_edge`/`adjwgt`.
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
    /// Concatenated neighbour ids (level-local node ids).
    adjncy: Vec<u32>,
    /// Level-local edge id aligned with `adjncy`.
    adj_edge: Vec<u32>,
    /// Edge weights aligned with `adjncy`.
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
    /// Seed the arena with `g` as level 0.
    pub fn from_graph(g: &WeightedGraph) -> Self {
        let mut arena = LevelArena::default();
        let n = g.num_nodes();
        let ne = g.num_edges();
        arena.vwgt.extend_from_slice(g.node_weights());
        arena.xadj.push(0);
        for v in g.node_ids() {
            for &(u, e) in g.neighbors(v) {
                arena.adjncy.push(u.0);
                arena.adj_edge.push(e.0);
                arena.adjwgt.push(g.edge_weight(e));
            }
            arena.xadj.push(arena.adjncy.len());
        }
        for (u, v, w) in g.edges() {
            arena.eu.push(u.0);
            arena.ev.push(v.0);
            arena.ew.push(w);
        }
        arena.levels.push(LevelMeta {
            node_off: 0,
            xadj_off: 0,
            adj_off: 0,
            edge_off: 0,
            map_off: 0,
            num_nodes: n,
            num_edges: ne,
        });
        arena
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
            adjncy: &self.adjncy[m.adj_off..m.adj_off + 2 * m.num_edges],
            adj_edge: &self.adj_edge[m.adj_off..m.adj_off + 2 * m.num_edges],
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
            + self.adjncy.len() * 4
            + self.adj_edge.len() * 4
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
        // vwgt 8 + xadj 8 per node (+1 sentinel); adjncy/adj_edge 4+4
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
    /// the caller should [`Reservation::shrink`] the unused slack. On
    /// refusal nothing is reserved and the bound comes back as
    /// `Err(bytes)` so the caller can degrade with an exact message.
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

        // --- append the coarse level: edge arrays, then CSR adjacency in
        // `push_edge` order (per edge: u-side entry, then v-side entry, in
        // ascending coarse edge id) via count / prefix / scatter ---
        let edge_off = self.eu.len();
        let cne = coarse_edges.len();
        for &(u, v, w) in &coarse_edges {
            self.eu.push(u);
            self.ev.push(v);
            self.ew.push(w);
        }
        let xadj_off = self.xadj.len();
        let adj_off = self.adjncy.len();
        let mut deg = vec![0usize; cn];
        for &(u, v, _) in &coarse_edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        self.xadj.reserve(cn + 1);
        let mut sum = 0usize;
        self.xadj.push(0);
        for d in &deg {
            sum += d;
            self.xadj.push(sum);
        }
        debug_assert_eq!(sum, 2 * cne);
        self.adjncy.resize(adj_off + sum, 0);
        self.adj_edge.resize(adj_off + sum, 0);
        self.adjwgt.resize(adj_off + sum, 0);
        // reuse `deg` as per-node write cursors
        let mut cursor = deg;
        for (c, x) in cursor.iter_mut().zip(&self.xadj[xadj_off..xadj_off + cn]) {
            *c = *x;
        }
        for (j, &(u, v, w)) in coarse_edges.iter().enumerate() {
            let (u, v) = (u as usize, v as usize);
            let cu = cursor[u];
            self.adjncy[adj_off + cu] = v as u32;
            self.adj_edge[adj_off + cu] = j as u32;
            self.adjwgt[adj_off + cu] = w;
            cursor[u] += 1;
            let cv = cursor[v];
            self.adjncy[adj_off + cv] = u as u32;
            self.adj_edge[adj_off + cv] = j as u32;
            self.adjwgt[adj_off + cv] = w;
            cursor[v] += 1;
        }

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

/// One level of the arena, borrowed. `Copy`, all-slice — handing one to a
/// matching heuristic or the refinement engine costs nothing.
#[derive(Clone, Copy, Debug)]
pub struct LevelView<'a> {
    vwgt: &'a [u64],
    xadj: &'a [usize],
    adjncy: &'a [u32],
    adj_edge: &'a [u32],
    adjwgt: &'a [u64],
    eu: &'a [u32],
    ev: &'a [u32],
    ew: &'a [u64],
}

impl<'a> LevelView<'a> {
    /// The level's CSR triple, zero-copy (the arena's per-level layout
    /// *is* CSR).
    #[inline]
    pub fn csr_view(&self) -> CsrView<'a> {
        CsrView {
            xadj: self.xadj,
            adjncy: self.adjncy,
            adjwgt: self.adjwgt,
            vwgt: self.vwgt,
        }
    }

    /// Total node weight of the level.
    pub fn total_node_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// The level's heaviest node weight (0 for an empty level).
    pub fn max_node_weight(&self) -> u64 {
        self.vwgt.iter().copied().max().unwrap_or(0)
    }

    /// Materialise the level as a [`WeightedGraph`] (unlabeled), with
    /// the level's node, edge and adjacency order. Used for the coarsest
    /// level, where the initial partitioner wants an owned graph.
    pub fn to_graph(&self) -> WeightedGraph {
        let mut g = WeightedGraph::new();
        for &w in self.vwgt {
            g.add_node(w);
        }
        for i in 0..self.eu.len() {
            g.push_edge_unchecked(NodeId(self.eu[i]), NodeId(self.ev[i]), self.ew[i]);
        }
        g
    }
}

impl<'a> From<LevelView<'a>> for CsrView<'a> {
    fn from(l: LevelView<'a>) -> Self {
        l.csr_view()
    }
}

impl GraphView for LevelView<'_> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.vwgt.len()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.eu.len()
    }

    #[inline]
    fn node_weight(&self, v: NodeId) -> u64 {
        self.vwgt[v.index()]
    }

    #[inline]
    fn edge(&self, e: EdgeId) -> (NodeId, NodeId, u64) {
        let i = e.index();
        (NodeId(self.eu[i]), NodeId(self.ev[i]), self.ew[i])
    }

    #[inline]
    fn edge_weight(&self, e: EdgeId) -> u64 {
        self.ew[e.index()]
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        self.xadj[v.index() + 1] - self.xadj[v.index()]
    }

    #[inline]
    fn neighbor(&self, v: NodeId, i: usize) -> (NodeId, EdgeId) {
        let at = self.xadj[v.index()] + i;
        (NodeId(self.adjncy[at]), EdgeId(self.adj_edge[at]))
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
    use crate::matching::random_maximal_matching;
    use crate::prng::XorShift128Plus;

    /// Random simple graph: `n` nodes, ~`extra` chords over a ring.
    fn random_graph(n: usize, extra: usize, seed: u64) -> WeightedGraph {
        let mut g = WeightedGraph::new();
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
        g
    }

    fn assert_level_matches_graph(lv: &LevelView<'_>, g: &WeightedGraph) {
        assert_eq!(GraphView::num_nodes(lv), g.num_nodes());
        assert_eq!(GraphView::num_edges(lv), g.num_edges());
        for v in g.node_ids() {
            assert_eq!(lv.node_weight(v), g.node_weight(v));
            assert_eq!(GraphView::degree(lv, v), g.degree(v), "degree of {v:?}");
            for i in 0..g.degree(v) {
                assert_eq!(lv.neighbor(v, i), g.neighbors(v)[i], "adj {v:?}[{i}]");
            }
        }
        for e in g.edge_ids() {
            assert_eq!(lv.edge(e), g.edge(e), "edge {e:?}");
        }
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
        assert_level_matches_graph(&arena.level(0), &g);
        let csr = arena.level(0).csr_view();
        let owned = crate::csr::Csr::from_graph(&g);
        assert_eq!(csr.xadj, &owned.xadj[..]);
        assert_eq!(csr.adjncy, &owned.adjncy[..]);
        assert_eq!(csr.adjwgt, &owned.adjwgt[..]);
        assert_eq!(csr.vwgt, &owned.vwgt[..]);
    }

    #[test]
    fn to_graph_round_trips_structure() {
        let g = random_graph(30, 20, 9);
        let arena = LevelArena::from_graph(&g);
        let back = arena.level(0).to_graph();
        back.validate().unwrap();
        assert_level_matches_graph(&arena.level(0), &back);
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
