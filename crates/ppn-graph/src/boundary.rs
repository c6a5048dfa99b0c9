//! Boundary bookkeeping for partition refinement.
//!
//! Modern multilevel partitioners (kKaHyPar-style) restrict refinement
//! to the *boundary* — nodes with at least one neighbour in another
//! part — instead of sweeping every node every pass. [`Boundary`]
//! maintains that set incrementally, together with per-node
//! part-connectivity rows that make move evaluation O(k) instead of
//! O(degree):
//!
//! * `conn(v)[q]` — summed weight of `v`'s edges into part `q`;
//! * the boundary set itself, with O(1) membership updates driven off
//!   the external-connectivity aggregate `ext(v) = Σ_{q ≠ part(v)}
//!   conn(v)[q]`.
//!
//! ## Rows only where refinement looks
//!
//! Rows live in a grow-only pool, one k-entry slot per node that has
//! one. A node without a slot has every neighbour in its own part, so
//! its row is implicit: its weighted degree in its own part, zero
//! elsewhere, and its external weight zero. [`Boundary::new`] finds the
//! boundary in one pass over the edges and stores rows for the boundary
//! nodes only, so a fresh boundary costs O(V + E + |boundary|·k) time
//! and O(V + |boundary|·k) memory, not O(V·k). A row is stored before
//! anything reads it: [`apply_move`](Boundary::apply_move) stores the
//! mover's and each neighbour's, and [`ensure_row`](Boundary::ensure_row)
//! any other node's (the refinement engine's interior visitors and its
//! exchange pass). Once stored, a row stays current for the boundary's
//! lifetime, also after its node leaves the boundary.
//!
//! [`cut_matrix`](Boundary::cut_matrix) reads the pairwise cut off the
//! rows: every cut edge has both endpoints on the boundary, so summing
//! each boundary node's entries into higher-numbered parts counts it
//! once, with no pass over the edges.
//!
//! A move of `v` costs O(degree(v) + k): each neighbour's row is touched
//! in two entries and its membership re-derived in O(1); storing a row
//! costs O(degree + k) once per node. Inner loops read the graph's flat
//! CSR arrays through a [`LevelView`].

use crate::arena::LevelView;
use crate::ids::NodeId;
use crate::metrics::CutMatrix;
use crate::partition::Partition;

const NOT_IN_BOUNDARY: u32 = u32::MAX;
const NO_ROW: u32 = u32::MAX;

/// Incrementally-maintained boundary set plus per-node
/// part-connectivity rows, stored only for the nodes that need one (see
/// the module docs), for a complete partition.
#[derive(Clone, Debug)]
pub struct Boundary {
    k: usize,
    /// Pool slot of each node's stored row, or `NO_ROW`.
    slot: Vec<u32>,
    /// Grow-only row pool: slot `s` holds `rows[s*k..(s+1)*k]`, the
    /// summed weight of its node's edges into each part.
    rows: Vec<u64>,
    /// Per slot: bit `q` set iff the row's entry `q` is non-zero — lets
    /// callers enumerate a node's connected parts in O(popcount)
    /// instead of scanning the row. Kept only for `k <= 64`
    /// (`conn_mask` saturates otherwise).
    mask: Vec<u64>,
    /// Per slot: summed weight of the node's edges into parts other
    /// than its own.
    ext: Vec<u64>,
    /// Unordered boundary-node set (swap-remove semantics).
    nodes: Vec<NodeId>,
    /// Position of each node in `nodes`, or `NOT_IN_BOUNDARY`.
    pos: Vec<u32>,
}

impl Boundary {
    /// Build the boundary state for a complete partition of `g` (a
    /// [`WeightedGraph`](crate::WeightedGraph) by reference, or a level
    /// straight off the level arena): one pass over the edges marks the
    /// endpoints of every cut edge, then a row is stored for each marked
    /// node and the boundary is inserted in ascending id.
    pub fn new<'a>(g: impl Into<LevelView<'a>>, p: &Partition) -> Self {
        let g = g.into();
        let n = g.num_nodes();
        let k = p.k();
        assert_eq!(n, p.len(), "partition/graph size mismatch");
        assert!(p.is_complete(), "boundary needs a complete partition");
        let assign = p.assignment();
        // marks: 0 for a boundary node, NO_ROW otherwise
        let mut slot = vec![NO_ROW; n];
        let mut marked = 0;
        for (&a, &c) in g.eu.iter().zip(g.ev) {
            let (a, c) = (a as usize, c as usize);
            if assign[a] != assign[c] {
                marked += usize::from(slot[a] == NO_ROW) + usize::from(slot[c] == NO_ROW);
                slot[a] = 0;
                slot[c] = 0;
            }
        }
        let mut b = Boundary {
            k,
            slot,
            rows: Vec::with_capacity(marked * k),
            mask: Vec::with_capacity(if k <= 64 { marked } else { 0 }),
            ext: Vec::with_capacity(marked),
            nodes: Vec::with_capacity(marked),
            pos: vec![NOT_IN_BOUNDARY; n],
        };
        for (i, &own) in assign.iter().enumerate() {
            if b.slot[i] == NO_ROW {
                continue;
            }
            let v = NodeId::from_index(i);
            let s = b.push_row(v);
            let row = &mut b.rows[s * k..(s + 1) * k];
            for (u, w) in g.weighted_neighbors(v) {
                row[assign[u.index()] as usize] += w;
            }
            let total = if k <= 64 {
                let mut total = 0;
                for (q, &w) in row.iter().enumerate() {
                    total += w;
                    if w > 0 {
                        b.mask[s] |= 1 << q;
                    }
                }
                total
            } else {
                row.iter().sum()
            };
            b.ext[s] = total - row[own as usize];
            b.insert(v);
        }
        b
    }

    /// Number of parts.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// True when `v`'s row is stored. A node without a stored row has
    /// every neighbour in its own part.
    #[inline]
    pub fn has_row(&self, v: NodeId) -> bool {
        self.slot[v.index()] != NO_ROW
    }

    /// Number of rows stored so far (each `k` entries).
    #[inline]
    pub fn stored_rows(&self) -> usize {
        self.ext.len()
    }

    #[inline]
    fn slot(&self, v: NodeId) -> usize {
        let s = self.slot[v.index()];
        assert_ne!(
            s, NO_ROW,
            "{v:?} has no stored row (see Boundary::ensure_row)"
        );
        s as usize
    }

    /// Part-connectivity row of `v`. The row must be stored: every
    /// boundary node's is, and [`ensure_row`](Boundary::ensure_row)
    /// stores any other.
    #[inline]
    pub fn conn(&self, v: NodeId) -> &[u64] {
        let s = self.slot(v);
        &self.rows[s * self.k..(s + 1) * self.k]
    }

    /// Bitmask of the parts `v` has edges into (bit `q` ⇔
    /// `conn(v)[q] > 0`); the row must be stored, as for
    /// [`conn`](Boundary::conn). Saturates to all-ones when `k > 64`;
    /// callers iterating it must then re-check the row entry.
    #[inline]
    pub fn conn_mask(&self, v: NodeId) -> u64 {
        if self.k <= 64 {
            self.mask[self.slot(v)]
        } else {
            u64::MAX
        }
    }

    /// Summed weight of `v`'s edges leaving its own part.
    #[inline]
    pub fn external(&self, v: NodeId) -> u64 {
        match self.slot[v.index()] {
            NO_ROW => 0,
            s => self.ext[s as usize],
        }
    }

    /// True when `v` has a neighbour in another part.
    #[inline]
    pub fn is_boundary(&self, v: NodeId) -> bool {
        self.pos[v.index()] != NOT_IN_BOUNDARY
    }

    /// The current boundary nodes: ascending id after
    /// [`new`](Boundary::new), then in the deterministic order the
    /// move history leaves.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of boundary nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node is on the boundary.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Store `v`'s row if it is still implicit. `p` must be the
    /// partition the boundary tracks.
    pub fn ensure_row<'a>(&mut self, g: impl Into<LevelView<'a>>, p: &Partition, v: NodeId) {
        self.slot_of(g.into(), v, p.part_of(v) as usize);
    }

    /// Store every node's row: O(V·k) memory, for callers that read
    /// rows of arbitrary nodes.
    pub fn ensure_all_rows<'a>(&mut self, g: impl Into<LevelView<'a>>, p: &Partition) {
        let g = g.into();
        let missing = self.slot.len() - self.stored_rows();
        self.rows.reserve(missing * self.k);
        for (i, &own) in p.assignment().iter().enumerate() {
            self.slot_of(g, NodeId::from_index(i), own as usize);
        }
    }

    /// The pairwise cut of the tracked partition `p`, read off the
    /// boundary rows: each boundary node adds its entries into
    /// higher-numbered parts, so each cut edge counts once.
    /// O(|boundary|·k), no pass over the edges.
    pub fn cut_matrix(&self, p: &Partition) -> CutMatrix {
        let mut m = CutMatrix::zero(self.k);
        for &v in &self.nodes {
            let a = p.part_of(v) as usize;
            for (q, &w) in self.conn(v).iter().enumerate().skip(a + 1) {
                m.add(a, q, w);
            }
        }
        m
    }

    /// Append a zeroed row for `v` to the pool and return its slot.
    fn push_row(&mut self, v: NodeId) -> usize {
        let s = self.ext.len();
        self.rows.resize(self.rows.len() + self.k, 0);
        self.ext.push(0);
        if self.k <= 64 {
            self.mask.push(0);
        }
        self.slot[v.index()] = s as u32;
        s
    }

    /// `v`'s slot, storing its implicit row (weighted degree in its own
    /// part `own`) first when it has none.
    #[inline]
    fn slot_of(&mut self, g: LevelView<'_>, v: NodeId, own: usize) -> usize {
        match self.slot[v.index()] {
            NO_ROW => {
                let s = self.push_row(v);
                let degree = g.weighted_degree(v);
                self.rows[s * self.k + own] = degree;
                if degree > 0 && self.k <= 64 {
                    self.mask[s] = 1 << own;
                }
                s
            }
            s => s as usize,
        }
    }

    fn insert(&mut self, v: NodeId) {
        if self.pos[v.index()] == NOT_IN_BOUNDARY {
            self.pos[v.index()] = self.nodes.len() as u32;
            self.nodes.push(v);
        }
    }

    fn remove(&mut self, v: NodeId) {
        let at = self.pos[v.index()];
        if at == NOT_IN_BOUNDARY {
            return;
        }
        let last = *self.nodes.last().expect("non-empty boundary set");
        self.nodes.swap_remove(at as usize);
        if last != v {
            self.pos[last.index()] = at;
        }
        self.pos[v.index()] = NOT_IN_BOUNDARY;
    }

    #[inline]
    fn refresh_membership(&mut self, v: NodeId, s: usize) {
        if self.ext[s] > 0 {
            self.insert(v);
        } else {
            self.remove(v);
        }
    }

    /// Apply the move `v: from → to`. May be called before or after the
    /// partition entry of `v` itself is rewritten — only the entries of
    /// *other* nodes are read from `p`. Stores the rows of `v` and of
    /// each neighbour first. Cost: O(degree(v) + k), plus O(degree + k)
    /// per row stored.
    pub fn apply_move<'a>(
        &mut self,
        g: impl Into<LevelView<'a>>,
        p: &Partition,
        v: NodeId,
        from: u32,
        to: u32,
    ) {
        let g = g.into();
        if from == to {
            return;
        }
        let (f, t) = (from as usize, to as usize);
        let k = self.k;
        let masked = k <= 64;
        let sv = self.slot_of(g, v, f);
        for (nbr, w) in g.weighted_neighbors(v) {
            let pu = p.part_of(nbr) as usize;
            let su = self.slot_of(g, nbr, pu);
            let row = &mut self.rows[su * k..(su + 1) * k];
            row[f] -= w;
            row[t] += w;
            if masked {
                if row[f] == 0 {
                    self.mask[su] &= !(1 << f);
                }
                self.mask[su] |= 1 << t;
            }
            // u's external weight changes only when v crosses u's part
            if pu == f {
                self.ext[su] += w;
                self.refresh_membership(nbr, su);
            } else if pu == t {
                self.ext[su] -= w;
                self.refresh_membership(nbr, su);
            }
        }
        let row = &self.rows[sv * k..(sv + 1) * k];
        let total: u64 = row.iter().sum();
        self.ext[sv] = total - row[t];
        self.refresh_membership(v, sv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, WeightedGraph};

    /// 0-1-2-3 path plus a 0-3 chord, distinct weights.
    fn fixture() -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|i| g.add_node(10 * (i + 1))).collect();
        g.add_edge(n[0], n[1], 3).unwrap();
        g.add_edge(n[1], n[2], 5).unwrap();
        g.add_edge(n[2], n[3], 7).unwrap();
        g.add_edge(n[0], n[3], 2).unwrap();
        g.build()
    }

    /// `v`'s row, stored or implicit (its weighted degree in its own
    /// part).
    fn row_of(b: &Boundary, g: &WeightedGraph, p: &Partition, v: NodeId) -> Vec<u64> {
        if b.has_row(v) {
            return b.conn(v).to_vec();
        }
        let mut row = vec![0; b.k()];
        row[p.part_of(v) as usize] = g.weighted_degree(v);
        row
    }

    fn assert_matches_fresh(b: &Boundary, g: &WeightedGraph, p: &Partition) {
        let fresh = Boundary::new(g, p);
        for v in 0..g.num_nodes() {
            let v = NodeId::from_index(v);
            assert_eq!(row_of(b, g, p, v), row_of(&fresh, g, p, v), "row of {v:?}");
            assert_eq!(b.external(v), fresh.external(v), "ext of {v:?}");
            assert_eq!(
                b.is_boundary(v),
                fresh.is_boundary(v),
                "membership of {v:?}"
            );
        }
        let mut a: Vec<_> = b.nodes().to_vec();
        let mut f: Vec<_> = fresh.nodes().to_vec();
        a.sort_unstable();
        f.sort_unstable();
        assert_eq!(a, f, "boundary sets differ");
        assert_eq!(b.cut_matrix(p), CutMatrix::compute(g, p));
    }

    #[test]
    fn fresh_construction_finds_the_boundary() {
        let g = fixture();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let b = Boundary::new(&g, &p);
        // crossing edges 1-2 and 0-3: all four nodes are boundary
        assert_eq!(b.len(), 4);
        assert_eq!(b.stored_rows(), 4);
        assert_eq!(b.conn(NodeId(1)), &[3, 5]);
        assert_eq!(b.external(NodeId(1)), 5);
        assert_eq!(b.conn(NodeId(0)), &[3, 2]);
        assert_eq!(b.cut_matrix(&p).get(0, 1), 7);
    }

    #[test]
    fn interior_nodes_stay_out_and_store_no_row() {
        let g = fixture();
        let p = Partition::from_assignment(vec![0, 0, 0, 0], 2).unwrap();
        let mut b = Boundary::new(&g, &p);
        assert!(b.is_empty());
        assert_eq!(b.stored_rows(), 0);
        for v in 0..4 {
            assert!(!b.is_boundary(NodeId(v)));
            assert!(!b.has_row(NodeId(v)));
            assert_eq!(b.external(NodeId(v)), 0);
        }
        // an implicit row is the weighted degree in the own part
        b.ensure_row(&g, &p, NodeId(0));
        assert_eq!(b.conn(NodeId(0)), &[5, 0]);
        assert_eq!(b.conn_mask(NodeId(0)), 0b01);
        assert_eq!(b.stored_rows(), 1);
        b.ensure_all_rows(&g, &p);
        assert_eq!(b.stored_rows(), 4);
        assert_matches_fresh(&b, &g, &p);
    }

    #[test]
    fn moves_match_fresh_construction() {
        let g = fixture();
        let mut p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let mut b = Boundary::new(&g, &p);
        for (v, to) in [(1u32, 1u32), (0, 1), (2, 0), (0, 0), (3, 0), (1, 0)] {
            let from = p.part_of(NodeId(v));
            b.apply_move(&g, &p, NodeId(v), from, to);
            p.assign(NodeId(v), to);
            assert_matches_fresh(&b, &g, &p);
        }
        // everything in part 0 again: boundary must be empty
        assert!(b.is_empty());
    }

    #[test]
    fn moves_store_rows_for_the_mover_and_its_neighbours() {
        // path 0-1-2-3-4, all in part 0: moving 2 stores rows for 1, 2, 3
        let mut gb = GraphBuilder::new();
        let n: Vec<_> = (0..5).map(|_| gb.add_node(1)).collect();
        for w in n.windows(2) {
            gb.add_edge(w[0], w[1], 1).unwrap();
        }
        let g = gb.build();
        let mut p = Partition::from_assignment(vec![0; 5], 2).unwrap();
        let mut b = Boundary::new(&g, &p);
        assert_eq!(b.stored_rows(), 0);
        b.apply_move(&g, &p, NodeId(2), 0, 1);
        p.assign(NodeId(2), 1);
        assert_eq!(b.stored_rows(), 3);
        assert!(!b.has_row(NodeId(0)) && !b.has_row(NodeId(4)));
        assert_eq!(b.nodes(), &[NodeId(1), NodeId(3), NodeId(2)]);
        assert_matches_fresh(&b, &g, &p);
    }

    #[test]
    fn isolated_node_is_never_boundary() {
        let mut g = GraphBuilder::new();
        g.add_node(5);
        g.add_node(5);
        let a = g.add_node(5);
        let c = g.add_node(5);
        g.add_edge(a, c, 4).unwrap();
        let g = g.build();
        let mut p = Partition::from_assignment(vec![0, 1, 0, 1], 2).unwrap();
        let mut b = Boundary::new(&g, &p);
        assert!(!b.is_boundary(NodeId(0)));
        assert!(!b.is_boundary(NodeId(1)));
        assert!(b.is_boundary(a));
        b.apply_move(&g, &p, NodeId(0), 0, 1);
        p.assign(NodeId(0), 1);
        assert!(!b.is_boundary(NodeId(0)));
        assert_eq!(b.conn_mask(NodeId(0)), 0, "no edges, no connected part");
        assert_matches_fresh(&b, &g, &p);
    }
}
