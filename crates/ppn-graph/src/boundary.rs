//! Boundary bookkeeping for partition refinement.
//!
//! Modern multilevel partitioners (kKaHyPar-style) restrict refinement
//! to the *boundary* — nodes with at least one neighbour in another
//! part — instead of sweeping every node every pass. [`Boundary`]
//! maintains that set incrementally, together with the dense per-node
//! part-connectivity tallies that make move evaluation O(k) instead of
//! O(degree):
//!
//! * `conn(v)[q]` — summed weight of `v`'s edges into part `q`;
//! * the boundary set itself, with O(1) membership updates driven off
//!   the external-connectivity aggregate `ext(v) = Σ_{q ≠ part(v)}
//!   conn(v)[q]`.
//!
//! A move of `v` costs O(degree(v)): each neighbour's row is touched in
//! two entries and its membership re-derived in O(1). Inner loops read
//! the graph's flat CSR arrays through a [`LevelView`].

use crate::arena::LevelView;
use crate::ids::NodeId;
use crate::partition::Partition;

const NOT_IN_BOUNDARY: u32 = u32::MAX;

/// Incrementally-maintained boundary set plus dense per-node
/// part-connectivity tallies for a complete partition.
#[derive(Clone, Debug)]
pub struct Boundary {
    k: usize,
    /// Row-major n×k connectivity: `conn[v*k + q]` = summed weight of
    /// `v`'s edges into part `q`.
    conn: Vec<u64>,
    /// Bit `q` of `mask[v]` set iff `conn[v*k + q] > 0` — lets callers
    /// enumerate a node's connected parts in O(popcount) instead of
    /// scanning the k-length row. Maintained only for `k <= 64`
    /// (`conn_mask` saturates otherwise).
    mask: Vec<u64>,
    /// Summed weight of `v`'s edges into parts other than its own.
    ext: Vec<u64>,
    /// Unordered boundary-node set (swap-remove semantics).
    nodes: Vec<NodeId>,
    /// Position of each node in `nodes`, or `NOT_IN_BOUNDARY`.
    pos: Vec<u32>,
}

impl Boundary {
    /// Build the boundary state for a complete partition of `g` (a
    /// [`WeightedGraph`](crate::WeightedGraph) by reference, or a level
    /// straight off the level arena).
    pub fn new<'a>(g: impl Into<LevelView<'a>>, p: &Partition) -> Self {
        let g = g.into();
        let n = g.num_nodes();
        let k = p.k();
        assert_eq!(n, p.len(), "partition/graph size mismatch");
        assert!(p.is_complete(), "boundary needs a complete partition");
        let masked = k <= 64;
        let mut b = Boundary {
            k,
            conn: vec![0; n * k],
            mask: vec![0; if masked { n } else { 0 }],
            ext: vec![0; n],
            nodes: Vec::new(),
            pos: vec![NOT_IN_BOUNDARY; n],
        };
        for v in 0..n {
            let own = p.part_of(NodeId::from_index(v)) as usize;
            let row = &mut b.conn[v * k..(v + 1) * k];
            for (u, w) in g.weighted_neighbors(NodeId::from_index(v)) {
                row[p.part_of(u) as usize] += w;
            }
            let mut total = 0;
            if masked {
                for (q, &w) in row.iter().enumerate() {
                    total += w;
                    if w > 0 {
                        b.mask[v] |= 1 << q;
                    }
                }
            } else {
                total = row.iter().sum();
            }
            b.ext[v] = total - row[own];
            if b.ext[v] > 0 {
                b.insert(NodeId::from_index(v));
            }
        }
        b
    }

    /// Number of parts.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Dense part-connectivity row of `v`.
    #[inline]
    pub fn conn(&self, v: NodeId) -> &[u64] {
        &self.conn[v.index() * self.k..(v.index() + 1) * self.k]
    }

    /// Bitmask of the parts `v` has edges into (bit `q` ⇔
    /// `conn(v)[q] > 0`). Saturates to all-ones when `k > 64`; callers
    /// iterating it must then re-check the row entry.
    #[inline]
    pub fn conn_mask(&self, v: NodeId) -> u64 {
        if self.k <= 64 {
            self.mask[v.index()]
        } else {
            u64::MAX
        }
    }

    /// Summed weight of `v`'s edges leaving its own part.
    #[inline]
    pub fn external(&self, v: NodeId) -> u64 {
        self.ext[v.index()]
    }

    /// True when `v` has a neighbour in another part.
    #[inline]
    pub fn is_boundary(&self, v: NodeId) -> bool {
        self.pos[v.index()] != NOT_IN_BOUNDARY
    }

    /// The current boundary nodes, in no particular order (the order is
    /// nonetheless deterministic for a deterministic move history).
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
    fn refresh_membership(&mut self, v: NodeId) {
        if self.ext[v.index()] > 0 {
            self.insert(v);
        } else {
            self.remove(v);
        }
    }

    /// Apply the move `v: from → to`. May be called before or after the
    /// partition entry of `v` itself is rewritten — only the entries of
    /// *other* nodes are read from `p`. Cost: O(degree(v)).
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
        for (nbr, w) in g.weighted_neighbors(v) {
            let u = nbr.index();
            let pu = p.part_of(nbr) as usize;
            let row = &mut self.conn[u * k..(u + 1) * k];
            row[f] -= w;
            row[t] += w;
            if masked {
                if row[f] == 0 {
                    self.mask[u] &= !(1 << f);
                }
                self.mask[u] |= 1 << t;
            }
            // u's external weight changes only when v crosses u's part
            if pu == f {
                self.ext[u] += w;
                self.refresh_membership(nbr);
            } else if pu == t {
                self.ext[u] -= w;
                self.refresh_membership(nbr);
            }
        }
        let row = &self.conn[v.index() * k..(v.index() + 1) * k];
        let total: u64 = row.iter().sum();
        self.ext[v.index()] = total - row[t];
        self.refresh_membership(v);
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

    fn assert_matches_fresh(b: &Boundary, g: &WeightedGraph, p: &Partition) {
        let fresh = Boundary::new(g, p);
        for v in 0..g.num_nodes() {
            let v = NodeId::from_index(v);
            assert_eq!(b.conn(v), fresh.conn(v), "conn row of {v:?}");
            assert_eq!(b.conn_mask(v), fresh.conn_mask(v), "mask of {v:?}");
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
    }

    #[test]
    fn fresh_construction_finds_the_boundary() {
        let g = fixture();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let b = Boundary::new(&g, &p);
        // crossing edges 1-2 and 0-3: all four nodes are boundary
        assert_eq!(b.len(), 4);
        assert_eq!(b.conn(NodeId(1)), &[3, 5]);
        assert_eq!(b.external(NodeId(1)), 5);
        assert_eq!(b.conn(NodeId(0)), &[3, 2]);
    }

    #[test]
    fn interior_nodes_stay_out() {
        let g = fixture();
        let p = Partition::from_assignment(vec![0, 0, 0, 0], 2).unwrap();
        let b = Boundary::new(&g, &p);
        assert!(b.is_empty());
        for v in 0..4 {
            assert!(!b.is_boundary(NodeId(v)));
            assert_eq!(b.external(NodeId(v)), 0);
        }
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
        assert_matches_fresh(&b, &g, &p);
    }
}
