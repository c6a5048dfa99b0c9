//! The central undirected weighted graph type and its builder.
//!
//! Node weights model FPGA resources consumed by a process; edge weights
//! model sustained bandwidth over the FIFO channels between two processes.
//!
//! A graph is assembled with a mutable [`GraphBuilder`] and frozen by
//! [`GraphBuilder::build`] into an immutable [`WeightedGraph`], stored
//! exactly as one level of the multilevel [`LevelArena`]: node weights,
//! CSR offsets, `(neighbour, edge id)` adjacency pairs, and the edge
//! list, which holds the only copy of each edge weight, plus a label
//! slot per node. So
//! [`WeightedGraph::view`] hands every algorithm the same [`LevelView`]
//! a coarsening level does, and seeding the arena is a slice copy.
//! [`GraphDelta::apply`](crate::GraphDelta::apply) writes its
//! successor's edge list itself and freezes it the same way.
//!
//! Edges keep their creation order, and each node's adjacency lists its
//! incident edges in that order — the order every seeded heuristic
//! consumes. A graph read from JSON keeps the adjacency order its file
//! lists instead.
//!
//! [`LevelArena`]: crate::arena::LevelArena

use crate::arena::{append_adjacency, LevelView};
use crate::error::GraphError;
use crate::ids::{EdgeId, NodeId};

/// End of a node's half-edge list in [`GraphBuilder`].
const NIL: u32 = u32::MAX;

/// Mutable graph under construction: node weights, labels and the edge
/// list, plus a forward-star index (`head`/`next`) over the edge list and
/// node degrees, so a duplicate probe walks the lower-degree endpoint's
/// incident edges without a per-node `Vec`.
///
/// Parallel edges are merged on insertion via
/// [`add_or_merge_edge`](GraphBuilder::add_or_merge_edge) (their weights
/// add, matching the contraction semantics of §IV-A of the paper); self
/// loops are rejected.
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    vwgt: Vec<u64>,
    labels: Vec<Option<String>>,
    eu: Vec<u32>,
    ev: Vec<u32>,
    ew: Vec<u64>,
    /// Per node: its most recent half-edge, or [`NIL`]. Half-edge `2e`
    /// is edge `e` seen from `eu[e]`, `2e + 1` from `ev[e]`.
    head: Vec<u32>,
    /// Per half-edge: the same node's previous half-edge, or [`NIL`].
    next: Vec<u32>,
    /// Per node: the number of incident edges so far.
    deg: Vec<u32>,
}

impl GraphBuilder {
    /// Start an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a graph with `n` nodes all of weight `w`.
    pub fn with_uniform_nodes(n: usize, w: u64) -> Self {
        let mut b = Self::new();
        for _ in 0..n {
            b.add_node(w);
        }
        b
    }

    /// Number of nodes added so far.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.vwgt.len()
    }

    /// Add a node with resource weight `w` (must be > 0) and return its id.
    pub fn add_node(&mut self, w: u64) -> NodeId {
        assert!(w > 0, "node weights must be strictly positive");
        let id = NodeId::from_index(self.vwgt.len());
        self.vwgt.push(w);
        self.labels.push(None);
        self.head.push(NIL);
        self.deg.push(0);
        id
    }

    /// Add a node with a human-readable label (process name).
    pub fn add_labeled_node(&mut self, w: u64, label: impl Into<String>) -> NodeId {
        let id = self.add_node(w);
        self.labels[id.index()] = Some(label.into());
        id
    }

    /// Attach or replace the label of an existing node.
    pub fn set_label(&mut self, n: NodeId, label: impl Into<String>) {
        self.labels[n.index()] = Some(label.into());
    }

    /// Add an undirected edge `u -- v` with bandwidth `w`.
    ///
    /// Errors on self loops, zero weights, unknown endpoints or duplicate
    /// edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: u64) -> Result<EdgeId, GraphError> {
        check_edge(self.num_nodes(), u, v, w)?;
        if self.find_edge(u, v).is_some() {
            return Err(GraphError::DuplicateEdge(u.0, v.0));
        }
        Ok(self.push_edge(u, v, w))
    }

    /// Add `u -- v` with weight `w`, merging with an existing edge by
    /// summing weights (the semantics used when multiple FIFO channels
    /// connect the same process pair). Errors like
    /// [`add_edge`](GraphBuilder::add_edge) does, except on duplicates,
    /// and with [`GraphError::WeightOverflow`] when the merged weight
    /// would pass `u64::MAX` (the edge is then left unchanged).
    pub fn add_or_merge_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        w: u64,
    ) -> Result<EdgeId, GraphError> {
        check_edge(self.num_nodes(), u, v, w)?;
        match self.find_edge(u, v) {
            Some(e) => {
                let merged = &mut self.ew[e.index()];
                *merged = merged
                    .checked_add(w)
                    .ok_or(GraphError::WeightOverflow(u.0, v.0))?;
                Ok(e)
            }
            None => Ok(self.push_edge(u, v, w)),
        }
    }

    /// Append `u -- v`; the caller has run the checks of
    /// [`add_edge`](GraphBuilder::add_edge).
    fn push_edge(&mut self, u: NodeId, v: NodeId, w: u64) -> EdgeId {
        let id = EdgeId::from_index(self.eu.len());
        let half = 2 * id.0;
        self.eu.push(u.0);
        self.ev.push(v.0);
        self.ew.push(w);
        self.next.push(self.head[u.index()]);
        self.next.push(self.head[v.index()]);
        self.head[u.index()] = half;
        self.head[v.index()] = half + 1;
        self.deg[u.index()] += 1;
        self.deg[v.index()] += 1;
        id
    }

    /// The edge between `u` and `v`, if present (walk of the endpoint
    /// with fewer incident edges, so a hub costs its partner's degree).
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (a, b) = if self.deg[u.index()] <= self.deg[v.index()] {
            (u, v)
        } else {
            (v, u)
        };
        let mut half = self.head[a.index()];
        while half != NIL {
            if self.far_end(half) == b.0 {
                return Some(EdgeId(half / 2));
            }
            half = self.next[half as usize];
        }
        None
    }

    /// The neighbour a half-edge leads to.
    #[inline]
    fn far_end(&self, half: u32) -> u32 {
        let e = (half / 2) as usize;
        if half.is_multiple_of(2) {
            self.ev[e]
        } else {
            self.eu[e]
        }
    }

    /// Freeze into a [`WeightedGraph`]: the edge list as built, and each
    /// node's adjacency in edge creation order.
    pub fn build(self) -> WeightedGraph {
        WeightedGraph::from_edge_list(self.vwgt, self.eu, self.ev, self.ew, self.labels)
    }
}

/// The checks every edge of an `n`-node graph passes: no self loop, a
/// positive weight, and both endpoints below `n`.
fn check_edge(n: usize, u: NodeId, v: NodeId, w: u64) -> Result<(), GraphError> {
    if u == v {
        return Err(GraphError::SelfLoop(u.0));
    }
    if w == 0 {
        return Err(GraphError::ZeroWeight);
    }
    if u.index() >= n {
        return Err(GraphError::InvalidNode(u.0));
    }
    if v.index() >= n {
        return Err(GraphError::InvalidNode(v.0));
    }
    Ok(())
}

/// An immutable undirected graph with strictly positive node and edge
/// weights, built by a [`GraphBuilder`] (see the module docs).
///
/// * node weight = resources required to implement the process on an FPGA
///   (the paper considers a single resource class, e.g. LUTs);
/// * edge weight = bandwidth consumed when the two endpoints are mapped to
///   different FPGAs.
#[derive(Clone, Debug)]
pub struct WeightedGraph {
    vwgt: Vec<u64>,
    /// CSR offsets into `adj`, `n + 1` entries.
    xadj: Vec<usize>,
    /// `(neighbour, edge id)` per half-edge.
    adj: Vec<(NodeId, EdgeId)>,
    /// Edge endpoints in stored orientation, and weights, by edge id.
    eu: Vec<u32>,
    ev: Vec<u32>,
    ew: Vec<u64>,
    /// Optional node labels carried through I/O and DOT output.
    labels: Vec<Option<String>>,
}

impl Default for WeightedGraph {
    fn default() -> Self {
        GraphBuilder::new().build()
    }
}

impl WeightedGraph {
    /// Assemble a graph from an explicit adjacency (the JSON form, whose
    /// per-node order is taken as given) and check it with
    /// [`validate`](WeightedGraph::validate) before use.
    pub(crate) fn from_adjacency(
        vwgt: Vec<u64>,
        edges: Vec<(NodeId, NodeId, u64)>,
        xadj: Vec<usize>,
        adj: Vec<(NodeId, EdgeId)>,
        labels: Vec<Option<String>>,
    ) -> Result<Self, GraphError> {
        let g = WeightedGraph {
            vwgt,
            xadj,
            adj,
            eu: edges.iter().map(|&(u, _, _)| u.0).collect(),
            ev: edges.iter().map(|&(_, v, _)| v.0).collect(),
            ew: edges.iter().map(|&(_, _, w)| w).collect(),
            labels,
        };
        g.validate()?;
        Ok(g)
    }

    /// Assemble a graph from its edge list, each node's adjacency
    /// listing its incident edges in creation order. The caller
    /// guarantees what [`validate`](WeightedGraph::validate) checks.
    pub(crate) fn from_edge_list(
        vwgt: Vec<u64>,
        eu: Vec<u32>,
        ev: Vec<u32>,
        ew: Vec<u64>,
        labels: Vec<Option<String>>,
    ) -> Self {
        let (mut xadj, mut adj) = (Vec::new(), Vec::new());
        append_adjacency(vwgt.len(), &eu, &ev, &mut xadj, &mut adj);
        WeightedGraph {
            vwgt,
            xadj,
            adj,
            eu,
            ev,
            ew,
            labels,
        }
    }

    /// Copy a view's nodes and edges into an unlabeled graph, with the
    /// adjacency rebuilt in edge creation order.
    pub(crate) fn from_view(v: LevelView<'_>) -> Self {
        let labels = vec![None; v.num_nodes()];
        Self::from_edge_list(
            v.vwgt.to_vec(),
            v.eu.to_vec(),
            v.ev.to_vec(),
            v.ew.to_vec(),
            labels,
        )
    }

    /// Borrow the graph as a [`LevelView`], the read-only form every
    /// matching, refinement and metric routine takes.
    #[inline]
    pub fn view(&self) -> LevelView<'_> {
        LevelView {
            vwgt: &self.vwgt,
            xadj: &self.xadj,
            adj: &self.adj,
            eu: &self.eu,
            ev: &self.ev,
            ew: &self.ew,
        }
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

    /// True when the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vwgt.is_empty()
    }

    /// The label of a node, if one was set.
    pub fn label(&self, n: NodeId) -> Option<&str> {
        self.labels[n.index()].as_deref()
    }

    /// Every node's label slot, indexed by `NodeId::index()`.
    pub(crate) fn labels(&self) -> &[Option<String>] {
        &self.labels
    }

    /// Resource weight of node `n`.
    #[inline]
    pub fn node_weight(&self, n: NodeId) -> u64 {
        self.vwgt[n.index()]
    }

    /// All node weights as a slice, indexed by `NodeId::index()`.
    pub fn node_weights(&self) -> &[u64] {
        &self.vwgt
    }

    /// Sum of all node weights (invariant under contraction).
    pub fn total_node_weight(&self) -> u64 {
        self.view().total_node_weight()
    }

    /// Sum of all edge weights.
    pub fn total_edge_weight(&self) -> u64 {
        self.view().total_edge_weight()
    }

    /// The maximum node weight (0 for an empty graph). Useful for sanity
    /// checks: a partitioning instance is trivially infeasible when a
    /// single node exceeds `Rmax`.
    pub fn max_node_weight(&self) -> u64 {
        self.view().max_node_weight()
    }

    /// Endpoints and weight of edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, u64) {
        self.view().edge(e)
    }

    /// Bandwidth weight of edge `e`.
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> u64 {
        self.ew[e.index()]
    }

    /// The edge between `u` and `v`, if present.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.view().find_edge(u, v)
    }

    /// Neighbours of `n` as `(neighbour, edge id)` pairs, in edge
    /// creation order (file order for a graph read from JSON).
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        self.view().neighbors(n)
    }

    /// Degree (number of distinct neighbours) of `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.view().degree(n)
    }

    /// Sum of incident edge weights of `n` (the node's total traffic).
    pub fn weighted_degree(&self, n: NodeId) -> u64 {
        self.view().weighted_degree(n)
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges()).map(EdgeId::from_index)
    }

    /// Iterator over `(u, v, w)` for every edge.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, u64)> + '_ {
        self.view().edges()
    }

    /// Structural validation: adjacency is consistent with the edge list,
    /// no self loops, no duplicate edges, all weights positive. A built
    /// graph passes by construction; the JSON reader relies on it.
    pub fn validate(&self) -> Result<(), GraphError> {
        let n = self.num_nodes();
        if self.xadj.len() != n + 1 || self.labels.len() != n {
            return Err(GraphError::Io("internal vector length mismatch".into()));
        }
        if self.vwgt.contains(&0) {
            return Err(GraphError::ZeroWeight);
        }
        for (u, v, w) in self.edges() {
            check_edge(n, u, v, w)?;
        }
        // Adjacency ↔ edge-list agreement in O(V + E): every adjacency
        // entry must name an edge whose endpoints are exactly (here,
        // neighbour), and every edge must be named exactly twice — once
        // from each endpoint.
        let mut incidences = vec![0u8; self.num_edges()];
        for u in 0..n {
            for &(v, e) in &self.adj[self.xadj[u]..self.xadj[u + 1]] {
                if e.index() >= self.num_edges() {
                    return Err(GraphError::InvalidEdge(e.0));
                }
                let (a, b) = (self.eu[e.index()], self.ev[e.index()]);
                let matches = (a as usize == u && b == v.0) || (b as usize == u && a == v.0);
                if !matches {
                    return Err(GraphError::InvalidEdge(e.0));
                }
                incidences[e.index()] = incidences[e.index()].saturating_add(1);
            }
        }
        if incidences.iter().any(|&c| c != 2) {
            return Err(GraphError::Io("dangling adjacency entries".into()));
        }
        // Duplicate detection via a stamped marker array: O(V + E) with a
        // single allocation, instead of a HashSet keyed on edge pairs.
        let mut last_seen_from = vec![u32::MAX; n];
        for u in 0..n {
            for &(v, _) in &self.adj[self.xadj[u]..self.xadj[u + 1]] {
                if last_seen_from[v.index()] == u as u32 {
                    return Err(GraphError::DuplicateEdge(u as u32, v.0));
                }
                last_seen_from[v.index()] = u as u32;
            }
        }
        Ok(())
    }
}

impl<'a> From<&'a WeightedGraph> for LevelView<'a> {
    fn from(g: &'a WeightedGraph) -> Self {
        g.view()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let a = g.add_node(10);
        let b = g.add_node(20);
        let c = g.add_node(30);
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, c, 2).unwrap();
        g.add_edge(c, a, 3).unwrap();
        g.build()
    }

    #[test]
    fn build_triangle() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.total_node_weight(), 60);
        assert_eq!(g.total_edge_weight(), 6);
        assert!(!g.is_empty() && WeightedGraph::default().is_empty());
        assert_eq!(g.edge_ids().map(|e| g.edge_weight(e)).sum::<u64>(), 6);
        g.validate().unwrap();
    }

    #[test]
    fn degrees_and_weighted_degrees() {
        let g = triangle();
        for n in g.node_ids() {
            assert_eq!(g.degree(n), 2);
        }
        assert_eq!(g.weighted_degree(NodeId(0)), 1 + 3);
        assert_eq!(g.weighted_degree(NodeId(1)), 1 + 2);
        assert_eq!(g.weighted_degree(NodeId(2)), 2 + 3);
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(1);
        assert_eq!(g.add_edge(a, a, 1), Err(GraphError::SelfLoop(0)));
    }

    #[test]
    fn duplicate_edge_rejected_but_merge_accumulates() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        let e = g.add_edge(a, b, 5).unwrap();
        assert!(matches!(
            g.add_edge(a, b, 1),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        assert!(matches!(
            g.add_edge(b, a, 1),
            Err(GraphError::DuplicateEdge(_, _))
        ));
        let e2 = g.add_or_merge_edge(b, a, 7).unwrap();
        assert_eq!(e, e2);
        let g = g.build();
        assert_eq!(g.edge_weight(e), 12);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn zero_weight_rejected() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(1);
        let b = g.add_node(1);
        assert_eq!(g.add_edge(a, b, 0), Err(GraphError::ZeroWeight));
    }

    #[test]
    #[should_panic]
    fn zero_node_weight_panics() {
        let mut g = GraphBuilder::new();
        g.add_node(0);
    }

    #[test]
    fn unknown_endpoint_rejected() {
        let mut g = GraphBuilder::new();
        let a = g.add_node(1);
        assert_eq!(g.add_edge(a, NodeId(9), 1), Err(GraphError::InvalidNode(9)));
    }

    #[test]
    fn find_edge_is_symmetric() {
        let g = triangle();
        let e = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(g.find_edge(NodeId(2), NodeId(0)), Some(e));
        assert_eq!(g.edge_weight(e), 3);
        assert_eq!(g.find_edge(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn labels_roundtrip() {
        let mut g = GraphBuilder::new();
        let a = g.add_labeled_node(4, "producer");
        let b = g.add_node(4);
        let c = g.add_node(4);
        g.set_label(b, "consumer");
        let g = g.build();
        assert_eq!(g.label(a), Some("producer"));
        assert_eq!(g.label(b), Some("consumer"));
        assert_eq!(g.label(c), None);
    }

    #[test]
    fn uniform_nodes_constructor() {
        let g = GraphBuilder::with_uniform_nodes(5, 7).build();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.total_node_weight(), 35);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn max_node_weight_tracks_maximum() {
        let g = triangle();
        assert_eq!(g.max_node_weight(), 30);
        assert_eq!(WeightedGraph::default().max_node_weight(), 0);
    }
}
