//! Structural deltas over a [`WeightedGraph`] — the workload-drift
//! model behind incremental repartitioning.
//!
//! A deployed process network rarely changes wholesale between two
//! partitioning requests: processes are spawned or retired, channels
//! appear and disappear, and measured traffic drifts. A [`GraphDelta`]
//! captures exactly those edits against a known base graph, and
//! [`GraphDelta::apply`] materialises the successor graph together with
//! a [`DeltaMap`] that relates the two index spaces — the piece a
//! warm-started repartitioner needs to project the previous assignment
//! forward.
//!
//! Index-space convention: every node reference inside a delta uses the
//! *base* graph's indices, except that freshly inserted nodes occupy
//! the virtual indices `base_n, base_n + 1, ...` in insertion order (so
//! an added edge may connect two added nodes before the successor graph
//! exists). The successor graph compacts removed slots away;
//! [`DeltaMap::old_to_new`] records where every surviving base node
//! landed.

use crate::error::GraphError;
use crate::graph::{GraphBuilder, WeightedGraph};
use crate::ids::NodeId;
use crate::partition::Partition;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An edit script against a base graph: insertions, removals and weight
/// drift for both nodes (processes) and edges (channel bundles).
///
/// All fields default to empty, so deltas deserialize from sparse JSON
/// (`{"node_drift": [[3, 9]]}` is a complete delta).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphDelta {
    /// Resource weights of inserted nodes; the i-th entry becomes
    /// virtual index `base_n + i`.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub add_nodes: Vec<u64>,
    /// Base-graph indices of removed nodes (their incident edges go
    /// with them).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub remove_nodes: Vec<u32>,
    /// Inserted edges `(u, v, weight)`; endpoints may name virtual
    /// indices of nodes inserted by this same delta. Traffic on an
    /// already-present edge is merged (summed).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub add_edges: Vec<(u32, u32, u64)>,
    /// Removed edges, named by their base-graph endpoints.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub remove_edges: Vec<(u32, u32)>,
    /// Node weight drift `(node, new_weight)` in base indices.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub node_drift: Vec<(u32, u64)>,
    /// Edge weight drift `(u, v, new_weight)` in base indices.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub edge_drift: Vec<(u32, u32, u64)>,
}

/// How the base and successor index spaces relate after
/// [`GraphDelta::apply`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaMap {
    /// For each base node: its index in the successor graph, or
    /// [`Partition::UNASSIGNED`] when the delta removed it.
    pub old_to_new: Vec<u32>,
    /// Successor indices of the nodes this delta inserted, in
    /// insertion order.
    pub added: Vec<u32>,
}

impl GraphDelta {
    /// True when the delta edits nothing.
    pub fn is_empty(&self) -> bool {
        self.add_nodes.is_empty()
            && self.remove_nodes.is_empty()
            && self.add_edges.is_empty()
            && self.remove_edges.is_empty()
            && self.node_drift.is_empty()
            && self.edge_drift.is_empty()
    }

    /// Number of base nodes the delta touches structurally (removed, or
    /// endpoint of an edge edit) plus nodes it inserts — the "blast
    /// radius" a repartitioner compares against the graph size when
    /// deciding between a warm start and a from-scratch run. Weight
    /// drift counts too: a drifted node may need to move.
    pub fn touched_nodes(&self, base_n: usize) -> usize {
        let mut touched = vec![false; base_n];
        let mut mark = |i: u32| {
            if (i as usize) < base_n {
                touched[i as usize] = true;
            }
        };
        for &n in &self.remove_nodes {
            mark(n);
        }
        for &(u, v, _) in &self.add_edges {
            mark(u);
            mark(v);
        }
        for &(u, v) in &self.remove_edges {
            mark(u);
            mark(v);
        }
        for &(n, _) in &self.node_drift {
            mark(n);
        }
        for &(u, v, _) in &self.edge_drift {
            mark(u);
            mark(v);
        }
        touched.iter().filter(|&&t| t).count() + self.add_nodes.len()
    }

    /// `touched_nodes` as a fraction of the base size (1.0 for an empty
    /// base graph with a non-empty delta).
    pub fn churn_fraction(&self, base_n: usize) -> f64 {
        if base_n == 0 {
            return if self.is_empty() { 0.0 } else { 1.0 };
        }
        self.touched_nodes(base_n) as f64 / base_n as f64
    }

    /// Apply the delta to `base`, producing the successor graph and the
    /// index map. The successor keeps the surviving nodes and edges in
    /// base order, then the inserted ones. Fails when the delta
    /// references nodes outside the virtual index space, removes an edge
    /// that does not exist, drifts a missing node/edge, uses a zero
    /// weight, names a self loop, or merges an added edge onto an
    /// existing one past `u64::MAX`.
    pub fn apply(&self, base: &WeightedGraph) -> Result<(WeightedGraph, DeltaMap), GraphError> {
        let base_n = base.num_nodes();
        let virt_n = base_n + self.add_nodes.len();
        let check = |i: u32| -> Result<(), GraphError> {
            if (i as usize) < virt_n {
                Ok(())
            } else {
                Err(GraphError::InvalidNode(i))
            }
        };
        // -- validation pass (before any construction) --------------
        if self.add_nodes.contains(&0)
            || self.node_drift.iter().any(|&(_, w)| w == 0)
            || self.add_edges.iter().any(|&(_, _, w)| w == 0)
            || self.edge_drift.iter().any(|&(_, _, w)| w == 0)
        {
            return Err(GraphError::ZeroWeight);
        }
        let mut removed = vec![false; base_n];
        for &n in &self.remove_nodes {
            if (n as usize) >= base_n {
                return Err(GraphError::InvalidNode(n));
            }
            removed[n as usize] = true;
        }
        let live = |i: u32| (i as usize) >= base_n || !removed[i as usize];
        for &(u, v, _) in &self.add_edges {
            check(u)?;
            check(v)?;
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            if !live(u) || !live(v) {
                return Err(GraphError::InvalidNode(if live(u) { v } else { u }));
            }
        }
        let key = |u: u32, v: u32| (u.min(v), u.max(v));
        let mut dropped_edges: BTreeMap<(u32, u32), ()> = BTreeMap::new();
        for &(u, v) in &self.remove_edges {
            if (u as usize) >= base_n || (v as usize) >= base_n {
                return Err(GraphError::InvalidNode(u.max(v)));
            }
            if base.find_edge(NodeId(u), NodeId(v)).is_none() {
                return Err(GraphError::InvalidEdge(u.max(v)));
            }
            dropped_edges.insert(key(u, v), ());
        }
        let mut drifted_nodes: BTreeMap<u32, u64> = BTreeMap::new();
        for &(n, w) in &self.node_drift {
            if (n as usize) >= base_n || removed[n as usize] {
                return Err(GraphError::InvalidNode(n));
            }
            drifted_nodes.insert(n, w);
        }
        let mut drifted_edges: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for &(u, v, w) in &self.edge_drift {
            if (u as usize) >= base_n || (v as usize) >= base_n {
                return Err(GraphError::InvalidNode(u.max(v)));
            }
            if base.find_edge(NodeId(u), NodeId(v)).is_none() {
                return Err(GraphError::InvalidEdge(u.max(v)));
            }
            drifted_edges.insert(key(u, v), w);
        }
        // -- node pass ----------------------------------------------
        let mut g = GraphBuilder::new();
        g.reserve(virt_n, base.num_edges() + self.add_edges.len());
        let mut old_to_new = vec![Partition::UNASSIGNED; base_n];
        for i in 0..base_n {
            if removed[i] {
                continue;
            }
            let w = drifted_nodes
                .get(&(i as u32))
                .copied()
                .unwrap_or_else(|| base.node_weight(NodeId(i as u32)));
            let id = match base.label(NodeId(i as u32)) {
                Some(l) => g.add_labeled_node(w, l),
                None => g.add_node(w),
            };
            old_to_new[i] = id.0;
        }
        let mut added = Vec::with_capacity(self.add_nodes.len());
        for &w in &self.add_nodes {
            added.push(g.add_node(w).0);
        }
        let remap = |i: u32| -> u32 {
            if (i as usize) < base_n {
                old_to_new[i as usize]
            } else {
                added[i as usize - base_n]
            }
        };
        // -- edge pass ----------------------------------------------
        // The drop/drift maps hold a handful of entries against
        // hundreds of thousands of base edges; probing them per edge
        // would dominate the rebuild. An endpoint bitset skips both
        // probes for every edge no modification can possibly name.
        let mut edge_modded = vec![false; base_n];
        for &(u, v) in dropped_edges.keys().chain(drifted_edges.keys()) {
            edge_modded[u as usize] = true;
            edge_modded[v as usize] = true;
        }
        for (u, v, w) in base.edges() {
            if removed[u.index()] || removed[v.index()] {
                continue;
            }
            let k = key(u.0, v.0);
            let modded = edge_modded[u.index()] && edge_modded[v.index()];
            if modded && dropped_edges.contains_key(&k) {
                continue;
            }
            let w = if modded {
                drifted_edges.get(&k).copied().unwrap_or(w)
            } else {
                w
            };
            // base edges are pairwise distinct and survive the remap
            // distinct (removal only drops nodes), so the duplicate
            // probe of `add_edge` would only re-verify that
            g.push_edge(NodeId(remap(u.0)), NodeId(remap(v.0)), w);
        }
        for &(u, v, w) in &self.add_edges {
            // validated above, so only a merge past `u64::MAX` fails;
            // name it by the delta's ids, not the successor's
            g.add_or_merge_edge(NodeId(remap(u)), NodeId(remap(v)), w)
                .map_err(|_| GraphError::WeightOverflow(u, v))?;
        }
        Ok((g.build(), DeltaMap { old_to_new, added }))
    }
}

/// Free-function spelling of [`GraphDelta::apply`], for callers that
/// read better verb-first.
pub fn apply_delta(
    base: &WeightedGraph,
    delta: &GraphDelta,
) -> Result<(WeightedGraph, DeltaMap), GraphError> {
    delta.apply(base)
}

impl DeltaMap {
    /// Project an assignment over the base graph onto the successor
    /// graph: surviving nodes keep their part, inserted nodes come out
    /// [`Partition::UNASSIGNED`] (the warm-start placer decides where
    /// they go). Fails when `prev` does not cover the base graph.
    pub fn project(&self, prev: &Partition) -> Result<Partition, GraphError> {
        if prev.len() != self.old_to_new.len() {
            return Err(GraphError::PartitionMismatch {
                graph_nodes: self.old_to_new.len(),
                partition_len: prev.len(),
            });
        }
        let new_n = self
            .old_to_new
            .iter()
            .filter(|&&i| i != Partition::UNASSIGNED)
            .count()
            + self.added.len();
        let mut assign = vec![Partition::UNASSIGNED; new_n];
        for (old, &new) in self.old_to_new.iter().enumerate() {
            if new != Partition::UNASSIGNED {
                assign[new as usize] = prev.part_of(NodeId(old as u32));
            }
        }
        Partition::from_assignment(assign, prev.k())
    }

    /// For each successor-graph node, the base node it descended from
    /// (`UNASSIGNED` for inserted nodes). The inverse of `old_to_new`.
    pub fn new_to_old(&self) -> Vec<u32> {
        let new_n = self
            .old_to_new
            .iter()
            .filter(|&&i| i != Partition::UNASSIGNED)
            .count()
            + self.added.len();
        let mut inv = vec![Partition::UNASSIGNED; new_n];
        for (old, &new) in self.old_to_new.iter().enumerate() {
            if new != Partition::UNASSIGNED {
                inv[new as usize] = old as u32;
            }
        }
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|i| g.add_node(1 + i as u64)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1], 3).unwrap();
        }
        g.build()
    }

    #[test]
    fn empty_delta_reproduces_the_base() {
        let base = path(5);
        let (g, map) = GraphDelta::default().apply(&base).unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(map.old_to_new, vec![0, 1, 2, 3, 4]);
        assert!(map.added.is_empty());
        assert_eq!(g.total_node_weight(), base.total_node_weight());
    }

    #[test]
    fn insertions_removals_and_drift_compose() {
        let base = path(4); // 0-1-2-3, weights 1,2,3,4
        let delta = GraphDelta {
            add_nodes: vec![7],
            remove_nodes: vec![1],
            add_edges: vec![(0, 4, 5), (3, 4, 2)],
            remove_edges: vec![(2, 3)],
            node_drift: vec![(3, 9)],
            edge_drift: vec![(1, 2, 8)], // dies with node 1: still validated
        };
        let (g, map) = delta.apply(&base).unwrap();
        // survivors 0,2,3 compact to 0,1,2; the added node is 3
        assert_eq!(map.old_to_new, vec![0, Partition::UNASSIGNED, 1, 2]);
        assert_eq!(map.added, vec![3]);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.node_weight(NodeId(2)), 9); // drifted old node 3
        assert_eq!(g.node_weight(NodeId(3)), 7); // inserted
                                                 // edges: (0-1 of base) removed with node 1, (1-2) removed with
                                                 // node 1, (2-3) dropped; added (0,new,5) and (3,new,2)
        assert_eq!(g.num_edges(), 2);
        assert_eq!(
            g.find_edge(NodeId(0), NodeId(3)).map(|e| g.edge_weight(e)),
            Some(5)
        );
        assert_eq!(
            g.find_edge(NodeId(2), NodeId(3)).map(|e| g.edge_weight(e)),
            Some(2)
        );
        g.validate().unwrap();
    }

    #[test]
    fn added_edge_onto_existing_edge_merges_traffic() {
        let base = path(3);
        let delta = GraphDelta {
            add_edges: vec![(0, 1, 10)],
            ..Default::default()
        };
        let (g, _) = delta.apply(&base).unwrap();
        assert_eq!(
            g.find_edge(NodeId(0), NodeId(1)).map(|e| g.edge_weight(e)),
            Some(13)
        );
    }

    #[test]
    fn out_of_range_and_dangling_references_fail() {
        let base = path(3);
        let bad_node = GraphDelta {
            remove_nodes: vec![9],
            ..Default::default()
        };
        assert_eq!(
            bad_node.apply(&base).unwrap_err(),
            GraphError::InvalidNode(9)
        );
        let bad_edge = GraphDelta {
            remove_edges: vec![(0, 2)],
            ..Default::default()
        };
        assert!(matches!(
            bad_edge.apply(&base).unwrap_err(),
            GraphError::InvalidEdge(_)
        ));
        let zero = GraphDelta {
            add_nodes: vec![0],
            ..Default::default()
        };
        assert_eq!(zero.apply(&base).unwrap_err(), GraphError::ZeroWeight);
        let self_loop = GraphDelta {
            add_edges: vec![(1, 1, 2)],
            ..Default::default()
        };
        assert_eq!(self_loop.apply(&base).unwrap_err(), GraphError::SelfLoop(1));
        let drift_removed = GraphDelta {
            remove_nodes: vec![1],
            node_drift: vec![(1, 5)],
            ..Default::default()
        };
        assert_eq!(
            drift_removed.apply(&base).unwrap_err(),
            GraphError::InvalidNode(1)
        );
        let overflow = GraphDelta {
            add_edges: vec![(1, 0, u64::MAX - 2)],
            ..Default::default()
        };
        assert_eq!(
            overflow.apply(&base).unwrap_err(),
            GraphError::WeightOverflow(1, 0)
        );
        // removing node 0 shifts 1 and 2 down to successor ids 0 and 1;
        // the error still names the delta's own pair
        let overflow_after_removal = GraphDelta {
            remove_nodes: vec![0],
            add_edges: vec![(2, 1, u64::MAX - 2)],
            ..Default::default()
        };
        assert_eq!(
            overflow_after_removal.apply(&base).unwrap_err(),
            GraphError::WeightOverflow(2, 1)
        );
    }

    #[test]
    fn projection_carries_parts_and_leaves_insertions_open() {
        let base = path(4);
        let prev = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let delta = GraphDelta {
            add_nodes: vec![2],
            remove_nodes: vec![0],
            add_edges: vec![(2, 4, 1)],
            ..Default::default()
        };
        let (_, map) = delta.apply(&base).unwrap();
        let proj = map.project(&prev).unwrap();
        assert_eq!(proj.assignment(), &[0, 1, 1, Partition::UNASSIGNED]);
        let inv = map.new_to_old();
        assert_eq!(inv, vec![1, 2, 3, Partition::UNASSIGNED]);
    }

    #[test]
    fn churn_fraction_counts_the_blast_radius() {
        let delta = GraphDelta {
            node_drift: vec![(0, 5), (1, 5)],
            add_nodes: vec![3],
            ..Default::default()
        };
        assert_eq!(delta.touched_nodes(10), 3);
        assert!((delta.churn_fraction(10) - 0.3).abs() < 1e-12);
        assert_eq!(GraphDelta::default().churn_fraction(10), 0.0);
    }

    #[test]
    fn delta_round_trips_through_serde() {
        let delta = GraphDelta {
            add_nodes: vec![4],
            remove_nodes: vec![2],
            add_edges: vec![(0, 5, 3)],
            remove_edges: vec![(0, 1)],
            node_drift: vec![(3, 6)],
            edge_drift: vec![(3, 4, 2)],
        };
        let s = serde_json::to_string(&delta).unwrap();
        let back: GraphDelta = serde_json::from_str(&s).unwrap();
        assert_eq!(back, delta);
        // sparse JSON deserializes with every omitted field empty
        let sparse: GraphDelta = serde_json::from_str(r#"{"node_drift":[[1,9]]}"#).unwrap();
        assert_eq!(sparse.node_drift, vec![(1, 9)]);
        assert!(sparse.add_nodes.is_empty());
    }
}
