//! K-way partition representation.
//!
//! A [`Partition`] assigns every node of a graph to one of `k` parts
//! (one part per FPGA). During construction some nodes may still be
//! unassigned (`Partition::UNASSIGNED`) — the initial-partitioning phase of
//! the paper grows parts greedily and only later sweeps up leftovers.

use crate::arena::LevelView;
use crate::error::GraphError;
use crate::graph::WeightedGraph;
use crate::ids::NodeId;
use serde::{Deserialize, Serialize};

/// Assignment of nodes to `k` parts.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    k: usize,
    assign: Vec<u32>,
}

impl Partition {
    /// Sentinel for "not yet assigned".
    pub const UNASSIGNED: u32 = u32::MAX;

    /// A partition over `n` nodes with all nodes unassigned.
    pub fn unassigned(n: usize, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Partition {
            k,
            assign: vec![Self::UNASSIGNED; n],
        }
    }

    /// Build from an explicit assignment vector. Every entry must be
    /// `< k` or [`UNASSIGNED`](Partition::UNASSIGNED).
    pub fn from_assignment(assign: Vec<u32>, k: usize) -> Result<Self, GraphError> {
        if k == 0 {
            return Err(GraphError::InvalidK(0));
        }
        if assign
            .iter()
            .any(|&p| p != Self::UNASSIGNED && p as usize >= k)
        {
            return Err(GraphError::InvalidK(k));
        }
        Ok(Partition { k, assign })
    }

    /// Deterministic O(n) fallback assignment: split the node sequence
    /// into `k` contiguous runs of roughly equal summed weight. No edge
    /// is ever looked at — this is the partition a budget-expired engine
    /// returns when it has no refined candidate yet (complete and
    /// weight-balanced, but with no claim on the cut or on `Bmax`).
    pub fn contiguous_balanced(weights: &[u64], k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        let total: u128 = weights.iter().map(|&w| w as u128).sum::<u128>().max(1);
        let mut assign = Vec::with_capacity(weights.len());
        let mut cum: u128 = 0;
        for &w in weights {
            let part = (cum * k as u128 / total).min(k as u128 - 1) as u32;
            assign.push(part);
            cum += w as u128;
        }
        Partition { k, assign }
    }

    /// All nodes in part 0 (useful as a seed state).
    pub fn all_in_one(n: usize, k: usize) -> Self {
        assert!(k >= 1);
        Partition {
            k,
            assign: vec![0; n],
        }
    }

    /// Number of parts.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes covered by this partition.
    #[inline]
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// True when the partition covers zero nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// Part of node `n`, or [`UNASSIGNED`](Partition::UNASSIGNED).
    #[inline]
    pub fn part_of(&self, n: NodeId) -> u32 {
        self.assign[n.index()]
    }

    /// True if node `n` has been assigned a part.
    #[inline]
    pub fn is_assigned(&self, n: NodeId) -> bool {
        self.assign[n.index()] != Self::UNASSIGNED
    }

    /// Assign node `n` to `part` (must be `< k`).
    #[inline]
    pub fn assign(&mut self, n: NodeId, part: u32) {
        debug_assert!((part as usize) < self.k);
        self.assign[n.index()] = part;
    }

    /// Remove the assignment of node `n`.
    pub fn unassign(&mut self, n: NodeId) {
        self.assign[n.index()] = Self::UNASSIGNED;
    }

    /// The raw assignment vector.
    pub fn assignment(&self) -> &[u32] {
        &self.assign
    }

    /// True when every node has a part.
    pub fn is_complete(&self) -> bool {
        self.assign.iter().all(|&p| p != Self::UNASSIGNED)
    }

    /// Ids of nodes still unassigned.
    pub fn unassigned_nodes(&self) -> Vec<NodeId> {
        self.assign
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == Self::UNASSIGNED)
            .map(|(i, _)| NodeId::from_index(i))
            .collect()
    }

    /// Node count per part (unassigned nodes are not counted).
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.k];
        for &p in &self.assign {
            if p != Self::UNASSIGNED {
                sizes[p as usize] += 1;
            }
        }
        sizes
    }

    /// Summed node (resource) weight per part.
    pub fn part_weights<'a>(&self, g: impl Into<LevelView<'a>>) -> Vec<u64> {
        let vwgt = g.into().node_weights();
        assert_eq!(vwgt.len(), self.len(), "partition/graph size mismatch");
        let mut w = vec![0u64; self.k];
        for (&p, &wv) in self.assign.iter().zip(vwgt) {
            if p != Self::UNASSIGNED {
                w[p as usize] += wv;
            }
        }
        w
    }

    /// Nodes grouped by part; index `k` holds nothing (unassigned nodes
    /// are skipped).
    pub fn members(&self) -> Vec<Vec<NodeId>> {
        let mut m = vec![Vec::new(); self.k];
        for (i, &p) in self.assign.iter().enumerate() {
            if p != Self::UNASSIGNED {
                m[p as usize].push(NodeId::from_index(i));
            }
        }
        m
    }

    /// Check this partition against a graph (same node count).
    pub fn check_against(&self, g: &WeightedGraph) -> Result<(), GraphError> {
        if g.num_nodes() != self.len() {
            return Err(GraphError::PartitionMismatch {
                graph_nodes: g.num_nodes(),
                partition_len: self.len(),
            });
        }
        Ok(())
    }

    /// Project a partition of a coarse graph back onto the fine graph via
    /// the fine→coarse map produced by contraction.
    pub fn project(&self, fine_to_coarse: &[u32]) -> Partition {
        let assign = fine_to_coarse
            .iter()
            .map(|&c| self.assign[c as usize])
            .collect();
        Partition { k: self.k, assign }
    }

    /// Renumber parts so that they appear in first-use order and drop
    /// empty parts; returns the new partition and the number of non-empty
    /// parts. Useful after constructions that may leave holes.
    pub fn compact(&self) -> (Partition, usize) {
        let mut remap = vec![Self::UNASSIGNED; self.k];
        let mut next = 0u32;
        let mut assign = Vec::with_capacity(self.assign.len());
        for &p in &self.assign {
            if p == Self::UNASSIGNED {
                assign.push(p);
                continue;
            }
            if remap[p as usize] == Self::UNASSIGNED {
                remap[p as usize] = next;
                next += 1;
            }
            assign.push(remap[p as usize]);
        }
        (Partition { k: self.k, assign }, next as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn graph3() -> WeightedGraph {
        let mut g = GraphBuilder::new();
        g.add_node(5);
        g.add_node(7);
        g.add_node(11);
        g.build()
    }

    #[test]
    fn unassigned_then_complete() {
        let mut p = Partition::unassigned(3, 2);
        assert!(!p.is_complete());
        assert_eq!(p.unassigned_nodes().len(), 3);
        p.assign(NodeId(0), 0);
        p.assign(NodeId(1), 1);
        p.assign(NodeId(2), 1);
        assert!(p.is_complete());
        assert_eq!(p.part_sizes(), vec![1, 2]);
    }

    #[test]
    fn part_weights_sum_assigned_only() {
        let g = graph3();
        let mut p = Partition::unassigned(3, 2);
        p.assign(NodeId(0), 0);
        p.assign(NodeId(2), 1);
        assert_eq!(p.part_weights(&g), vec![5, 11]);
        p.assign(NodeId(1), 0);
        assert_eq!(p.part_weights(&g), vec![12, 11]);
    }

    #[test]
    fn from_assignment_validates_range() {
        assert!(Partition::from_assignment(vec![0, 1, 2], 3).is_ok());
        assert!(Partition::from_assignment(vec![0, 3], 3).is_err());
        assert!(Partition::from_assignment(vec![0], 0).is_err());
        assert!(Partition::from_assignment(vec![Partition::UNASSIGNED], 2).is_ok());
    }

    #[test]
    fn members_group_nodes() {
        let mut p = Partition::unassigned(4, 2);
        p.assign(NodeId(0), 1);
        p.assign(NodeId(2), 1);
        p.assign(NodeId(3), 0);
        let m = p.members();
        assert_eq!(m[0], vec![NodeId(3)]);
        assert_eq!(m[1], vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn projection_follows_map() {
        // coarse partition over 2 coarse nodes; fine graph has 4 nodes
        let coarse = Partition::from_assignment(vec![0, 1], 2).unwrap();
        let map = vec![0, 0, 1, 1]; // fine i -> coarse
        let fine = coarse.project(&map);
        assert_eq!(fine.assignment(), &[0, 0, 1, 1]);
    }

    #[test]
    fn compact_renumbers_in_first_use_order() {
        let p = Partition::from_assignment(vec![3, 3, 1, 3], 5).unwrap();
        let (c, used) = p.compact();
        assert_eq!(used, 2);
        assert_eq!(c.assignment(), &[0, 0, 1, 0]);
    }

    #[test]
    fn check_against_detects_mismatch() {
        let g = graph3();
        let p = Partition::unassigned(2, 2);
        assert!(p.check_against(&g).is_err());
        let p = Partition::unassigned(3, 2);
        assert!(p.check_against(&g).is_ok());
    }

    #[test]
    fn unassign_reverses_assign() {
        let mut p = Partition::all_in_one(2, 2);
        assert!(p.is_complete());
        p.unassign(NodeId(1));
        assert!(!p.is_complete());
        assert_eq!(p.unassigned_nodes(), vec![NodeId(1)]);
    }

    #[test]
    fn contiguous_balanced_is_complete_and_balanced() {
        let weights = vec![3u64; 30];
        let p = Partition::contiguous_balanced(&weights, 4);
        assert!(p.is_complete());
        assert_eq!(p.k(), 4);
        // contiguous: part indices never decrease along the sequence
        assert!(p.assignment().windows(2).all(|w| w[0] <= w[1]));
        // every part holds 7±1 of the 30 uniform nodes
        let sizes = p.part_sizes();
        assert!(sizes.iter().all(|&s| (7..=8).contains(&s)), "{sizes:?}");
    }

    #[test]
    fn contiguous_balanced_survives_degenerate_shapes() {
        // k > n: trailing parts stay empty, nodes all land in range
        let p = Partition::contiguous_balanced(&[5, 5], 6);
        assert!(p.is_complete());
        assert!(p.assignment().iter().all(|&x| (x as usize) < 6));
        // empty node set
        let p = Partition::contiguous_balanced(&[], 3);
        assert_eq!(p.len(), 0);
        // huge weights must not overflow the proportional split
        let p = Partition::contiguous_balanced(&[u64::MAX, u64::MAX, u64::MAX], 3);
        assert_eq!(p.assignment(), &[0, 1, 2]);
    }
}
