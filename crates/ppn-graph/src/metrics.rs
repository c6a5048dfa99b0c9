//! Partition quality metrics.
//!
//! The paper evaluates four quantities (Tables I–III):
//!
//! 1. **total edge cut** — summed weight of edges crossing parts;
//! 2. **maximum local bandwidth** — the largest entry of the pairwise
//!    part-to-part traffic matrix (this is what `Bmax` bounds);
//! 3. **maximum resource allocation** — the largest per-part summed node
//!    weight (bounded by `Rmax`);
//! 4. **runtime** (measured by the bench harness, not here).
//!
//! [`CutMatrix`] maintains the pairwise traffic incrementally: moving a
//! node only touches the rows/columns of its old and new part, at cost
//! O(degree). This is what makes the constrained FM refinement of the core
//! crate cheap.

use crate::arena::LevelView;
use crate::ids::NodeId;
use crate::partition::Partition;
use serde::{Deserialize, Serialize};

/// Symmetric K×K matrix of inter-part traffic. Entry `(a, b)` with
/// `a != b` is the summed weight of edges with one endpoint in part `a`
/// and the other in part `b`. The diagonal is unused (kept zero).
///
/// The matrix maintains two aggregates *incrementally* alongside the
/// per-pair entries, so the refinement hot path never rescans the K×K
/// grid:
///
/// * the total cut ([`total_cut`](CutMatrix::total_cut) is O(1));
/// * the bandwidth-violation magnitude against a *tracked* `Bmax`
///   ([`track_bmax`](CutMatrix::track_bmax) /
///   [`tracked_excess`](CutMatrix::tracked_excess)). The default tracked
///   threshold is `u64::MAX`, for which the excess is trivially zero.
///
/// Equality compares only the traffic matrix itself (shape and
/// entries), not the tracked threshold.
#[derive(Clone, Debug, Eq, Serialize, Deserialize)]
pub struct CutMatrix {
    k: usize,
    data: Vec<u64>,
    total: u64,
    tracked_bmax: u64,
    excess: u64,
}

impl PartialEq for CutMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.k == other.k && self.data == other.data
    }
}

impl CutMatrix {
    /// Zero matrix for `k` parts.
    pub fn zero(k: usize) -> Self {
        CutMatrix {
            k,
            data: vec![0; k * k],
            total: 0,
            tracked_bmax: u64::MAX,
            excess: 0,
        }
    }

    /// Compute the pairwise cut of `p` on `g`. Unassigned endpoints do
    /// not contribute.
    pub fn compute<'a>(g: impl Into<LevelView<'a>>, p: &Partition) -> Self {
        let mut m = CutMatrix::zero(p.k());
        for (u, v, w) in g.into().edges() {
            let (a, b) = (p.part_of(u), p.part_of(v));
            if a != b && a != Partition::UNASSIGNED && b != Partition::UNASSIGNED {
                m.add(a as usize, b as usize, w);
            }
        }
        m
    }

    /// Number of parts.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Traffic between parts `a` and `b` (symmetric; zero on diagonal).
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> u64 {
        self.data[a * self.k + b]
    }

    /// Track bandwidth excess against `bmax` from now on: the running
    /// sum of `(traffic - bmax).max(0)` over unordered pairs is updated
    /// in O(1) per pair change and read back by
    /// [`tracked_excess`](CutMatrix::tracked_excess). Costs one O(k²)
    /// scan to (re)base.
    pub fn track_bmax(&mut self, bmax: u64) {
        self.tracked_bmax = bmax;
        let mut e = 0;
        for a in 0..self.k {
            for b in (a + 1)..self.k {
                e += self.get(a, b).saturating_sub(bmax);
            }
        }
        self.excess = e;
    }

    /// The `Bmax` the excess aggregate is tracked against (`u64::MAX`
    /// when never set).
    #[inline]
    pub fn tracked_bmax(&self) -> u64 {
        self.tracked_bmax
    }

    /// Incrementally-maintained bandwidth-violation magnitude against
    /// the tracked `Bmax`: `Σ (traffic(a,b) - bmax).max(0)` over pairs.
    #[inline]
    pub fn tracked_excess(&self) -> u64 {
        self.excess
    }

    #[inline]
    fn add(&mut self, a: usize, b: usize, w: u64) {
        if a == b || w == 0 {
            return;
        }
        let cur = self.data[a * self.k + b];
        let new = cur + w;
        self.excess +=
            new.saturating_sub(self.tracked_bmax) - cur.saturating_sub(self.tracked_bmax);
        self.total += w;
        self.data[a * self.k + b] = new;
        self.data[b * self.k + a] = new;
    }

    #[inline]
    fn sub(&mut self, a: usize, b: usize, w: u64) {
        if a == b || w == 0 {
            return;
        }
        let cur = self.data[a * self.k + b];
        let new = cur - w;
        self.excess -=
            cur.saturating_sub(self.tracked_bmax) - new.saturating_sub(self.tracked_bmax);
        self.total -= w;
        self.data[a * self.k + b] = new;
        self.data[b * self.k + a] = new;
    }

    /// Apply the effect of moving node `n` from `from` to `to` given the
    /// node's current neighbourhood. Call *before* mutating the partition
    /// (i.e. while `p.part_of(n) == from` still holds for neighbours'
    /// bookkeeping — only the partition entries of *other* nodes are
    /// read). Returns the change in total cut.
    pub fn apply_move<'a>(
        &mut self,
        g: impl Into<LevelView<'a>>,
        p: &Partition,
        n: NodeId,
        from: u32,
        to: u32,
    ) -> i64 {
        if from == to {
            return 0;
        }
        let before = self.total as i64;
        for (nbr, w) in g.into().weighted_neighbors(n) {
            let q = p.part_of(nbr);
            if q == Partition::UNASSIGNED {
                continue;
            }
            if from != Partition::UNASSIGNED && q != from {
                self.sub(from as usize, q as usize, w);
            }
            if to != Partition::UNASSIGNED && q != to {
                self.add(to as usize, q as usize, w);
            }
        }
        self.total as i64 - before
    }

    /// Apply a move described by the moving node's part-connectivity row
    /// (`row[q]` = summed weight of its edges into part `q`, as
    /// maintained by [`Boundary`](crate::boundary::Boundary)). This is
    /// the O(k) fast path of [`apply_move`](CutMatrix::apply_move): the
    /// node's neighbourhood is never touched. Returns the change in
    /// total cut.
    pub fn apply_conn_row_move(&mut self, row: &[u64], from: u32, to: u32) -> i64 {
        debug_assert_eq!(row.len(), self.k);
        if from == to {
            return 0;
        }
        let (f, t) = (from as usize, to as usize);
        let before = self.total as i64;
        for (q, &w) in row.iter().enumerate() {
            if w == 0 || q == f || q == t {
                continue;
            }
            self.sub(f, q, w);
            self.add(t, q, w);
        }
        // (from, to) itself: edges into the old part become cross
        // traffic, edges into the new part become internal
        self.add(f, t, row[f]);
        self.sub(f, t, row[t]);
        self.total as i64 - before
    }

    /// The maximum pairwise traffic ("maximum local bandwidth" in the
    /// paper's tables).
    pub fn max_local_bandwidth(&self) -> u64 {
        let mut best = 0;
        for a in 0..self.k {
            for b in (a + 1)..self.k {
                best = best.max(self.get(a, b));
            }
        }
        best
    }

    /// Total edge cut, maintained incrementally (O(1)).
    #[inline]
    pub fn total_cut(&self) -> u64 {
        self.total
    }

    /// Pairs `(a, b, traffic)` with traffic exceeding `bmax`.
    pub fn violations(&self, bmax: u64) -> Vec<(usize, usize, u64)> {
        let mut v = Vec::new();
        for a in 0..self.k {
            for b in (a + 1)..self.k {
                let t = self.get(a, b);
                if t > bmax {
                    v.push((a, b, t));
                }
            }
        }
        v
    }

    /// Sum of the amounts by which pairs exceed `bmax`. O(1) when `bmax`
    /// is the tracked threshold (see [`track_bmax`](CutMatrix::track_bmax)),
    /// an O(k²) scan otherwise.
    pub fn violation_magnitude(&self, bmax: u64) -> u64 {
        if bmax == self.tracked_bmax {
            return self.excess;
        }
        self.violations(bmax)
            .into_iter()
            .map(|(_, _, t)| t - bmax)
            .sum()
    }
}

/// Total weight of cut edges (recomputed from scratch; prefer
/// [`CutMatrix`] for incremental use).
pub fn edge_cut<'a>(g: impl Into<LevelView<'a>>, p: &Partition) -> u64 {
    let mut cut = 0;
    for (u, v, w) in g.into().edges() {
        let (a, b) = (p.part_of(u), p.part_of(v));
        if a != b && a != Partition::UNASSIGNED && b != Partition::UNASSIGNED {
            cut += w;
        }
    }
    cut
}

/// Number of cut edges, ignoring weights.
pub fn edge_cut_count<'a>(g: impl Into<LevelView<'a>>, p: &Partition) -> usize {
    g.into()
        .edges()
        .filter(|&(u, v, _)| {
            let (a, b) = (p.part_of(u), p.part_of(v));
            a != b && a != Partition::UNASSIGNED && b != Partition::UNASSIGNED
        })
        .count()
}

/// Load-imbalance factor: `k * max_part_weight / total_weight`. 1.0 is a
/// perfectly balanced partition; METIS' default tolerance is 1.03.
pub fn imbalance<'a>(g: impl Into<LevelView<'a>>, p: &Partition) -> f64 {
    let w = p.part_weights(g);
    let total: u64 = w.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let max = *w.iter().max().unwrap() as f64;
    max * p.k() as f64 / total as f64
}

/// Aggregate quality report for a partition — the row a paper table
/// prints, plus feasibility data.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionQuality {
    /// Total weighted edge cut.
    pub total_cut: u64,
    /// Largest pairwise inter-part traffic.
    pub max_local_bandwidth: u64,
    /// Largest per-part resource usage.
    pub max_resource: u64,
    /// Per-part resource usage.
    pub part_resources: Vec<u64>,
    /// Full pairwise traffic matrix.
    pub cut_matrix: CutMatrix,
}

impl PartitionQuality {
    /// Measure `p` on `g`.
    pub fn measure<'a>(g: impl Into<LevelView<'a>>, p: &Partition) -> Self {
        let g = g.into();
        let cut_matrix = CutMatrix::compute(g, p);
        let part_resources = p.part_weights(g);
        PartitionQuality {
            total_cut: cut_matrix.total_cut(),
            max_local_bandwidth: cut_matrix.max_local_bandwidth(),
            max_resource: part_resources.iter().copied().max().unwrap_or(0),
            part_resources,
            cut_matrix,
        }
    }

    /// [`measure`](PartitionQuality::measure) under the name the
    /// benchmark harness still calls on arena levels.
    pub fn measure_csr(level: LevelView<'_>, p: &Partition) -> Self {
        Self::measure(level, p)
    }

    /// Lexicographic goodness key used by the paper's algorithm to rank
    /// candidate partitionings: fewer violated constraints first, then
    /// smaller violation magnitude, then smaller cut. Lower is better.
    pub fn goodness_key(&self, rmax: u64, bmax: u64) -> (u64, u64, u64) {
        let bw_viol = self.cut_matrix.violations(bmax);
        let res_viol: Vec<u64> = self
            .part_resources
            .iter()
            .copied()
            .filter(|&r| r > rmax)
            .collect();
        let count = bw_viol.len() as u64 + res_viol.len() as u64;
        let magnitude = self.cut_matrix.violation_magnitude(bmax)
            + res_viol.iter().map(|r| r - rmax).sum::<u64>();
        (count, magnitude, self.total_cut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GraphError;
    use crate::graph::{GraphBuilder, WeightedGraph};

    /// 4-cycle with distinct weights: 0-1 (w1), 1-2 (w2), 2-3 (w3), 3-0 (w4)
    fn cycle4() -> Result<WeightedGraph, GraphError> {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..4).map(|i| g.add_node(10 * (i + 1))).collect();
        g.add_edge(n[0], n[1], 1)?;
        g.add_edge(n[1], n[2], 2)?;
        g.add_edge(n[2], n[3], 3)?;
        g.add_edge(n[3], n[0], 4)?;
        Ok(g.build())
    }

    #[test]
    fn cut_matrix_matches_edge_cut() {
        let g = cycle4().unwrap();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let m = CutMatrix::compute(&g, &p);
        // crossing edges: 1-2 (2) and 3-0 (4)
        assert_eq!(m.get(0, 1), 6);
        assert_eq!(m.total_cut(), 6);
        assert_eq!(edge_cut(&g, &p), 6);
        assert_eq!(edge_cut_count(&g, &p), 2);
    }

    #[test]
    fn unassigned_nodes_do_not_contribute() {
        let g = cycle4().unwrap();
        let mut p = Partition::unassigned(4, 2);
        p.assign(NodeId(0), 0);
        p.assign(NodeId(1), 1);
        // only edge 0-1 has both ends assigned
        assert_eq!(edge_cut(&g, &p), 1);
        let m = CutMatrix::compute(&g, &p);
        assert_eq!(m.total_cut(), 1);
    }

    #[test]
    fn incremental_move_matches_recompute() {
        let g = cycle4().unwrap();
        let mut p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let mut m = CutMatrix::compute(&g, &p);
        // move node 1 from part 0 to part 1
        m.apply_move(&g, &p, NodeId(1), 0, 1);
        p.assign(NodeId(1), 1);
        assert_eq!(m, CutMatrix::compute(&g, &p));
        // move it back
        m.apply_move(&g, &p, NodeId(1), 1, 0);
        p.assign(NodeId(1), 0);
        assert_eq!(m, CutMatrix::compute(&g, &p));
    }

    #[test]
    fn incremental_move_from_unassigned() {
        let g = cycle4().unwrap();
        let mut p = Partition::unassigned(4, 2);
        p.assign(NodeId(0), 0);
        p.assign(NodeId(2), 1);
        let mut m = CutMatrix::compute(&g, &p);
        m.apply_move(&g, &p, NodeId(1), Partition::UNASSIGNED, 1);
        p.assign(NodeId(1), 1);
        assert_eq!(m, CutMatrix::compute(&g, &p));
    }

    #[test]
    fn incremental_total_and_excess_match_scans() {
        let g = cycle4().unwrap();
        let mut p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let mut m = CutMatrix::compute(&g, &p);
        m.track_bmax(3);
        let scan_total = |m: &CutMatrix| {
            let mut s = 0;
            for a in 0..m.k() {
                for b in (a + 1)..m.k() {
                    s += m.get(a, b);
                }
            }
            s
        };
        let scan_excess = |m: &CutMatrix, bmax: u64| {
            let mut s = 0;
            for a in 0..m.k() {
                for b in (a + 1)..m.k() {
                    s += m.get(a, b).saturating_sub(bmax);
                }
            }
            s
        };
        assert_eq!(m.total_cut(), scan_total(&m));
        assert_eq!(m.tracked_excess(), scan_excess(&m, 3));
        for (v, to) in [(1u32, 1u32), (3, 0), (1, 0), (0, 1), (2, 0)] {
            let from = p.part_of(NodeId(v));
            m.apply_move(&g, &p, NodeId(v), from, to);
            p.assign(NodeId(v), to);
            assert_eq!(m.total_cut(), scan_total(&m), "total after {v}->{to}");
            assert_eq!(
                m.tracked_excess(),
                scan_excess(&m, 3),
                "excess after {v}->{to}"
            );
            assert_eq!(m.violation_magnitude(3), m.tracked_excess());
        }
    }

    #[test]
    fn conn_row_move_matches_neighbour_move() {
        let g = cycle4().unwrap();
        let p = Partition::from_assignment(vec![0, 0, 1, 2], 3).unwrap();
        for v in 0..4u32 {
            for to in 0..3u32 {
                let from = p.part_of(NodeId(v));
                // part-connectivity row of v under the current partition
                let mut row = vec![0u64; 3];
                for &(u, e) in g.neighbors(NodeId(v)) {
                    row[p.part_of(u) as usize] += g.edge_weight(e);
                }
                let mut a = CutMatrix::compute(&g, &p);
                a.track_bmax(2);
                let mut b = a.clone();
                let da = a.apply_move(&g, &p, NodeId(v), from, to);
                let db = b.apply_conn_row_move(&row, from, to);
                assert_eq!(a, b, "v={v} to={to}");
                assert_eq!(da, db);
                assert_eq!(a.total_cut(), b.total_cut());
                assert_eq!(a.tracked_excess(), b.tracked_excess());
            }
        }
    }

    #[test]
    fn max_local_bandwidth_is_max_pair() {
        let g = cycle4().unwrap();
        let p = Partition::from_assignment(vec![0, 1, 2, 3], 4).unwrap();
        let m = CutMatrix::compute(&g, &p);
        assert_eq!(m.get(0, 1), 1);
        assert_eq!(m.get(1, 2), 2);
        assert_eq!(m.get(2, 3), 3);
        assert_eq!(m.get(0, 3), 4);
        assert_eq!(m.max_local_bandwidth(), 4);
        assert_eq!(m.total_cut(), 10);
    }

    #[test]
    fn violations_and_magnitude() {
        let g = cycle4().unwrap();
        let p = Partition::from_assignment(vec![0, 1, 2, 3], 4).unwrap();
        let m = CutMatrix::compute(&g, &p);
        let v = m.violations(2);
        assert_eq!(v, vec![(0, 3, 4), (2, 3, 3)]);
        assert_eq!(m.violation_magnitude(2), 2 + 1);
        assert!(m.violations(10).is_empty());
    }

    #[test]
    fn imbalance_of_balanced_partition_is_low() {
        let g = GraphBuilder::with_uniform_nodes(4, 10).build();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        assert!((imbalance(&g, &p) - 1.0).abs() < 1e-9);
        let p = Partition::from_assignment(vec![0, 0, 0, 1], 2).unwrap();
        assert!((imbalance(&g, &p) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn quality_measures_all_metrics() {
        let g = cycle4().unwrap();
        let p = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        let q = PartitionQuality::measure(&g, &p);
        assert_eq!(q.total_cut, 6);
        assert_eq!(q.max_local_bandwidth, 6);
        assert_eq!(q.max_resource, 70); // parts: 10+20=30, 30+40=70
        assert_eq!(q.part_resources, vec![30, 70]);
    }

    #[test]
    fn goodness_prefers_feasible_over_cheap() {
        let g = cycle4().unwrap();
        // feasible but higher cut
        let p1 = Partition::from_assignment(vec![0, 0, 1, 1], 2).unwrap();
        // "cheaper" cut in some other metric but violates rmax=50
        let p2 = Partition::from_assignment(vec![0, 1, 1, 1], 2).unwrap();
        let q1 = PartitionQuality::measure(&g, &p1);
        let q2 = PartitionQuality::measure(&g, &p2);
        // rmax 70, bmax 6: p1 feasible
        assert!(q1.goodness_key(70, 6) < q2.goodness_key(70, 6));
    }
}
