//! Drifting workloads: a stream of small [`GraphDelta`]s over one base
//! graph, the incremental-repartitioning scenario family.
//!
//! A process network in service does not change wholesale — actors get
//! re-tuned (weight drift), streams re-rated (edge drift), and the
//! occasional actor appears or retires. [`drift_delta`] produces one
//! such step: it perturbs at most `fraction` of the nodes (weight
//! nudges, a matching share of incident-edge nudges, and — when
//! `structural` — one insertion and one removal), which keeps the step
//! well under the warm-start churn ceiling. [`drift_sequence`] chains
//! steps into a deterministic stream by applying each delta before
//! drawing the next.

use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{apply_delta, GraphDelta, NodeId, WeightedGraph};

/// One drift step over `g`: perturb at most `fraction` of the nodes.
/// Weight nudges stay in ±50% of the current weight (floored at 1);
/// `structural` adds one new degree-1 node, anchored to a node the step
/// left untouched, and retires one existing node on top (the retiree
/// loses any weight nudge). When every node was perturbed there is no
/// anchor, and the structural edit is skipped. Deterministic in
/// `(g, fraction, structural, seed)`.
pub fn drift_delta(g: &WeightedGraph, fraction: f64, structural: bool, seed: u64) -> GraphDelta {
    let n = g.num_nodes();
    let mut delta = GraphDelta::default();
    if n == 0 {
        return delta;
    }
    let mut rng = XorShift128Plus::new(seed ^ 0xD21F7);
    let budget = ((n as f64 * fraction) as usize).max(1).min(n);
    let mut touched = vec![false; n];
    for _ in 0..budget {
        let v = rng.next_below(n);
        if touched[v] {
            continue;
        }
        touched[v] = true;
        let vid = NodeId::from_index(v);
        let w = g.node_weight(vid);
        // nudge within ±50%, never to zero
        let span = (w / 2).max(1);
        let nudged = (w + 1 + rng.next_u64() % (2 * span))
            .saturating_sub(span)
            .max(1);
        if nudged != w {
            delta.node_drift.push((v as u32, nudged));
        }
        // re-rate one incident stream half the time
        let nbrs = g.neighbors(vid);
        if !nbrs.is_empty() && rng.next_below(2) == 0 {
            let (u, e) = nbrs[rng.next_below(nbrs.len())];
            let ew = g.edge_weight(e);
            let espan = (ew / 2).max(1);
            let enudged = (ew + 1 + rng.next_u64() % (2 * espan))
                .saturating_sub(espan)
                .max(1);
            if enudged != ew {
                let (a, b) = (v as u32, u.index() as u32);
                if !delta
                    .edge_drift
                    .iter()
                    .any(|&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
                {
                    delta.edge_drift.push((a, b, enudged));
                }
            }
        }
    }
    if structural && n >= 2 && touched.contains(&false) {
        // one arrival, attached to a random survivor...
        let anchor = loop {
            let v = rng.next_below(n);
            if !touched[v] {
                break v;
            }
        };
        delta
            .add_nodes
            .push(g.node_weight(NodeId::from_index(anchor)).max(1));
        delta
            .add_edges
            .push((n as u32, anchor as u32, 1 + rng.next_u64() % 4));
        // ...and one retirement, distinct from the anchor
        let retire = loop {
            let v = rng.next_below(n);
            if v != anchor {
                break v;
            }
        };
        delta.remove_nodes.push(retire as u32);
        delta.node_drift.retain(|&(v, _)| v != retire as u32);
    }
    delta
}

/// A deterministic stream of `steps` drift deltas, each drawn against
/// the graph the previous delta produced. Returns `(deltas, final)`
/// where `final` is the base with every delta applied — callers
/// replaying the stream themselves land on the same graph.
pub fn drift_sequence(
    base: &WeightedGraph,
    steps: usize,
    fraction: f64,
    structural: bool,
    seed: u64,
) -> (Vec<GraphDelta>, WeightedGraph) {
    let mut g = base.clone();
    let mut deltas = Vec::with_capacity(steps);
    for step in 0..steps {
        let d = drift_delta(&g, fraction, structural, seed.wrapping_add(step as u64));
        let (next, _) = apply_delta(&g, &d).expect("drift deltas always apply to their base");
        g = next;
        deltas.push(d);
    }
    (deltas, g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community_graph;

    #[test]
    fn drift_stays_under_the_churn_ceiling() {
        let g = community_graph(4, 32, 3, 9, 1, 5);
        let n = g.num_nodes();
        // seed 14 retires a node it also weight-drifted
        for seed in (0..8).chain([14]) {
            let d = drift_delta(&g, 0.05, true, seed);
            assert!(!d.is_empty());
            assert!(
                d.churn_fraction(n) <= 0.25,
                "seed {seed}: churn {} too large",
                d.churn_fraction(n)
            );
            apply_delta(&g, &d).unwrap();
        }
        // at fraction 1.0 on a pair, either both nodes are touched (no
        // anchor for the arrival: the step must still return) or the
        // retiree is the node that drifted
        let mut pair = WeightedGraph::new();
        let (a, b) = (pair.add_node(3), pair.add_node(5));
        pair.add_edge(a, b, 2).unwrap();
        for seed in 0..20 {
            apply_delta(&pair, &drift_delta(&pair, 1.0, true, seed)).unwrap();
        }
    }

    #[test]
    fn drift_is_deterministic() {
        let g = community_graph(3, 16, 2, 7, 1, 11);
        assert_eq!(
            drift_delta(&g, 0.1, true, 42),
            drift_delta(&g, 0.1, true, 42)
        );
        let (a, ga) = drift_sequence(&g, 5, 0.05, true, 9);
        let (b, gb) = drift_sequence(&g, 5, 0.05, true, 9);
        assert_eq!(a, b);
        assert_eq!(
            ppn_graph::io::metis::write(&ga),
            ppn_graph::io::metis::write(&gb)
        );
    }

    #[test]
    fn sequence_final_graph_matches_replay() {
        let g = community_graph(2, 12, 2, 6, 1, 3);
        let (deltas, fin) = drift_sequence(&g, 4, 0.1, true, 17);
        let mut replay = g.clone();
        for d in &deltas {
            replay = apply_delta(&replay, d).unwrap().0;
        }
        assert_eq!(
            ppn_graph::io::metis::write(&replay),
            ppn_graph::io::metis::write(&fin)
        );
    }

    #[test]
    fn pure_weight_drift_preserves_structure() {
        let g = community_graph(2, 10, 2, 6, 1, 7);
        let d = drift_delta(&g, 0.2, false, 23);
        assert!(d.add_nodes.is_empty() && d.remove_nodes.is_empty());
        let (next, _) = apply_delta(&g, &d).unwrap();
        assert_eq!(next.num_nodes(), g.num_nodes());
        assert_eq!(next.num_edges(), g.num_edges());
    }
}
