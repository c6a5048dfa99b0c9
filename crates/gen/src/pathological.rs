//! Pathological instance families for the conformance matrix.
//!
//! Chains and cliques are the two extremes every partitioner must
//! survive: a chain has a trivial optimal cut but punishes greedy
//! growers that overshoot their budget, while a clique has *no* good
//! cut — every k-way split pays `Θ(n²/k)` edges — and stresses the
//! bandwidth bookkeeping (all part pairs carry traffic). Weights are
//! varied deterministically from the seed so balance is never a
//! round-number accident.

use crate::draw_weight as draw;
use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{GraphBuilder, NodeId, WeightedGraph};

/// A path `0 — 1 — … — n−1` with node weights in `node_weight` and edge
/// weights in `edge_weight` (both inclusive ranges), deterministic per
/// seed.
pub fn chain_graph(
    n: usize,
    node_weight: (u64, u64),
    edge_weight: (u64, u64),
    seed: u64,
) -> WeightedGraph {
    assert!(n >= 1, "chain needs at least one node");
    let mut rng = XorShift128Plus::new(seed ^ 0xC4A1);
    let mut g = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|_| g.add_node(draw(&mut rng, node_weight)))
        .collect();
    for i in 1..n {
        g.add_edge(ids[i - 1], ids[i], draw(&mut rng, edge_weight))
            .unwrap();
    }
    g.build()
}

/// The complete graph on `n` nodes with weights drawn as in
/// [`chain_graph`]. Every pair of parts of any partition exchanges
/// traffic — the worst case for `Bmax`.
pub fn clique_graph(
    n: usize,
    node_weight: (u64, u64),
    edge_weight: (u64, u64),
    seed: u64,
) -> WeightedGraph {
    assert!(n >= 1, "clique needs at least one node");
    let mut rng = XorShift128Plus::new(seed ^ 0xC11C);
    let mut g = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..n)
        .map(|_| g.add_node(draw(&mut rng, node_weight)))
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(ids[i], ids[j], draw(&mut rng, edge_weight))
                .unwrap();
        }
    }
    g.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_has_path_shape() {
        let g = chain_graph(10, (1, 5), (1, 3), 7);
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 9);
        // endpoints have degree 1, the rest degree 2
        assert_eq!(g.neighbors(NodeId(0)).len(), 1);
        assert_eq!(g.neighbors(NodeId(5)).len(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn clique_is_complete() {
        let g = clique_graph(7, (1, 5), (1, 3), 7);
        assert_eq!(g.num_nodes(), 7);
        assert_eq!(g.num_edges(), 7 * 6 / 2);
        g.validate().unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let a = chain_graph(8, (1, 9), (1, 9), 42);
        let b = chain_graph(8, (1, 9), (1, 9), 42);
        assert_eq!(
            ppn_graph::io::metis::write(&a),
            ppn_graph::io::metis::write(&b)
        );
        let c = chain_graph(8, (1, 9), (1, 9), 43);
        assert_ne!(
            ppn_graph::io::metis::write(&a),
            ppn_graph::io::metis::write(&c)
        );
    }

    #[test]
    fn single_node_families_work() {
        assert_eq!(chain_graph(1, (2, 2), (1, 1), 0).num_edges(), 0);
        assert_eq!(clique_graph(1, (2, 2), (1, 1), 0).num_edges(), 0);
    }
}
