//! Planted-partition ("community") graphs: known-good clusterings for
//! scaling and quality studies.

use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{GraphBuilder, NodeId, WeightedGraph};

/// Generate `communities` clusters of `size` nodes each. Within a
/// cluster nodes form a random sparse subgraph of heavy edges
/// (`intra_weight`), clusters are joined in a ring by light bridges
/// (`inter_weight`). An ideal k-way partition (k = communities) cuts
/// exactly the bridges.
pub fn community_graph(
    communities: usize,
    size: usize,
    node_weight: u64,
    intra_weight: u64,
    inter_weight: u64,
    seed: u64,
) -> WeightedGraph {
    assert!(communities >= 1 && size >= 1);
    let mut rng = XorShift128Plus::new(seed);
    let mut g = GraphBuilder::new();
    for _ in 0..communities * size {
        g.add_node(node_weight.max(1));
    }
    let id = |c: usize, i: usize| NodeId::from_index(c * size + i);
    for c in 0..communities {
        // ring inside the community plus some chords
        for i in 0..size {
            if size > 1 {
                g.add_or_merge_edge(id(c, i), id(c, (i + 1) % size), intra_weight)
                    .unwrap();
            }
        }
        for _ in 0..size / 2 {
            let a = rng.next_below(size);
            let b = rng.next_below(size);
            if a != b {
                let _ = g.add_or_merge_edge(id(c, a), id(c, b), intra_weight);
            }
        }
    }
    for c in 0..communities {
        if communities > 1 {
            g.add_or_merge_edge(id(c, 0), id((c + 1) % communities, size / 2), inter_weight)
                .unwrap();
        }
    }
    g.build()
}

/// A denser planted-partition generator for scaling studies: like
/// [`community_graph`], but with `chords_per_node` extra intra-community
/// chords per node (average degree ≈ `2 + 2·chords_per_node`), a few
/// extra random inter-community edges, and node weights drawn uniformly
/// from `node_weight` (inclusive range) — closer to real process
/// networks, where processes differ in resource footprint and hub
/// processes fan out widely.
#[allow(clippy::too_many_arguments)]
pub fn dense_community_graph(
    communities: usize,
    size: usize,
    node_weight: (u64, u64),
    intra_weight: u64,
    inter_weight: u64,
    chords_per_node: usize,
    seed: u64,
) -> WeightedGraph {
    assert!(communities >= 1 && size >= 1);
    let (wlo, whi) = node_weight;
    assert!(wlo >= 1 && whi >= wlo);
    let mut rng = XorShift128Plus::new(seed);
    let mut g = GraphBuilder::new();
    for _ in 0..communities * size {
        let w = wlo + rng.next_below((whi - wlo + 1) as usize) as u64;
        g.add_node(w);
    }
    let id = |c: usize, i: usize| NodeId::from_index(c * size + i);
    for c in 0..communities {
        for i in 0..size {
            if size > 1 {
                g.add_or_merge_edge(id(c, i), id(c, (i + 1) % size), intra_weight)
                    .unwrap();
            }
        }
        for _ in 0..size * chords_per_node {
            let a = rng.next_below(size);
            let b = rng.next_below(size);
            if a != b {
                let _ = g.add_or_merge_edge(id(c, a), id(c, b), intra_weight);
            }
        }
    }
    if communities > 1 {
        for c in 0..communities {
            g.add_or_merge_edge(id(c, 0), id((c + 1) % communities, size / 2), inter_weight)
                .unwrap();
        }
        // sprinkle extra cross-community traffic so the planted cut is
        // not the only boundary structure
        for _ in 0..communities * 2 {
            let ca = rng.next_below(communities);
            let cb = rng.next_below(communities);
            if ca != cb {
                let a = id(ca, rng.next_below(size));
                let b = id(cb, rng.next_below(size));
                let _ = g.add_or_merge_edge(a, b, inter_weight);
            }
        }
    }
    g.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::algo::components::is_connected;
    use ppn_graph::metrics::edge_cut;
    use ppn_graph::Partition;

    #[test]
    fn structure_is_connected_with_cheap_ideal_cut() {
        let g = community_graph(4, 8, 5, 20, 1, 3);
        assert_eq!(g.num_nodes(), 32);
        assert!(is_connected(&g));
        // ideal partition: one community per part
        let assign: Vec<u32> = (0..32).map(|i| (i / 8) as u32).collect();
        let p = Partition::from_assignment(assign, 4).unwrap();
        // cut = the 4 ring bridges (weight 1 each), possibly merged
        assert!(edge_cut(&g, &p) <= 8, "cut {}", edge_cut(&g, &p));
    }

    #[test]
    fn dense_variant_is_connected_and_denser() {
        let sparse = community_graph(4, 32, 5, 10, 1, 7);
        let dense = dense_community_graph(4, 32, (2, 9), 10, 1, 6, 7);
        assert_eq!(dense.num_nodes(), 128);
        assert!(is_connected(&dense));
        assert!(
            dense.num_edges() > 2 * sparse.num_edges(),
            "dense {} vs sparse {}",
            dense.num_edges(),
            sparse.num_edges()
        );
        // node weights actually vary within the requested range
        let ws: Vec<u64> = dense.node_weights().to_vec();
        assert!(ws.iter().all(|&w| (2..=9).contains(&w)));
        assert!(ws.iter().any(|&w| w != ws[0]));
    }

    #[test]
    fn dense_variant_is_deterministic() {
        let a = dense_community_graph(3, 16, (1, 6), 8, 2, 4, 42);
        let b = dense_community_graph(3, 16, (1, 6), 8, 2, 4, 42);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.node_weights(), b.node_weights());
        let ea: Vec<_> = a.edges().collect();
        let eb: Vec<_> = b.edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn single_community_has_no_bridges() {
        let g = community_graph(1, 6, 2, 7, 1, 1);
        assert_eq!(g.num_nodes(), 6);
        let p = Partition::all_in_one(6, 1);
        assert_eq!(edge_cut(&g, &p), 0);
    }

    #[test]
    fn deterministic() {
        let a = community_graph(3, 5, 2, 9, 1, 42);
        let b = community_graph(3, 5, 2, 9, 1, 42);
        assert_eq!(
            ppn_graph::io::metis::write(&a),
            ppn_graph::io::metis::write(&b)
        );
    }
}
