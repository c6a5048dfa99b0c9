//! Seeded random graphs and process networks.

use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{GraphBuilder, NodeId, WeightedGraph};
use ppn_model::ProcessNetwork;

/// Specification of a random weighted graph.
#[derive(Clone, Debug)]
pub struct RandomGraphSpec {
    /// Node count.
    pub nodes: usize,
    /// Exact edge count (clamped to the simple-graph range; at least
    /// `nodes − 1` edges are used to keep the graph connected).
    pub edges: usize,
    /// Node weights drawn uniformly from this inclusive range.
    pub node_weight: (u64, u64),
    /// Edge weights drawn uniformly from this inclusive range.
    pub edge_weight: (u64, u64),
    /// Seed.
    pub seed: u64,
}

impl RandomGraphSpec {
    /// A 12-node spec in the paper's weight regime.
    pub fn paper_like(edges: usize, seed: u64) -> Self {
        RandomGraphSpec {
            nodes: 12,
            edges,
            node_weight: (20, 60),
            edge_weight: (1, 8),
            seed,
        }
    }
}

/// Generate a connected random graph with the exact node and edge counts
/// of `spec` (edge count clamped to `[n-1, n(n-1)/2]`).
pub fn random_graph(spec: &RandomGraphSpec) -> WeightedGraph {
    let n = spec.nodes;
    let mut rng = XorShift128Plus::new(spec.seed);
    let mut g = GraphBuilder::new();
    let draw = crate::draw_weight;
    for _ in 0..n {
        let w = draw(&mut rng, spec.node_weight);
        g.add_node(w);
    }
    if n <= 1 {
        return g.build();
    }
    let max_edges = n * (n - 1) / 2;
    let m = spec.edges.clamp(n - 1, max_edges);

    // random spanning tree first (guarantees connectivity)
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    for i in 1..n {
        let parent = order[rng.next_below(i)];
        let w = draw(&mut rng, spec.edge_weight);
        g.add_edge(NodeId::from_index(order[i]), NodeId::from_index(parent), w)
            .expect("tree edges are fresh");
    }
    // fill with random non-duplicate edges
    let mut added = n - 1;
    let mut guard = 0;
    while added < m && guard < 100 * max_edges {
        guard += 1;
        let a = rng.next_below(n);
        let b = rng.next_below(n);
        if a == b {
            continue;
        }
        let (u, v) = (NodeId::from_index(a), NodeId::from_index(b));
        if g.find_edge(u, v).is_some() {
            continue;
        }
        let w = draw(&mut rng, spec.edge_weight);
        g.add_edge(u, v, w).expect("checked fresh");
        added += 1;
    }
    g.build()
}

/// Generate a layered random process network: `layers` layers of
/// `width` processes; every process connects to 1–3 random processes of
/// the next layer. Mimics streaming pipelines with forks/joins.
pub fn random_layered_ppn(layers: usize, width: usize, seed: u64) -> ProcessNetwork {
    let mut rng = XorShift128Plus::new(seed);
    let mut net = ProcessNetwork::new();
    let firings = 64;
    let mut ids = Vec::new();
    for l in 0..layers {
        let mut row = Vec::new();
        for w in 0..width {
            let luts = 50 + rng.next_u64() % 200;
            let lat = 1 + rng.next_u64() % 3;
            row.push(net.add_simple_process(format!("p{l}_{w}"), luts, lat, firings));
        }
        ids.push(row);
    }
    for l in 0..layers.saturating_sub(1) {
        for w in 0..width {
            let fanout = 1 + rng.next_below(3.min(width));
            let mut targets = Vec::new();
            for _ in 0..fanout {
                let t = rng.next_below(width);
                if !targets.contains(&t) {
                    targets.push(t);
                }
            }
            for t in targets {
                let vol = firings * (1 + rng.next_u64() % 4);
                net.add_channel(ids[l][w], ids[l + 1][t], vol, 8);
            }
        }
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::algo::components::is_connected;

    #[test]
    fn exact_counts_and_connectivity() {
        for seed in 0..10 {
            let g = random_graph(&RandomGraphSpec::paper_like(33, seed));
            assert_eq!(g.num_nodes(), 12);
            assert_eq!(g.num_edges(), 33);
            assert!(is_connected(&g), "seed {seed} not connected");
            g.validate().unwrap();
        }
    }

    #[test]
    fn weights_within_ranges() {
        let spec = RandomGraphSpec {
            nodes: 30,
            edges: 60,
            node_weight: (5, 9),
            edge_weight: (2, 3),
            seed: 7,
        };
        let g = random_graph(&spec);
        for v in g.node_ids() {
            assert!((5..=9).contains(&g.node_weight(v)));
        }
        for (_, _, w) in g.edges() {
            assert!((2..=3).contains(&w));
        }
    }

    #[test]
    fn edge_count_clamped_to_simple_range() {
        let spec = RandomGraphSpec {
            nodes: 4,
            edges: 100,
            node_weight: (1, 1),
            edge_weight: (1, 1),
            seed: 1,
        };
        let g = random_graph(&spec);
        assert_eq!(g.num_edges(), 6); // K4
        let spec = RandomGraphSpec {
            nodes: 5,
            edges: 0,
            node_weight: (1, 1),
            edge_weight: (1, 1),
            seed: 1,
        };
        assert_eq!(random_graph(&spec).num_edges(), 4); // spanning tree
    }

    #[test]
    fn deterministic_per_seed() {
        let a = random_graph(&RandomGraphSpec::paper_like(30, 5));
        let b = random_graph(&RandomGraphSpec::paper_like(30, 5));
        assert_eq!(
            ppn_graph::io::metis::write(&a),
            ppn_graph::io::metis::write(&b)
        );
    }

    #[test]
    fn layered_ppn_is_acyclic_and_simulates() {
        let net = random_layered_ppn(4, 3, 9);
        assert!(net.is_acyclic());
        net.validate().unwrap();
        let r = ppn_model::simulate(&net, &ppn_model::SimOptions::default());
        assert!(r.completed, "layered PPN should run: {r:?}");
    }

    #[test]
    fn single_node_graph_is_fine() {
        let spec = RandomGraphSpec {
            nodes: 1,
            edges: 5,
            node_weight: (3, 3),
            edge_weight: (1, 1),
            seed: 2,
        };
        let g = random_graph(&spec);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
    }
}
