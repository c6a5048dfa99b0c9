//! Property-based tests for the graph substrate: contraction invariants
//! and the arena's contraction against a naive oracle, incremental
//! metric consistency, and I/O round-trips on arbitrary graphs.

use ppn_graph::arena::{LevelArena, LevelView, PARALLEL_EDGE_THRESHOLD};
use ppn_graph::boundary::Boundary;
use ppn_graph::csr::Csr;
use ppn_graph::io::{matrix, metis};
use ppn_graph::matching::{random_maximal_matching, Matching};
use ppn_graph::metrics::{edge_cut, CutMatrix};
use ppn_graph::partition::Partition;
use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{GraphView, NodeId, WeightedGraph};
use proptest::prelude::*;

/// Strategy: a random simple graph with 2..=24 nodes, edge probability ~
/// controlled by the pair mask, weights in small ranges.
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (2usize..24, any::<u64>(), 1u64..50, 1u64..20).prop_map(|(n, mask, wmax, emax)| {
        let mut g = WeightedGraph::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_node(1 + (mask.rotate_left(i as u32) % wmax)))
            .collect();
        let mut bit = 0u32;
        for i in 0..n {
            for j in (i + 1)..n {
                bit = bit.wrapping_add(1);
                // pseudo-random inclusion driven by the mask
                if (mask.rotate_left(bit) & 3) == 0 {
                    let w = 1 + (mask.rotate_right(bit) % emax);
                    g.add_edge(ids[i], ids[j], w).unwrap();
                }
            }
        }
        g
    })
}

/// Random simple graph: a ring over `n` nodes plus about `extra` chords,
/// node weights 1..=9 and edge weights 1..=7.
fn ring_with_chords(n: usize, extra: usize, seed: u64) -> WeightedGraph {
    let mut g = WeightedGraph::new();
    let mut rng = XorShift128Plus::new(seed);
    let ids: Vec<_> = (0..n).map(|_| g.add_node(1 + rng.next_u64() % 9)).collect();
    for i in 0..n {
        g.add_edge(ids[i], ids[(i + 1) % n], 1 + rng.next_u64() % 7)
            .unwrap();
    }
    for _ in 0..extra {
        let a = rng.next_below(n);
        let b = rng.next_below(n);
        if a != b {
            let _ = g.add_or_merge_edge(ids[a], ids[b], 1 + rng.next_u64() % 7);
        }
    }
    g
}

/// Naive contraction — coarse nodes in first-visit order, every fine
/// edge re-targeted and merged with `add_or_merge_edge` — the oracle
/// for `LevelArena::contract_top`. Returns the coarse graph and the
/// fine→coarse map.
fn contract_oracle(g: &WeightedGraph, m: &Matching) -> (WeightedGraph, Vec<u32>) {
    let mut map = vec![u32::MAX; g.num_nodes()];
    let mut coarse = WeightedGraph::new();
    for v in g.node_ids() {
        if map[v.index()] != u32::MAX {
            continue;
        }
        let mate = m.mate_of(v);
        let w = g.node_weight(v) + mate.map_or(0, |u| g.node_weight(u));
        let id = coarse.add_node(w);
        map[v.index()] = id.0;
        if let Some(u) = mate {
            map[u.index()] = id.0;
        }
    }
    for (u, v, w) in g.edges() {
        let (cu, cv) = (map[u.index()], map[v.index()]);
        if cu != cv {
            coarse.add_or_merge_edge(NodeId(cu), NodeId(cv), w).unwrap();
        }
    }
    (coarse, map)
}

/// One `contract_top` on a fresh arena over `g`: the coarse level as a
/// graph, and the fine→coarse map.
fn contract_once(g: &WeightedGraph, m: &Matching) -> (WeightedGraph, Vec<u32>) {
    let mut arena = LevelArena::from_graph(g);
    arena.contract_top(m);
    (arena.top().to_graph(), arena.map_slice(0).to_vec())
}

/// `level` holds exactly `g`: node weights, the edge list, and every
/// node's adjacency, each in order.
fn assert_level_is(level: &LevelView<'_>, g: &WeightedGraph, ctx: &str) {
    assert_eq!(level.num_nodes(), g.num_nodes(), "{ctx}: nodes");
    assert_eq!(level.num_edges(), g.num_edges(), "{ctx}: edges");
    for v in g.node_ids() {
        assert_eq!(
            level.node_weight(v),
            g.node_weight(v),
            "{ctx}: weight of {v:?}"
        );
        let adj: Vec<_> = (0..level.degree(v)).map(|i| level.neighbor(v, i)).collect();
        assert_eq!(adj, g.neighbors(v), "{ctx}: adjacency of {v:?}");
    }
    for e in g.edge_ids() {
        assert_eq!(level.edge(e), g.edge(e), "{ctx}: edge {e:?}");
    }
}

/// Contract `g` once per matching seed, through one arena and through
/// the oracle side by side: every level of the chain must carry the
/// oracle's fine→coarse map and coarse graph. Each matching is computed
/// on the oracle's graph, so the arena never feeds its own input.
fn assert_chain_matches_oracle(g: &WeightedGraph, seeds: &[u64], ctx: &str) {
    let mut arena = LevelArena::from_graph(g);
    let mut current = g.clone();
    let mut sizes = vec![g.num_nodes()];
    for (level, &seed) in seeds.iter().enumerate() {
        let m = random_maximal_matching(&current, seed);
        arena.contract_top(&m);
        let (coarse, map) = contract_oracle(&current, &m);
        let ctx = format!("{ctx}, level {level}");
        assert_eq!(arena.map_slice(level), &map[..], "{ctx}: map");
        assert_level_is(&arena.top(), &coarse, &ctx);
        sizes.push(coarse.num_nodes());
        current = coarse;
    }
    assert_eq!(arena.size_trace(), sizes, "{ctx}: size trace");
}

fn arb_partition(n: usize, k: usize, seed: u64) -> Partition {
    let assign: Vec<u32> = (0..n)
        .map(|i| ((seed.rotate_left(i as u32) ^ i as u64) % k as u64) as u32)
        .collect();
    Partition::from_assignment(assign, k).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn contraction_preserves_node_weight(g in arb_graph(), seed in any::<u64>()) {
        let m = random_maximal_matching(&g, seed);
        prop_assert!(m.validate(&g));
        prop_assert!(m.is_maximal(&g));
        let (c, _) = contract_once(&g, &m);
        prop_assert_eq!(c.total_node_weight(), g.total_node_weight());
        c.validate().unwrap();
    }

    #[test]
    fn contraction_preserves_crossing_weight(g in arb_graph(), seed in any::<u64>()) {
        // total fine edge weight = coarse edge weight + absorbed weight
        let m = random_maximal_matching(&g, seed);
        let (c, _) = contract_once(&g, &m);
        prop_assert_eq!(
            g.total_edge_weight(),
            c.total_edge_weight() + m.absorbed_weight(&g)
        );
    }

    #[test]
    fn contract_top_equals_oracle(g in arb_graph(), seeds in proptest::collection::vec(any::<u64>(), 1..4)) {
        // one level per seed, each contracted from the one before:
        // single levels and chains, as the multilevel loops run them
        assert_chain_matches_oracle(&g, &seeds, "arb_graph");
    }

    #[test]
    fn matching_absorbed_tracks_scan(g in arb_graph(), seed in any::<u64>()) {
        let m = random_maximal_matching(&g, seed);
        prop_assert_eq!(m.absorbed(), m.absorbed_weight(&g));
    }

    #[test]
    fn projected_cut_matches_coarse_cut(g in arb_graph(), seed in any::<u64>(), k in 2usize..5) {
        let m = random_maximal_matching(&g, seed);
        let (c, map) = contract_once(&g, &m);
        let pc = arb_partition(c.num_nodes(), k, seed);
        let pf = pc.project(&map);
        prop_assert_eq!(edge_cut(&c, &pc), edge_cut(&g, &pf));
        // pairwise matrices agree too
        let mc = CutMatrix::compute(&c, &pc);
        let mf = CutMatrix::compute(&g, &pf);
        prop_assert_eq!(mc, mf);
    }

    #[test]
    fn cut_matrix_total_matches_edge_cut(g in arb_graph(), seed in any::<u64>(), k in 2usize..6) {
        let p = arb_partition(g.num_nodes(), k, seed);
        let m = CutMatrix::compute(&g, &p);
        prop_assert_eq!(m.total_cut(), edge_cut(&g, &p));
    }

    #[test]
    fn incremental_moves_agree_with_recompute(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..5,
        moves in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..30)
    ) {
        let mut p = arb_partition(g.num_nodes(), k, seed);
        let mut m = CutMatrix::compute(&g, &p);
        for (rn, rp) in moves {
            let n = NodeId((rn as usize % g.num_nodes()) as u32);
            let to = rp % k as u32;
            let from = p.part_of(n);
            m.apply_move(&g, &p, n, from, to);
            p.assign(n, to);
        }
        prop_assert_eq!(m, CutMatrix::compute(&g, &p));
    }

    #[test]
    fn incremental_aggregates_agree_with_scans(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..5,
        bmax in 0u64..40,
        moves in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..30)
    ) {
        let mut p = arb_partition(g.num_nodes(), k, seed);
        let mut m = CutMatrix::compute(&g, &p);
        m.track_bmax(bmax);
        for (rn, rp) in moves {
            let n = NodeId((rn as usize % g.num_nodes()) as u32);
            let to = rp % k as u32;
            let from = p.part_of(n);
            m.apply_move(&g, &p, n, from, to);
            p.assign(n, to);
            let fresh = CutMatrix::compute(&g, &p);
            prop_assert_eq!(m.total_cut(), fresh.total_cut());
            prop_assert_eq!(m.tracked_excess(), fresh.violation_magnitude(bmax));
            prop_assert_eq!(m.violation_magnitude(bmax), m.tracked_excess());
        }
    }

    #[test]
    fn boundary_matches_fresh_after_random_moves(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..6,
        moves in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..40)
    ) {
        let csr = Csr::from_graph(&g);
        let mut p = arb_partition(g.num_nodes(), k, seed);
        let mut b = Boundary::new(&csr, &p);
        let mut rng = XorShift128Plus::new(seed);
        for (rn, rp) in moves {
            let n = NodeId((rn as usize % g.num_nodes()) as u32);
            let to = (rp ^ rng.next_u64() as u32) % k as u32;
            let from = p.part_of(n);
            b.apply_move(&csr, &p, n, from, to);
            p.assign(n, to);
        }
        let fresh = Boundary::new(&csr, &p);
        for v in g.node_ids() {
            prop_assert_eq!(b.conn(v), fresh.conn(v), "conn row of {:?}", v);
            prop_assert_eq!(b.conn_mask(v), fresh.conn_mask(v), "mask of {:?}", v);
            prop_assert_eq!(b.external(v), fresh.external(v), "ext of {:?}", v);
            prop_assert_eq!(b.is_boundary(v), fresh.is_boundary(v), "membership of {:?}", v);
        }
        let mut have: Vec<_> = b.nodes().to_vec();
        let mut want: Vec<_> = fresh.nodes().to_vec();
        have.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(have, want);
    }

    #[test]
    fn metis_roundtrip(g in arb_graph()) {
        let text = metis::write(&g);
        let g2 = metis::parse(&text).unwrap();
        prop_assert_eq!(g2.num_nodes(), g.num_nodes());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        prop_assert_eq!(g2.total_edge_weight(), g.total_edge_weight());
        for v in g.node_ids() {
            prop_assert_eq!(g2.node_weight(v), g.node_weight(v));
        }
        for (u, v, w) in g.edges() {
            let e = g2.find_edge(u, v).unwrap();
            prop_assert_eq!(g2.edge_weight(e), w);
        }
    }

    #[test]
    fn matrix_roundtrip(g in arb_graph()) {
        let text = matrix::write(&g);
        let g2 = matrix::parse(&text).unwrap();
        prop_assert_eq!(g2.num_nodes(), g.num_nodes());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v, w) in g.edges() {
            let e = g2.find_edge(u, v).unwrap();
            prop_assert_eq!(g2.edge_weight(e), w);
        }
    }

    #[test]
    fn part_weights_sum_to_total_when_complete(g in arb_graph(), seed in any::<u64>(), k in 1usize..6) {
        let p = arb_partition(g.num_nodes(), k, seed);
        let weights = p.part_weights(&g);
        prop_assert_eq!(weights.iter().sum::<u64>(), g.total_node_weight());
    }
}

#[test]
fn contract_top_matches_oracle_on_ring_graphs() {
    // single levels on ten 60-node graphs, and a four-level chain on a
    // 120-node one
    for seed in 0..10 {
        let g = ring_with_chords(60, 50, seed);
        assert_chain_matches_oracle(&g, &[seed ^ 0xA5], &format!("ring 60, seed {seed}"));
    }
    assert_chain_matches_oracle(&ring_with_chords(120, 90, 3), &[11, 12, 13, 14], "ring 120");
}

#[test]
fn contract_top_matches_oracle_above_parallel_threshold() {
    // about 12k nodes and 40k edges, so the first contraction takes the
    // sharded parallel merge that every smaller case here skips
    let g = ring_with_chords(12_000, 28_000, 0x5EED);
    assert!(
        g.num_edges() >= PARALLEL_EDGE_THRESHOLD,
        "{} edges stay below the parallel threshold",
        g.num_edges()
    );
    assert_chain_matches_oracle(&g, &[1, 2], "ring 12k");
}
