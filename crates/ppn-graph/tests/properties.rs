//! Property-based tests for the graph substrate: contraction invariants,
//! incremental metric consistency, and I/O round-trips on arbitrary
//! graphs.

use ppn_graph::boundary::Boundary;
use ppn_graph::contract::{contract, CoarseMap};
use ppn_graph::csr::Csr;
use ppn_graph::io::{matrix, metis};
use ppn_graph::matching::{random_maximal_matching, Matching};
use ppn_graph::metrics::{edge_cut, CutMatrix};
use ppn_graph::partition::Partition;
use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{NodeId, WeightedGraph};
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

/// Naive contraction — coarse nodes in first-visit order, every fine
/// edge re-targeted and merged with `add_or_merge_edge` — the oracle
/// for the marker-array `contract_with`.
fn contract_oracle(g: &WeightedGraph, m: &Matching) -> (WeightedGraph, CoarseMap) {
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
    let coarse_nodes = coarse.num_nodes();
    (coarse, CoarseMap { map, coarse_nodes })
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
        let (c, map) = contract(&g, &m);
        prop_assert_eq!(c.total_node_weight(), g.total_node_weight());
        prop_assert_eq!(map.coarse_nodes, c.num_nodes());
        c.validate().unwrap();
    }

    #[test]
    fn contraction_preserves_crossing_weight(g in arb_graph(), seed in any::<u64>()) {
        // total fine edge weight = coarse edge weight + absorbed weight
        let m = random_maximal_matching(&g, seed);
        let (c, _) = contract(&g, &m);
        prop_assert_eq!(
            g.total_edge_weight(),
            c.total_edge_weight() + m.absorbed_weight(&g)
        );
    }

    #[test]
    fn scratch_contract_equals_reference(g in arb_graph(), seeds in proptest::collection::vec(any::<u64>(), 1..4)) {
        // one scratch reused across several matchings of the same graph —
        // exactly the multilevel loop's usage pattern
        let mut scratch = ppn_graph::ContractScratch::new();
        for seed in seeds {
            let m = random_maximal_matching(&g, seed);
            let (c_opt, map_opt) = ppn_graph::contract_with(&g, &m, &mut scratch);
            let (c_ref, map_ref) = contract_oracle(&g, &m);
            prop_assert_eq!(map_opt, map_ref);
            prop_assert_eq!(c_opt.num_nodes(), c_ref.num_nodes());
            prop_assert_eq!(c_opt.node_weights(), c_ref.node_weights());
            let eo: Vec<_> = c_opt.edges().collect();
            let er: Vec<_> = c_ref.edges().collect();
            prop_assert_eq!(eo, er);
            for v in c_opt.node_ids() {
                prop_assert_eq!(c_opt.neighbors(v), c_ref.neighbors(v));
            }
        }
    }

    #[test]
    fn matching_absorbed_tracks_scan(g in arb_graph(), seed in any::<u64>()) {
        let m = random_maximal_matching(&g, seed);
        prop_assert_eq!(m.absorbed(), m.absorbed_weight(&g));
    }

    #[test]
    fn projected_cut_matches_coarse_cut(g in arb_graph(), seed in any::<u64>(), k in 2usize..5) {
        let m = random_maximal_matching(&g, seed);
        let (c, map) = contract(&g, &m);
        let pc = arb_partition(c.num_nodes(), k, seed);
        let pf = pc.project(&map.map);
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
