//! Property tests for the GP partitioner's invariants.

use gp_classic::matching::shuffled_sorted_edges;
use gp_core::coarsen::{gp_coarsen_flat, run_matching};
use gp_core::initial::grow_from;
use gp_core::kmeans::{assign_fast, kmeans_1d, kmeans_matching_prepared};
use gp_core::refine::{constrained_refine, ConstrainedState, RefineOptions};
use gp_core::{gp_partition, GpParams, MatchingKind};
use ppn_graph::matching::Matching;
use ppn_graph::metrics::{edge_cut, PartitionQuality};
use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{Boundary, Constraints, EdgeId, GraphBuilder, NodeId, Partition, WeightedGraph};
use proptest::prelude::*;
use std::cmp::Reverse;

/// The paper's three matchings plus the node-scan HEM variant.
const FOUR_KINDS: [MatchingKind; 4] = [
    MatchingKind::Random,
    MatchingKind::HeavyEdge,
    MatchingKind::KMeans,
    MatchingKind::HeavyEdgeNodeScan,
];

/// Random connected-ish graph strategy (spanning chain + mask edges).
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..20, any::<u64>(), 1u64..40, 1u64..12).prop_map(|(n, mask, wmax, emax)| {
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_node(1 + (mask.rotate_left(i as u32 * 3) % wmax)))
            .collect();
        for i in 1..n {
            let w = 1 + (mask.rotate_right(i as u32) % emax);
            g.add_edge(ids[i - 1], ids[i], w).unwrap();
        }
        let mut bit = 1u32;
        for i in 0..n {
            for j in (i + 2)..n {
                bit = bit.wrapping_add(7);
                if (mask.rotate_left(bit) & 7) == 0 {
                    let w = 1 + (mask.rotate_right(bit) % emax);
                    let _ = g.add_edge(ids[i], ids[j], w);
                }
            }
        }
        g.build()
    })
}

fn arb_partition(n: usize, k: usize, seed: u64) -> Partition {
    let assign: Vec<u32> = (0..n)
        .map(|i| ((seed.rotate_left(i as u32 * 5) ^ i as u64) % k as u64) as u32)
        .collect();
    Partition::from_assignment(assign, k).unwrap()
}

/// One Lloyd assignment step by linear scan: for each value, the index
/// of the nearest centroid, ties to the smallest index (`min_by` keeps
/// the first minimal element). The oracle for `assign_fast`.
fn assign_scan(values: &[f64], centroids: &[f64]) -> Vec<u32> {
    values
        .iter()
        .map(|&v| {
            centroids
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    (v - **a)
                        .abs()
                        .partial_cmp(&(v - **b).abs())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(c, _)| c as u32)
                .unwrap_or(0)
        })
        .collect()
}

/// The tournament's edge order as `(weight, edge id)`: the seeded
/// shuffle, then a stable sort by descending weight.
fn edge_id_order(g: &WeightedGraph, seed: u64) -> Vec<(u64, u32)> {
    let mut edges: Vec<(u64, u32)> = (0..g.num_edges() as u32)
        .map(|e| (g.edge_weight(EdgeId(e)), e))
        .collect();
    XorShift128Plus::new(seed).shuffle(&mut edges);
    edges.sort_by_key(|e| Reverse(e.0));
    edges
}

/// K-means matching's two sweeps over a `(weight, edge id)` order, each
/// edge's endpoints looked up by id. The oracle for
/// `kmeans_matching_prepared`, which reads them from the order.
fn kmeans_by_edge_id(g: &WeightedGraph, seed: u64, order: &[(u64, u32)]) -> Matching {
    let n = g.num_nodes();
    let mut m = Matching::empty(n);
    if n < 2 {
        return m;
    }
    let values: Vec<f64> = g.node_weights().iter().map(|&w| w as f64).collect();
    let clusters = kmeans_1d(&values, (n / 8).max(2).min(n), seed, 32);
    for same_cluster_only in [true, false] {
        for &(w, e) in order {
            let (u, v, _) = g.edge(EdgeId(e));
            if same_cluster_only && clusters[u.index()] != clusters[v.index()] {
                continue;
            }
            if !m.is_matched(u) && !m.is_matched(v) {
                m.add_pair_absorbing(u, v, w);
            }
        }
    }
    m
}

/// Greedy growth by full scan: each absorbed node is the unassigned
/// node with the heaviest edge from the part, found by walking every
/// node of the graph and the adjacency of the part grown so far,
/// O(n + E) per node. The oracle for `grow_from`'s frontier heap.
fn grow_from_scan(g: &WeightedGraph, k: usize, c: &Constraints, first: NodeId) -> Partition {
    let mut p = Partition::unassigned(g.num_nodes(), k);
    let mut part_weight = vec![0u64; k];
    let mut by_weight: Vec<NodeId> = g.node_ids().collect();
    by_weight.sort_by_key(|&v| Reverse((g.node_weight(v), Reverse(v.0))));
    let mut next_seed = Some(first);
    for part in 0..k as u32 {
        let Some(seed_node) = next_seed
            .take()
            .or_else(|| by_weight.iter().copied().find(|&v| !p.is_assigned(v)))
        else {
            break;
        };
        p.assign(seed_node, part);
        part_weight[part as usize] += g.node_weight(seed_node);
        loop {
            let mut best: Option<(u64, NodeId)> = None;
            for v in g.node_ids().filter(|&v| p.part_of(v) == part) {
                for &(u, e) in g.neighbors(v) {
                    if p.is_assigned(u) {
                        continue;
                    }
                    let w = g.edge_weight(e);
                    match best {
                        Some((bw, bu)) if (bw, Reverse(bu.0)) >= (w, Reverse(u.0)) => {}
                        _ => best = Some((w, u)),
                    }
                }
            }
            let Some((_, u)) = best else { break };
            if part_weight[part as usize] + g.node_weight(u) > c.rmax {
                break;
            }
            p.assign(u, part);
            part_weight[part as usize] += g.node_weight(u);
        }
    }
    for v in p.unassigned_nodes() {
        let wv = g.node_weight(v);
        let target = (0..k)
            .filter(|&q| part_weight[q] + wv <= c.rmax)
            .max_by_key(|&q| (c.rmax - part_weight[q], Reverse(q)))
            .unwrap_or_else(|| {
                (0..k)
                    .max_by_key(|&q| (c.rmax.saturating_sub(part_weight[q]), Reverse(q)))
                    .unwrap()
            });
        p.assign(v, target as u32);
        part_weight[target] += wv;
    }
    p
}

/// A random graph for the growth oracle: `n` nodes, up to `m` edges, a
/// few hubs that collect extra edges, and edge weights either drawn
/// from `1..=3` (ties everywhere) or from the full `u64` range.
fn growth_graph(n: usize, m: usize, full_range: bool, seed: u64) -> WeightedGraph {
    let mut rng = XorShift128Plus::new(seed);
    let mut g = GraphBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|_| g.add_node(1 + rng.next_below(20) as u64))
        .collect();
    for _ in 0..m {
        // every third edge lands on one of the two lowest ids
        let a = if rng.next_below(3) == 0 {
            rng.next_below(2.min(n))
        } else {
            rng.next_below(n)
        };
        let b = rng.next_below(n);
        let w = if full_range {
            rng.next_u64().max(1)
        } else {
            1 + rng.next_below(3) as u64
        };
        if a != b && g.find_edge(ids[a], ids[b]).is_none() {
            g.add_edge(ids[a], ids[b], w).unwrap();
        }
    }
    g.build()
}

#[test]
fn fast_assignment_equals_scan_on_tricky_inputs() {
    // duplicates, exact midpoints, unsorted centroids, out-of-range
    // queries — every branch of the bracketing logic
    let cases: &[(&[f64], &[f64])] = &[
        (&[1.0, 2.0, 3.0], &[2.0, 2.0, 5.0]),
        (&[2.0], &[1.0, 3.0]),         // exact midpoint tie
        (&[4.0], &[5.0, 3.0]),         // midpoint with unsorted centroids
        (&[-10.0, 10.0], &[0.0, 1.0]), // outside the centroid range
        (&[0.5, 1.5, 2.5], &[3.0, 1.0, 2.0, 0.0]),
        (&[7.0, 7.0], &[7.0, 7.0, 7.0]), // all duplicates
    ];
    for (values, centroids) in cases {
        assert_eq!(
            assign_fast(values, centroids),
            assign_scan(values, centroids),
            "values {values:?} centroids {centroids:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_matchings_are_valid(g in arb_graph(), seed in any::<u64>()) {
        for kind in FOUR_KINDS {
            let m = run_matching(kind, &g, seed);
            prop_assert!(m.validate(&g), "{kind} produced an invalid matching");
        }
    }

    #[test]
    fn prepared_kmeans_equals_the_edge_id_lookup(g in arb_graph(), seed in any::<u64>()) {
        let mut edges = Vec::new();
        shuffled_sorted_edges(&g, seed, &mut edges);
        let m = kmeans_matching_prepared(&g, seed ^ 1, &edges);
        let oracle = kmeans_by_edge_id(&g, seed ^ 1, &edge_id_order(&g, seed));
        prop_assert_eq!(m.absorbed(), oracle.absorbed());
        prop_assert_eq!(m, oracle);
    }

    #[test]
    fn all_matchings_track_absorbed_weight_exactly(g in arb_graph(), seed in any::<u64>()) {
        for kind in FOUR_KINDS {
            let m = run_matching(kind, &g, seed);
            prop_assert_eq!(m.absorbed(), m.absorbed_weight(&g), "{} drifted", kind);
        }
    }

    #[test]
    fn fast_kmeans_assignment_equals_lloyd_scan(
        values_i in proptest::collection::vec(any::<i32>(), 1..80),
        centroids_i in proptest::collection::vec(any::<i32>(), 1..40),
        dup_mask in any::<u64>()
    ) {
        // floats via integers: the vendored proptest shim has no float
        // strategies, and integer-derived values still hit every branch
        let values: Vec<f64> = values_i.iter().map(|&x| x as f64 / 64.0).collect();
        let centroids: Vec<f64> = centroids_i.iter().map(|&x| x as f64 / 64.0).collect();
        // as generated (generic position) …
        prop_assert_eq!(assign_fast(&values, &centroids), assign_scan(&values, &centroids));
        // … and with planted duplicates and exact-midpoint queries, the
        // adversarial inputs for the bracketing tie-breaks
        let mut centroids = centroids;
        for i in 1..centroids.len() {
            if dup_mask.rotate_left(i as u32) & 3 == 0 {
                centroids[i] = centroids[i - 1];
            }
        }
        let mut values = values;
        for i in 0..values.len() {
            let a = centroids[i % centroids.len()];
            let b = centroids[(i * 7 + 1) % centroids.len()];
            if dup_mask.rotate_right(i as u32) & 1 == 0 {
                values[i] = (a + b) / 2.0;
            }
        }
        prop_assert_eq!(assign_fast(&values, &centroids), assign_scan(&values, &centroids));
    }

    #[test]
    fn fast_kmeans_equals_reference_on_node_weights(
        g in arb_graph(),
        seed in any::<u64>(),
        k_div in 1usize..9
    ) {
        // integer weights against integer and half-integer centroids
        // spread like k-means' quantile seeds: duplicates and exact
        // midpoints are the common case here, not the corner case
        let values: Vec<f64> = g.node_ids().map(|v| g.node_weight(v) as f64).collect();
        let n = values.len();
        let k = (n / k_div).max(2).min(n);
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let centroids: Vec<f64> = (0..k)
            .map(|i| sorted[i * (n - 1) / k] + (seed.rotate_left(i as u32) % 3) as f64 / 2.0)
            .collect();
        prop_assert_eq!(assign_fast(&values, &centroids), assign_scan(&values, &centroids));
    }

    #[test]
    fn hierarchy_preserves_weight_for_any_matching_mix(
        g in arb_graph(),
        seed in any::<u64>(),
        target in 2usize..8
    ) {
        let h = gp_coarsen_flat(&g, &MatchingKind::ALL, target, seed);
        prop_assert_eq!(h.coarsest_graph().total_node_weight(), g.total_node_weight());
        let trace = h.size_trace();
        prop_assert!(trace.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn refinement_never_worsens_violation_or_feasible_cut(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..5,
        rmax_frac in 3u64..8,
        bmax_frac in 2u64..8
    ) {
        let c = Constraints::new(
            (g.total_node_weight() * rmax_frac / (2 * k as u64)).max(1),
            (g.total_edge_weight() * bmax_frac / 8).max(1),
        );
        let mut p = arb_partition(g.num_nodes(), k, seed);
        let before = ConstrainedState::new(&g, &p);
        let v_before = before.violation(&c);
        let cut_before = edge_cut(&g, &p);
        constrained_refine(&g, &mut p, &c, &RefineOptions {
            seed,
            ..Default::default()
        });
        let after = ConstrainedState::new(&g, &p);
        prop_assert!(after.violation(&c) <= v_before,
            "violation rose: {} -> {}", v_before, after.violation(&c));
        if v_before == 0 {
            prop_assert!(edge_cut(&g, &p) <= cut_before,
                "feasible cut rose: {} -> {}", cut_before, edge_cut(&g, &p));
        }
        prop_assert!(p.is_complete());
    }

    #[test]
    fn engine_start_state_matches_new_tracked(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..70,
        used in 1usize..6,
        rmax_frac in 1u64..8,
        bmax_frac in 0u64..8
    ) {
        // the engine reads its cut matrix off the boundary rows and its
        // part weights and sizes off one node pass; it must start from
        // exactly the state a pass over every edge builds
        let c = Constraints::new(
            (g.total_node_weight() * rmax_frac / (2 * k as u64)).max(1),
            g.total_edge_weight() * bmax_frac / 8,
        );
        let assign = arb_partition(g.num_nodes(), used.min(k), seed)
            .assignment()
            .iter()
            .map(|&q| (q + seed as u32) % k as u32)
            .collect();
        let p = Partition::from_assignment(assign, k).unwrap();
        let b = Boundary::new(&g, &p);
        let start = ConstrainedState::from_boundary(&g, &p, &b, &c);
        let want = ConstrainedState::new_tracked(&g, &p, &c);
        prop_assert_eq!(&start.cut, &want.cut);
        prop_assert_eq!(start.cut.total_cut(), want.cut.total_cut());
        prop_assert_eq!(start.cut.tracked_bmax(), want.cut.tracked_bmax());
        prop_assert_eq!(start.cut.tracked_excess(), want.cut.tracked_excess());
        prop_assert_eq!(&start.part_weights, &want.part_weights);
        prop_assert_eq!(&start.part_sizes, &want.part_sizes);
        prop_assert_eq!(start.total_cut, want.total_cut);
        prop_assert_eq!(start.violation(&c), want.violation(&c));
        prop_assert_eq!(start.violation(&c), c.violation_magnitude(&want.cut, &want.part_weights));
    }

    #[test]
    fn boundary_refinement_reaches_single_move_fixed_point(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..5,
        rmax_frac in 3u64..8,
        bmax_frac in 2u64..8
    ) {
        // the boundary-restricted sweep must terminate at the same kind
        // of fixed point as a full sweep: no node — boundary or
        // interior — may still have a strictly improving single move
        let c = Constraints::new(
            (g.total_node_weight() * rmax_frac / (2 * k as u64)).max(1),
            (g.total_edge_weight() * bmax_frac / 8).max(1),
        );
        let mut p = arb_partition(g.num_nodes(), k, seed);
        constrained_refine(&g, &mut p, &c, &RefineOptions {
            seed,
            max_passes: 64, // far above what these sizes need to converge
            ..Default::default()
        });
        let s = ConstrainedState::new_tracked(&g, &p, &c);
        let mut scratch = Vec::new();
        for v in g.node_ids() {
            let from = p.part_of(v) as usize;
            if s.part_sizes[from] == 1 {
                continue; // protected, as during refinement
            }
            for t in 0..k as u32 {
                if t as usize == from {
                    continue;
                }
                let d = s.evaluate_move(&g, &p, &c, v, t, &mut scratch);
                prop_assert!(
                    !d.improves(),
                    "node {:?} -> {} still improves: {:?}", v, t, d
                );
            }
        }
    }

    #[test]
    fn gp_parallel_flag_does_not_change_result(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..4
    ) {
        // the flag moves the initial-partitioning restarts between rayon
        // and a serial loop, and their total-order reduction must pick
        // the same partition; these graphs stay below
        // `parallel_refine_min_nodes`, and the tournament runs on rayon
        // either way (CI's thread-matrix job checks it at 1, 2 and 8
        // threads)
        let c = Constraints::new(
            (g.total_node_weight() * 3 / (2 * k as u64)).max(1),
            (g.total_edge_weight() / 2).max(1),
        );
        let base = GpParams { max_cycles: 2, initial_restarts: 6, ..GpParams::default() }
            .with_seed(seed);
        let par = GpParams { parallel: true, ..base.clone() };
        let seq = GpParams { parallel: false, ..base };
        let a = gp_partition(&g, k, &c, &par);
        let b = gp_partition(&g, k, &c, &seq);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x.partition, y.partition),
            (Err(x), Err(y)) => prop_assert_eq!(x.best.partition, y.best.partition),
            _ => prop_assert!(false, "parallel flag flipped the feasibility verdict"),
        }
    }

    #[test]
    fn gp_verdict_is_correct(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..4
    ) {
        // generous constraints: GP must succeed and its answer must be
        // genuinely feasible
        let c = Constraints::new(g.total_node_weight(), g.total_edge_weight());
        let params = GpParams { max_cycles: 2, initial_restarts: 4, ..GpParams::default() }
            .with_seed(seed);
        match gp_partition(&g, k, &c, &params) {
            Ok(r) => {
                prop_assert!(r.feasible);
                prop_assert!(c.is_feasible(&g, &r.partition));
                let q = PartitionQuality::measure(&g, &r.partition);
                prop_assert_eq!(q.total_cut, r.quality.total_cut);
            }
            Err(_) => prop_assert!(false, "generous constraints must be feasible"),
        }
    }

    #[test]
    fn gp_never_lies_about_feasibility(
        g in arb_graph(),
        seed in any::<u64>(),
        rmax in 1u64..60,
        bmax in 1u64..30
    ) {
        // arbitrary (often impossible) constraints: whatever GP returns,
        // its feasibility verdict must agree with an independent check
        let c = Constraints::new(rmax, bmax);
        let params = GpParams { max_cycles: 2, initial_restarts: 3, ..GpParams::default() }
            .with_seed(seed);
        match gp_partition(&g, 3.min(g.num_nodes()), &c, &params) {
            Ok(r) => prop_assert!(c.is_feasible(&g, &r.partition)),
            Err(e) => {
                prop_assert!(!c.is_feasible(&g, &e.best.partition));
                prop_assert!(e.best.partition.is_complete());
            }
        }
    }

    #[test]
    fn move_evaluation_always_matches_application(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..5,
        node in any::<u32>(),
        to in any::<u32>()
    ) {
        let mut p = arb_partition(g.num_nodes(), k, seed);
        let c = Constraints::new(
            g.total_node_weight() / k as u64 + 1,
            g.total_edge_weight() / 3 + 1,
        );
        let v = NodeId(node % g.num_nodes() as u32);
        let t = to % k as u32;
        let s = ConstrainedState::new(&g, &p);
        let mut scratch = Vec::new();
        let d = s.evaluate_move(&g, &p, &c, v, t, &mut scratch);
        let (v0, c0) = (s.violation(&c) as i64, s.total_cut as i64);
        let mut s2 = s.clone();
        s2.apply_move(&g, &mut p, v, t);
        prop_assert_eq!(d.dviol, s2.violation(&c) as i64 - v0);
        prop_assert_eq!(d.dcut, s2.total_cut as i64 - c0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn frontier_heap_growth_equals_scan(
        n in 1usize..48,
        density in 0usize..4,
        full_range in any::<bool>(),
        seed in any::<u64>(),
        k in 1usize..7,
        rmax_pct in 1u64..160
    ) {
        let g = growth_graph(n, n * density + n / 2, full_range, seed);
        let total = g.total_node_weight();
        // from below the heaviest node (every part stops at once) to
        // above the whole graph (part 0 takes its component)
        let c = Constraints::new((total * rmax_pct / 100 / k as u64).max(1), u64::MAX);
        let first = NodeId::from_index(seed as usize % n);
        prop_assert_eq!(grow_from(&g, k, &c, first), grow_from_scan(&g, k, &c, first));
    }
}
