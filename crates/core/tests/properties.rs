//! Property tests for the GP partitioner's invariants.

use gp_core::coarsen::{gp_coarsen_flat, run_matching};
use gp_core::kmeans::assign_fast;
use gp_core::refine::{constrained_refine, ConstrainedState, RefineOptions};
use gp_core::{gp_partition, GpParams, MatchingKind};
use ppn_graph::metrics::{edge_cut, PartitionQuality};
use ppn_graph::{Constraints, NodeId, Partition, WeightedGraph};
use proptest::prelude::*;

/// Random connected-ish graph strategy (spanning chain + mask edges).
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..20, any::<u64>(), 1u64..40, 1u64..12).prop_map(|(n, mask, wmax, emax)| {
        let mut g = WeightedGraph::new();
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
        g
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
fn assign_scan(values: &[f64], centroids: &[f64]) -> Vec<usize> {
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
                .map(|(c, _)| c)
                .unwrap_or(0)
        })
        .collect()
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
        for kind in MatchingKind::WITH_NODE_SCAN {
            let m = run_matching(kind, &g, seed);
            prop_assert!(m.validate(&g), "{kind} produced an invalid matching");
        }
    }

    #[test]
    fn all_matchings_track_absorbed_weight_exactly(g in arb_graph(), seed in any::<u64>()) {
        for kind in MatchingKind::WITH_NODE_SCAN {
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
        // the rayon shim actually splits work across threads now; the
        // total-order reductions must keep results schedule-independent
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
