//! Properties of the parallel refinement engine and its serial twin.
//!
//! The parallel sweep ([`constrained_refine_parallel_csr`]) frozen-evaluates
//! the active set concurrently and commits serially in visit order,
//! re-validating each candidate — so it must (a) be deterministic and
//! independent of `RAYON_NUM_THREADS`, (b) preserve the serial engine's
//! invariants (violations never increase; feasible stays feasible), and
//! (c) share the serial engine's fixed points: once the parallel engine
//! converges, the serial engine has no move left to make.
//!
//! CI runs this suite in a thread matrix (`RAYON_NUM_THREADS` ∈
//! {1, 2, 8}); the assertions are thread-count-agnostic, so any
//! divergence across matrix cells is a real scheduling leak.

use gp_core::{
    constrained_refine, constrained_refine_parallel_csr, gp_partition, ConstrainedState, GpParams,
    RefineOptions,
};
use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{Constraints, GraphBuilder, Partition, WeightedGraph};

/// Ring + random chords with skewed weights: enough structure for the
/// boundary sweep and the swap pass to both engage.
fn random_graph(n: usize, chords_per_node: usize, seed: u64) -> WeightedGraph {
    let mut rng = XorShift128Plus::new(seed);
    let mut g = GraphBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|_| g.add_node(1 + rng.next_below(9) as u64))
        .collect();
    for i in 0..n {
        g.add_or_merge_edge(ids[i], ids[(i + 1) % n], 1 + rng.next_below(20) as u64)
            .unwrap();
    }
    for _ in 0..n * chords_per_node {
        let a = rng.next_below(n);
        let b = rng.next_below(n);
        if a != b {
            g.add_or_merge_edge(ids[a], ids[b], 1 + rng.next_below(8) as u64)
                .unwrap();
        }
    }
    g.build()
}

fn random_partition(n: usize, k: usize, seed: u64) -> Partition {
    let mut rng = XorShift128Plus::new(seed);
    // round-robin base guarantees no empty part, then a shuffle step
    // scrambles locality
    let mut assign: Vec<u32> = (0..n).map(|i| (i % k) as u32).collect();
    rng.shuffle(&mut assign);
    Partition::from_assignment(assign, k).unwrap()
}

/// Mid-tension constraints: satisfiable but not trivially so.
fn constraints_for(g: &WeightedGraph, k: usize) -> Constraints {
    let rmax = g.total_node_weight().div_ceil(k as u64) * 13 / 10;
    let bmax = g.total_edge_weight() / k as u64;
    Constraints::new(rmax.max(1), bmax.max(1))
}

fn opts(seed: u64) -> RefineOptions {
    RefineOptions {
        max_passes: 64,
        seed,
        protect_nonempty: true,
    }
}

#[test]
fn parallel_refine_is_deterministic() {
    for seed in 0..6u64 {
        let g = random_graph(160, 2, seed);
        let k = 4;
        let c = constraints_for(&g, k);
        let p0 = random_partition(g.num_nodes(), k, seed ^ 0xA5);
        let mut pa = p0.clone();
        let mut pb = p0;
        let ma = constrained_refine_parallel_csr(&g, &mut pa, &c, &opts(seed));
        let mb = constrained_refine_parallel_csr(&g, &mut pb, &c, &opts(seed));
        assert_eq!(ma, mb, "seed {seed}: move counts diverged");
        assert_eq!(pa, pb, "seed {seed}: partitions diverged");
    }
}

#[test]
fn parallel_refine_reaches_a_serial_fixed_point() {
    for seed in 0..8u64 {
        let g = random_graph(200, 2, seed);
        let k = 4;
        let c = constraints_for(&g, k);
        let mut p = random_partition(g.num_nodes(), k, seed ^ 0x5A);
        constrained_refine_parallel_csr(&g, &mut p, &c, &opts(seed));
        // the parallel engine converged (64 passes is far beyond what
        // these instances need); the serial engine must find nothing
        let mut p2 = p.clone();
        let serial_moves = constrained_refine(&g, &mut p2, &c, &opts(seed));
        assert_eq!(
            serial_moves, 0,
            "seed {seed}: serial engine moved after parallel convergence"
        );
        assert_eq!(p, p2, "seed {seed}: zero moves must leave p unchanged");
    }
}

#[test]
fn parallel_refine_never_increases_violation() {
    for seed in 0..8u64 {
        let g = random_graph(120, 3, seed);
        let k = 5;
        let c = constraints_for(&g, k);
        let mut p = random_partition(g.num_nodes(), k, seed ^ 0x33);
        let before = ConstrainedState::new(&g, &p, &c).violation();
        constrained_refine_parallel_csr(&g, &mut p, &c, &opts(seed));
        let after = ConstrainedState::new(&g, &p, &c).violation();
        assert!(
            after <= before,
            "seed {seed}: violation grew {before} -> {after}"
        );
    }
}

#[test]
fn parallel_refine_keeps_feasible_feasible() {
    for seed in 0..6u64 {
        let g = random_graph(90, 2, seed);
        let k = 3;
        // generous limits: the starting round-robin partition is feasible
        let c = Constraints::new(g.total_node_weight(), g.total_edge_weight());
        let mut p = random_partition(g.num_nodes(), k, seed ^ 0x77);
        assert!(c.is_feasible(&g, &p));
        constrained_refine_parallel_csr(&g, &mut p, &c, &opts(seed));
        assert!(c.is_feasible(&g, &p), "seed {seed}: feasibility lost");
    }
}

#[test]
fn gp_partition_gate_is_inert_below_threshold() {
    // no level of a 200-node instance reaches the default 200k-node
    // parallel-refine threshold, so enabling/disabling the gate must not
    // change the result — this pins the bit-compatibility claim the
    // params docs make
    let g = random_graph(200, 2, 42);
    let c = constraints_for(&g, 4);
    let on = GpParams {
        max_cycles: 2,
        ..GpParams::default()
    };
    let off = GpParams {
        parallel_refine_min_nodes: usize::MAX,
        ..on.clone()
    };
    let (a, _) = gp_partition(&g, 4, &c, &on);
    let (b, _) = gp_partition(&g, 4, &c, &off);
    assert_eq!(a.feasible(), b.feasible(), "gate changed feasibility");
    assert_eq!(a.partition, b.partition);
}

#[test]
fn gp_partition_with_forced_parallel_refine_stays_valid() {
    // force every level through the parallel sweep: results may differ
    // from the serial path but must satisfy the same contract
    let g = random_graph(240, 2, 7);
    let c = constraints_for(&g, 4);
    let params = GpParams {
        max_cycles: 3,
        parallel_refine_min_nodes: 0,
        ..GpParams::default()
    };
    let (r1, _) = gp_partition(&g, 4, &c, &params);
    let (r2, _) = gp_partition(&g, 4, &c, &params);
    assert_eq!(
        r1.feasible(),
        r2.feasible(),
        "forced-parallel runs disagreed on feasibility"
    );
    assert_eq!(r1.partition, r2.partition, "forced-parallel nondeterminism");
    assert!(r1.partition.is_complete());
    assert_eq!(r1.feasible(), c.is_feasible(&g, &r1.partition));
}
