//! Cross-backend differential conformance suite.
//!
//! Every registered backend runs over a generated instance matrix —
//! paper instances, dense communities, multicast stars, pathological
//! chains/cliques, infeasible-`Rmax` cases, `k > n` — and the shared
//! invariants of the [`Partitioner`] contract are asserted for each
//! cell: assignment validity, reported cost equals independent
//! recomputation, feasibility verdicts agree with the reference
//! checker, and determinism per seed. Quality cross-checks bound the
//! recursive-bisection route against direct k-way on the paper family.
//!
//! The matrix seed comes from `CONFORMANCE_SEED` (CI runs a 3-seed
//! matrix), so the whole suite re-generates with different instances
//! without a code change.

use ppn_partition::ppn_backend::{
    backends, conformance_matrix, degenerate_matrix, infeasible_matrix, reference_verify,
};
use ppn_partition::ppn_graph::metrics::edge_cut;
use ppn_partition::{backend_by_name, PartitionInstance};

fn matrix_seed() -> u64 {
    std::env::var("CONFORMANCE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// The contract invariants of one backend × instance cell: validity,
/// self-consistent reporting, determinism.
fn assert_cell(inst: &PartitionInstance, backend_name: &str, seed: u64) {
    let b = backend_by_name(backend_name).expect(backend_name);
    let out = b.run(inst, seed);
    let ctx = format!("{backend_name} on {} (seed {seed})", inst.name);

    // assignment validity
    assert_eq!(out.partition.len(), inst.num_nodes(), "{ctx}: length");
    assert_eq!(out.partition.k(), inst.k, "{ctx}: k");
    assert!(out.partition.is_complete(), "{ctx}: completeness");
    assert!(
        out.partition
            .assignment()
            .iter()
            .all(|&p| (p as usize) < inst.k),
        "{ctx}: part ids in range"
    );

    // reported cost and verdict equal independent recomputation
    reference_verify(inst, &out).unwrap_or_else(|e| panic!("{e}"));

    // determinism per seed (timings excluded)
    let again = b.run(inst, seed);
    assert!(out.same_result(&again), "{ctx}: nondeterministic");
}

#[test]
fn every_backend_is_conformant_on_the_regular_matrix() {
    let seed = matrix_seed();
    for inst in conformance_matrix(seed) {
        for b in backends() {
            assert_cell(&inst, b.name(), seed ^ 0x5EED);
        }
    }
}

#[test]
fn infeasible_instances_yield_best_attempts_not_panics() {
    let seed = matrix_seed();
    for inst in infeasible_matrix(seed) {
        for b in backends() {
            let out = b.run(&inst, seed);
            assert!(out.partition.is_complete(), "{} on {}", b.name(), inst.name);
            assert!(
                !out.feasible,
                "{} on {}: Rmax below the heaviest node cannot be feasible",
                b.name(),
                inst.name
            );
            reference_verify(&inst, &out).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

#[test]
fn degenerate_instances_never_panic() {
    let seed = matrix_seed();
    for inst in degenerate_matrix(seed) {
        for b in backends() {
            assert_cell(&inst, b.name(), seed);
        }
    }
}

#[test]
fn constrained_backends_solve_the_paper_instances() {
    // acceptance: GP is the paper's result; RB must reach feasibility
    // through the alternative route too
    let seed = matrix_seed();
    for inst in conformance_matrix(seed)
        .into_iter()
        .filter(|i| i.name.starts_with("paper"))
    {
        for name in ["gp", "rb"] {
            let out = backend_by_name(name).unwrap().run(&inst, seed);
            assert!(
                out.feasible,
                "{name} must satisfy Rmax/Bmax on {}: {}",
                inst.name,
                out.report.summary()
            );
        }
    }
}

#[test]
fn rb_cut_is_within_a_bounded_factor_of_direct_kway() {
    // quality cross-check on the paper family: the recursive-bisection
    // route may pay a premium over direct k-way, but a bounded one
    let seed = matrix_seed();
    for inst in conformance_matrix(seed)
        .into_iter()
        .filter(|i| i.name.starts_with("paper"))
    {
        let gp = backend_by_name("gp").unwrap().run(&inst, seed);
        let rb = backend_by_name("rb").unwrap().run(&inst, seed);
        assert!(gp.feasible && rb.feasible, "{}", inst.name);
        assert!(
            rb.cost.objective <= gp.cost.objective * 2 + 16,
            "{}: rb cut {} vs gp cut {} exceeds the 2×+16 quality bound",
            inst.name,
            rb.cost.objective,
            gp.cost.objective
        );
    }
}

#[test]
fn connectivity_never_exceeds_edge_cut_on_shared_partitions() {
    // differential model check: for any assignment, charging a net once
    // per boundary can only cost less than charging every consumer edge
    let seed = matrix_seed();
    for inst in conformance_matrix(seed) {
        let hyper = backend_by_name("hyper").unwrap().run(&inst, seed);
        let hg = inst.hyper_view();
        let conn = ppn_partition::ppn_hyper::HyperQuality::measure(&hg, &hyper.partition)
            .connectivity_cost;
        let cut = edge_cut(&inst.graph, &hyper.partition);
        assert!(
            conn <= cut,
            "{}: connectivity {conn} > edge cut {cut} of the same partition",
            inst.name
        );
    }
}

#[test]
fn seeds_produce_different_but_valid_partitions() {
    // the seed must actually steer the engines (no silent reseeding)
    let inst = &conformance_matrix(matrix_seed())[3]; // communities
    for b in backends() {
        let a = b.run(inst, 1);
        let c = b.run(inst, 2);
        reference_verify(inst, &a).unwrap_or_else(|e| panic!("{e}"));
        reference_verify(inst, &c).unwrap_or_else(|e| panic!("{e}"));
        // not asserting inequality per backend (small instances can
        // collide), but both runs must stand on their own
        assert_eq!(a.backend, c.backend);
    }
}
