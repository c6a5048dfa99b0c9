//! The memory-budget robustness suite.
//!
//! Companion to `robustness.rs` for the memory side of the budget: a
//! tracked byte ledger must make engines *degrade* — shed coarsening
//! levels, fall back to contiguous fills — never abort. Two families of
//! proof live here:
//!
//! * memory-capped runs across every registry backend × the conformance
//!   matrix still produce outcomes that pass [`reference_verify`]
//!   (proptest-driven over cap sizes and seeds);
//! * an `alloc_fail` fault armed at every planted reservation site
//!   (`gp:coarsen`, `rb:bisect`, `hyper:coarsen`, `kway:bisect`,
//!   `metis:kway`) yields a typed error or a degraded completion —
//!   never a panic escaping the `Partitioner::partition` boundary.
//!
//! Faults ride on the run's `Budget`, so a test arms them for its own
//! runs only and the suite needs no lock: its tests run in parallel.

use ppn_backend::{
    backend_by_name, backends, conformance_matrix, reference_verify, robust_partition, Budget,
    Completion, PartitionInstance,
};
use ppn_gen::dense_community_graph;
use ppn_graph::{Constraints, FaultPlan};
use proptest::prelude::*;

/// An unlimited budget carrying the fault plan `spec`.
fn faulted(spec: &str) -> Budget {
    Budget::unlimited().with_faults(FaultPlan::parse(spec).expect(spec))
}

/// A mid-sized planted instance, large enough that every engine's
/// working-set estimate dwarfs a kilobyte-scale ledger.
fn community_instance(communities: usize, size: usize, k: usize) -> PartitionInstance {
    let g = dense_community_graph(communities, size, (2, 9), 12, 2, 2, 99);
    let total: u64 = g.node_weights().iter().sum();
    let cons = Constraints::new(total / k as u64 + total / 4, g.total_edge_weight());
    PartitionInstance::from_graph(format!("scaling-{}x{k}", communities * size), g, k, cons)
}

fn assert_verified(inst: &PartitionInstance, out: &ppn_backend::PartitionOutcome) {
    assert!(out.partition.is_complete(), "incomplete assignment");
    reference_verify(inst, out).unwrap_or_else(|e| panic!("{e}"));
}

/// Every registry backend, on every conformance instance, under a cap
/// far below any engine's working set: the run completes (possibly
/// degraded), verifies against the reference check, and the ledger
/// drains back to zero afterwards.
#[test]
fn tiny_memory_cap_degrades_every_backend_but_verifies() {
    for inst in conformance_matrix(1) {
        for b in backends() {
            let budget = Budget::unlimited().with_max_bytes(8 * 1024);
            let out = b
                .partition(&inst, 7, &budget)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", b.name(), inst.name));
            assert_verified(&inst, &out);
            let ledger = budget.memory_ledger().expect("ledger attached");
            assert_eq!(
                ledger.used(),
                0,
                "{} on {} leaked {} ledger bytes",
                b.name(),
                inst.name,
                ledger.used()
            );
        }
    }
}

/// The larger planted instance must actually *report* the memory cut:
/// gp degrades in coarsen with a memory-worded reason instead of
/// silently fitting.
#[test]
fn gp_reports_a_memory_degradation_under_a_tight_cap() {
    let inst = community_instance(8, 64, 4);
    let budget = Budget::unlimited().with_max_bytes(4 * 1024);
    let out = backend_by_name("gp")
        .unwrap()
        .partition(&inst, 7, &budget)
        .unwrap();
    assert_verified(&inst, &out);
    match &out.completion {
        Completion::Degraded { phase, reason } => {
            assert_eq!(phase, "coarsen");
            assert!(reason.contains("memory"), "{reason}");
        }
        Completion::Full => panic!("4 KiB cannot fit a 512-node hierarchy"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Memory-degraded outcomes satisfy `reference_verify` across all
    /// registry backends × the conformance matrix, for arbitrary cap
    /// sizes (from absurdly small to comfortably large) and seeds.
    #[test]
    fn memory_capped_matrix_always_verifies(cap_kb in 1u64..256, seed in 0u64..1024) {
        for inst in conformance_matrix(seed) {
            for b in backends() {
                let budget = Budget::unlimited().with_max_bytes(cap_kb * 1024);
                let out = b
                    .partition(&inst, seed, &budget)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", b.name(), inst.name));
                assert_verified(&inst, &out);
            }
        }
    }
}

/// Each backend's planted reservation site, hit by an `alloc_fail`
/// fault: the run must degrade with a memory-worded reason (or return
/// a typed error) — never panic — and still verify. The budget carries
/// no ledger, so a memory-worded reason proves the fault fired.
#[test]
fn alloc_fail_at_every_planted_site_degrades_not_aborts() {
    let sites: &[(&str, &str, &str)] = &[
        ("gp", "gp", "coarsen"),
        ("rb", "rb", "bisect"),
        ("hyper", "hyper", "coarsen"),
        ("kway", "kway", "bisect"),
        ("metis", "metis", "kway"),
    ];
    for &(backend, engine, phase) in sites {
        let budget = faulted(&format!("{engine}:{phase}:alloc_fail"));
        let inst = community_instance(4, 16, 4);
        let b = backend_by_name(backend).unwrap();
        let out = b
            .partition(&inst, 7, &budget)
            .unwrap_or_else(|e| panic!("{backend}: alloc_fail must degrade, got error {e}"));
        assert_verified(&inst, &out);
        match &out.completion {
            Completion::Degraded { reason, .. } => {
                assert!(reason.contains("memory"), "{backend}: {reason}");
            }
            Completion::Full => panic!("{backend} ignored the injected allocation failure"),
        }
    }
}

/// The nth-hit form: `gp:coarsen:alloc_fail:2` lets the level-0
/// reservation through and fails the first coarsening level, so the
/// degradation names the level rather than the finest arena.
#[test]
fn nth_alloc_fail_fires_on_the_second_reservation() {
    // 512 nodes guarantees the coarsening loop actually runs: hit 1 is
    // the level-0 pre-reservation, hit 2 the first level reservation.
    let inst = community_instance(8, 64, 4);
    let out = backend_by_name("gp")
        .unwrap()
        .partition(&inst, 7, &faulted("gp:coarsen:alloc_fail:2"))
        .unwrap();
    assert_verified(&inst, &out);
    match &out.completion {
        Completion::Degraded { phase, reason } => {
            assert_eq!(phase, "coarsen");
            assert!(reason.contains("coarsen level"), "{reason}");
        }
        Completion::Full => panic!("nth alloc_fail never fired"),
    }
}

/// The acceptance bar: a wildcard `*:*:alloc_fail` across every
/// backend × conformance instance never panics out of the boundary and
/// never aborts the process — each run ends in a typed error or a
/// verified (possibly degraded) outcome, even chained through
/// `robust_partition`.
#[test]
fn wildcard_alloc_fail_never_escapes_the_boundary() {
    let budget = faulted("*:*:alloc_fail");
    for inst in conformance_matrix(3) {
        for b in backends() {
            match b.partition(&inst, 11, &budget) {
                Ok(out) => assert_verified(&inst, &out),
                Err(e) => {
                    // typed errors are acceptable; the string form must
                    // exist (no poisoned formatting, no panic payloads)
                    assert!(!e.to_string().is_empty());
                }
            }
        }
        let r = robust_partition(&inst, 11, &budget, &[]).unwrap();
        assert_verified(&inst, &r.outcome);
    }
}
