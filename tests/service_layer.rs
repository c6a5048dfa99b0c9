//! The service-layer suite: batch driver + incremental repartitioning.
//!
//! The partition-as-a-service surface makes three promises this file
//! proves end to end:
//!
//! * **batching changes nothing** — a batch of one is bit-identical to
//!   a single `robust_partition` run, and re-running a batch reproduces
//!   it exactly;
//! * **the shared budget is really shared** — an expired deadline or a
//!   tight memory cap degrades every item the same way it would degrade
//!   a single run, the batch itself never errors, and the shared ledger
//!   drains back to zero;
//! * **warm starts are as robust as cold ones** — `repartition` under
//!   panic/alloc-fault injection at its planted `repart:warm_start`
//!   site returns typed errors or degraded outcomes, never an escaping
//!   panic, and a proptest family over random drift deltas × seeds
//!   keeps the incremental answer verified and within tolerance of a
//!   from-scratch solve of the same successor instance.
//!
//! Faults ride on the run's `Budget`, so a test arms them for its own
//! runs only and the suite needs no lock: its tests run in parallel.

use ppn_backend::{
    incremental_matrix, reference_verify, repartition, robust_partition, BatchSession, Budget,
    Completion, GraphDelta, PartitionError, PartitionInstance, RepartitionOptions,
};
use ppn_gen::{community_graph, drift_delta};
use ppn_graph::{Constraints, FaultPlan};
use proptest::prelude::*;
use std::time::Duration;

/// An unlimited budget carrying the fault plan `spec`.
fn faulted(spec: &str) -> Budget {
    Budget::unlimited().with_faults(FaultPlan::parse(spec).expect(spec))
}

fn planted(name: &str, communities: usize, size: usize, seed: u64) -> PartitionInstance {
    let g = community_graph(communities, size, 3, 9, 1, seed);
    let total = g.total_node_weight();
    let c = Constraints::new(
        (total as f64 / communities as f64 * 1.5).ceil() as u64,
        g.total_edge_weight() / 2,
    );
    PartitionInstance::from_graph(name, g, communities, c)
}

// ---------------------------------------------------------------------
// batch determinism
// ---------------------------------------------------------------------

/// A batch of one is the single run, bit for bit — same partition, same
/// cost report, same completion.
#[test]
fn batch_of_one_is_the_single_run() {
    let single = robust_partition(&planted("a", 4, 12, 5), 9, &Budget::unlimited(), &[]).unwrap();
    let mut session = BatchSession::new(Budget::unlimited());
    session.push(planted("a", 4, 12, 5));
    let summary = session.run(9).unwrap();
    let batched = summary.items[0].result.as_ref().unwrap();
    assert_eq!(batched.outcome, single.outcome);
    assert_eq!(batched.served_by, single.served_by);
}

/// Re-running the same batch reproduces every item exactly.
#[test]
fn batches_are_reproducible() {
    let run = |seed: u64| {
        let mut session = BatchSession::new(Budget::unlimited());
        for (i, communities) in [2usize, 3, 4].into_iter().enumerate() {
            session.push(planted(&format!("i{i}"), communities, 10, 40 + i as u64));
        }
        session.run(seed).unwrap()
    };
    let (a, b) = (run(11), run(11));
    assert_eq!(a.served, b.served);
    for (x, y) in a.items.iter().zip(&b.items) {
        let (ox, oy) = (x.result.as_ref().unwrap(), y.result.as_ref().unwrap());
        assert_eq!(ox.outcome, oy.outcome, "item {} not reproducible", x.name);
    }
}

// ---------------------------------------------------------------------
// shared budget
// ---------------------------------------------------------------------

/// One expired deadline degrades every item — the batch still serves
/// complete, verified assignments rather than erroring.
#[test]
fn expired_shared_deadline_degrades_every_item() {
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    std::thread::sleep(Duration::from_millis(2));
    let mut session = BatchSession::new(budget);
    let instances: Vec<_> = (0..3)
        .map(|i| planted(&format!("i{i}"), 3, 16, i as u64))
        .collect();
    for inst in instances.iter().cloned() {
        session.push(inst);
    }
    let summary = session.run(7).unwrap();
    assert_eq!(summary.served, 3, "deadline expiry must degrade, not fail");
    assert_eq!(summary.degraded, 3);
    for (item, inst) in summary.items.iter().zip(&instances) {
        let r = item.result.as_ref().unwrap();
        assert!(r.outcome.completion.is_degraded(), "{}", item.name);
        reference_verify(inst, &r.outcome).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// A tight shared memory cap degrades later items exactly like earlier
/// ones, and the shared ledger drains back to zero after the batch.
#[test]
fn tight_shared_memory_cap_degrades_and_drains() {
    let budget = Budget::unlimited().with_max_bytes(8 * 1024);
    let mut session = BatchSession::new(budget.clone());
    for i in 0..3 {
        session.push(planted(&format!("i{i}"), 4, 32, 60 + i));
    }
    let summary = session.run(7).unwrap();
    assert_eq!(summary.served, 3);
    assert!(
        summary.degraded > 0,
        "an 8 KiB cap must cut at least one 128-node run short"
    );
    let ledger = budget.memory_ledger().expect("ledger attached");
    assert_eq!(
        ledger.used(),
        0,
        "batch leaked {} ledger bytes",
        ledger.used()
    );
}

// ---------------------------------------------------------------------
// warm-start robustness under fault injection
// ---------------------------------------------------------------------

fn solved(inst: &PartitionInstance) -> ppn_graph::Partition {
    robust_partition(inst, 7, &Budget::unlimited(), &[])
        .unwrap()
        .outcome
        .partition
}

fn small_drift(inst: &PartitionInstance, seed: u64) -> GraphDelta {
    drift_delta(&inst.graph, 0.05, true, seed)
}

/// A panic planted at the warm-start site surfaces as
/// `BackendPanicked`, never as an escaping panic.
#[test]
fn warm_start_panic_is_contained() {
    let base = planted("p", 3, 16, 21);
    let prev = solved(&base);
    let err = repartition(
        &base,
        &prev,
        &small_drift(&base, 1),
        &RepartitionOptions::default(),
        7,
        &faulted("repart:warm_start:panic"),
    )
    .unwrap_err();
    match err {
        PartitionError::BackendPanicked { backend, .. } => assert_eq!(backend, "repart"),
        other => panic!("expected BackendPanicked, got {other:?}"),
    }
}

/// An allocation fault at the warm-start site degrades to the placed
/// projection with a memory-worded reason — complete, verified, warm.
#[test]
fn warm_start_alloc_fail_degrades_not_aborts() {
    let base = planted("m", 3, 16, 22);
    let prev = solved(&base);
    let r = repartition(
        &base,
        &prev,
        &small_drift(&base, 2),
        &RepartitionOptions::default(),
        7,
        &faulted("repart:warm_start:alloc_fail"),
    )
    .unwrap();
    assert!(r.warm_start);
    assert!(r.outcome.partition.is_complete());
    match &r.outcome.completion {
        Completion::Degraded { reason, .. } => assert!(reason.contains("memory"), "{reason}"),
        Completion::Full => panic!("injected allocation failure was ignored"),
    }
    reference_verify(&r.instance, &r.outcome).unwrap_or_else(|e| panic!("{e}"));
}

/// The wildcard fault sweep: with `alloc_fail` armed everywhere, every
/// incremental-matrix cell either errors typed or serves a verified
/// outcome — nothing panics out of `repartition`.
#[test]
fn wildcard_alloc_fail_never_escapes_repartition() {
    let budget = faulted("*:*:alloc_fail");
    for (base, delta) in incremental_matrix(13) {
        let prev = match robust_partition(&base, 7, &budget, &[]) {
            Ok(r) => r.outcome.partition,
            Err(e) => {
                assert!(!e.to_string().is_empty());
                continue;
            }
        };
        match repartition(
            &base,
            &prev,
            &delta,
            &RepartitionOptions::default(),
            7,
            &budget,
        ) {
            Ok(r) => {
                assert!(r.outcome.partition.is_complete(), "{}", base.name);
                reference_verify(&r.instance, &r.outcome).unwrap_or_else(|e| panic!("{e}"));
            }
            Err(e) => assert!(!e.to_string().is_empty()),
        }
    }
}

// ---------------------------------------------------------------------
// incremental ≈ from-scratch
// ---------------------------------------------------------------------

/// The differential check one `(base, delta, seed)` cell: warm-start
/// repartitioning must verify, report migration against the projection,
/// and land within tolerance of a from-scratch solve of the same
/// successor instance.
fn check_incremental_vs_scratch(base: &PartitionInstance, delta: &GraphDelta, seed: u64) {
    let prev = robust_partition(base, seed, &Budget::unlimited(), &[])
        .unwrap()
        .outcome
        .partition;
    // λ = 1000 chases the cut as hard as a cold run — the quality
    // comparison is then apples to apples
    let opts = RepartitionOptions {
        lambda_permille: 1000,
        ..RepartitionOptions::default()
    };
    let warm = repartition(base, &prev, delta, &opts, seed, &Budget::unlimited()).unwrap();
    assert!(warm.warm_start, "{}: delta should stay warm", base.name);
    reference_verify(&warm.instance, &warm.outcome).unwrap_or_else(|e| panic!("{e}"));
    let mig = warm
        .outcome
        .cost
        .migration
        .as_ref()
        .expect("always populated");
    assert_eq!(mig.total, warm.instance.graph.total_node_weight());
    assert!(mig.mass <= mig.total);

    // the "do nothing" baseline: λ = 0 pins every surviving node to its
    // previous part, so its cut is the projected assignment's cut
    let pinned = repartition(
        base,
        &prev,
        delta,
        &RepartitionOptions {
            lambda_permille: 0,
            ..RepartitionOptions::default()
        },
        seed,
        &Budget::unlimited(),
    )
    .unwrap();
    let scratch = robust_partition(&warm.instance, seed, &Budget::unlimited(), &[]).unwrap();
    let (wc, sc, pc) = (
        warm.outcome.cost.objective,
        scratch.outcome.cost.objective,
        pinned.outcome.cost.objective,
    );
    // ε: within 30% plus small additive slack of the better of a fresh
    // multilevel solve and the projected prior. The warm start inherits
    // the previous run's local optimum — when that optimum is good
    // (the service steady state) this binds against scratch; when an
    // unlucky seed made it poor, refining it still must not lose to
    // leaving it alone.
    let bar = (sc as f64 * 1.30 + 8.0).max(pc as f64);
    assert!(
        wc as f64 <= bar,
        "{}: warm cut {wc} above tolerance (scratch {sc}, projected {pc})",
        base.name
    );
    // determinism: the warm path reproduces itself
    let again = repartition(base, &prev, delta, &opts, seed, &Budget::unlimited()).unwrap();
    assert_eq!(again.outcome.partition, warm.outcome.partition);
}

/// The fixed incremental conformance family.
#[test]
fn incremental_matrix_is_within_tolerance_of_scratch() {
    for (base, delta) in incremental_matrix(0xC0FFEE) {
        check_incremental_vs_scratch(&base, &delta, 7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random drift deltas × graph shapes × seeds: the warm answer
    /// stays verified, deterministic, and within tolerance of scratch.
    #[test]
    fn random_drift_stays_within_tolerance(
        communities in 2usize..5,
        size in 8usize..20,
        graph_seed in 0u64..500,
        drift_seed in 0u64..500,
        structural in 0u8..2,
    ) {
        let base = planted("prop", communities, size, graph_seed);
        let delta = drift_delta(&base.graph, 0.05, structural == 1, drift_seed);
        check_incremental_vs_scratch(&base, &delta, graph_seed ^ drift_seed);
    }
}
