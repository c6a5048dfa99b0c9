//! The workspace fault-injection and degradation suite.
//!
//! This is the end-to-end proof of the robustness contract: injected
//! engine panics are contained at the `Partitioner::partition` boundary
//! as typed errors, the registry fallback chain survives them, stalls
//! are cut off by deadlines, cancellation is a hard error, and — on a
//! million-node instance — a 50 ms deadline still yields a complete,
//! valid assignment in bounded time.
//!
//! Faults ride on the run's `Budget`, so a test arms them for its own
//! runs only and the suite needs no lock: its tests run in parallel.

use ppn_backend::{
    backends, robust_partition, Budget, Completion, ExhaustKind, GpBackend, PartitionError,
    PartitionInstance, Partitioner,
};
use ppn_gen::dense_community_graph;
use ppn_graph::{Constraints, FaultPlan, GraphBuilder, WeightedGraph};
use proptest::prelude::*;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// An unlimited budget carrying the fault plan `spec`.
fn faulted(spec: &str) -> Budget {
    Budget::unlimited().with_faults(FaultPlan::parse(spec).expect(spec))
}

/// A `communities × size` instance with the perf harness's generator
/// shape and comfortably satisfiable constraints.
fn community_instance(communities: usize, size: usize, k: usize) -> PartitionInstance {
    let g = dense_community_graph(communities, size, (2, 9), 12, 2, 2, 99);
    let total: u64 = g.node_weights().iter().sum();
    let cons = Constraints::new(total / k as u64 + total / 4, g.total_edge_weight());
    PartitionInstance::from_graph(format!("scaling-{}x{k}", communities * size), g, k, cons)
}

fn assert_complete(inst: &PartitionInstance, out: &ppn_backend::PartitionOutcome) {
    assert!(out.partition.is_complete(), "incomplete assignment");
    assert_eq!(out.partition.len(), inst.num_nodes());
    assert_eq!(out.partition.k(), inst.k);
}

#[test]
fn injected_panic_is_contained_as_a_typed_error() {
    let inst = community_instance(4, 16, 4);
    let err = GpBackend::default()
        .partition(&inst, 7, &faulted("gp:refine:panic"))
        .unwrap_err();
    match err {
        PartitionError::BackendPanicked { backend, message } => {
            assert_eq!(backend, "gp");
            assert!(message.contains("injected fault at gp:refine"), "{message}");
        }
        other => panic!("want BackendPanicked, got {other}"),
    }
}

/// The headline acceptance scenario, in-process: with gp's refinement
/// panicking, `robust_partition` still answers — served by rb, with the
/// gp failure on the ledger.
#[test]
fn fallback_chain_survives_an_injected_gp_panic() {
    let inst = community_instance(4, 16, 4);
    let r = robust_partition(&inst, 7, &faulted("gp:refine:panic"), &[]).unwrap();
    assert_eq!(r.served_by, "rb");
    assert!(r.fell_back());
    assert_complete(&inst, &r.outcome);
    assert_eq!(r.attempts.len(), 2);
    assert_eq!(r.attempts[0].backend, "gp");
    assert!(matches!(
        r.attempts[0].error,
        Some(PartitionError::BackendPanicked { .. })
    ));
    assert!(r.attempts[1].error.is_none());
}

#[test]
fn wildcard_fault_fails_the_whole_chain_with_a_full_ledger() {
    let inst = community_instance(4, 16, 4);
    let err = robust_partition(&inst, 7, &faulted("*:*:panic"), &[]).unwrap_err();
    match err {
        PartitionError::AllBackendsFailed { attempts } => {
            let names: Vec<&str> = attempts.iter().map(|(b, _)| b.as_str()).collect();
            assert_eq!(names, vec!["gp", "rb", "metis"]);
            for (b, e) in &attempts {
                assert!(e.contains("panicked"), "{b}: {e}");
            }
        }
        other => panic!("want AllBackendsFailed, got {other}"),
    }
}

/// A stall fault fires once, then the deadline check at the next cycle
/// boundary stops the engine: the run degrades instead of hanging.
#[test]
fn stall_fault_is_cut_off_by_the_deadline() {
    let inst = community_instance(4, 16, 4);
    let budget = faulted("gp:coarsen:stall:100ms").with_deadline(Duration::from_millis(25));
    let t0 = Instant::now();
    let out = GpBackend::default().partition(&inst, 7, &budget).unwrap();
    let elapsed = t0.elapsed();
    assert!(elapsed >= Duration::from_millis(100), "stall never fired");
    assert!(
        elapsed < Duration::from_secs(5),
        "one stall must not become many: {elapsed:?}"
    );
    assert_complete(&inst, &out);
}

#[test]
fn cancellation_is_a_hard_error_not_a_degraded_answer() {
    let flag = Arc::new(AtomicBool::new(true));
    let budget = Budget::unlimited().with_cancel(flag);
    let inst = community_instance(4, 16, 4);
    let err = GpBackend::default()
        .partition(&inst, 7, &budget)
        .unwrap_err();
    match err {
        PartitionError::BudgetExhausted {
            backend,
            phase,
            kind,
        } => {
            assert_eq!(backend, "gp");
            assert_eq!(phase, "start");
            assert_eq!(kind, ExhaustKind::Cancelled);
        }
        other => panic!("want BudgetExhausted, got {other}"),
    }
}

/// An already-expired deadline still yields a complete assignment from
/// every registry backend, each reporting how far it got.
#[test]
fn expired_deadline_degrades_every_backend_gracefully() {
    let inst = community_instance(4, 64, 4);
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    for b in backends() {
        let out = b.partition(&inst, 7, &budget).unwrap();
        assert_complete(&inst, &out);
        match &out.completion {
            Completion::Degraded { phase, reason } => {
                assert!(!phase.is_empty() && !reason.is_empty(), "{}", b.name());
            }
            Completion::Full => panic!("{} ignored an expired deadline", b.name()),
        }
    }
}

/// The issue's acceptance bar: a 50 ms deadline on scaling-1048576x8
/// returns a degraded but complete, valid gp assignment in bounded
/// time. Release-only — debug builds pay ~10× on the O(n) fallback
/// tail, which measures the compiler, not the contract.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "million-node deadline scenario is calibrated for release builds (CI robustness job)"
)]
fn fifty_ms_deadline_on_a_million_nodes_degrades_in_bounded_time() {
    let inst = community_instance(128, 8192, 8);
    assert_eq!(inst.num_nodes(), 1_048_576);
    let deadline = Duration::from_millis(50);
    let budget = Budget::unlimited().with_deadline(deadline);
    let t0 = Instant::now();
    let out = GpBackend::default().partition(&inst, 7, &budget).unwrap();
    let elapsed = t0.elapsed();
    assert_complete(&inst, &out);
    assert!(
        out.completion.is_degraded(),
        "50ms cannot complete a million-node run"
    );
    // The post-expiry tail is the fixed O(V + E) cost of a validated,
    // measured answer: instance validation, the contiguous fill, and
    // two quality measurements over ~3M edges (≈150 ms on this shape in
    // release). The slack covers that plus CI scheduling noise.
    let bound = deadline * 2 + Duration::from_millis(600);
    assert!(elapsed <= bound, "tail too long: {elapsed:?} > {bound:?}");
}

/// Faults are scoped to the run that carries them: two threads released
/// together run gp on one instance, and only the one whose budget
/// carries the plan sees it — the other returns the solo run's answer.
#[test]
fn faults_stay_on_the_budget_that_carries_them() {
    let inst = community_instance(4, 64, 4);
    let solo = GpBackend::default()
        .partition(&inst, 7, &Budget::unlimited())
        .unwrap();
    let barrier = Barrier::new(2);
    let run = |budget: Budget| {
        barrier.wait();
        GpBackend::default().partition(&inst, 7, &budget)
    };
    let (faulty, clean) = std::thread::scope(|s| {
        let faulty = s.spawn(|| run(faulted("gp:refine:panic")));
        let clean = s.spawn(|| run(Budget::unlimited()));
        (faulty.join().unwrap(), clean.join().unwrap())
    });
    match faulty {
        Err(PartitionError::BackendPanicked { backend, message }) => {
            assert_eq!(backend, "gp");
            assert!(message.contains("injected fault at gp:refine"), "{message}");
        }
        other => panic!("want BackendPanicked, got {other:?}"),
    }
    assert!(
        clean.unwrap().same_result(&solo),
        "the clean run saw a fault"
    );
}

/// A generous deadline or a never-binding memory ledger must not change
/// the answer: budgeted and unbudgeted runs are bit-identical when no
/// checkpoint ever fires, and the ledger drains to zero afterwards.
#[test]
fn generous_deadline_is_bit_identical_to_unlimited() {
    let inst = community_instance(4, 64, 4);
    for b in backends() {
        let plain = b.partition(&inst, 7, &Budget::unlimited()).unwrap();
        for generous in [
            Budget::unlimited().with_deadline(Duration::from_secs(600)),
            Budget::unlimited().with_max_bytes(64 << 30),
        ] {
            let budgeted = b.partition(&inst, 7, &generous).unwrap();
            assert!(plain.same_result(&budgeted), "{} drifted", b.name());
            assert_eq!(budgeted.completion, Completion::Full, "{}", b.name());
            if let Some(ledger) = generous.memory_ledger() {
                assert_eq!(ledger.used(), 0, "{} leaked ledger bytes", b.name());
            }
        }
    }
}

/// Random well-formed-ish graph with adversarial shape parameters:
/// isolated nodes, chains, near-cliques, extreme weights.
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (1usize..24, any::<u64>(), 1u64..1_000_000, 0u64..8).prop_map(|(n, mask, wmax, density)| {
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_node(1 + mask.rotate_left(i as u32 * 7) % wmax))
            .collect();
        let mut bit = 0u32;
        for i in 0..n {
            for j in (i + 1)..n {
                bit = bit.wrapping_add(11);
                if mask.rotate_left(bit) % 8 < density {
                    let w = 1 + mask.rotate_right(bit) % 50;
                    let _ = g.add_edge(ids[i], ids[j], w);
                }
            }
        }
        g.build()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The never-panic family: every registry backend, fed mutated
    /// instances (degenerate k, zero or hostile constraints, random
    /// deadlines), either answers with a complete assignment or returns
    /// a typed one-line error. Nothing unwinds past the boundary.
    #[test]
    fn no_backend_panics_on_mutated_instances(
        g in arb_graph(),
        k in 0usize..28,
        rmax in 0u64..2_000_000,
        bmax in 0u64..2_000_000,
        seed in any::<u64>(),
        deadline_us in 0u64..2_000,
    ) {
        let n = g.num_nodes();
        let inst = PartitionInstance::from_graph("fuzz", g, k, Constraints::new(rmax, bmax));
        let budget = Budget::unlimited().with_deadline(Duration::from_micros(deadline_us));
        for b in backends() {
            match b.partition(&inst, seed, &budget) {
                Ok(out) => {
                    prop_assert!(out.partition.is_complete(), "{}", b.name());
                    prop_assert_eq!(out.partition.len(), n, "{}", b.name());
                }
                Err(e) => {
                    prop_assert!(
                        matches!(e, PartitionError::InvalidInstance { .. }),
                        "{}: unexpected {e}",
                        b.name()
                    );
                    prop_assert!(!e.to_string().contains('\n'), "{}", b.name());
                }
            }
        }
    }
}
