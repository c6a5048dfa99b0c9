//! The workspace observability suite: proofs that the `ppn_graph::trace`
//! subsystem observes without perturbing.
//!
//! Four contracts are pinned here:
//!
//! 1. **Heisenberg-free**: recording a run changes *nothing* about the
//!    computed partitions — traced and untraced runs are bit-identical
//!    across the conformance matrix, every registry backend, and seeds.
//! 2. **Well-formed under stress**: span trees stay balanced (every
//!    `Begin` has its `End`, per thread, properly nested) even when a
//!    fault-injected panic unwinds through an engine or a zero deadline
//!    degrades the run — the RAII guards emit `End` on unwind.
//! 3. **Views agree**: the serde-stable `PhaseSeconds`/`PhaseTiming`
//!    numbers are accumulated at the same sites that emit spans, so a
//!    session's span totals and the reported phase seconds must agree.
//! 4. **Run-scoped**: a session holds only the run that opened it —
//!    runs on other threads, traced or not, never land in it — and its
//!    thread ids are its own, starting at 0.
//!
//! Every session belongs to the test that opened it with
//! [`trace::collect`], so the tests run in parallel with no lock.

use ppn_backend::{
    backends, conformance_matrix, repartition, robust_partition, Budget, GpBackend, KwayBackend,
    PartitionError, PartitionInstance, PartitionOutcome, Partitioner, RepartitionOptions,
};
use ppn_graph::trace::{self, Ph, TraceConfig, TraceFormat, TraceSession};
use ppn_graph::{Constraints, FaultPlan, GraphDelta};
use std::collections::BTreeSet;
use std::sync::Barrier;
use std::time::Duration;

fn instance(communities: usize, size: usize, k: usize) -> PartitionInstance {
    let g = ppn_gen::dense_community_graph(communities, size, (2, 9), 12, 2, 2, 99);
    let total: u64 = g.node_weights().iter().sum();
    let cons = Constraints::new(total / k as u64 + total / 4, g.total_edge_weight());
    PartitionInstance::from_graph("trace-suite", g, k, cons)
}

fn small_instance(k: usize) -> PartitionInstance {
    instance(4, 64, k)
}

/// One gp run under `budget`, recorded into a session of its own.
fn traced_gp(
    inst: &PartitionInstance,
    budget: &Budget,
) -> (Result<PartitionOutcome, PartitionError>, TraceSession) {
    trace::collect(TraceConfig::default(), || {
        GpBackend::default().partition(inst, 7, budget)
    })
}

/// Contract 1: tracing is observation, not perturbation. Every backend
/// on every conformance instance under two seeds produces the same
/// partition, cost, and report traced as untraced.
#[test]
fn armed_and_disarmed_runs_are_bit_identical() {
    for seed in [7u64, 0xC0FFEE] {
        for inst in conformance_matrix(seed) {
            for b in backends() {
                let plain = b.partition(&inst, seed, &Budget::unlimited()).unwrap();
                let (traced, session) = trace::collect(TraceConfig::default(), || {
                    b.partition(&inst, seed, &Budget::unlimited())
                });
                let traced = traced.unwrap();
                assert!(
                    plain.same_result(&traced),
                    "{} drifted under tracing on {} (seed {seed})",
                    b.name(),
                    inst.name
                );
                assert!(
                    session.event_count() > 0,
                    "{} on {} emitted no events",
                    b.name(),
                    inst.name
                );
                session.validate_well_formed().unwrap();
            }
        }
    }
}

/// Contract 2a: the span tree of a healthy parallel gp run is balanced
/// and carries the vocabulary the chrome export nests by.
#[test]
fn gp_span_tree_is_well_formed_and_nested() {
    let inst = small_instance(4);
    let (out, session) = traced_gp(&inst, &Budget::unlimited());
    assert!(out.unwrap().partition.is_complete());
    session.validate_well_formed().unwrap();

    let begun: BTreeSet<&str> = session
        .events
        .iter()
        .filter(|e| e.ph == Ph::Begin)
        .map(|e| e.name)
        .collect();
    // restarts and tournament entrants run on workers when parallel and
    // reach the session through its scope
    for expected in [
        "partition",
        "cycle",
        "coarsen",
        "initial",
        "refine",
        "pass",
        "restart",
        "matching_entrant",
    ] {
        assert!(begun.contains(expected), "missing span `{expected}`");
    }
    // cycle spans nest inside the partition span on the collecting
    // thread (tid 0): its Begin opens the thread's stream and its End
    // closes it, in seq order
    let caller: Vec<_> = session.events.iter().filter(|e| e.tid == 0).collect();
    let first_span = caller.iter().find(|e| e.ph == Ph::Begin).unwrap();
    assert_eq!(first_span.name, "partition", "root span must open first");
    let last_end = caller.iter().rev().find(|e| e.ph == Ph::End).unwrap();
    assert_eq!(last_end.name, "partition", "root span must close last");

    // the counters the issue names are all present on a real run
    let counter = |name: &str| {
        session
            .counters
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("missing counter `{name}`"))
    };
    assert!(counter("budget_checkpoint").sum > 0);
    let evaluated = counter("moves_evaluated").sum;
    let committed = counter("moves_committed").sum;
    assert!(committed <= evaluated, "{committed} > {evaluated}");
    assert!(counter("boundary_nodes").sum > 0);
}

/// Gain histograms are recorded per committed move, aggregated in
/// fixed-size buckets, and never leak into the event stream. A
/// deliberately bad alternating assignment on two cliques guarantees
/// committed moves.
#[test]
fn gain_histograms_record_committed_moves() {
    use gp_core::refine::{constrained_refine, RefineOptions};
    use ppn_graph::GraphBuilder;

    let mut g = GraphBuilder::new();
    let ids: Vec<_> = (0..12).map(|_| g.add_node(2)).collect();
    for base in [0usize, 6] {
        for i in 0..6 {
            for j in (i + 1)..6 {
                g.add_edge(ids[base + i], ids[base + j], 10).unwrap();
            }
        }
    }
    g.add_edge(ids[0], ids[6], 1).unwrap();
    let g = g.build();
    // alternating assignment cuts both cliques to shreds: every node
    // has a strictly improving move toward its clique's majority
    let mut p = ppn_graph::Partition::unassigned(12, 2);
    for (i, &v) in ids.iter().enumerate() {
        p.assign(v, (i % 2) as u32);
    }
    let c = Constraints::new(1000, 1000);

    let (_, session) = trace::collect(TraceConfig::default(), || {
        constrained_refine(
            &g,
            &mut p,
            &c,
            &RefineOptions {
                max_passes: 8,
                seed: 7,
                protect_nonempty: true,
            },
        )
    });

    let committed: u64 = session
        .counters
        .iter()
        .filter(|c| c.name == "moves_committed")
        .map(|c| c.sum)
        .sum();
    assert!(committed > 0, "the alternating assignment must move");
    let gains = session
        .hists
        .iter()
        .find(|h| h.name == "gain_dcut")
        .expect("missing gain_dcut histogram");
    assert_eq!(gains.hist.count, committed, "one sample per commit");
    assert!(gains.hist.min < 0, "clique-repair moves cut the cut");
    assert!(
        session.hists.iter().any(|h| h.name == "gain_dviol"),
        "missing gain_dviol histogram"
    );
    assert!(
        !session.events.iter().any(|e| e.name == "gain_dcut"),
        "histograms must not appear in the event stream"
    );
}

/// Contract 2b: a fault-injected panic unwinding through gp's refinement
/// leaves a balanced span tree (RAII Ends fire on unwind), and the
/// robust driver's ledger shows up as trace events.
#[test]
fn span_tree_survives_an_injected_panic_and_records_the_ledger() {
    let inst = small_instance(4);
    let budget = Budget::unlimited().with_faults(FaultPlan::parse("gp:refine:panic").unwrap());
    let (r, session) = trace::collect(TraceConfig::default(), || {
        robust_partition(&inst, 7, &budget, &[])
    });

    let r = r.unwrap();
    assert_eq!(r.served_by, "rb");
    assert!(r.attempts[0].seconds >= 0.0);
    assert!(matches!(
        r.attempts[0].error,
        Some(PartitionError::BackendPanicked { .. })
    ));
    session.validate_well_formed().unwrap();
    let names: Vec<&str> = session.events.iter().map(|e| e.name).collect();
    assert!(names.contains(&"chain"), "robust chain span missing");
    assert!(names.contains(&"gp"), "failed gp attempt span missing");
    assert!(names.contains(&"rb"), "serving rb attempt span missing");
    let failed = session
        .events
        .iter()
        .find(|e| e.name == "attempt_failed")
        .expect("attempt_failed instant missing");
    assert_eq!(failed.ph, Ph::Instant);
    assert!(
        failed.label.as_deref().unwrap_or("").contains("panicked"),
        "failure label should carry the error text: {:?}",
        failed.label
    );
    assert!(names.contains(&"served"), "served instant missing");
    let fallbacks = session
        .counters
        .iter()
        .find(|c| c.name == "fallback_attempts")
        .expect("fallback_attempts counter missing");
    assert_eq!(fallbacks.sum, 1);
}

/// Contract 2c: a zero deadline degrades the run; the span tree is
/// still balanced and the degradation shows as a labelled instant.
#[test]
fn span_tree_survives_a_budget_degraded_run() {
    let inst = small_instance(4);
    let (out, session) = traced_gp(&inst, &Budget::unlimited().with_deadline(Duration::ZERO));
    let out = out.unwrap();
    assert!(out.completion.is_degraded());
    assert!(out.partition.is_complete());
    session.validate_well_formed().unwrap();
    assert!(
        session
            .events
            .iter()
            .any(|e| e.name == "degraded" && e.ph == Ph::Instant),
        "degraded instant missing"
    );
}

/// Contract 2d: a tiny per-thread cap drops events but never corrupts
/// the tree — a span whose Begin was dropped suppresses its End.
#[test]
fn capped_buffers_drop_gracefully_on_a_real_run() {
    let inst = small_instance(4);
    let cap = TraceConfig {
        max_events_per_thread: 64,
    };
    let (out, session) = trace::collect(cap, || {
        GpBackend::default().partition(&inst, 7, &Budget::unlimited())
    });
    assert!(out.unwrap().partition.is_complete());
    assert!(session.dropped > 0, "a 64-event cap must drop on this run");
    session.validate_well_formed().unwrap();
}

/// Contract 3: the retired timing structs are views over the same
/// clock reads that produce spans — the reported phase seconds and the
/// session's span totals must agree.
#[test]
fn phase_timings_agree_with_span_totals() {
    let inst = small_instance(4);
    let (out, session) = traced_gp(&inst, &Budget::unlimited());
    let out = out.unwrap();
    let totals = session.span_totals();
    let span_s = |name: &str| {
        totals
            .iter()
            .filter(|s| s.cat == "gp" && s.name == name)
            .map(|s| s.total_us as f64 / 1e6)
            .sum::<f64>()
    };
    for t in &out.timings {
        if t.phase == "total" {
            continue;
        }
        let spans = span_s(&t.phase);
        let diff = (spans - t.seconds).abs();
        // same sites, same clock — only µs-truncation and the guard's
        // own epilogue separate them
        assert!(
            diff < 0.05,
            "phase `{}`: timing {:.6}s vs spans {:.6}s",
            t.phase,
            t.seconds,
            spans
        );
    }
}

/// The sinks stay in sync with the event model: every format renders a
/// real multi-thread session, chrome B/E counts balance, and jsonl
/// lines parse.
#[test]
fn sinks_render_a_real_session() {
    let inst = small_instance(4);
    let (out, session) = traced_gp(&inst, &Budget::unlimited());
    out.unwrap();

    let chrome = session.render(TraceFormat::Chrome);
    let doc: serde_json::Value = serde_json::from_str(&chrome).expect("chrome JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents");
    let count = |p: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some(p))
            .count()
    };
    assert_eq!(count("B"), count("E"));
    assert!(count("B") > 0);

    let jsonl = session.render(TraceFormat::Jsonl);
    // meta line + one line per event
    assert_eq!(jsonl.lines().count(), session.event_count() + 1);
    for line in jsonl.lines() {
        let _: serde_json::Value = serde_json::from_str(line).expect(line);
    }

    let summary = session.render(TraceFormat::Summary);
    assert!(summary.starts_with("trace summary:"));
    assert!(summary.contains("gp/partition"));
}

/// Contract 4a: a session holds only the run that opened it. Two
/// threads released together each trace a gp run on an instance of its
/// own size while a third runs gp untraced; each session holds exactly
/// one `gp:partition` root, carrying its own node count, and validates.
#[test]
fn concurrent_sessions_hold_only_their_own_run() {
    let traced = [instance(4, 64, 4), instance(3, 40, 4)];
    let untraced = instance(5, 48, 4);
    for round in 0..3 {
        let start = Barrier::new(3);
        std::thread::scope(|threads| {
            let runs: Vec<_> = traced
                .iter()
                .map(|inst| {
                    let start = &start;
                    threads.spawn(move || {
                        start.wait();
                        let (out, session) = traced_gp(inst, &Budget::unlimited());
                        out.unwrap();
                        (inst.num_nodes() as i64, session)
                    })
                })
                .collect();
            threads.spawn(|| {
                start.wait();
                GpBackend::default()
                    .partition(&untraced, 7, &Budget::unlimited())
                    .unwrap();
            });
            for run in runs {
                let (nodes, session) = run.join().unwrap();
                let roots: Vec<i64> = session
                    .events
                    .iter()
                    .filter(|e| (e.cat, e.name, e.ph) == ("gp", "partition", Ph::Begin))
                    .map(|e| e.arg)
                    .collect();
                assert_eq!(roots, [nodes], "round {round}: foreign gp roots");
                session.validate_well_formed().unwrap();
            }
        });
    }
}

/// Contract 4b: thread ids belong to the session, so two identical
/// traced runs in one process yield the same tid set, starting at the
/// collecting thread's 0.
#[test]
fn identical_runs_yield_the_same_tid_set() {
    let inst = small_instance(4);
    let tids = || {
        let (out, session) = traced_gp(&inst, &Budget::unlimited());
        out.unwrap();
        session
            .events
            .iter()
            .map(|e| e.tid)
            .collect::<BTreeSet<u32>>()
    };
    let first = tids();
    assert_eq!(first.first(), Some(&0));
    assert_eq!(tids(), first);
}

/// `Budget::checkpoint` counts itself under its engine: kway asks
/// before bisection and before refinement, a warm repartition once
/// before its refinement.
#[test]
fn budget_checkpoints_are_counted_under_their_engine() {
    let checkpoints = |session: &TraceSession, engine: &str| {
        session
            .counters
            .iter()
            .filter(|c| c.cat == engine && c.name == "budget_checkpoint")
            .map(|c| c.sum)
            .sum::<u64>()
    };
    let inst = small_instance(4);
    let (out, session) = trace::collect(TraceConfig::default(), || {
        KwayBackend::default().partition(&inst, 7, &Budget::unlimited())
    });
    out.unwrap();
    assert_eq!(checkpoints(&session, "kway"), 2);

    let prev = GpBackend::default()
        .partition(&inst, 7, &Budget::unlimited())
        .unwrap()
        .partition;
    let delta = GraphDelta {
        node_drift: vec![(3, 5)],
        ..GraphDelta::default()
    };
    let (r, session) = trace::collect(TraceConfig::default(), || {
        repartition(
            &inst,
            &prev,
            &delta,
            &RepartitionOptions::default(),
            7,
            &Budget::unlimited(),
        )
    });
    assert!(r.unwrap().warm_start, "a one-node drift must start warm");
    assert_eq!(checkpoints(&session, "repart"), 1);
}
