//! The workspace observability suite: proofs that the `ppn_graph::trace`
//! subsystem observes without perturbing.
//!
//! Three contracts are pinned here:
//!
//! 1. **Heisenberg-free**: arming the collector changes *nothing* about
//!    the computed partitions — armed and disarmed runs are bit-identical
//!    across the conformance matrix, every registry backend, and seeds.
//! 2. **Well-formed under stress**: span trees stay balanced (every
//!    `Begin` has its `End`, per thread, properly nested) even when a
//!    fault-injected panic unwinds through an engine or a zero deadline
//!    degrades the run — the RAII guards emit `End` on unwind.
//! 3. **Views agree**: the serde-stable `PhaseSeconds`/`PhaseTiming`
//!    numbers are accumulated at the same sites that emit spans, so a
//!    session's span totals and the reported phase seconds must agree.
//!
//! The collector is process-global, so every test serialises on
//! [`TRACE_LOCK`] and stops the session via RAII even on assertion
//! failure.

use ppn_backend::{
    backends, conformance_matrix, robust_partition, Budget, GpBackend, PartitionError,
    PartitionInstance, Partitioner,
};
use ppn_graph::trace::{self, Ph, TraceConfig, TraceFormat, TraceSession};
use ppn_graph::{Constraints, FaultPlan};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Serialises every test that arms the process-global collector.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Lock + arm the collector; the session is harvested by [`Armed::stop`]
/// or discarded on drop (including panic unwinds) so a failing test
/// never leaves the collector armed for its neighbours.
struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>, bool);

fn arm(cfg: TraceConfig) -> Armed {
    let guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::start(cfg);
    Armed(guard, true)
}

impl Armed {
    fn stop(mut self) -> TraceSession {
        self.1 = false;
        trace::stop()
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        if self.1 {
            let _ = trace::stop();
        }
    }
}

fn small_instance(k: usize) -> PartitionInstance {
    let g = ppn_gen::dense_community_graph(4, 64, (2, 9), 12, 2, 2, 99);
    let total: u64 = g.node_weights().iter().sum();
    let cons = Constraints::new(total / k as u64 + total / 4, g.total_edge_weight());
    PartitionInstance::from_graph("trace-suite", g, k, cons)
}

/// Contract 1: tracing is observation, not perturbation. Every backend
/// on every conformance instance under two seeds produces the same
/// partition, cost, and report with the collector armed as disarmed.
#[test]
fn armed_and_disarmed_runs_are_bit_identical() {
    let guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for seed in [7u64, 0xC0FFEE] {
        for inst in conformance_matrix(seed) {
            for b in backends() {
                let plain = b.partition(&inst, seed, &Budget::unlimited()).unwrap();
                trace::start(TraceConfig::default());
                let traced = b.partition(&inst, seed, &Budget::unlimited());
                let session = trace::stop();
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
    drop(guard);
}

/// Contract 2a: the span tree of a healthy parallel gp run is balanced
/// and carries the vocabulary the chrome export nests by.
#[test]
fn gp_span_tree_is_well_formed_and_nested() {
    let inst = small_instance(4);
    let armed = arm(TraceConfig::default());
    let out = GpBackend::default()
        .partition(&inst, 7, &Budget::unlimited())
        .unwrap();
    let session = armed.stop();
    assert!(out.partition.is_complete());
    session.validate_well_formed().unwrap();

    let begun: std::collections::BTreeSet<&str> = session
        .events
        .iter()
        .filter(|e| e.ph == Ph::Begin)
        .map(|e| e.name)
        .collect();
    for expected in ["partition", "cycle", "coarsen", "initial", "refine", "pass"] {
        assert!(begun.contains(expected), "missing span `{expected}`");
    }
    // cycle spans nest inside the partition span on the caller thread
    // (tids are process-global registration order, so anchor on the
    // root span's own tid): its Begin opens the thread's stream and its
    // End closes it, in seq order
    let root_tid = session
        .events
        .iter()
        .find(|e| e.name == "partition" && e.ph == Ph::Begin)
        .expect("partition Begin")
        .tid;
    let caller: Vec<_> = session
        .events
        .iter()
        .filter(|e| e.tid == root_tid)
        .collect();
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
    use ppn_graph::WeightedGraph;

    let mut g = WeightedGraph::new();
    let ids: Vec<_> = (0..12).map(|_| g.add_node(2)).collect();
    for base in [0usize, 6] {
        for i in 0..6 {
            for j in (i + 1)..6 {
                g.add_edge(ids[base + i], ids[base + j], 10).unwrap();
            }
        }
    }
    g.add_edge(ids[0], ids[6], 1).unwrap();
    // alternating assignment cuts both cliques to shreds: every node
    // has a strictly improving move toward its clique's majority
    let mut p = ppn_graph::Partition::unassigned(12, 2);
    for (i, &v) in ids.iter().enumerate() {
        p.assign(v, (i % 2) as u32);
    }
    let c = Constraints::new(1000, 1000);

    let armed = arm(TraceConfig::default());
    constrained_refine(
        &g,
        &mut p,
        &c,
        &RefineOptions {
            max_passes: 8,
            seed: 7,
            protect_nonempty: true,
        },
    );
    let session = armed.stop();

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
    let armed = arm(TraceConfig::default());
    let inst = small_instance(4);
    let budget = Budget::unlimited().with_faults(FaultPlan::parse("gp:refine:panic").unwrap());
    let r = robust_partition(&inst, 7, &budget, &[]);
    let session = armed.stop();

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
    let armed = arm(TraceConfig::default());
    let out = GpBackend::default()
        .partition(&inst, 7, &Budget::unlimited().with_deadline(Duration::ZERO))
        .unwrap();
    let session = armed.stop();
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
    let armed = arm(TraceConfig {
        max_events_per_thread: 64,
    });
    let out = GpBackend::default()
        .partition(&inst, 7, &Budget::unlimited())
        .unwrap();
    let session = armed.stop();
    assert!(out.partition.is_complete());
    assert!(session.dropped > 0, "a 64-event cap must drop on this run");
    session.validate_well_formed().unwrap();
}

/// Contract 3: the retired timing structs are views over the same
/// clock reads that produce spans — the reported phase seconds and the
/// session's span totals must agree.
#[test]
fn phase_timings_agree_with_span_totals() {
    let inst = small_instance(4);
    let armed = arm(TraceConfig::default());
    let out = GpBackend::default()
        .partition(&inst, 7, &Budget::unlimited())
        .unwrap();
    let session = armed.stop();
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
    let armed = arm(TraceConfig::default());
    GpBackend::default()
        .partition(&inst, 7, &Budget::unlimited())
        .unwrap();
    let session = armed.stop();

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
