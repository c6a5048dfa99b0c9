//! The three workloads, each as an untraced measured run (end-to-end
//! metrics) and a traced run (per-layer metrics).
//!
//! Load is a closed loop with one client: the next request is sent when
//! the previous one has answered. Requests go through the public entry
//! points only — `Partitioner::partition`, `BatchSession::run` and
//! `repartition` — and every answer is checked outside the timed region.
//! An untraced `cold-1m` run draws each of its calls in a fresh process,
//! so every call it times is the first of its process.

use crate::instances::{self, Batch, Scale, StepKind};
use crate::layers::{self, Layers};
use crate::metrics::{median, percentile, Kind, Report};
use gp_core::migration_mass;
use ppn_backend::{
    reference_verify, repartition, BatchSession, GpBackend, HyperBackend, PartitionInstance,
    PartitionOutcome, Partitioner, RbBackend, RepartitionOptions, RepartitionOutcome,
};
use ppn_graph::{Budget, Constraints, Partition};
use serde_json::Value;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Engine seed of every request. The workload seed only shapes the
/// instances.
pub const REQUEST_SEED: u64 = 7;

/// Rounds whose latencies a measured run reports, per workload: a run
/// makes at least that many, and reports the fastest of that many rounds
/// spread evenly over the run (see [`Latencies::per_request`]).
const COLD_ROUNDS: usize = 3;
const SWEEP_ROUNDS: usize = 12;
const DRIFT_ROUNDS: usize = 12;

/// Bounds on the wall-clock of the traced `cold-1m` replay over that of
/// the untimed call it replays. Outside them the replay no longer does
/// the work the real entry point does.
const REPLAY_RATIO: std::ops::RangeInclusive<f64> = 0.8..=1.25;

/// Hard stop for a measured loop, far inside the 180 s a run may take.
const LOOP_CAP: Duration = Duration::from_secs(120);

pub struct RunSpec {
    pub scale: Scale,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Run `spec` on the workload called `name`; `None` for an unknown name.
pub fn run(name: &str, spec: &RunSpec) -> Option<Report> {
    let mut rep = Report::default();
    match name {
        "cold-1m" => cold(spec, &mut rep),
        "sweep" => sweep(spec, &mut rep),
        "drift" => drift(spec, &mut rep),
        _ => return None,
    }
    rep.select(if spec.trace {
        Kind::Layer
    } else {
        Kind::EndToEnd
    });
    Some(rep)
}

pub const WORKLOADS: &[&str] = &["cold-1m", "sweep", "drift"];

/// Build the workload, adding the seconds it took to `setups`.
fn timed_setup<T>(setups: &mut Vec<f64>, build: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let built = build();
    setups.push(t.elapsed().as_secs_f64());
    built
}

/// Build the workload `reps` times, dropping each copy before the next,
/// and return the median build time with the last copy.
fn setup<T>(reps: usize, build: impl Fn() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        last = Some(timed_setup(&mut times, &build));
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Keep looping while the run is short of `seconds`, or of the rounds
/// `lat` reports.
fn keep_going(start: Instant, spec: &RunSpec, lat: &Latencies) -> bool {
    let elapsed = start.elapsed();
    elapsed < LOOP_CAP && (lat.rounds.len() < lat.sampled || elapsed.as_secs_f64() < spec.seconds)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Request latencies per round, and the input edges of each request. A
/// round is one pass over the workload's request stream — one call on
/// `cold-1m`, every batch item on `sweep`, every step on `drift` — and
/// every round repeats the same requests in the same order.
struct Latencies {
    rounds: Vec<Vec<f64>>,
    edges: Vec<u64>,
    /// How many rounds the latencies are taken from.
    sampled: usize,
}

impl Latencies {
    fn new(sampled: usize) -> Self {
        Latencies {
            rounds: Vec::new(),
            edges: Vec::new(),
            sampled,
        }
    }

    fn start_round(&mut self) {
        self.rounds.push(Vec::new());
    }

    fn push(&mut self, seconds: f64, edges: usize) {
        let round = self.rounds.last_mut().expect("a round was started");
        if self.edges.len() == round.len() {
            self.edges.push(edges as u64);
        }
        round.push(seconds);
    }

    fn requests(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Each request's fastest latency over `sampled` rounds spread
    /// evenly over the run. Other tenants of a shared machine slow a run
    /// in spells of seconds (about 1.6× on a busy sibling core) and only
    /// ever add time, so the fastest of rounds run seconds apart is the
    /// request's own cost. A fixed count keeps the fastest from drifting
    /// lower when a faster build fits more rounds into `--seconds`.
    fn per_request(&self) -> Vec<f64> {
        let n = self.rounds.len();
        let used = self.sampled.min(n);
        // the first and the last round, and the others evenly between
        let picked: Vec<&Vec<f64>> = (0..used)
            .map(|j| &self.rounds[j * (n - 1) / (used - 1).max(1)])
            .collect();
        (0..self.edges.len())
            .map(|i| {
                picked
                    .iter()
                    .filter_map(|r| r.get(i).copied())
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    }

    /// The end-to-end metrics: latency percentiles over the requests'
    /// fastest latencies (on `cold-1m`, with one request per round, both
    /// are the fastest call), and input edges over their sum.
    fn report(
        &self,
        rep: &mut Report,
        setup_s: f64,
        peak_rss_mb: f64,
        cut_total: u64,
        feasible_frac: f64,
    ) {
        let lat = self.per_request();
        let busy: f64 = lat.iter().sum();
        rep.set("setup_s", setup_s);
        rep.set("request_p50_s", median(&lat));
        rep.set("request_p90_s", percentile(&lat, 90.0));
        rep.set(
            "edges_per_s",
            self.edges.iter().sum::<u64>() as f64 / busy.max(f64::MIN_POSITIVE),
        );
        rep.set("cut_total", cut_total as f64);
        rep.set("feasible_frac", feasible_frac);
        rep.set("peak_rss_mb", peak_rss_mb);
        rep.check(cut_total > 0, "cut_total is 0");
        rep.check(feasible_frac > 0.0, "no request was answered feasibly");
    }
}

/// `cut_total` and `feasible_frac` of one round of `(objective,
/// feasible)` answers. The cut sums feasible answers only: an infeasible
/// answer is a best attempt whose cut carries no quality meaning, and
/// `feasible_frac` already counts it.
fn quality(answers: &[(u64, bool)]) -> (u64, f64) {
    let feasible: Vec<u64> = answers.iter().filter(|a| a.1).map(|a| a.0).collect();
    let frac = feasible.len() as f64 / answers.len().max(1) as f64;
    (feasible.iter().sum(), frac)
}

fn verify(rep: &mut Report, inst: &PartitionInstance, out: &PartitionOutcome) -> bool {
    match reference_verify(inst, out) {
        Ok(()) => true,
        Err(e) => {
            rep.fail(e);
            false
        }
    }
}

fn same_partition(rep: &mut Report, what: &str, a: &Partition, b: &Partition) {
    if a != b {
        rep.fail(format!("{what}: partitions differ"));
    }
}

// -- cold-1m ----------------------------------------------------------

/// One timed `partition` call, checked outside the timed region.
fn cold_call(rep: &mut Report, inst: &PartitionInstance) -> Option<(f64, PartitionOutcome)> {
    rep.attempted += 1;
    let t = Instant::now();
    let out = GpBackend::default().partition(inst, REQUEST_SEED, &Budget::unlimited());
    let seconds = t.elapsed().as_secs_f64();
    match out {
        Ok(out) => verify(rep, inst, &out).then_some((seconds, out)),
        Err(e) => {
            rep.fail(e.to_string());
            None
        }
    }
}

/// One `cold-1m` call made by a process that made no call before: the
/// engine's scratch pool is empty and its heap untouched.
pub struct ColdSample {
    setup_s: f64,
    seconds: f64,
    edges: u64,
    objective: u64,
    feasible: bool,
    /// FNV-1a of the assignment, to compare the answers of processes.
    digest: String,
    peak_rss_mb: f64,
    /// The error the call returned, or the output checks it failed.
    errors: Vec<String>,
}

fn digest(p: &Partition) -> String {
    let h = p
        .assignment()
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &a| {
            (h ^ u64::from(a)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    format!("{h:016x}")
}

/// Build the `cold-1m` instance and make the one timed call on it.
pub fn cold_sample(scale: Scale, seed: u64) -> ColdSample {
    let t = Instant::now();
    let inst = instances::cold(scale, seed);
    let setup_s = t.elapsed().as_secs_f64();
    let mut rep = Report::default();
    let call = cold_call(&mut rep, &inst);
    ColdSample {
        setup_s,
        seconds: call.as_ref().map_or(0.0, |c| c.0),
        edges: inst.graph.num_edges() as u64,
        objective: call.as_ref().map_or(0, |c| c.1.cost.objective),
        feasible: call.as_ref().is_some_and(|c| c.1.feasible),
        digest: call
            .as_ref()
            .map_or_else(String::new, |c| digest(&c.1.partition)),
        peak_rss_mb: peak_rss_mb(),
        errors: rep.errors,
    }
}

impl ColdSample {
    /// The sample as the one JSON line a sample process prints.
    pub fn to_line(&self) -> String {
        let v = serde_json::json!({
            "setup_s": self.setup_s,
            "seconds": self.seconds,
            "edges": self.edges,
            "objective": self.objective,
            "feasible": self.feasible,
            "digest": self.digest.clone(),
            "peak_rss_mb": self.peak_rss_mb,
            "errors": self.errors.clone(),
        });
        serde_json::to_string(&v).expect("a JSON value prints")
    }

    fn from_line(line: &str) -> Option<Self> {
        let v: Value = serde_json::from_str(line).ok()?;
        let f = |k: &str| v.get(k)?.as_f64();
        let u = |k: &str| v.get(k)?.as_u64();
        Some(ColdSample {
            setup_s: f("setup_s")?,
            seconds: f("seconds")?,
            edges: u("edges")?,
            objective: u("objective")?,
            feasible: v.get("feasible")?.as_bool()?,
            digest: v.get("digest")?.as_str()?.to_string(),
            peak_rss_mb: f("peak_rss_mb")?,
            errors: v
                .get("errors")?
                .as_array()?
                .iter()
                .map(|e| e.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
        })
    }
}

/// Draw one sample in a fresh process of this benchmark. The self-test's
/// tiny size draws in-process, since the self-test may run inside a test
/// harness that is not the benchmark; its line still goes through the
/// same printing and parsing.
fn draw_cold(spec: &RunSpec) -> Result<ColdSample, String> {
    let line = if spec.scale == Scale::Tiny {
        cold_sample(spec.scale, spec.seed).to_line()
    } else {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let out = Command::new(exe)
            .args(["--cold-sample", "--seed", &spec.seed.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cold-1m sample process: {e}"))?;
        if !out.status.success() {
            return Err(format!("cold-1m sample process: {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        stdout.lines().last().unwrap_or_default().to_string()
    };
    ColdSample::from_line(&line).ok_or_else(|| format!("cold-1m sample line unreadable: {line}"))
}

fn cold(spec: &RunSpec, rep: &mut Report) {
    if spec.trace {
        cold_traced(spec, rep);
        return;
    }
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    let mut lat = Latencies::new(COLD_ROUNDS);
    let mut first: Option<ColdSample> = None;
    let mut feasible = 0usize;
    let start = Instant::now();
    while keep_going(start, spec, &lat) {
        rep.attempted += 1;
        let sample = match draw_cold(spec) {
            Ok(s) if s.errors.is_empty() => s,
            Ok(s) => {
                rep.fail(s.errors.join("; "));
                break;
            }
            Err(e) => {
                rep.fail(e);
                break;
            }
        };
        setups.push(sample.setup_s);
        rss.push(sample.peak_rss_mb);
        lat.start_round();
        lat.push(sample.seconds, sample.edges as usize);
        feasible += sample.feasible as usize;
        match &first {
            Some(f) if (&f.digest, f.objective) != (&sample.digest, sample.objective) => {
                rep.fail("cold-1m repeat: partitions differ")
            }
            Some(_) => {}
            None => first = Some(sample),
        }
    }
    let cut = first.filter(|f| f.feasible).map_or(0, |f| f.objective);
    let feasible_frac = feasible as f64 / lat.requests().max(1) as f64;
    lat.report(rep, median(&setups), median(&rss), cut, feasible_frac);
}

/// The untimed call, then its replay through the layers. The replay
/// must give the same partition, account for its own wall-clock, and
/// take about as long as the call it replays.
fn cold_traced(spec: &RunSpec, rep: &mut Report) {
    let inst = instances::cold(spec.scale, spec.seed);
    let Some((call_s, out)) = cold_call(rep, &inst) else {
        return;
    };
    let mut acc = Layers::default();
    match layers::replay_gp(&inst, REQUEST_SEED, &mut acc) {
        Ok(p) => same_partition(rep, "cold-1m replay", &p, &out.partition),
        Err(e) => rep.fail(e.to_string()),
    }
    acc.report(rep);
    rep.check(
        rep.get("cycle.unattributed_frac").unwrap_or(1.0) <= 0.05,
        "the replay leaves more than 5% of its wall-clock unattributed",
    );
    let ratio = acc.replay_wall_s / call_s;
    rep.notes.push(format!(
        "replay {:.4} s / call {call_s:.4} s = {ratio:.3} (allowed {:?})",
        acc.replay_wall_s, REPLAY_RATIO
    ));
    rep.check(
        REPLAY_RATIO.contains(&ratio),
        "the replay's wall-clock is off the untimed call's",
    );
}

// -- sweep ------------------------------------------------------------

/// The instance one batch item answered: the base with the item's
/// `(k, Rmax, Bmax)`.
fn configure(view: &mut PartitionInstance, &(k, rmax, bmax): &(usize, u64, u64)) {
    view.k = k;
    view.constraints = Constraints::new(rmax, bmax);
}

fn run_batch(batch: &Batch) -> Result<ppn_backend::BatchSummary, ppn_backend::PartitionError> {
    let mut session =
        BatchSession::new(Budget::unlimited()).with_chain(batch.chain.iter().copied());
    session.push_configs(&batch.base, &batch.configs);
    session.run(REQUEST_SEED)
}

fn sweep(spec: &RunSpec, rep: &mut Report) {
    if spec.trace {
        sweep_traced(&instances::sweep(spec.scale, spec.seed), rep);
        return;
    }
    let mut setups = Vec::new();
    let mut lat = Latencies::new(SWEEP_ROUNDS);
    // (objective, feasible) per item of the first round; later rounds
    // must answer the same
    let mut answers: Vec<Option<(u64, bool)>> = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while keep_going(start, spec, &lat) {
        let batches = timed_setup(&mut setups, || instances::sweep(spec.scale, spec.seed));
        lat.start_round();
        let mut idx = 0;
        for batch in &batches {
            let view = &mut batch.base.clone();
            let summary = run_batch(batch);
            for (i, cfg) in batch.configs.iter().enumerate() {
                rep.attempted += 1;
                let item = summary.as_ref().map(|s| &s.items[i]);
                let answer = match item {
                    Ok(item) => match &item.result {
                        Ok(r) => {
                            lat.push(item.seconds, view.graph.num_edges());
                            configure(view, cfg);
                            verify(rep, view, &r.outcome)
                                .then_some((r.outcome.cost.objective, r.outcome.feasible))
                        }
                        Err(e) => {
                            rep.fail(format!("{}: {e}", item.name));
                            None
                        }
                    },
                    Err(e) => {
                        rep.fail(format!("batch {}: {e}", batch.base.name));
                        None
                    }
                };
                if rounds == 0 {
                    answers.push(answer);
                } else if answer.is_some() && answers[idx] != answer {
                    rep.fail(format!(
                        "{} item {i}: answer changed between rounds",
                        batch.base.name
                    ));
                }
                idx += 1;
            }
        }
        rounds += 1;
    }
    let answered: Vec<(u64, bool)> = answers.iter().flatten().copied().collect();
    let (cut, feasible_frac) = quality(&answered);
    rep.check(feasible_frac < 1.0, "sweep: every item was feasible");
    lat.report(rep, median(&setups), peak_rss_mb(), cut, feasible_frac);
}

fn sweep_traced(batches: &[Batch], rep: &mut Report) {
    let mut acc = Layers::default();
    for batch in batches {
        let view = &mut batch.base.clone();
        let summary = match run_batch(batch) {
            Ok(s) => s,
            Err(e) => {
                rep.attempted += batch.configs.len() as u64;
                rep.fail(format!("batch {}: {e}", batch.base.name));
                continue;
            }
        };
        let items_s: f64 = summary.items.iter().map(|i| i.seconds).sum();
        acc.batch_overhead_s += summary.total_seconds - items_s;
        for (item, cfg) in summary.items.iter().zip(&batch.configs) {
            rep.attempted += 1;
            let r = match &item.result {
                Ok(r) => r,
                Err(e) => {
                    rep.fail(format!("{}: {e}", item.name));
                    continue;
                }
            };
            configure(view, cfg);
            if !verify(rep, view, &r.outcome) {
                continue;
            }
            acc.fallbacks += r.fell_back() as u64;
            let replayed = match r.served_by.as_str() {
                "gp" => layers::replay_gp(view, REQUEST_SEED, &mut acc),
                "rb" => {
                    layers::time_backend(&RbBackend::default(), view, REQUEST_SEED, &mut acc.rb_s)
                        .map(|o| o.partition)
                }
                "hyper" => layers::time_backend(
                    &HyperBackend::default(),
                    view,
                    REQUEST_SEED,
                    &mut acc.hyper_s,
                )
                .map(|o| o.partition),
                _ => continue,
            };
            match replayed {
                Ok(p) => same_partition(rep, &item.name, &p, &r.outcome.partition),
                Err(e) => rep.fail(format!("{} replay: {e}", item.name)),
            }
        }
    }
    rep.check(acc.rb_s > 0.0, "sweep: rb answered no item");
    rep.check(acc.hyper_s > 0.0, "sweep: hyper answered no item");
    acc.report(rep);
}

// -- drift ------------------------------------------------------------

/// Checks one answered step: the outcome verifies against the successor
/// instance, and its migration bill matches `migration_mass` recomputed
/// against the projection of the previous assignment. Returns how many
/// nodes left their projected part.
fn check_step(rep: &mut Report, step: usize, prev: &Partition, r: &RepartitionOutcome) -> u64 {
    if !verify(rep, &r.instance, &r.outcome) {
        return 0;
    }
    let Ok(reference) = r.map.project(prev) else {
        rep.fail(format!("drift step {step}: projection failed"));
        return 0;
    };
    let (reference, assignment) = (reference.assignment(), r.outcome.partition.assignment());
    let weights = r.instance.graph.node_weights();
    let expected = (
        migration_mass(reference, assignment, weights),
        r.instance.graph.total_node_weight(),
    );
    let reported = r.outcome.cost.migration.as_ref().map(|m| (m.mass, m.total));
    if reported != Some(expected) {
        rep.fail(format!(
            "drift step {step}: migration {reported:?}, recomputed {expected:?}"
        ));
    }
    reference
        .iter()
        .zip(assignment)
        .filter(|(&r, &a)| r != Partition::UNASSIGNED && r != a)
        .count() as u64
}

fn drift(spec: &RunSpec, rep: &mut Report) {
    let reps = if spec.trace { 1 } else { 3 };
    let (setup_s, (stream, solved)) = setup(reps, || {
        let stream = instances::drift(spec.scale, spec.seed);
        let solved =
            GpBackend::default().partition(&stream.base, REQUEST_SEED, &Budget::unlimited());
        (stream, solved)
    });
    let solved = match solved {
        Ok(out) => out.partition,
        Err(e) => {
            rep.attempted += 1;
            rep.fail(format!("drift base: {e}"));
            return;
        }
    };
    let opts = RepartitionOptions::default();
    let mut acc = Layers::default();
    let mut lat = Latencies::new(DRIFT_ROUNDS);
    // (objective, feasible) per step of the first round
    let mut answers: Vec<(u64, bool)> = Vec::new();
    let (mut moved, mut scratch_steps) = (0u64, 0u64);
    let start = Instant::now();
    let mut rounds = 0;
    while keep_going(start, spec, &lat) {
        lat.start_round();
        let mut inst = stream.base.clone();
        let mut prev = solved.clone();
        for (i, step) in stream.steps.iter().enumerate() {
            rep.attempted += 1;
            if spec.trace && layers::apply_delta(&step.delta, &inst.graph, &mut acc).is_err() {
                rep.fail(format!("drift step {i}: delta does not apply"));
            }
            let t = Instant::now();
            let r = repartition(
                &inst,
                &prev,
                &step.delta,
                &opts,
                REQUEST_SEED,
                &Budget::unlimited(),
            );
            let seconds = t.elapsed().as_secs_f64();
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    rep.fail(format!("drift step {i}: {e}"));
                    break;
                }
            };
            lat.push(seconds, r.instance.graph.num_edges());
            let step_moved = check_step(rep, i, &prev, &r);
            if r.warm_start {
                moved += step_moved;
            } else {
                scratch_steps += 1;
            }
            rep.check(
                r.warm_start == (step.kind != StepKind::Churn),
                "drift: a step took the other path than planned",
            );
            let answer = (r.outcome.cost.objective, r.outcome.feasible);
            if rounds == 0 {
                answers.push(answer);
            } else if answers.get(i) != Some(&answer) {
                rep.fail(format!("drift step {i}: answer changed between rounds"));
            }
            if spec.trace {
                trace_step(rep, i, &r, seconds, step_moved, &mut acc);
            }
            inst = r.instance;
            prev = r.outcome.partition;
        }
        rounds += 1;
        if spec.trace {
            break;
        }
    }
    rep.check(moved > 0, "drift: no warm step moved a node");
    rep.check(
        scratch_steps > 0,
        "drift: no step fell back to a scratch run",
    );
    if spec.trace {
        acc.report(rep);
        return;
    }
    let (cut, feasible_frac) = quality(&answers);
    lat.report(rep, setup_s, peak_rss_mb(), cut, feasible_frac);
}

/// Per-layer accounting of one traced drift step: the step's seconds go
/// to the warm or scratch layer, scratch steps are replayed through the
/// gp layers, and the answer's quality is re-measured.
fn trace_step(
    rep: &mut Report,
    i: usize,
    r: &RepartitionOutcome,
    seconds: f64,
    moved: u64,
    acc: &mut Layers,
) {
    acc.steps += 1;
    acc.migration_sum += r
        .outcome
        .cost
        .migration
        .as_ref()
        .map_or(0.0, |m| m.fraction());
    if r.warm_start {
        acc.warm_steps += 1;
        acc.warm_s += seconds;
        acc.moved_nodes += moved;
    } else {
        acc.scratch_s += seconds;
        match layers::replay_gp(&r.instance, REQUEST_SEED, acc) {
            Ok(p) => same_partition(
                rep,
                &format!("drift step {i} replay"),
                &p,
                &r.outcome.partition,
            ),
            Err(e) => rep.fail(format!("drift step {i} replay: {e}")),
        }
    }
    let q = layers::measure(&r.instance.graph, &r.outcome.partition, acc);
    if q.total_cut != r.outcome.cost.objective {
        rep.fail(format!(
            "drift step {i}: cut {} re-measured as {}",
            r.outcome.cost.objective, q.total_cut
        ));
    }
}

impl Layers {
    /// Every per-layer metric, 0 for layers this workload does not use.
    fn report(&self, rep: &mut Report) {
        let per_call = |x: u64| x as f64 / self.coarsen_calls.max(1) as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        rep.set("validate.busy_s", self.validate_s);
        rep.set("coarsen.busy_s", self.coarsen_s);
        rep.set("coarsen.levels", per_call(self.levels));
        rep.set("coarsen.coarsest_nodes", per_call(self.coarsest_nodes));
        rep.set(
            "coarsen.hier_edges_ratio",
            ratio(self.hier_edges as f64, self.input_edges as f64),
        );
        rep.set(
            "coarsen.arena_mb",
            self.arena_bytes_max as f64 / (1u64 << 20) as f64,
        );
        rep.set("coarsen.wins.random", self.wins[0] as f64);
        rep.set("coarsen.wins.heavy-edge", self.wins[1] as f64);
        rep.set("coarsen.wins.k-means", self.wins[2] as f64);
        rep.set("coarsen.match.random_s", self.match_s[0]);
        rep.set("coarsen.match.heavy-edge_s", self.match_s[1]);
        rep.set("coarsen.match.k-means_s", self.match_s[2]);
        rep.set("contract.busy_s", self.contract_s);
        rep.set("initial.busy_s", self.initial_s);
        rep.set("initial.calls", self.initial_calls as f64);
        rep.set("refine.busy_s", self.refine_s);
        rep.set("refine.moves", self.refine_moves as f64);
        rep.set("quality.busy_s", self.quality_s);
        rep.set("cycle.cycles", self.cycles as f64);
        rep.set(
            "cycle.unattributed_frac",
            ratio(self.replay_residual_s, self.replay_wall_s),
        );
        rep.set("replay.wall_s", self.replay_wall_s);
        rep.set("batch.overhead_s", self.batch_overhead_s);
        rep.set("robust.fallbacks", self.fallbacks as f64);
        rep.set("rb.busy_s", self.rb_s);
        rep.set("hyper.busy_s", self.hyper_s);
        rep.set("delta.busy_s", self.delta_s);
        rep.set("warm.busy_s", self.warm_s);
        rep.set("scratch.busy_s", self.scratch_s);
        rep.set("warm.moved_nodes", self.moved_nodes as f64);
        rep.set(
            "warm.frac",
            ratio(self.warm_steps as f64, self.steps as f64),
        );
        rep.set(
            "migration_frac",
            ratio(self.migration_sum, self.steps as f64),
        );
        rep.set(
            "failed_frac",
            ratio(rep.failed as f64, rep.attempted as f64),
        );
    }
}
