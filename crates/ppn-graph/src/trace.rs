//! `ppn-trace`: zero-cost-when-off structured tracing for every engine.
//!
//! The engines in this workspace already agree on *where* interesting
//! things happen: the cycle/level/pass/attempt boundaries where
//! [`Budget`](crate::Budget) is consulted and its
//! [`fault_point`](crate::Budget::fault_point)s sit. This module
//! adds a third citizen at those same boundaries: **span events**
//! (begin/end with monotonic microsecond timestamps), **typed counters**
//! (moves evaluated/committed/rejected, boundary sizes, matching stalls,
//! budget checkpoints, fallback attempts) and **bounded histograms**
//! (gain deltas), recorded per thread into the session of the run that
//! opened it.
//!
//! ## Sessions
//!
//! A session belongs to the code that opens it: [`collect`] records the
//! calling thread while its closure runs and returns a [`TraceSession`].
//! A thread with no session records nothing, so concurrent runs
//! (parallel tests, batch items on other threads) never share one.
//! Worker closures join explicitly: [`current`] hands out the calling
//! thread's [`Scope`], and [`Scope::run`] records a worker into that
//! session under a thread id and buffer of its own, flushed into the
//! session when the closure returns or unwinds (on a thread already
//! recording into the session, such as the rayon shim's caller at one
//! thread, it just calls the closure). Thread ids are per session — the
//! collecting thread is 0, each worker `run` takes the next — so
//! identical runs yield the same id set. A nested [`collect`] records
//! only its own closure.
//!
//! ## Disarmed cost
//!
//! Every probe — [`span`], [`counter`], [`hist`], [`instant`] — starts
//! with one load of a const-initialised thread-local flag that has no
//! destructor, and returns immediately when the thread records nothing;
//! the slow path is `#[cold]` and never inlined into the engines' hot
//! loops. No probe is placed inside a per-edge or per-move-evaluation
//! loop: the densest sites are per *committed* move (gain histograms)
//! and per refinement *pass* (counters), so even the recording cost is a
//! small fraction of the work it measures.
//!
//! ## Buffers
//!
//! Buffers are bounded: past the per-thread cap new events are counted
//! as `dropped` instead of pushed — except `End` events, which are exempt
//! (they are bounded by the capped `Begin`s) so span trees stay
//! well-formed under the cap. Histogram samples never materialise as
//! events at all; they aggregate into fixed-size log₂-bucket
//! [`Histogram`]s merged additively when the session closes.
//!
//! A closing session merges its buffers sorted by `(tid, seq)` — a
//! canonical order independent of flush timing or OS scheduling. Within
//! a thread, `seq` order is timestamp order, which is what the chrome
//! viewer needs for `B`/`E` nesting.
//!
//! ## Sinks
//!
//! A [`TraceSession`] renders as JSON-lines ([`TraceSession::to_jsonl`]),
//! chrome://tracing `trace_event` JSON ([`TraceSession::to_chrome`]) or an
//! aggregated text summary ([`TraceSession::to_summary`]); the CLI exposes
//! them as `--trace out.json --trace-format jsonl|chrome|summary`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Default per-thread event cap (events past it are dropped, not pushed).
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// Event phase, mirroring the chrome `trace_event` phases we emit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ph {
    /// Span begin (`"B"`).
    Begin,
    /// Span end (`"E"`).
    End,
    /// Instantaneous event (`"i"`).
    Instant,
    /// Counter sample (`"C"`).
    Counter,
}

impl Ph {
    /// The chrome `trace_event` phase letter.
    pub fn as_chrome(self) -> &'static str {
        match self {
            Ph::Begin => "B",
            Ph::End => "E",
            Ph::Instant => "i",
            Ph::Counter => "C",
        }
    }
}

/// One trace event. `cat` is the engine (`gp`, `rb`, `metis`, `kway`,
/// `hyper`, `robust`, `refine`), `name` the boundary (`cycle`, `level`,
/// `pass`, …). `arg` carries the boundary's index or a counter value;
/// `label` is rare, heap-allocated only while recording (attempt errors).
#[derive(Clone, Debug)]
pub struct Event {
    /// Microseconds since the session epoch (monotonic clock).
    pub t_us: u64,
    /// Session-assigned thread id: 0 for the thread that called
    /// [`collect`], then one per worker [`Scope::run`] in start order.
    pub tid: u32,
    /// Per-thread sequence number; within a thread, `seq` order is time
    /// order.
    pub seq: u64,
    /// Engine / subsystem category.
    pub cat: &'static str,
    /// Boundary name.
    pub name: &'static str,
    /// Phase.
    pub ph: Ph,
    /// Boundary index or counter value.
    pub arg: i64,
    /// Optional free-form annotation (e.g. an attempt's error text).
    pub label: Option<Box<str>>,
}

/// Number of log₂ buckets in a [`Histogram`]: 32 negative-magnitude
/// buckets, one zero bucket, 32 positive-magnitude buckets.
pub const HIST_BUCKETS: usize = 65;

/// A bounded, fixed-memory histogram over `i64` samples using sign-split
/// log₂ magnitude buckets. Merging is additive and therefore
/// commutative, which keeps the multi-thread drain deterministic.
#[derive(Clone, Debug)]
pub struct Histogram {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of samples (for the mean).
    pub sum: i64,
    /// Smallest sample seen.
    pub min: i64,
    /// Largest sample seen.
    pub max: i64,
    /// Bucket occupancy; see [`bucket_index`].
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: i64::MAX,
            max: i64::MIN,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

/// Bucket for a sample: 32 holds zero, 33..=64 positive magnitudes by
/// log₂, 31..=0 negative magnitudes by log₂ (31 is −1, 0 is ≤ −2³¹).
pub fn bucket_index(v: i64) -> usize {
    if v == 0 {
        32
    } else if v > 0 {
        let log2 = 63 - (v as u64).leading_zeros() as usize;
        33 + log2.min(31)
    } else {
        let log2 = 63 - v.unsigned_abs().leading_zeros() as usize;
        31 - log2.min(31)
    }
}

/// Representative (lower-magnitude bound) value for a bucket, the value
/// quantile estimates report.
pub fn bucket_floor(i: usize) -> i64 {
    use std::cmp::Ordering::*;
    match i.cmp(&32) {
        Equal => 0,
        Greater => 1i64 << (i - 33),
        Less => -(1i64 << (31 - i)),
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, v: i64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Fold another histogram in (commutative).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the [`bucket_floor`] of the bucket holding
    /// the `q`-th sample. Exact for min/max-heavy checks, bucket-coarse
    /// in between — good enough for "where do the gains live".
    pub fn quantile(&self, q: f64) -> i64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_floor(i);
            }
        }
        self.max
    }
}

/// Configuration of one [`collect`] session.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Per-thread event cap; see module docs for the drop rule.
    pub max_events_per_thread: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            max_events_per_thread: DEFAULT_EVENT_CAP,
        }
    }
}

type Key = (&'static str, &'static str);

/// Tells sessions apart, so a span begun in one session never ends in
/// another that reuses its thread id.
static NEXT_SESSION: AtomicU64 = AtomicU64::new(0);

/// What every thread recording into one session shares.
struct Session {
    id: u64,
    epoch: Instant,
    cap: usize,
    next_tid: AtomicU32,
    /// Buffers of the threads that stopped recording.
    done: Mutex<Vec<Buf>>,
}

impl Session {
    /// The finished buffers. Each update is one push, so a lock poisoned
    /// by a panicking thread still guards a valid list.
    fn done(&self) -> MutexGuard<'_, Vec<Buf>> {
        self.done.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One thread's recording within a session.
#[derive(Default)]
struct Buf {
    tid: u32,
    seq: u64,
    dropped: u64,
    events: Vec<Event>,
    counters: BTreeMap<Key, (u64, u64)>, // (samples, saturating sum)
    hists: BTreeMap<Key, Histogram>,
}

struct Recorder {
    session: Arc<Session>,
    buf: Buf,
}

impl Recorder {
    /// Push one event; returns false when the cap dropped it (so a span
    /// whose `Begin` was dropped knows not to emit a dangling `End`).
    fn push(&mut self, (cat, name): Key, ph: Ph, arg: i64, label: Option<Box<str>>) -> bool {
        let b = &mut self.buf;
        if b.events.len() >= self.session.cap && ph != Ph::End {
            b.dropped += 1;
            return false;
        }
        let t_us = self.session.epoch.elapsed().as_micros() as u64;
        b.events.push(Event {
            t_us,
            tid: b.tid,
            seq: b.seq,
            cat,
            name,
            ph,
            arg,
            label,
        });
        b.seq += 1;
        true
    }

    /// The session and thread id this recorder's events carry.
    fn owner(&self) -> (u64, u32) {
        (self.session.id, self.buf.tid)
    }
}

thread_local! {
    /// True while this thread records into a session: the one load a
    /// disarmed probe pays.
    static RECORDING: Cell<bool> = const { Cell::new(false) };
    /// The recorder behind `RECORDING`.
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Run `f` on this thread's recorder; `None` when it records nothing
/// (or during thread-local teardown).
fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDER
        .try_with(|slot| slot.borrow_mut().as_mut().map(f))
        .ok()
        .flatten()
}

/// Records this thread into a session until dropped — on return or
/// unwind — then flushes the buffer into the session and puts back the
/// recorder the thread had before.
struct Recording {
    outer: Option<Recorder>,
}

impl Recording {
    fn begin(session: &Arc<Session>, tid: u32) -> Recording {
        let rec = Recorder {
            session: Arc::clone(session),
            buf: Buf {
                tid,
                ..Buf::default()
            },
        };
        let outer = RECORDER.with_borrow_mut(|slot| slot.replace(rec));
        RECORDING.set(true);
        Recording { outer }
    }
}

impl Drop for Recording {
    fn drop(&mut self) {
        let outer = self.outer.take();
        RECORDING.set(outer.is_some());
        if let Some(rec) = RECORDER.with_borrow_mut(|slot| std::mem::replace(slot, outer)) {
            rec.session.done().push(rec.buf);
        }
    }
}

/// Run `work` with this thread recording into a new session, and return
/// its result with everything the session recorded: this thread as tid
/// 0, plus every worker that ran a closure through the session's
/// [`Scope`]. If `work` panics, the session is discarded and the panic
/// propagates.
pub fn collect<R>(cfg: TraceConfig, work: impl FnOnce() -> R) -> (R, TraceSession) {
    let session = Arc::new(Session {
        id: NEXT_SESSION.fetch_add(1, Ordering::Relaxed),
        epoch: Instant::now(),
        cap: cfg.max_events_per_thread.max(16),
        next_tid: AtomicU32::new(1),
        done: Mutex::new(Vec::new()),
    });
    let recording = Recording::begin(&session, 0);
    let out = work();
    drop(recording);
    let bufs = std::mem::take(&mut *session.done());
    (out, TraceSession::merge(bufs))
}

/// A handle on the session the current thread records into, for worker
/// closures to carry to other threads (see [`current`]). The scope of a
/// thread that records nothing runs closures as they are.
pub struct Scope(Option<Arc<Session>>);

/// The [`Scope`] of the current thread's session.
#[inline]
pub fn current() -> Scope {
    if !RECORDING.get() {
        return Scope(None);
    }
    Scope(with_recorder(|rec| Arc::clone(&rec.session)))
}

impl Scope {
    /// Run `f` with this thread recording into the scope's session under
    /// the session's next thread id; the buffer flushes into the session
    /// when `f` returns or unwinds, and the thread records nothing after
    /// that, so each item a pooled rayon worker maps takes an id of its
    /// own. On a thread that already records into this session, `f` runs
    /// as it is: the rayon shim's caller maps the first chunk of every
    /// call itself, at every thread count, so those items nest on the
    /// caller's thread id.
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.0 {
            Some(session) if with_recorder(|rec| rec.session.id) != Some(session.id) => {
                let tid = session.next_tid.fetch_add(1, Ordering::Relaxed);
                let _recording = Recording::begin(session, tid);
                f()
            }
            _ => f(),
        }
    }
}

/// RAII span: `Begin` on creation (when recording), `End` on drop —
/// which makes span trees well-formed even when a fault-injected panic
/// unwinds through the engine. The `End` goes only to the session and
/// thread that recorded the `Begin`.
#[must_use = "the span ends when this guard drops"]
pub struct SpanGuard {
    /// Session and thread id of the recorded `Begin`; `None` when nothing
    /// was recorded.
    owner: Option<(u64, u32)>,
    key: Key,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(owner) = self.owner {
            end_span(owner, self.key);
        }
    }
}

/// Open a span. `arg` carries the boundary index (cycle number, level,
/// pass, attempt).
#[inline]
pub fn span(cat: &'static str, name: &'static str, arg: i64) -> SpanGuard {
    let key = (cat, name);
    let owner = if RECORDING.get() {
        begin_span(key, arg)
    } else {
        None
    };
    SpanGuard { owner, key }
}

#[cold]
fn begin_span(key: Key, arg: i64) -> Option<(u64, u32)> {
    with_recorder(|rec| rec.push(key, Ph::Begin, arg, None).then(|| rec.owner())).flatten()
}

#[cold]
fn end_span(owner: (u64, u32), key: Key) {
    with_recorder(|rec| {
        if rec.owner() == owner {
            rec.push(key, Ph::End, 0, None);
        }
    });
}

/// A span that also measures wall-clock. Only gp-core's coarsening
/// uses it, for the per-level seconds its observer hands out
/// (`LevelTiming`, `HeuristicTiming`): those seconds
/// ([`finish`](TimedSpan::finish)) and the trace events come from the
/// same site. Every other phase time is read from a session's
/// [`span_totals`](TraceSession::span_totals). When the thread records
/// nothing, the cost over a bare `Instant::now()` pair is one
/// thread-local flag load.
#[must_use = "call finish() to harvest the elapsed seconds"]
pub struct TimedSpan {
    t0: Instant,
    _guard: SpanGuard,
}

/// Open a timed span; see [`TimedSpan`].
#[inline]
pub fn timed_span(cat: &'static str, name: &'static str, arg: i64) -> TimedSpan {
    TimedSpan {
        t0: Instant::now(),
        _guard: span(cat, name, arg),
    }
}

impl TimedSpan {
    /// Close the span and return the elapsed seconds.
    #[inline]
    pub fn finish(self) -> f64 {
        self.t0.elapsed().as_secs_f64()
        // dropping self emits the End event
    }
}

/// Record a counter sample: emits a `Counter` event (bounded: counter
/// sites sit at pass/level boundaries, never in hot loops) and folds the
/// value into the session's per-key total.
#[inline]
pub fn counter(cat: &'static str, name: &'static str, value: u64) {
    if RECORDING.get() {
        counter_slow((cat, name), value);
    }
}

#[cold]
fn counter_slow(key: Key, value: u64) {
    with_recorder(|rec| {
        let e = rec.buf.counters.entry(key).or_insert((0, 0));
        e.0 += 1;
        e.1 = e.1.saturating_add(value);
        rec.push(key, Ph::Counter, value.min(i64::MAX as u64) as i64, None)
    });
}

/// Record a histogram sample. Never materialises an event — samples
/// aggregate into the per-thread [`Histogram`], so per-committed-move
/// sites (gain deltas) stay cheap even when recording.
#[inline]
pub fn hist(cat: &'static str, name: &'static str, value: i64) {
    if RECORDING.get() {
        hist_slow((cat, name), value);
    }
}

#[cold]
fn hist_slow(key: Key, value: i64) {
    with_recorder(|rec| rec.buf.hists.entry(key).or_default().record(value));
}

/// Emit an instantaneous event.
#[inline]
pub fn instant(cat: &'static str, name: &'static str, arg: i64) {
    if RECORDING.get() {
        emit_instant((cat, name), arg, None);
    }
}

/// Emit an instantaneous event with a free-form label. The label is
/// heap-allocated only when the thread records.
#[inline]
pub fn instant_label(cat: &'static str, name: &'static str, arg: i64, label: &str) {
    if RECORDING.get() {
        emit_instant((cat, name), arg, Some(Box::from(label)));
    }
}

#[cold]
fn emit_instant(key: Key, arg: i64, label: Option<Box<str>>) {
    with_recorder(|rec| rec.push(key, Ph::Instant, arg, label));
}

/// Merged per-key counter total.
#[derive(Clone, Debug)]
pub struct CounterTotal {
    /// Category (engine).
    pub cat: &'static str,
    /// Counter name.
    pub name: &'static str,
    /// Number of samples.
    pub count: u64,
    /// Saturating sum of sample values.
    pub sum: u64,
}

/// Merged per-key histogram.
#[derive(Clone, Debug)]
pub struct HistTotal {
    /// Category (engine).
    pub cat: &'static str,
    /// Histogram name.
    pub name: &'static str,
    /// The merged histogram.
    pub hist: Histogram,
}

/// Aggregated wall-clock for one `(cat, name)` span key.
#[derive(Clone, Debug)]
pub struct SpanTotal {
    /// Category (engine).
    pub cat: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Completed spans.
    pub count: u64,
    /// Total microseconds across completed spans.
    pub total_us: u64,
}

/// Output format for [`TraceSession::render`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line (first line is a meta record).
    Jsonl,
    /// chrome://tracing `trace_event` JSON.
    Chrome,
    /// Aggregated human-readable text.
    Summary,
}

impl std::str::FromStr for TraceFormat {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "jsonl" => Ok(TraceFormat::Jsonl),
            "chrome" => Ok(TraceFormat::Chrome),
            "summary" => Ok(TraceFormat::Summary),
            other => Err(format!(
                "unknown trace format `{other}` (expected jsonl|chrome|summary)"
            )),
        }
    }
}

/// Append a field to a `Value::Object` (the vendored shim's objects are
/// order-preserving entry lists).
fn push_field(v: &mut serde_json::Value, key: &str, value: serde_json::Value) {
    if let serde_json::Value::Object(entries) = v {
        entries.push((key.to_string(), value));
    }
}

/// Everything one [`collect`] session recorded, merged deterministically.
#[derive(Clone, Debug, Default)]
pub struct TraceSession {
    /// Events sorted by `(tid, seq)`.
    pub events: Vec<Event>,
    /// Counter totals sorted by `(cat, name)`.
    pub counters: Vec<CounterTotal>,
    /// Histograms sorted by `(cat, name)`.
    pub hists: Vec<HistTotal>,
    /// Events dropped by the per-thread cap.
    pub dropped: u64,
}

impl TraceSession {
    /// Merge a session's per-thread buffers: events sorted by
    /// `(tid, seq)`, counters and histograms summed per key.
    fn merge(bufs: Vec<Buf>) -> TraceSession {
        let mut events = Vec::new();
        let mut counters: BTreeMap<Key, (u64, u64)> = BTreeMap::new();
        let mut hists: BTreeMap<Key, Histogram> = BTreeMap::new();
        let mut dropped = 0u64;
        for mut b in bufs {
            events.append(&mut b.events);
            for (k, (n, sum)) in b.counters {
                let e = counters.entry(k).or_insert((0, 0));
                e.0 += n;
                e.1 = e.1.saturating_add(sum);
            }
            for (k, h) in b.hists {
                hists.entry(k).or_default().merge(&h);
            }
            dropped += b.dropped;
        }
        events.sort_by_key(|e| (e.tid, e.seq));
        TraceSession {
            events,
            counters: counters
                .into_iter()
                .map(|((cat, name), (count, sum))| CounterTotal {
                    cat,
                    name,
                    count,
                    sum,
                })
                .collect(),
            hists: hists
                .into_iter()
                .map(|((cat, name), hist)| HistTotal { cat, name, hist })
                .collect(),
            dropped,
        }
    }

    /// Number of merged events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Check span-tree invariants: per-thread `seq` strictly increasing
    /// and time-monotone, `Begin`/`End` stack discipline with matching
    /// `(cat, name)` keys, and no span left open.
    pub fn validate_well_formed(&self) -> Result<(), String> {
        let mut stacks: BTreeMap<u32, Vec<(Key, u64)>> = BTreeMap::new();
        let mut last: BTreeMap<u32, (u64, u64)> = BTreeMap::new(); // tid -> (seq, t_us)
        for e in &self.events {
            if let Some(&(seq, t_us)) = last.get(&e.tid) {
                if e.seq <= seq {
                    return Err(format!(
                        "tid {} seq not strictly increasing: {} after {}",
                        e.tid, e.seq, seq
                    ));
                }
                if e.t_us < t_us {
                    return Err(format!(
                        "tid {} time went backwards: {}us after {}us",
                        e.tid, e.t_us, t_us
                    ));
                }
            }
            last.insert(e.tid, (e.seq, e.t_us));
            match e.ph {
                Ph::Begin => stacks
                    .entry(e.tid)
                    .or_default()
                    .push(((e.cat, e.name), e.t_us)),
                Ph::End => {
                    let top = stacks.entry(e.tid).or_default().pop();
                    match top {
                        Some((key, _)) if key == (e.cat, e.name) => {}
                        Some(((cat, name), _)) => {
                            return Err(format!(
                                "tid {}: End {}/{} closes open span {}/{}",
                                e.tid, e.cat, e.name, cat, name
                            ))
                        }
                        None => {
                            return Err(format!(
                                "tid {}: End {}/{} with no open span",
                                e.tid, e.cat, e.name
                            ))
                        }
                    }
                }
                Ph::Instant | Ph::Counter => {}
            }
        }
        for (tid, stack) in stacks {
            if let Some(((cat, name), _)) = stack.last() {
                return Err(format!("tid {tid}: span {cat}/{name} never ended"));
            }
        }
        Ok(())
    }

    /// Aggregate completed spans into per-key wall-clock totals, sorted
    /// by `(cat, name)`.
    pub fn span_totals(&self) -> Vec<SpanTotal> {
        let mut stacks: BTreeMap<u32, Vec<(Key, u64)>> = BTreeMap::new();
        let mut totals: BTreeMap<Key, (u64, u64)> = BTreeMap::new();
        for e in &self.events {
            match e.ph {
                Ph::Begin => stacks
                    .entry(e.tid)
                    .or_default()
                    .push(((e.cat, e.name), e.t_us)),
                Ph::End => {
                    if let Some((key, t0)) = stacks.entry(e.tid).or_default().pop() {
                        if key == (e.cat, e.name) {
                            let t = totals.entry(key).or_insert((0, 0));
                            t.0 += 1;
                            t.1 += e.t_us.saturating_sub(t0);
                        }
                    }
                }
                _ => {}
            }
        }
        totals
            .into_iter()
            .map(|((cat, name), (count, total_us))| SpanTotal {
                cat,
                name,
                count,
                total_us,
            })
            .collect()
    }

    /// Render in the given format.
    pub fn render(&self, format: TraceFormat) -> String {
        match format {
            TraceFormat::Jsonl => self.to_jsonl(),
            TraceFormat::Chrome => self.to_chrome(),
            TraceFormat::Summary => self.to_summary(),
        }
    }

    /// JSON-lines: a meta record first, then one object per event.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let meta = serde_json::json!({
            "meta": true,
            "events": self.events.len(),
            "dropped": self.dropped,
        });
        out.push_str(&serde_json::to_string(&meta).expect("meta serialises"));
        out.push('\n');
        for e in &self.events {
            let mut v = serde_json::json!({
                "t_us": e.t_us,
                "tid": e.tid,
                "seq": e.seq,
                "cat": e.cat,
                "name": e.name,
                "ph": e.ph.as_chrome(),
                "arg": e.arg,
            });
            if let Some(label) = &e.label {
                push_field(
                    &mut v,
                    "label",
                    serde_json::Value::String(label.to_string()),
                );
            }
            out.push_str(&serde_json::to_string(&v).expect("event serialises"));
            out.push('\n');
        }
        out
    }

    /// chrome://tracing `trace_event` JSON (object form, `traceEvents`
    /// array, timestamps in microseconds). Events are ordered by
    /// `(t_us, tid, seq)` for the viewer; within a thread that agrees
    /// with `seq` order, so `B`/`E` nesting is valid.
    pub fn to_chrome(&self) -> String {
        let mut order: Vec<&Event> = self.events.iter().collect();
        order.sort_by_key(|e| (e.t_us, e.tid, e.seq));
        let mut evs = Vec::with_capacity(order.len() + 1);
        let mut tids: Vec<u32> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in tids {
            evs.push(serde_json::json!({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": format!("ppn-{tid}")},
            }));
        }
        for e in order {
            let mut v = serde_json::json!({
                "name": e.name,
                "cat": e.cat,
                "ph": e.ph.as_chrome(),
                "ts": e.t_us,
                "pid": 1,
                "tid": e.tid,
            });
            match e.ph {
                Ph::Counter => {
                    push_field(&mut v, "args", serde_json::json!({ "value": e.arg }));
                }
                Ph::Instant => {
                    push_field(&mut v, "s", serde_json::Value::String("t".to_string()));
                    let mut args = serde_json::json!({ "arg": e.arg });
                    if let Some(label) = &e.label {
                        push_field(
                            &mut args,
                            "label",
                            serde_json::Value::String(label.to_string()),
                        );
                    }
                    push_field(&mut v, "args", args);
                }
                Ph::Begin => {
                    push_field(&mut v, "args", serde_json::json!({ "arg": e.arg }));
                }
                Ph::End => {}
            }
            evs.push(v);
        }
        let doc = serde_json::json!({
            "displayTimeUnit": "ms",
            "traceEvents": serde_json::Value::Array(evs),
        });
        serde_json::to_string(&doc).expect("chrome doc serialises")
    }

    /// Aggregated text summary: span totals, counter totals, histogram
    /// quantiles.
    pub fn to_summary(&self) -> String {
        let mut out = String::new();
        let threads: std::collections::BTreeSet<u32> = self.events.iter().map(|e| e.tid).collect();
        out.push_str(&format!(
            "trace summary: {} events on {} threads ({} dropped)\n",
            self.events.len(),
            threads.len(),
            self.dropped
        ));
        let spans = self.span_totals();
        if !spans.is_empty() {
            out.push_str("spans:\n");
            for s in &spans {
                out.push_str(&format!(
                    "  {:<28} count={:<7} total={:.6}s\n",
                    format!("{}/{}", s.cat, s.name),
                    s.count,
                    s.total_us as f64 / 1e6
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                out.push_str(&format!(
                    "  {:<28} samples={:<7} sum={}\n",
                    format!("{}/{}", c.cat, c.name),
                    c.count,
                    c.sum
                ));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.hists {
                out.push_str(&format!(
                    "  {:<28} n={} mean={:.2} min={} max={} p50~{} p90~{} p99~{}\n",
                    format!("{}/{}", h.cat, h.name),
                    h.hist.count,
                    h.hist.mean(),
                    h.hist.min,
                    h.hist.max,
                    h.hist.quantile(0.5),
                    h.hist.quantile(0.9),
                    h.hist.quantile(0.99),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_axis() {
        assert_eq!(bucket_index(0), 32);
        assert_eq!(bucket_index(1), 33);
        assert_eq!(bucket_index(2), 34);
        assert_eq!(bucket_index(3), 34);
        assert_eq!(bucket_index(i64::MAX), 64);
        assert_eq!(bucket_index(-1), 31);
        assert_eq!(bucket_index(-2), 30);
        assert_eq!(bucket_index(i64::MIN), 0);
        assert_eq!(bucket_floor(32), 0);
        assert_eq!(bucket_floor(33), 1);
        assert_eq!(bucket_floor(31), -1);
        for v in [-5i64, -1, 0, 1, 7, 1 << 40, i64::MIN, i64::MAX] {
            let i = bucket_index(v);
            assert!(i < HIST_BUCKETS, "{v} -> {i}");
        }
    }

    #[test]
    fn histogram_records_and_merges() {
        let mut a = Histogram::default();
        for v in [-4, -1, 0, 1, 1, 8] {
            a.record(v);
        }
        assert_eq!(a.count, 6);
        assert_eq!(a.min, -4);
        assert_eq!(a.max, 8);
        let mut b = Histogram::default();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count, 7);
        assert_eq!(a.max, 100);
        assert!(a.quantile(0.0) <= a.quantile(1.0));
    }

    #[test]
    fn disarmed_probes_emit_nothing() {
        {
            let _s = span("t", "quiet", 0);
            counter("t", "quiet_c", 3);
            hist("t", "quiet_h", -2);
            instant("t", "quiet_i", 0);
        }
        let ((), s) = collect(TraceConfig::default(), || {});
        assert_eq!(s.event_count(), 0);
        assert!(s.counters.is_empty());
        assert!(s.hists.is_empty());
    }

    #[test]
    fn spans_counters_hists_roundtrip() {
        let ((), s) = collect(TraceConfig::default(), || {
            let _outer = span("t", "outer", 1);
            counter("t", "widgets", 5);
            counter("t", "widgets", 7);
            hist("t", "gain", -3);
            hist("t", "gain", 4);
            {
                let _inner = span("t", "inner", 2);
                instant_label("t", "note", 9, "hello \"world\"");
            }
            let ts = timed_span("t", "timed", 0);
            let secs = ts.finish();
            assert!(secs >= 0.0);
        });
        s.validate_well_formed().unwrap();
        assert_eq!(
            s.events.iter().filter(|e| e.ph == Ph::Begin).count(),
            s.events.iter().filter(|e| e.ph == Ph::End).count()
        );
        let totals = s.span_totals();
        assert!(totals.iter().any(|t| t.name == "outer" && t.count == 1));
        assert!(totals.iter().any(|t| t.name == "timed"));
        let w = s
            .counters
            .iter()
            .find(|c| c.name == "widgets")
            .expect("widgets counter");
        assert_eq!((w.count, w.sum), (2, 12));
        let h = s.hists.iter().find(|h| h.name == "gain").expect("gain");
        assert_eq!(h.hist.count, 2);
        // the three sinks render and the JSON ones parse
        for line in s.to_jsonl().lines() {
            serde_json::from_str::<serde_json::Value>(line).unwrap();
        }
        let chrome: serde_json::Value = serde_json::from_str(&s.to_chrome()).unwrap();
        let evs = chrome
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .unwrap();
        assert!(!evs.is_empty());
        let summary = s.to_summary();
        assert!(summary.contains("t/outer"));
        assert!(summary.contains("widgets"));
    }

    #[test]
    fn cap_drops_events_but_keeps_span_ends() {
        let cfg = TraceConfig {
            max_events_per_thread: 16,
        };
        let ((), s) = collect(cfg, || {
            let guards: Vec<_> = (0..40).map(|i| span("t", "deep", i)).collect();
            drop(guards);
        });
        assert!(s.dropped > 0, "cap should have dropped begins");
        s.validate_well_formed().unwrap();
    }

    #[test]
    fn worker_thread_events_merge_deterministically() {
        let ((), s) = collect(TraceConfig::default(), || {
            let scope = current();
            std::thread::scope(|threads| {
                for i in 0..4 {
                    let scope = &scope;
                    threads.spawn(move || {
                        scope.run(|| {
                            let _s = span("t", "worker", i);
                            counter("t", "work_items", 1);
                        })
                    });
                }
                // a thread outside the scope records nothing
                threads.spawn(|| counter("t", "work_items", 1));
            });
        });
        s.validate_well_formed().unwrap();
        // merged order is (tid, seq): strictly sorted
        for w in s.events.windows(2) {
            assert!((w[0].tid, w[0].seq) < (w[1].tid, w[1].seq));
        }
        let c = s
            .counters
            .iter()
            .find(|c| c.name == "work_items")
            .expect("counter");
        assert_eq!((c.count, c.sum), (4, 4));
        let tids: std::collections::BTreeSet<u32> = s.events.iter().map(|e| e.tid).collect();
        assert_eq!(tids, (1..=4).collect());
    }

    #[test]
    fn scope_run_is_inline_on_the_recording_thread() {
        let ((), s) = collect(TraceConfig::default(), || {
            let _outer = span("t", "outer", 0);
            current().run(|| counter("t", "inline", 1));
        });
        s.validate_well_formed().unwrap();
        assert!(s.events.iter().all(|e| e.tid == 0));
        assert_eq!(s.event_count(), 3);
    }

    #[test]
    fn scope_run_flushes_a_worker_that_unwinds() {
        let ((), s) = collect(TraceConfig::default(), || {
            let scope = current();
            let joined = std::thread::scope(|threads| {
                threads
                    .spawn(|| {
                        scope.run(|| {
                            let _s = span("t", "doomed", 0);
                            panic!("worker fails mid-span");
                        })
                    })
                    .join()
            });
            assert!(joined.is_err());
        });
        s.validate_well_formed().unwrap();
        let ends = s.events.iter().filter(|e| e.ph == Ph::End).count();
        assert_eq!(ends, 1, "the unwound span still ends");
    }

    #[test]
    fn nested_collect_records_only_its_own_closure() {
        let (inner, outer) = collect(TraceConfig::default(), || {
            let _a = span("t", "outer", 0);
            let ((), inner) = collect(TraceConfig::default(), || counter("t", "inner", 1));
            counter("t", "after", 1);
            inner
        });
        outer.validate_well_formed().unwrap();
        let names = |s: &TraceSession| s.events.iter().map(|e| e.name).collect::<Vec<_>>();
        assert_eq!(names(&inner), ["inner"]);
        assert_eq!(names(&outer), ["outer", "after", "outer"]);
    }

    #[test]
    fn stale_span_guard_never_pollutes_a_new_session() {
        let (stale, first) = collect(TraceConfig::default(), || span("t", "stale", 0));
        assert_eq!(
            first.event_count(),
            1,
            "the Begin belongs to the first session"
        );
        // same thread, same tid 0, new session: must not emit an orphan End
        let ((), s) = collect(TraceConfig::default(), || drop(stale));
        s.validate_well_formed().unwrap();
        assert_eq!(s.event_count(), 0);
    }

    #[test]
    fn trace_format_parses() {
        use std::str::FromStr;
        assert_eq!(TraceFormat::from_str("jsonl").unwrap(), TraceFormat::Jsonl);
        assert_eq!(
            TraceFormat::from_str("chrome").unwrap(),
            TraceFormat::Chrome
        );
        assert_eq!(
            TraceFormat::from_str("summary").unwrap(),
            TraceFormat::Summary
        );
        assert!(TraceFormat::from_str("xml").is_err());
    }
}
