//! Cooperative run-time budgets for the partitioning engines.
//!
//! A [`Budget`] is the one run context every engine threads through its
//! phases: a wall-clock deadline, a tracked memory ledger, an atomic
//! cancel flag and the run's armed [`FaultPlan`]. Engines consult it
//! **only at phase boundaries** — never inside a hot inner loop — and
//! always through one question, [`Budget::checkpoint`]: may this phase
//! start, and if not, is it the deadline or memory? A run with the
//! default unlimited budget answers that with one branch and produces the
//! bit-identical partition a run that never heard of budgets would.
//!
//! The contract mirrors what KaHyPar's production line treats as table
//! stakes: when the budget expires mid-run the engine does not error out,
//! it stops starting new work, finishes projecting its best candidate to
//! the finest level (an O(n) operation) and returns that partition
//! flagged as *degraded* ([`Degradation`]). The *cancel* flag is the hard
//! variant: callers set it when they no longer want an answer at all, and
//! the backend boundary converts it into a typed error instead of a
//! degraded outcome.

use crate::faultpoint::FaultPlan;
use crate::trace;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Conservative pre-flight cost estimate: one unit ≈ one edge or pin
/// touched by a phase. Deliberately pessimistic (a slow matching level
/// runs at a few hundred ns/edge) so a budgeted engine degrades a phase
/// it cannot plausibly finish instead of blowing through the deadline.
const WORK_NS_PER_UNIT: u64 = 250;

/// Shared atomic accounting of the bytes the partitioning engines have
/// *reserved* against a hard ceiling. The ledger tracks the big,
/// predictable allocations (hierarchy levels, induced subgraphs) — it is
/// a cooperative budget, not an allocator hook, so small bookkeeping
/// allocations stay untracked and callers must leave headroom when
/// running under a real `ulimit -v`.
///
/// One ledger is shared (via `Arc`) by every budget cloned from the same
/// [`Budget::with_max_bytes`] call, so a fallback chain draws on one
/// pool the same way its clones share one deadline.
#[derive(Debug)]
pub struct MemoryLedger {
    limit: u64,
    used: AtomicU64,
    peak: AtomicU64,
    shed: AtomicU64,
}

impl MemoryLedger {
    /// A ledger with a hard ceiling of `limit` tracked bytes.
    pub fn new(limit: u64) -> Self {
        MemoryLedger {
            limit,
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The configured ceiling in bytes.
    #[inline]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Bytes currently reserved.
    #[inline]
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark of reserved bytes over the ledger's lifetime.
    #[inline]
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Total bytes of reservations the ledger refused (work shed).
    #[inline]
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Non-mutating pre-flight: would a reservation of `bytes` fit?
    #[inline]
    pub fn admits(&self, bytes: u64) -> bool {
        self.used().saturating_add(bytes) <= self.limit
    }

    /// Reserve `bytes` against the ceiling. Returns `false` (and records
    /// the shed) when the reservation would cross the limit; the caller
    /// must then degrade instead of allocating.
    pub fn try_reserve(&self, bytes: u64) -> bool {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = match cur.checked_add(bytes) {
                Some(next) if next <= self.limit => next,
                _ => {
                    self.shed.fetch_add(bytes, Ordering::Relaxed);
                    trace::counter("mem", "bytes_shed", bytes);
                    return false;
                }
            };
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.peak.fetch_max(next, Ordering::Relaxed);
                    trace::counter("mem", "bytes_reserved", bytes);
                    return true;
                }
                Err(actual) => cur = actual,
            }
        }
    }

    /// Return `bytes` to the pool (saturating — releasing more than was
    /// reserved clamps to zero rather than wrapping).
    pub fn release(&self, bytes: u64) {
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(bytes);
            match self
                .used
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// RAII handle over a ledger reservation: grows in steps as an engine
/// commits allocations, releases everything it still holds on drop —
/// including on unwind, so an injected panic cannot leak ledger bytes.
/// Budgets without a ledger hand out a no-op reservation, keeping the
/// unbudgeted path allocation-free.
#[derive(Debug, Default)]
pub struct Reservation {
    ledger: Option<Arc<MemoryLedger>>,
    bytes: u64,
}

impl Reservation {
    /// Bytes this reservation currently holds.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Try to grow the reservation by `bytes`. Always succeeds (and
    /// tracks nothing) without a ledger.
    pub fn try_grow(&mut self, bytes: u64) -> bool {
        match &self.ledger {
            None => true,
            Some(ledger) => {
                if ledger.try_reserve(bytes) {
                    self.bytes += bytes;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Hand back `bytes` of the reservation early (e.g. after a
    /// conservative estimate contracted to its actual size).
    pub fn shrink(&mut self, bytes: u64) {
        let give_back = bytes.min(self.bytes);
        if give_back > 0 {
            if let Some(ledger) = &self.ledger {
                ledger.release(give_back);
            }
            self.bytes -= give_back;
        }
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        if self.bytes > 0 {
            if let Some(ledger) = &self.ledger {
                ledger.release(self.bytes);
            }
        }
    }
}

/// Why a [`Budget::checkpoint`] refused to start a phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stop {
    /// The run was cancelled, the deadline passed, or the remaining
    /// wall-clock cannot plausibly fit the phase's work.
    Deadline,
    /// The memory ledger cannot admit the phase's bytes, or an armed
    /// `alloc_fail` fault refused them.
    Memory,
}

/// A cooperative execution budget. `Default`/[`Budget::unlimited`] is the
/// no-op budget: every checkpoint is one branch, keeping the unbudgeted
/// hot path bit-identical and effectively free. Clones share the cancel
/// flag, the memory ledger and the fault plan's hit counters.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    memory: Option<Arc<MemoryLedger>>,
    reduced_footprint: bool,
    faults: Option<Arc<FaultPlan>>,
}

impl Budget {
    /// The budget that never expires (the default).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Expire `limit` from now (a limit past the clock's range never
    /// expires).
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Instant::now().checked_add(limit);
        self
    }

    /// Attach a cancel flag; setting it aborts at the next checkpoint.
    pub fn with_cancel(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Cap tracked memory at `bytes`, backed by a fresh [`MemoryLedger`].
    pub fn with_max_bytes(mut self, bytes: u64) -> Self {
        self.memory = Some(Arc::new(MemoryLedger::new(bytes)));
        self
    }

    /// Ask engines to prefer low-footprint configurations (fewer
    /// restarts, narrower searches). Set by the fallback driver's
    /// reduced-footprint retry after a memory-exhausted first pass.
    pub fn with_reduced_footprint(mut self) -> Self {
        self.reduced_footprint = true;
        self
    }

    /// Arm `plan` for this run and every clone of this budget (an empty
    /// plan arms nothing).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = (!plan.is_empty()).then(|| Arc::new(plan));
        self
    }

    /// The attached memory ledger, when a ceiling is configured.
    #[inline]
    pub fn memory_ledger(&self) -> Option<&Arc<MemoryLedger>> {
        self.memory.as_ref()
    }

    /// True when the budget asks for low-footprint engine configs.
    #[inline]
    pub fn reduced_footprint(&self) -> bool {
        self.reduced_footprint
    }

    /// True when no limit, flag or fault of any kind is configured.
    #[inline]
    fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.cancel.is_none()
            && self.memory.is_none()
            && !self.reduced_footprint
            && self.faults.is_none()
    }

    /// True when the cancel flag was raised.
    #[inline]
    pub fn cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|c| c.load(Ordering::Relaxed))
    }

    /// May phase `engine:phase` start? It needs ~`work` units of graph
    /// work (edges matched, pins scanned; see [`WORK_NS_PER_UNIT`]) to fit
    /// the remaining wall-clock and `bytes` more tracked bytes to fit the
    /// memory ledger. A phase that asks for bytes is also a fault site:
    /// an armed `alloc_fail` fault for `engine:phase` counts one hit and,
    /// when it fires, refuses the bytes as the ledger would.
    ///
    /// A memory refusal beats the deadline unless the run was cancelled,
    /// so a phase that both runs out of time and of bytes reports memory.
    /// Non-mutating apart from fault hit counters — use
    /// [`begin_reservation`](Self::begin_reservation) to claim the bytes.
    /// Each call counts one `budget_checkpoint` trace sample under
    /// `engine`.
    #[inline]
    pub fn checkpoint(
        &self,
        engine: &'static str,
        phase: &'static str,
        work: u64,
        bytes: u64,
    ) -> Result<(), Stop> {
        trace::counter(engine, "budget_checkpoint", 1);
        if self.is_unlimited() {
            return Ok(());
        }
        let injected = bytes > 0
            && self
                .faults
                .as_ref()
                .is_some_and(|plan| plan.alloc_fails(engine, phase));
        self.decide(injected, work, bytes)
    }

    /// [`checkpoint`](Self::checkpoint) without a fault site: the
    /// pre-flights that stand in front of a phase's own checkpoint (the
    /// backend boundary, gp's level-arena gate) must not spend its
    /// `alloc_fail` hits, and they count no checkpoint.
    #[inline]
    pub fn admits(&self, work: u64, bytes: u64) -> Result<(), Stop> {
        if self.is_unlimited() {
            return Ok(());
        }
        self.decide(false, work, bytes)
    }

    /// The stop policy every checkpoint shares.
    fn decide(&self, injected: bool, work: u64, bytes: u64) -> Result<(), Stop> {
        let cancelled = self.cancelled();
        let refused = injected
            || self
                .memory
                .as_ref()
                .is_some_and(|ledger| !ledger.admits(bytes));
        if refused && !cancelled {
            return Err(Stop::Memory);
        }
        let fits = self.deadline.is_none_or(|d| {
            let est = Duration::from_nanos(work.saturating_mul(WORK_NS_PER_UNIT));
            d.saturating_duration_since(Instant::now()) > est
        });
        if cancelled || !fits {
            Err(Stop::Deadline)
        } else {
            Ok(())
        }
    }

    /// A named fault point: engines call this at phase boundaries. It
    /// fires an armed `panic` or `stall` fault for `engine:phase` and
    /// does nothing without a plan.
    #[inline]
    pub fn fault_point(&self, engine: &'static str, phase: &'static str) {
        if let Some(plan) = &self.faults {
            plan.hit(engine, phase);
        }
    }

    /// Start an empty RAII reservation against this budget's ledger (a
    /// no-op handle when no ceiling is configured).
    pub fn begin_reservation(&self) -> Reservation {
        Reservation {
            ledger: self.memory.clone(),
            bytes: 0,
        }
    }
}

/// What a budgeted engine reports when it returned best-so-far instead
/// of running to completion: the phase that was cut short and why.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Degradation {
    /// The phase that was cut short (`coarsen`, `initial`, `refine`, …).
    pub phase: String,
    /// Human-readable cause (`deadline expired`, `memory budget …`).
    pub reason: String,
}

impl Degradation {
    /// Construct a degradation record.
    pub fn new(phase: &str, reason: impl Into<String>) -> Self {
        Degradation {
            phase: phase.to_string(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "degraded in {}: {}", self.phase, self.reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulted(spec: &str) -> Budget {
        Budget::unlimited().with_faults(FaultPlan::parse(spec).unwrap())
    }

    #[test]
    fn unlimited_admits_everything() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.cancelled());
        assert_eq!(b.checkpoint("gp", "coarsen", u64::MAX, u64::MAX), Ok(()));
        assert_eq!(b.admits(u64::MAX, u64::MAX), Ok(()));
        // an empty plan arms nothing
        assert!(faulted("").is_unlimited());
    }

    #[test]
    fn deadline_expires_and_gates_work() {
        let b = Budget::unlimited().with_deadline(Duration::from_millis(0));
        assert!(!b.is_unlimited());
        assert_eq!(b.checkpoint("gp", "cycle", 0, 0), Err(Stop::Deadline));
        let b = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        assert_eq!(b.checkpoint("gp", "cycle", 0, 0), Ok(()));
        // 250µs fits in an hour, centuries do not
        assert_eq!(b.checkpoint("gp", "refine", 1_000, 0), Ok(()));
        assert_eq!(
            b.checkpoint("gp", "refine", u64::MAX / WORK_NS_PER_UNIT, 0),
            Err(Stop::Deadline)
        );
        // a limit past the clock's range never expires
        assert!(Budget::unlimited()
            .with_deadline(Duration::MAX)
            .is_unlimited());
    }

    #[test]
    fn cancel_flag_trips_every_check() {
        let flag = Arc::new(AtomicBool::new(false));
        let b = Budget::unlimited().with_cancel(flag.clone());
        assert_eq!(b.checkpoint("gp", "cycle", 0, 0), Ok(()));
        flag.store(true, Ordering::Relaxed);
        assert!(b.cancelled());
        assert_eq!(b.checkpoint("gp", "cycle", 0, 0), Err(Stop::Deadline));
        assert_eq!(b.admits(0, 0), Err(Stop::Deadline));
    }

    #[test]
    fn memory_beats_the_deadline_unless_cancelled() {
        // a refusing ledger and an injected alloc fault both report
        // memory, even when the deadline has also passed
        let b = Budget::unlimited()
            .with_deadline(Duration::ZERO)
            .with_max_bytes(10);
        assert_eq!(b.checkpoint("rb", "bisect", 0, 11), Err(Stop::Memory));
        assert_eq!(b.admits(0, 11), Err(Stop::Memory));
        assert_eq!(b.checkpoint("rb", "bisect", 0, 10), Err(Stop::Deadline));
        let b = faulted("rb:bisect:alloc_fail").with_deadline(Duration::ZERO);
        assert_eq!(b.checkpoint("rb", "bisect", 0, 1), Err(Stop::Memory));
        // a cancelled run reports the deadline whatever memory says
        let b = faulted("rb:bisect:alloc_fail")
            .with_max_bytes(10)
            .with_cancel(Arc::new(AtomicBool::new(true)));
        assert_eq!(b.checkpoint("rb", "bisect", 0, 11), Err(Stop::Deadline));
        assert_eq!(b.checkpoint("rb", "bisect", 0, 1), Err(Stop::Deadline));
    }

    #[test]
    fn alloc_faults_fire_only_where_bytes_are_asked() {
        let b = faulted("gp:coarsen:alloc_fail");
        assert!(!b.is_unlimited());
        assert_eq!(b.checkpoint("gp", "coarsen", 0, 1), Err(Stop::Memory));
        // other sites, byte-free checkpoints and pre-flights pass
        assert_eq!(b.checkpoint("gp", "refine", 0, 1), Ok(()));
        assert_eq!(b.checkpoint("gp", "coarsen", 100, 0), Ok(()));
        assert_eq!(b.admits(0, 1), Ok(()));
    }

    #[test]
    fn nth_alloc_fault_fires_on_the_nth_hit_across_clones() {
        let b = faulted("gp:coarsen:alloc_fail:3");
        let c = b.clone();
        assert_eq!(b.checkpoint("gp", "coarsen", 0, 1), Ok(()));
        // byte-free checkpoints are not hits
        assert_eq!(c.checkpoint("gp", "coarsen", 0, 0), Ok(()));
        assert_eq!(c.checkpoint("gp", "coarsen", 0, 1), Ok(()));
        assert_eq!(b.checkpoint("gp", "coarsen", 0, 1), Err(Stop::Memory));
        assert_eq!(c.checkpoint("gp", "coarsen", 0, 1), Ok(()));
        // a fresh plan counts from zero
        assert_eq!(
            faulted("gp:coarsen:alloc_fail:3").checkpoint("gp", "coarsen", 0, 1),
            Ok(())
        );
    }

    #[test]
    fn fault_points_fire_panics_from_the_plan() {
        Budget::unlimited().fault_point("gp", "refine");
        let b = faulted("gp:refine:panic");
        b.fault_point("gp", "coarsen");
        let err = std::panic::catch_unwind(|| b.fault_point("gp", "refine")).unwrap_err();
        assert_eq!(
            err.downcast_ref::<String>().map(String::as_str),
            Some("injected fault at gp:refine")
        );
    }

    #[test]
    fn memory_ledger_reserves_and_sheds() {
        let l = MemoryLedger::new(100);
        assert_eq!(l.limit(), 100);
        assert!(l.admits(100));
        assert!(l.try_reserve(60));
        assert_eq!(l.used(), 60);
        assert!(!l.admits(41));
        assert!(l.admits(40));
        assert!(!l.try_reserve(41)); // would cross the limit
        assert_eq!(l.shed(), 41);
        assert_eq!(l.used(), 60); // refused reservation left no trace
        assert!(l.try_reserve(40));
        assert_eq!(l.used(), 100);
        assert_eq!(l.peak(), 100);
        l.release(70);
        assert_eq!(l.used(), 30);
        assert_eq!(l.peak(), 100); // peak is a high-water mark
        l.release(1_000); // over-release clamps, never wraps
        assert_eq!(l.used(), 0);
    }

    #[test]
    fn checkpoint_admits_bytes_against_the_ledger() {
        let b = Budget::unlimited().with_max_bytes(1000);
        assert!(!b.is_unlimited());
        assert_eq!(b.checkpoint("gp", "coarsen", 0, 1000), Ok(()));
        assert_eq!(b.checkpoint("gp", "coarsen", 0, 1001), Err(Stop::Memory));
        assert!(b.memory_ledger().unwrap().try_reserve(1000));
        assert_eq!(b.checkpoint("gp", "coarsen", 0, 1), Err(Stop::Memory));
        assert_eq!(b.checkpoint("gp", "refine", 0, 0), Ok(()));
    }

    #[test]
    fn reservation_releases_on_drop_and_shrinks() {
        let b = Budget::unlimited().with_max_bytes(100);
        let ledger = b.memory_ledger().unwrap().clone();
        {
            let mut r = b.begin_reservation();
            assert!(r.try_grow(80));
            assert!(!r.try_grow(30));
            assert_eq!(r.bytes(), 80);
            r.shrink(50); // conservative estimate contracted
            assert_eq!(r.bytes(), 30);
            assert_eq!(ledger.used(), 30);
            assert!(r.try_grow(60));
        } // drop releases the rest
        assert_eq!(ledger.used(), 0);
        assert_eq!(ledger.peak(), 90);
        // a ledger is shared across clones of the same budget
        let c = b.clone();
        assert!(c.memory_ledger().unwrap().try_reserve(100));
        assert_eq!(b.admits(0, 1), Err(Stop::Memory));
        c.memory_ledger().unwrap().release(100);
        // no-ledger reservations are free and infallible
        let mut r = Budget::unlimited().begin_reservation();
        assert!(r.try_grow(u64::MAX));
        assert_eq!(r.bytes(), 0);
    }

    #[test]
    fn reduced_footprint_flag_round_trips() {
        let b = Budget::unlimited();
        assert!(!b.reduced_footprint());
        let b = b.with_reduced_footprint();
        assert!(b.reduced_footprint());
        assert!(!b.is_unlimited());
    }

    #[test]
    fn degradation_displays() {
        let d = Degradation::new("coarsen", "deadline expired at level 3");
        assert_eq!(
            d.to_string(),
            "degraded in coarsen: deadline expired at level 3"
        );
        let json = serde_json::to_string(&d).unwrap();
        let back: Degradation = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
