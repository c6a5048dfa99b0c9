//! Env-gated fault injection for the robustness suite.
//!
//! A `FAULT_INJECT` environment variable names fault points to arm, and
//! every engine calls [`fault_point`] with its `engine:phase` name at
//! phase boundaries. Disarmed (the default), a fault point is one
//! relaxed atomic load — cheap enough to leave in release builds, which
//! is the point: the robustness suite injects panics and stalls into the
//! *production* code paths, not into test doubles.
//!
//! Spec grammar (comma-separated):
//!
//! ```text
//! FAULT_INJECT=gp:refine:panic
//! FAULT_INJECT=gp:coarsen:stall:500ms,rb:bisect:panic
//! ```
//!
//! Actions: `panic` (the trait-boundary `catch_unwind` must convert it
//! into a typed `BackendPanicked` error), `stall:<N>ms` (sleeps, so
//! budget deadlines can be exercised deterministically) and
//! `alloc_fail[:nth]` (consulted by [`alloc_fault`] at memory
//! reservation sites: the site must degrade or return a typed error as
//! if the ledger had refused — optionally only on the `nth` hit, so
//! tests can fail a specific level deep in a hierarchy). Tests in one
//! process use [`install`]/[`clear`] instead of the env var — the env is
//! read once, but installs may replace the armed set at any time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Duration;

/// What an armed fault point does when hit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with an `injected fault` message.
    Panic,
    /// Sleep for the given duration, then continue.
    Stall(Duration),
    /// Make the matching memory-reservation site behave as if the
    /// reservation was refused; `Some(n)` fires only on the n-th hit
    /// (1-based) of this fault, `None` on every hit.
    AllocFail(Option<u64>),
}

/// One armed fault: `engine:phase` plus the action.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Engine name (`gp`, `rb`, `hyper`, `metis`, …) or `*`.
    pub engine: String,
    /// Phase name (`coarsen`, `initial`, `refine`, …) or `*`.
    pub phase: String,
    /// What to do when the point is hit.
    pub action: FaultAction,
}

static ARMED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();
/// Total `alloc_fail` firings since process start (monotonic; survives
/// [`install`]/[`clear`] so tests can assert a site was actually hit).
static ALLOC_FIRED: AtomicU64 = AtomicU64::new(0);

/// An armed fault plus its hit counter (for `alloc_fail:nth`).
struct ArmedFault {
    fault: Fault,
    hits: u64,
}

fn faults() -> &'static Mutex<Vec<ArmedFault>> {
    static FAULTS: OnceLock<Mutex<Vec<ArmedFault>>> = OnceLock::new();
    FAULTS.get_or_init(|| Mutex::new(Vec::new()))
}

fn arm(parsed: Vec<Fault>) {
    let armed = !parsed.is_empty();
    *faults().lock().unwrap() = parsed
        .into_iter()
        .map(|fault| ArmedFault { fault, hits: 0 })
        .collect();
    ARMED.store(armed, Ordering::Release);
}

/// Parse a `FAULT_INJECT` spec. Empty specs are valid (no faults).
pub fn parse_spec(spec: &str) -> Result<Vec<Fault>, String> {
    let mut out = Vec::new();
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.split(':').collect();
        if parts.len() < 3 {
            return Err(format!(
                "fault `{entry}`: expected engine:phase:action[:arg]"
            ));
        }
        let action = match parts[2] {
            "panic" => {
                if parts.len() != 3 {
                    return Err(format!("fault `{entry}`: panic takes no argument"));
                }
                FaultAction::Panic
            }
            "stall" => {
                let arg = parts
                    .get(3)
                    .ok_or_else(|| format!("fault `{entry}`: stall needs a duration"))?;
                let ms: u64 = arg
                    .trim_end_matches("ms")
                    .parse()
                    .map_err(|_| format!("fault `{entry}`: bad stall duration `{arg}`"))?;
                FaultAction::Stall(Duration::from_millis(ms))
            }
            "alloc_fail" => {
                if parts.len() > 4 {
                    return Err(format!("fault `{entry}`: alloc_fail takes at most one arg"));
                }
                let nth = match parts.get(3) {
                    None => None,
                    Some(arg) => {
                        let n: u64 = arg.parse().map_err(|_| {
                            format!("fault `{entry}`: bad alloc_fail hit index `{arg}`")
                        })?;
                        if n == 0 {
                            return Err(format!(
                                "fault `{entry}`: alloc_fail hit index is 1-based"
                            ));
                        }
                        Some(n)
                    }
                };
                FaultAction::AllocFail(nth)
            }
            other => return Err(format!("fault `{entry}`: unknown action `{other}`")),
        };
        out.push(Fault {
            engine: parts[0].to_string(),
            phase: parts[1].to_string(),
            action,
        });
    }
    Ok(out)
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Ok(spec) = std::env::var("FAULT_INJECT") {
            match parse_spec(&spec) {
                Ok(parsed) if !parsed.is_empty() => arm(parsed),
                Ok(_) => {}
                Err(e) => eprintln!("FAULT_INJECT ignored: {e}"),
            }
        }
    });
}

/// Arm a fault set programmatically (tests). Replaces whatever was armed
/// before, including env-derived faults, and resets hit counters.
pub fn install(spec: &str) -> Result<(), String> {
    init_from_env(); // keep env/install ordering deterministic
    arm(parse_spec(spec)?);
    Ok(())
}

/// Disarm every fault point.
pub fn clear() {
    init_from_env();
    faults().lock().unwrap().clear();
    ARMED.store(false, Ordering::Release);
}

/// A named fault point. Engines call this at phase boundaries; it does
/// nothing unless a matching fault is armed via `FAULT_INJECT` or
/// [`install`].
#[inline]
pub fn fault_point(engine: &str, phase: &str) {
    init_from_env();
    if !ARMED.load(Ordering::Acquire) {
        return;
    }
    fault_point_slow(engine, phase);
}

#[cold]
fn fault_point_slow(engine: &str, phase: &str) {
    let action = {
        let armed = faults().lock().unwrap();
        armed
            .iter()
            .find(|f| {
                matches(&f.fault, engine, phase)
                    // alloc_fail only answers alloc_fault() queries — a
                    // `*:*:alloc_fail` sweep must not turn control-flow
                    // fault points into panics or stalls
                    && !matches!(f.fault.action, FaultAction::AllocFail(_))
            })
            .map(|f| f.fault.action.clone())
        // guard dropped before acting: a panic must not poison the set
    };
    match action {
        Some(FaultAction::Panic) => panic!("injected fault at {engine}:{phase}"),
        Some(FaultAction::Stall(d)) => std::thread::sleep(d),
        Some(FaultAction::AllocFail(_)) | None => {}
    }
}

fn matches(f: &Fault, engine: &str, phase: &str) -> bool {
    (f.engine == engine || f.engine == "*") && (f.phase == phase || f.phase == "*")
}

/// Query fault point for memory-reservation sites. Returns `true` when
/// an armed `alloc_fail` fault matching `engine:phase` fires — the site
/// must then behave exactly as if its ledger reservation was refused
/// (degrade or return a typed error), never panic. Disarmed this is one
/// relaxed atomic load, like [`fault_point`].
#[inline]
pub fn alloc_fault(engine: &str, phase: &str) -> bool {
    init_from_env();
    if !ARMED.load(Ordering::Acquire) {
        return false;
    }
    alloc_fault_slow(engine, phase)
}

#[cold]
fn alloc_fault_slow(engine: &str, phase: &str) -> bool {
    let mut armed = faults().lock().unwrap();
    for f in armed.iter_mut() {
        if !matches(&f.fault, engine, phase) {
            continue;
        }
        if let FaultAction::AllocFail(nth) = f.fault.action {
            f.hits += 1;
            let fire = match nth {
                None => true,
                Some(n) => f.hits == n,
            };
            if fire {
                ALLOC_FIRED.fetch_add(1, Ordering::Relaxed);
            }
            return fire;
        }
    }
    false
}

/// Total `alloc_fail` firings since process start (monotonic). Tests
/// diff this around a run to prove a reservation site was exercised.
pub fn alloc_faults_fired() -> u64 {
    ALLOC_FIRED.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_parses_and_rejects() {
        assert_eq!(parse_spec("").unwrap(), vec![]);
        let faults = parse_spec("gp:refine:panic,rb:bisect:stall:500ms").unwrap();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].engine, "gp");
        assert_eq!(faults[0].phase, "refine");
        assert_eq!(faults[0].action, FaultAction::Panic);
        assert_eq!(
            faults[1].action,
            FaultAction::Stall(Duration::from_millis(500))
        );
        // bare millisecond counts work too
        let faults = parse_spec("hyper:coarsen:stall:25").unwrap();
        assert_eq!(
            faults[0].action,
            FaultAction::Stall(Duration::from_millis(25))
        );
        assert!(parse_spec("gp:refine").is_err());
        assert!(parse_spec("gp:refine:explode").is_err());
        assert!(parse_spec("gp:refine:stall").is_err());
        assert!(parse_spec("gp:refine:stall:soon").is_err());
        assert!(parse_spec("gp:refine:panic:now").is_err());
        // alloc_fail: bare fires every hit, :nth only on the nth
        let faults = parse_spec("gp:coarsen:alloc_fail,rb:bisect:alloc_fail:3").unwrap();
        assert_eq!(faults[0].action, FaultAction::AllocFail(None));
        assert_eq!(faults[1].action, FaultAction::AllocFail(Some(3)));
        assert!(parse_spec("gp:coarsen:alloc_fail:0").is_err());
        assert!(parse_spec("gp:coarsen:alloc_fail:soon").is_err());
        assert!(parse_spec("gp:coarsen:alloc_fail:1:2").is_err());
    }

    // install/clear/fault_point behaviour is exercised end-to-end by the
    // workspace robustness suite (tests/robustness.rs), which owns the
    // process-global armed set behind a serialising mutex.
}
