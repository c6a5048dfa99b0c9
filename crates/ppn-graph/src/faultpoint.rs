//! Run-scoped fault injection for the robustness suites.
//!
//! A [`FaultPlan`] names fault points to arm. It rides on the run's
//! [`Budget`](crate::Budget) (`Budget::with_faults`), so one plan — and
//! one set of hit counters — is shared by every clone of that budget and
//! seen by no other run. Engines call
//! [`Budget::fault_point`](crate::Budget::fault_point) with their
//! `engine:phase` name at phase boundaries, and every
//! [`Budget::checkpoint`](crate::Budget::checkpoint) that asks for bytes
//! consults the plan's `alloc_fail` faults. A budget without a plan pays
//! one `None` check — cheap enough to leave in release builds, which is
//! the point: the suites inject panics and stalls into the *production*
//! code paths, not into test doubles.
//!
//! Spec grammar (comma-separated), as the `gp` CLI reads it from
//! `FAULT_INJECT`:
//!
//! ```text
//! gp:refine:panic
//! gp:coarsen:stall:500ms,rb:bisect:panic
//! ```
//!
//! Actions: `panic` (the trait-boundary `catch_unwind` must convert it
//! into a typed `BackendPanicked` error), `stall:<N>ms` (sleeps, so
//! budget deadlines can be exercised deterministically) and
//! `alloc_fail[:nth]` (the checkpoint must degrade or return a typed
//! error as if the ledger had refused — optionally only on the `nth` hit,
//! so tests can fail a specific level deep in a hierarchy).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an armed fault point does when hit.
#[derive(Clone, Debug, PartialEq, Eq)]
enum FaultAction {
    /// Panic with an `injected fault` message.
    Panic,
    /// Sleep for the given duration, then continue.
    Stall(Duration),
    /// Make the matching memory checkpoint behave as if the ledger
    /// refused; `Some(n)` fires only on the n-th hit (1-based) of this
    /// fault, `None` on every hit.
    AllocFail(Option<u64>),
}

/// One armed fault: `engine:phase` (either may be `*`) plus the action.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Fault {
    engine: String,
    phase: String,
    action: FaultAction,
}

impl Fault {
    fn matches(&self, engine: &str, phase: &str) -> bool {
        (self.engine == engine || self.engine == "*") && (self.phase == phase || self.phase == "*")
    }
}

/// The armed faults of one run, each with its hit counter (for
/// `alloc_fail:nth`). Counters are atomic, so the plan is shared by
/// reference across every clone of the budget that carries it.
#[derive(Debug)]
pub struct FaultPlan {
    faults: Vec<(Fault, AtomicU64)>,
}

impl FaultPlan {
    /// Parse a spec (see the module docs) into a fresh plan with every
    /// hit counter at zero. Empty specs are valid (nothing armed).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let faults = parse_spec(spec)?;
        Ok(FaultPlan {
            faults: faults.into_iter().map(|f| (f, AtomicU64::new(0))).collect(),
        })
    }

    /// True when nothing is armed.
    pub(crate) fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Fire the first `panic` or `stall` fault matching `engine:phase`.
    /// `alloc_fail` faults only answer [`alloc_fails`](Self::alloc_fails)
    /// — a `*:*:alloc_fail` sweep must not turn control-flow fault points
    /// into panics or stalls.
    pub(crate) fn hit(&self, engine: &str, phase: &str) {
        let action = self
            .faults
            .iter()
            .map(|(f, _)| f)
            .find(|f| f.matches(engine, phase) && !matches!(f.action, FaultAction::AllocFail(_)))
            .map(|f| &f.action);
        match action {
            Some(FaultAction::Panic) => panic!("injected fault at {engine}:{phase}"),
            Some(FaultAction::Stall(d)) => std::thread::sleep(*d),
            Some(FaultAction::AllocFail(_)) | None => {}
        }
    }

    /// Count a hit on the first `alloc_fail` fault matching
    /// `engine:phase` and report whether it fires.
    pub(crate) fn alloc_fails(&self, engine: &str, phase: &str) -> bool {
        self.faults
            .iter()
            .find_map(|(f, hits)| match f.action {
                FaultAction::AllocFail(nth) if f.matches(engine, phase) => {
                    let hit = hits.fetch_add(1, Ordering::Relaxed) + 1;
                    Some(nth.is_none_or(|n| hit == n))
                }
                _ => None,
            })
            .unwrap_or(false)
    }
}

fn parse_spec(spec: &str) -> Result<Vec<Fault>, String> {
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

    #[test]
    fn plan_fires_matching_faults_only() {
        let plan = FaultPlan::parse("gp:refine:panic,*:*:alloc_fail").unwrap();
        plan.hit("gp", "coarsen"); // no panic armed there
        plan.hit("rb", "refine"); // wildcard alloc_fail never panics
        assert!(std::panic::catch_unwind(|| plan.hit("gp", "refine")).is_err());
        assert!(plan.alloc_fails("gp", "refine"));
        assert!(plan.alloc_fails("metis", "kway"));
        let plan = FaultPlan::parse("gp:coarsen:alloc_fail").unwrap();
        assert!(!plan.alloc_fails("rb", "coarsen"));
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }
}
