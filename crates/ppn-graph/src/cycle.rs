//! The cycle driver of the constrained engines (gp, rb and hyper).
//!
//! The paper's GP (§IV) reruns its V-cycle with fresh seeds until a cycle
//! meets both constraints, and otherwise returns its goodness-best
//! attempt. Every engine that keeps that contract runs [`run_cycles`]:
//! the engine supplies one cycle as a closure — its seed streams,
//! fallbacks, phase checkpoints and reduced-footprint clamps stay its
//! own — and the driver owns what the cycles share:
//!
//! * the `{engine}:cycle` span and the count of cycles run;
//! * the `{engine}:cycle` [`Budget::checkpoint`] before every cycle after
//!   the first; a refusal ends the run with a `cycle` [`Degradation`];
//! * the stop after the first attempt with zero violations;
//! * the best attempt: an offer replaces it only when its goodness key
//!   is strictly lower, so ties keep the earlier attempt;
//! * the run's degradation record, where the first one recorded wins,
//!   and its `{engine}:degraded` trace instant;
//! * the level walk ([`CycleRun::walk_up`]) that carries a partition from
//!   a coarse level to a finer one and refines each level the budget
//!   admits.

use crate::budget::{Budget, Degradation};
use crate::partition::Partition;
use crate::trace;
use std::ops::{ControlFlow, Range};

/// An attempt's goodness key `(violated constraints, violation
/// magnitude, cost)`, compared lexicographically; lower is better.
pub type Goodness = (u64, u64, u64);

/// What a cyclic engine returns: the goodness-best attempt of its run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BestAttempt {
    /// The best complete partition found.
    pub partition: Partition,
    /// Its goodness key under the engine's cost model.
    pub goodness: Goodness,
    /// Cycles started before returning.
    pub cycles_used: usize,
    /// Set when a [`Budget`] cut the run short and the partition is the
    /// best so far rather than the converged answer.
    pub degraded: Option<Degradation>,
}

impl BestAttempt {
    /// True when no constraint is violated — the paper's feasible
    /// outcome; otherwise this is its "impossible or needs more time"
    /// best attempt.
    pub fn feasible(&self) -> bool {
        self.goodness.0 == 0
    }
}

/// The state one run's cycles share, handed to every cycle.
#[derive(Debug)]
pub struct CycleRun<'b> {
    engine: &'static str,
    budget: &'b Budget,
    best: Option<(Goodness, Partition)>,
    degraded: Option<Degradation>,
}

impl<'b> CycleRun<'b> {
    /// The run's budget.
    pub fn budget(&self) -> &'b Budget {
        self.budget
    }

    /// True once an attempt has been offered.
    pub fn has_best(&self) -> bool {
        self.best.is_some()
    }

    /// Offer a complete attempt: it becomes the best only when its key
    /// is strictly lower than the best so far.
    pub fn offer(&mut self, goodness: Goodness, p: Partition) {
        if self.best.as_ref().is_none_or(|(best, _)| goodness < *best) {
            self.best = Some((goodness, p));
        }
    }

    /// Record that `phase` was cut short; the first record of a run wins.
    pub fn degrade(&mut self, phase: &str, reason: impl Into<String>) {
        self.degraded
            .get_or_insert_with(|| Degradation::new(phase, reason));
    }

    /// Carry `p` up through `levels`, iterated coarse to fine. On entry
    /// `p` lives on level `levels.end`; `level(i)` gives level i's
    /// fine→coarse map and the work its refinement asks for.
    /// Each level is projected, then refined by `refine` when the
    /// `{engine}:refine` checkpoint admits that work. A refused level is
    /// still projected — an O(n) must-finish step, or the partition
    /// would live on the wrong graph — and recorded as a `refine`
    /// degradation.
    pub fn walk_up<'m>(
        &mut self,
        levels: Range<usize>,
        mut p: Partition,
        level: impl Fn(usize) -> (&'m [u32], u64),
        mut refine: impl FnMut(usize, &mut Partition),
    ) -> Partition {
        for i in levels.rev() {
            let _lvl = trace::span(self.engine, "level", i as i64);
            let (map, work) = level(i);
            p = p.project(map);
            if self
                .budget
                .checkpoint(self.engine, "refine", work, 0)
                .is_ok()
            {
                refine(i, &mut p);
            } else {
                self.degrade(
                    "refine",
                    format!("deadline expired; projecting level {i} without refinement"),
                );
            }
        }
        p
    }
}

/// Run up to `max_cycles` (at least one) cycles of `engine`. `cycle(run,
/// i)` runs cycle i and offers its attempt through
/// [`CycleRun::offer`]; it returns [`ControlFlow::Break`] to end the run
/// after this cycle (a fallback that has nothing better to try). Cycle 0
/// always runs and must offer an attempt.
pub fn run_cycles(
    engine: &'static str,
    budget: &Budget,
    max_cycles: usize,
    mut cycle: impl FnMut(&mut CycleRun<'_>, usize) -> ControlFlow<()>,
) -> BestAttempt {
    let mut run = CycleRun {
        engine,
        budget,
        best: None,
        degraded: None,
    };
    let mut cycles_used = 0;
    for i in 0..max_cycles.max(1) {
        let _cyc = trace::span(engine, "cycle", i as i64);
        if i > 0 && budget.checkpoint(engine, "cycle", 0, 0).is_err() {
            run.degrade("cycle", format!("deadline expired after {i} cycle(s)"));
            break;
        }
        cycles_used = i + 1;
        let stop = cycle(&mut run, i).is_break();
        if stop || run.best.as_ref().is_some_and(|(best, _)| best.0 == 0) {
            break;
        }
    }
    if let Some(d) = &run.degraded {
        trace::instant_label(engine, "degraded", 0, &format!("{}: {}", d.phase, d.reason));
    }
    let (goodness, partition) = run.best.expect("cycle 0 offers an attempt");
    BestAttempt {
        partition,
        goodness,
        cycles_used,
        degraded: run.degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn part(assign: &[u32]) -> Partition {
        Partition::from_assignment(assign.to_vec(), 2).unwrap()
    }

    /// Offer `attempts[i]` in cycle i and keep cycling.
    fn offer_each(budget: &Budget, attempts: &[(Goodness, Partition)]) -> BestAttempt {
        run_cycles("test", budget, attempts.len(), |run, i| {
            let (key, p) = attempts[i].clone();
            run.offer(key, p);
            ControlFlow::Continue(())
        })
    }

    #[test]
    fn only_a_strictly_lower_key_replaces_the_best() {
        let unlimited = Budget::unlimited();
        let tie = offer_each(
            &unlimited,
            &[((1, 5, 9), part(&[0])), ((1, 5, 9), part(&[1]))],
        );
        assert_eq!(tie.partition, part(&[0]), "a tie keeps the earlier attempt");
        assert_eq!((tie.goodness, tie.cycles_used), ((1, 5, 9), 2));
        // fewer violations and a smaller magnitude rank before the cut
        let lower = offer_each(
            &unlimited,
            &[((1, 5, 9), part(&[0])), ((1, 4, 90), part(&[1]))],
        );
        assert_eq!(lower.partition, part(&[1]));
        assert_eq!(lower.goodness, (1, 4, 90));
        assert!(!lower.feasible() && lower.degraded.is_none());
    }

    #[test]
    fn the_loop_stops_after_the_first_attempt_without_violations() {
        let mut ran = 0;
        let best = run_cycles("test", &Budget::unlimited(), 10, |run, i| {
            ran += 1;
            run.offer((2 - i as u64, 0, 7), part(&[i as u32 % 2]));
            ControlFlow::Continue(())
        });
        assert_eq!(ran, 3);
        assert_eq!(best.cycles_used, 3, "the feasible cycle counts");
        assert!(best.feasible());
        assert_eq!(best.partition, part(&[0]));
        // a cycle that breaks ends the run too, feasible or not
        let best = run_cycles("test", &Budget::unlimited(), 10, |run, _| {
            run.offer((1, 1, 1), part(&[1]));
            ControlFlow::Break(())
        });
        assert_eq!((best.cycles_used, best.feasible()), (1, false));
    }

    #[test]
    fn an_expired_deadline_stops_before_cycle_one_and_keeps_the_best() {
        let expired = Budget::unlimited().with_deadline(Duration::ZERO);
        let mut ran = 0;
        let best = run_cycles("test", &expired, 5, |run, _| {
            ran += 1;
            run.offer((1, 3, 4), part(&[1]));
            ControlFlow::Continue(())
        });
        assert_eq!((ran, best.cycles_used), (1, 1));
        assert_eq!(best.partition, part(&[1]));
        assert_eq!(
            best.degraded,
            Some(Degradation::new(
                "cycle",
                "deadline expired after 1 cycle(s)"
            ))
        );
    }

    #[test]
    fn the_first_degradation_wins() {
        let expired = Budget::unlimited().with_deadline(Duration::ZERO);
        let (best, session) = trace::collect(trace::TraceConfig::default(), || {
            run_cycles("test", &expired, 5, |run, _| {
                run.degrade("initial", "first");
                run.degrade("refine", "second");
                run.offer((1, 1, 1), part(&[0]));
                ControlFlow::Continue(())
            })
        });
        // neither the second record nor the refused cycle checkpoint
        // replaces it, and the run's one trace instant names it
        assert_eq!(best.degraded, Some(Degradation::new("initial", "first")));
        let instants: Vec<_> = session
            .events
            .iter()
            .filter(|e| (e.cat, e.name, e.ph) == ("test", "degraded", trace::Ph::Instant))
            .map(|e| e.label.as_deref())
            .collect();
        assert_eq!(instants, [Some("initial: first")]);
    }

    /// Walk a 1-node coarsest partition up through two levels (1 → 2 →
    /// 4 nodes), recording which levels were refined.
    fn walk(budget: &Budget) -> (BestAttempt, Vec<usize>) {
        let maps: [&[u32]; 2] = [&[0, 0, 1, 1], &[0, 0]];
        let mut refined = Vec::new();
        let best = run_cycles("test", budget, 1, |run, _| {
            let p = run.walk_up(0..2, part(&[1]), |i| (maps[i], 10), |i, _| refined.push(i));
            run.offer((0, 0, 0), p);
            ControlFlow::Continue(())
        });
        (best, refined)
    }

    #[test]
    fn the_walk_refines_coarse_to_fine_when_admitted() {
        let (best, refined) = walk(&Budget::unlimited());
        assert_eq!(refined, [1, 0]);
        assert_eq!(best.partition, part(&[1, 1, 1, 1]));
        assert!(best.degraded.is_none());
    }

    #[test]
    fn an_expired_deadline_walk_projects_every_level_and_refines_none() {
        let (best, refined) = walk(&Budget::unlimited().with_deadline(Duration::ZERO));
        assert!(refined.is_empty());
        assert_eq!(best.partition, part(&[1, 1, 1, 1]));
        assert_eq!(
            best.degraded,
            Some(Degradation::new(
                "refine",
                "deadline expired; projecting level 1 without refinement"
            ))
        );
    }
}
