//! The multilevel k-way hypergraph partitioning driver.
//!
//! The same V-cycle shape as `gp_core::cycle`: coarsen with
//! heavy-pin-connectivity matchings, greedy constrained initial
//! partitioning with restarts on the coarsest hypergraph, constrained
//! refinement while projecting back up, and cyclic re-coarsening with a
//! fresh seed while the constraints are still violated. Feasibility and
//! goodness use the connectivity bandwidth model throughout (a cut
//! net's bandwidth charged once per spanned boundary).

use crate::coarsen::{hyper_coarsen, HyperHierarchy};
use crate::hypergraph::Hypergraph;
use crate::initial::{greedy_hyper_initial, HyperInitialOptions};
use crate::metrics::HyperQuality;
use crate::refine::{hyper_refine, HyperRefineOptions};
use ppn_graph::prng::derive_seed;
use ppn_graph::trace;
use ppn_graph::{Budget, ConstraintReport, Constraints, Degradation, Partition, Stop};
use serde::{Deserialize, Serialize};

/// Parameters of [`hyper_partition`], defaults matching `GpParams`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HyperParams {
    /// Coarsening stops at this many nodes.
    pub coarsen_to: usize,
    /// Restarts of the greedy initial partitioning.
    pub initial_restarts: usize,
    /// Refinement sweeps per hierarchy level.
    pub refine_passes: usize,
    /// Re-coarsening cycles before reporting infeasibility.
    pub max_cycles: usize,
    /// Root seed for every stochastic component.
    pub seed: u64,
}

impl Default for HyperParams {
    fn default() -> Self {
        HyperParams {
            coarsen_to: 100,
            initial_restarts: 10,
            refine_passes: 8,
            max_cycles: 10,
            seed: 0xCA77A,
        }
    }
}

impl HyperParams {
    /// Same parameters, different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of a successful (feasible) run, or the best attempt of a
/// failed one (via [`HyperInfeasible`]).
#[derive(Clone, Debug)]
pub struct HyperResult {
    /// The k-way partition.
    pub partition: Partition,
    /// Its measured quality.
    pub quality: HyperQuality,
    /// Constraint report at the returned partition.
    pub report: ConstraintReport,
    /// True when both constraints hold.
    pub feasible: bool,
    /// Cycles actually run.
    pub cycles_used: usize,
    /// Set when a [`Budget`] cut the run short and the partition is
    /// best-so-far rather than fully converged.
    pub degraded: Option<Degradation>,
}

/// The constraints could not be met within the cycle budget; carries the
/// best attempt.
#[derive(Clone, Debug)]
pub struct HyperInfeasible {
    /// Best attempt found.
    pub best: HyperResult,
}

impl std::fmt::Display for HyperInfeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hypergraph partitioning: constraints look impossible or need more time ({})",
            self.best.report.summary()
        )
    }
}

impl std::error::Error for HyperInfeasible {}

/// Conservative bytes a coarsening run over `hg` allocates: per level
/// the coarse hypergraph's CSR arrays (≈16 bytes per node and net, 8 per
/// pin, counting the dual), summed over a geometric hierarchy (~2× the
/// finest level).
fn hyper_bytes_estimate(hg: &Hypergraph) -> u64 {
    2 * (hg.num_nodes() as u64 * 16 + hg.num_nets() as u64 * 16 + hg.num_pins() as u64 * 8)
}

fn refine_up(
    hier: &HyperHierarchy,
    mut p: Partition,
    c: &Constraints,
    params: &HyperParams,
    stream: u64,
    budget: &Budget,
    degraded: &mut Option<Degradation>,
) -> Partition {
    for (i, level) in hier.levels.iter().enumerate().rev() {
        let _lvl = trace::span("hyper", "level", i as i64);
        p = p.project(&level.map);
        // Projection must continue to the finest hypergraph even after
        // the deadline — only the (optional) refinement work is skipped.
        if budget
            .checkpoint("hyper", "refine", level.fine.num_pins() as u64, 0)
            .is_err()
        {
            degraded.get_or_insert_with(|| {
                Degradation::new(
                    "refine",
                    format!("deadline expired; projected level {i} without refinement"),
                )
            });
            continue;
        }
        hyper_refine(
            &level.fine,
            &mut p,
            c,
            &HyperRefineOptions {
                max_passes: params.refine_passes,
                seed: derive_seed(params.seed, stream ^ (i as u64) << 8),
                protect_nonempty: true,
            },
        );
    }
    p
}

/// Run the full multilevel hypergraph partitioner. Returns `Ok` when the
/// constraints are met, `Err(HyperInfeasible)` with the best attempt
/// otherwise.
/// Assumes the instance gate's weight bound (see the crate docs).
pub fn hyper_partition(
    hg: &Hypergraph,
    k: usize,
    c: &Constraints,
    params: &HyperParams,
) -> Result<HyperResult, Box<HyperInfeasible>> {
    hyper_partition_budgeted(hg, k, c, params, &Budget::unlimited())
}

/// [`hyper_partition`] under a cooperative [`Budget`]: checks at cycle
/// and level boundaries, returns best-so-far (marked `degraded`) once
/// the deadline passes. An unlimited budget is bit-identical to
/// [`hyper_partition`].
/// Assumes the instance gate's weight bound (see the crate docs).
pub fn hyper_partition_budgeted(
    hg: &Hypergraph,
    k: usize,
    c: &Constraints,
    params: &HyperParams,
    budget: &Budget,
) -> Result<HyperResult, Box<HyperInfeasible>> {
    assert!(k >= 1, "k must be at least 1");
    assert!(hg.num_nodes() > 0, "cannot partition an empty hypergraph");

    let _run = trace::span("hyper", "partition", hg.num_nodes() as i64);
    let mut best: Option<((u64, u64, u64), Partition)> = None;
    let mut cycles_used = 0;
    let mut degraded: Option<Degradation> = None;
    // reduced-footprint budgets cut the transient working set of the
    // greedy initial search (one candidate partition per restart)
    let initial_restarts = if budget.reduced_footprint() {
        params.initial_restarts.min(2)
    } else {
        params.initial_restarts
    };
    for cycle in 0..params.max_cycles.max(1) {
        let _cyc = trace::span("hyper", "cycle", cycle as i64);
        if cycle > 0 && budget.checkpoint("hyper", "cycle", 0, 0).is_err() {
            degraded.get_or_insert_with(|| {
                Degradation::new("cycle", format!("deadline expired after {cycle} cycle(s)"))
            });
            break;
        }
        cycles_used = cycle + 1;
        let cycle_seed = derive_seed(params.seed, 0x4C1C + cycle as u64);

        // A coarsen + initial round over this hypergraph is at least
        // pin-linear in time and allocates the whole hierarchy (~2× the
        // finest level) in bytes; with nothing banked yet fall back to a
        // contiguous fill rather than blowing through either budget —
        // with a best already banked, keep it and stop re-coarsening (the
        // deadline was already asked at the cycle boundary).
        let stop = match budget.checkpoint(
            "hyper",
            "coarsen",
            hg.num_pins() as u64,
            hyper_bytes_estimate(hg),
        ) {
            Err(Stop::Deadline) if best.is_some() => None,
            other => other.err(),
        };
        if let Some(stop) = stop {
            let cause = match stop {
                Stop::Memory => "memory budget cannot fit the hierarchy",
                Stop::Deadline => "deadline expired",
            };
            if best.is_some() {
                degraded.get_or_insert_with(|| {
                    Degradation::new("cycle", format!("{cause}; stopping after {cycle} cycle(s)"))
                });
                break;
            }
            degraded.get_or_insert_with(|| {
                Degradation::new(
                    "initial",
                    format!("{cause}; contiguous fill over {} nodes", hg.num_nodes()),
                )
            });
            let p = Partition::contiguous_balanced(hg.node_weights(), k);
            let goodness = HyperQuality::measure(hg, &p).goodness_key(c.rmax, c.bmax);
            best = Some((goodness, p));
            break;
        }

        budget.fault_point("hyper", "coarsen");
        let sp = trace::span("hyper", "coarsen", cycle as i64);
        let hier = hyper_coarsen(hg, params.coarsen_to, cycle_seed);
        drop(sp);
        budget.fault_point("hyper", "initial");
        let sp = trace::span("hyper", "initial", cycle as i64);
        let p0 = greedy_hyper_initial(
            hier.coarsest(),
            k,
            c,
            &HyperInitialOptions {
                restarts: initial_restarts,
                repair_passes: params.refine_passes,
                seed: cycle_seed,
            },
        );
        drop(sp);
        budget.fault_point("hyper", "refine");
        let sp = trace::span("hyper", "refine", cycle as i64);
        let p_top = refine_up(
            &hier,
            p0,
            c,
            params,
            derive_seed(cycle_seed, 0x70),
            budget,
            &mut degraded,
        );
        drop(sp);
        let goodness = HyperQuality::measure(hg, &p_top).goodness_key(c.rmax, c.bmax);
        let is_better = best.as_ref().map(|(bg, _)| goodness < *bg).unwrap_or(true);
        if is_better {
            best = Some((goodness, p_top));
        }
        if best.as_ref().map(|(g, _)| g.0 == 0).unwrap_or(false) {
            break;
        }
    }

    let (_, partition) = best.expect("at least one cycle ran");
    let quality = HyperQuality::measure(hg, &partition);
    let report = quality.check(c);
    let feasible = report.is_feasible();
    let result = HyperResult {
        partition,
        quality,
        report,
        feasible,
        cycles_used,
        degraded,
    };
    if feasible {
        Ok(result)
    } else {
        Err(Box::new(HyperInfeasible { best: result }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::HypergraphBuilder;

    /// Four multicast stars (hub + 3 dedicated consumers each) with
    /// light bridge nets between consecutive stars.
    fn four_stars() -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let mut hubs = Vec::new();
        let mut all = Vec::new();
        for _ in 0..4 {
            let hub = b.add_node(30);
            let cons: Vec<_> = (0..3).map(|_| b.add_node(15)).collect();
            let mut pins = vec![hub];
            pins.extend(cons.iter().copied());
            b.add_net(10, &pins);
            hubs.push(hub);
            all.push(pins);
        }
        for i in 0..4 {
            b.add_net(2, &[all[i][3], hubs[(i + 1) % 4]]);
        }
        b.build()
    }

    #[test]
    fn feasible_instance_is_solved() {
        let hg = four_stars();
        // one star per part: cost = 4 bridge nets cut
        let c = Constraints::new(90, 15);
        let r = hyper_partition(&hg, 4, &c, &HyperParams::default()).expect("feasible");
        assert!(r.feasible);
        assert!(r.partition.is_complete());
        assert!(r.quality.max_resource <= 90);
        assert!(r.quality.max_local_bandwidth <= 15);
    }

    #[test]
    fn impossible_instance_reports_infeasible() {
        let hg = four_stars();
        let c = Constraints::new(10, 1000); // below the heaviest node
        let err = hyper_partition(&hg, 4, &c, &HyperParams::default()).unwrap_err();
        assert!(!err.best.feasible);
        assert!(err.to_string().contains("impossible"));
        assert!(err.best.partition.is_complete());
    }

    #[test]
    fn deterministic_per_seed() {
        let hg = four_stars();
        let c = Constraints::new(90, 15);
        let a = hyper_partition(&hg, 4, &c, &HyperParams::default()).unwrap();
        let b = hyper_partition(&hg, 4, &c, &HyperParams::default()).unwrap();
        assert_eq!(a.partition, b.partition);
    }

    #[test]
    fn early_exit_on_feasibility() {
        let hg = four_stars();
        let c = Constraints::new(500, 500);
        let r = hyper_partition(&hg, 2, &c, &HyperParams::default()).unwrap();
        assert_eq!(r.cycles_used, 1);
    }

    #[test]
    fn unlimited_budget_is_bit_identical() {
        let hg = four_stars();
        let c = Constraints::new(90, 15);
        let plain = hyper_partition(&hg, 4, &c, &HyperParams::default()).unwrap();
        let budgeted =
            hyper_partition_budgeted(&hg, 4, &c, &HyperParams::default(), &Budget::unlimited())
                .unwrap();
        assert_eq!(plain.partition, budgeted.partition);
        assert!(budgeted.degraded.is_none());
    }

    #[test]
    fn expired_deadline_degrades_but_stays_complete() {
        let hg = four_stars();
        let c = Constraints::new(90, 15);
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let r = match hyper_partition_budgeted(&hg, 4, &c, &HyperParams::default(), &budget) {
            Ok(r) => r,
            Err(e) => e.best.clone(),
        };
        assert!(r.partition.is_complete());
        assert_eq!(r.partition.k(), 4);
        let d = r
            .degraded
            .expect("zero deadline must mark the outcome degraded");
        assert_eq!(d.phase, "initial");
    }

    #[test]
    fn large_instance_exercises_hierarchy() {
        // 64 stars of 4 nodes each = 256 nodes > coarsen_to
        let mut b = HypergraphBuilder::new();
        let mut prev_consumer = None;
        for _ in 0..64 {
            let hub = b.add_node(8);
            let cons: Vec<_> = (0..3).map(|_| b.add_node(4)).collect();
            let mut pins = vec![hub];
            pins.extend(cons.iter().copied());
            b.add_net(6, &pins);
            if let Some(pc) = prev_consumer {
                b.add_net(1, &[pc, hub]);
            }
            prev_consumer = Some(cons[2]);
        }
        let hg = b.build();
        let total = hg.total_node_weight();
        let c = Constraints::new(total / 4 + total / 8, 60);
        let r = match hyper_partition(&hg, 4, &c, &HyperParams::default()) {
            Ok(r) => r,
            Err(e) => e.best.clone(),
        };
        assert!(r.partition.is_complete());
        assert!(
            r.feasible,
            "star chain should partition feasibly: {:?}",
            r.report
        );
    }
}
