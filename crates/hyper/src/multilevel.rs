//! The multilevel k-way hypergraph partitioning cycle.
//!
//! The same V-cycle shape as `gp_core::cycle`, run as one cycle body over
//! ppn-graph's cycle driver ([`run_cycles`]): coarsen with
//! heavy-pin-connectivity matchings, greedy constrained initial
//! partitioning with restarts on the coarsest hypergraph, and constrained
//! refinement while projecting back up the driver's level walk. The
//! driver re-coarsens with a fresh seed while the constraints are still
//! violated and returns the goodness-best attempt. Feasibility and
//! goodness use the connectivity bandwidth model throughout (a cut net's
//! bandwidth charged once per spanned boundary).

use crate::coarsen::hyper_coarsen;
use crate::hypergraph::Hypergraph;
use crate::initial::greedy_hyper_initial;
use crate::metrics::measure;
use crate::refine::hyper_refine;
use ppn_graph::cycle::{run_cycles, BestAttempt};
use ppn_graph::prng::derive_seed;
use ppn_graph::trace;
use ppn_graph::{Budget, Constraints, InitialOptions, Partition, RefineOptions, Stop};
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

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

/// Conservative bytes a coarsening run over `hg` allocates: per level
/// the coarse hypergraph's CSR arrays (≈16 bytes per node and net, 8 per
/// pin, counting the dual), summed over a geometric hierarchy (~2× the
/// finest level).
fn hyper_bytes_estimate(hg: &Hypergraph) -> u64 {
    2 * (hg.num_nodes() as u64 * 16 + hg.num_nets() as u64 * 16 + hg.num_pins() as u64 * 8)
}

/// Run the full multilevel hypergraph partitioner: its goodness-best
/// attempt under the connectivity model, feasible or not
/// ([`BestAttempt::feasible`]).
/// Assumes the instance gate's weight bound (see the crate docs).
pub fn hyper_partition(
    hg: &Hypergraph,
    k: usize,
    c: &Constraints,
    params: &HyperParams,
) -> BestAttempt {
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
) -> BestAttempt {
    assert!(k >= 1, "k must be at least 1");
    assert!(hg.num_nodes() > 0, "cannot partition an empty hypergraph");

    let _run = trace::span("hyper", "partition", hg.num_nodes() as i64);
    let goodness_of = |p: &Partition| measure(hg, p).0.goodness_key(c.rmax, c.bmax);
    // reduced-footprint budgets cut the transient working set of the
    // greedy initial search (one candidate partition per restart)
    let initial_restarts = if budget.reduced_footprint() {
        params.initial_restarts.min(2)
    } else {
        params.initial_restarts
    };
    run_cycles("hyper", budget, params.max_cycles, |run, cycle| {
        let cycle_seed = derive_seed(params.seed, 0x4C1C + cycle as u64);

        // A coarsen + initial round over this hypergraph is at least
        // pin-linear in time and allocates the whole hierarchy (~2× the
        // finest level) in bytes. With nothing banked yet, either refusal
        // falls back to a contiguous fill rather than blowing through the
        // budget. With a best already banked, a memory refusal keeps it
        // and stops re-coarsening, while a deadline refusal is ignored:
        // the cycle checkpoint already admitted this cycle.
        let stop = match budget.checkpoint(
            "hyper",
            "coarsen",
            hg.num_pins() as u64,
            hyper_bytes_estimate(hg),
        ) {
            Err(Stop::Deadline) if run.has_best() => None,
            other => other.err(),
        };
        if let Some(stop) = stop {
            let cause = match stop {
                Stop::Memory => "memory budget cannot fit the hierarchy",
                Stop::Deadline => "deadline expired",
            };
            if run.has_best() {
                run.degrade("cycle", format!("{cause}; stopping after {cycle} cycle(s)"));
            } else {
                let fill = format!("{cause}; contiguous fill over {} nodes", hg.num_nodes());
                run.degrade("initial", fill);
                let p = Partition::contiguous_balanced(hg.node_weights(), k);
                run.offer(goodness_of(&p), p);
            }
            return ControlFlow::Break(());
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
            &InitialOptions {
                restarts: initial_restarts,
                repair_passes: params.refine_passes,
                seed: cycle_seed,
                parallel: false,
            },
        );
        drop(sp);
        budget.fault_point("hyper", "refine");
        let sp = trace::span("hyper", "refine", cycle as i64);
        let stream = derive_seed(cycle_seed, 0x70);
        let level = |i: usize| (hier.map(i), hier.level(i).num_pins() as u64);
        let p_top = run.walk_up(0..hier.depth() - 1, p0, level, |i, p| {
            let opts = RefineOptions {
                max_passes: params.refine_passes,
                seed: derive_seed(params.seed, stream ^ (i as u64) << 8),
                protect_nonempty: true,
            };
            hyper_refine(hier.level(i), p, c, &opts);
        });
        drop(sp);
        run.offer(goodness_of(&p_top), p_top);
        ControlFlow::Continue(())
    })
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
        let r = hyper_partition(&hg, 4, &c, &HyperParams::default());
        assert!(r.feasible());
        assert!(r.partition.is_complete());
        let (q, _) = measure(&hg, &r.partition);
        assert!(q.max_resource <= 90);
        assert!(q.max_local_bandwidth <= 15);
        assert_eq!(r.goodness, q.goodness_key(c.rmax, c.bmax));
    }

    #[test]
    fn impossible_instance_reports_infeasible() {
        let hg = four_stars();
        let c = Constraints::new(10, 1000); // below the heaviest node
        let r = hyper_partition(&hg, 4, &c, &HyperParams::default());
        assert!(!r.feasible());
        assert!(!c.check_quality(&measure(&hg, &r.partition).0).is_feasible());
        assert!(r.partition.is_complete());
        assert_eq!(r.cycles_used, HyperParams::default().max_cycles);
    }

    #[test]
    fn deterministic_per_seed() {
        let hg = four_stars();
        let c = Constraints::new(90, 15);
        let a = hyper_partition(&hg, 4, &c, &HyperParams::default());
        let b = hyper_partition(&hg, 4, &c, &HyperParams::default());
        assert!(a.feasible());
        assert_eq!(a, b);
    }

    #[test]
    fn early_exit_on_feasibility() {
        let hg = four_stars();
        let c = Constraints::new(500, 500);
        let r = hyper_partition(&hg, 2, &c, &HyperParams::default());
        assert!(r.feasible());
        assert_eq!(r.cycles_used, 1);
    }

    #[test]
    fn unlimited_budget_is_bit_identical() {
        let hg = four_stars();
        let c = Constraints::new(90, 15);
        let plain = hyper_partition(&hg, 4, &c, &HyperParams::default());
        let budgeted =
            hyper_partition_budgeted(&hg, 4, &c, &HyperParams::default(), &Budget::unlimited());
        assert!(plain.feasible());
        assert_eq!(plain, budgeted);
        assert!(budgeted.degraded.is_none());
    }

    #[test]
    fn expired_deadline_degrades_but_stays_complete() {
        let hg = four_stars();
        let c = Constraints::new(90, 15);
        let budget = Budget::unlimited().with_deadline(std::time::Duration::ZERO);
        let r = hyper_partition_budgeted(&hg, 4, &c, &HyperParams::default(), &budget);
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
        let r = hyper_partition(&hg, 4, &c, &HyperParams::default());
        assert!(r.partition.is_complete());
        assert!(
            r.feasible(),
            "star chain should partition feasibly: {:?}",
            c.check_quality(&measure(&hg, &r.partition).0)
        );
    }
}
