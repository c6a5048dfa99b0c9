//! The batch driver: many partitioning requests through one session.
//!
//! A partition service answers *streams* of requests, not one graph
//! once. [`BatchSession`] is the unit of amortization for that shape:
//!
//! * **setup** — the fallback chain is resolved and validated once
//!   ([`validate_chain`]) before any item runs, so a bad name fails the
//!   whole batch up front. Each item still goes through
//!   [`robust_partition`], which validates the chain again, and the
//!   instance once up front and once more per backend attempt. The
//!   engines' coarsening scratch (tournament edge order, contraction
//!   marker arrays) stays parked in a thread-local pool between items
//!   ([`gp_core::scratch_pool_warm`]) for the next item to reuse;
//! * **groups** — the items of one
//!   [`push_configs`](BatchSession::push_configs) call, one instance
//!   swept across `(k, Rmax, Bmax)` configurations, form a group. The
//!   group holds one copy of the instance and sets its `k`, constraints
//!   and name in place before each rung;
//! * **hierarchy** — a group of two or more rungs lends them a fresh
//!   [`HierarchySlot`](ppn_graph::HierarchySlot) on its budget
//!   ([`Budget::with_hierarchy_slot`]). gp's first-cycle hierarchy
//!   depends on neither `k` nor the constraints, so the first rung that
//!   runs gp builds it and the later rungs read it instead of coarsening
//!   again; the last rung takes it out of the slot, so it is freed when
//!   that rung's first cycle ends. Answers are those of each rung run
//!   alone. Under a memory ledger or an armed fault plan no slot is lent,
//!   and every rung coarsens for itself;
//! * **budget** — one shared [`Budget`] (deadline + memory ledger)
//!   covers the whole batch. Early items may spend it; later items
//!   then degrade (or fail typed) exactly as a single budgeted run
//!   would — the batch itself never errors because one item did;
//! * **ledger** — every item gets a [`BatchItemResult`] row: what ran,
//!   how it went, how long it took. The [`BatchSummary`] aggregates the
//!   rows for the service's answer.
//!
//! Items are either heterogeneous instances ([`BatchSession::push`], a
//! group of one) or one instance swept across `(k, Rmax, Bmax)`
//! configurations ([`BatchSession::push_configs`], or
//! [`BatchSession::push_group`] with names of the caller's choosing) —
//! the shape the paper's tables take, one row per configuration.

use crate::error::PartitionError;
use crate::instance::PartitionInstance;
use crate::robust::{robust_partition, validate_chain, RobustOutcome};
use ppn_graph::{trace, Budget, Constraints};
use std::time::Instant;

/// One row of the batch ledger.
#[derive(Debug)]
pub struct BatchItemResult {
    /// Instance name of this item.
    pub name: String,
    /// The robust-driver result: outcome + attempt ledger, or the typed
    /// error that stopped this item (later items still run, except
    /// after cancellation).
    pub result: Result<RobustOutcome, PartitionError>,
    /// Wall-clock seconds this item took, failed or not.
    pub seconds: f64,
}

impl BatchItemResult {
    /// True when the item produced an outcome.
    pub fn served(&self) -> bool {
        self.result.is_ok()
    }

    /// True when the item's outcome is budget-degraded.
    pub fn degraded(&self) -> bool {
        matches!(&self.result, Ok(r) if r.outcome.completion.is_degraded())
    }
}

/// What a batch run returns: the per-item ledger plus aggregates.
#[derive(Debug)]
pub struct BatchSummary {
    /// Per-item rows, in submission order.
    pub items: Vec<BatchItemResult>,
    /// Items that produced an outcome.
    pub served: usize,
    /// Items that failed with a typed error.
    pub failed: usize,
    /// Served items whose outcome was budget-degraded.
    pub degraded: usize,
    /// Wall-clock seconds for the whole batch.
    pub total_seconds: f64,
}

/// A batch of partitioning requests sharing one budget, one fallback
/// chain, and the thread's engine scratch pool. See the module docs.
pub struct BatchSession {
    groups: Vec<Group>,
    budget: Budget,
    chain: Vec<String>,
}

/// One instance and the rungs it runs at: each rung's ledger name, `k`
/// and constraints.
struct Group {
    inst: PartitionInstance,
    rungs: Vec<(String, usize, Constraints)>,
}

impl BatchSession {
    /// Empty session under `budget` (shared across every item) and the
    /// default fallback chain.
    pub fn new(budget: Budget) -> Self {
        BatchSession {
            groups: Vec::new(),
            budget,
            chain: Vec::new(),
        }
    }

    /// Replace the fallback chain (empty = default). Validated once at
    /// [`run`](BatchSession::run) time.
    pub fn with_chain<S: Into<String>>(mut self, chain: impl IntoIterator<Item = S>) -> Self {
        self.chain = chain.into_iter().map(Into::into).collect();
        self
    }

    /// Queue one instance (a group of one rung).
    pub fn push(&mut self, inst: PartitionInstance) {
        let rung = (inst.name.clone(), inst.k, inst.constraints);
        self.push_group(inst, [rung]);
    }

    /// Queue one instance swept across `(k, Rmax, Bmax)` configurations
    /// — the "one network, many machine shapes" batch. Item names get a
    /// `#k{k}-r{rmax}-b{bmax}` suffix so ledger rows stay unambiguous.
    /// `base` is cloned once for the whole sweep, not once per
    /// configuration.
    pub fn push_configs(&mut self, base: &PartitionInstance, configs: &[(usize, u64, u64)]) {
        let rungs = configs.iter().map(|&(k, rmax, bmax)| {
            let name = format!("{}#k{}-r{}-b{}", base.name, k, rmax, bmax);
            (name, k, Constraints::new(rmax, bmax))
        });
        self.push_group(base.clone(), rungs);
    }

    /// Queue `inst` run at each rung `(name, k, constraints)` in order,
    /// as one group (see the module docs); each rung's ledger row carries
    /// its `name`. The instance's own name, `k` and constraints are
    /// overwritten by each rung's. An empty `rungs` queues nothing.
    pub fn push_group(
        &mut self,
        inst: PartitionInstance,
        rungs: impl IntoIterator<Item = (String, usize, Constraints)>,
    ) {
        let rungs: Vec<_> = rungs.into_iter().collect();
        if !rungs.is_empty() {
            self.groups.push(Group { inst, rungs });
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|g| g.rungs.len()).sum()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Run every queued item through the robust driver under the shared
    /// budget. Per-item failures become ledger rows, not batch errors;
    /// the only hard stop is cancellation (once the shared cancel flag
    /// is raised, remaining items fail fast with the same typed error
    /// instead of burning the chain on answers nobody wants).
    pub fn run(self, seed: u64) -> Result<BatchSummary, PartitionError> {
        validate_chain(&self.chain.iter().map(|s| s.as_str()).collect::<Vec<_>>())?;
        let started = Instant::now();
        let total = self.len();
        let _sp = trace::span("batch", "run", total as i64);
        let chain: Vec<&str> = self.chain.iter().map(|s| s.as_str()).collect();
        let mut items = Vec::with_capacity(total);
        for group in self.groups {
            let budget = if group.rungs.len() > 1 {
                self.budget.clone().with_hierarchy_slot()
            } else {
                self.budget.clone()
            };
            run_group(group, seed, &budget, &chain, &mut items);
        }
        let served = items.iter().filter(|i| i.served()).count();
        let degraded = items.iter().filter(|i| i.degraded()).count();
        Ok(BatchSummary {
            failed: items.len() - served,
            served,
            degraded,
            items,
            total_seconds: started.elapsed().as_secs_f64(),
        })
    }
}

/// Run `group`'s rungs in order under `budget`, one ledger row each.
/// The budget's hierarchy slot, if it lends one, is told before the last
/// rung that this is its last use.
fn run_group(
    Group { mut inst, rungs }: Group,
    seed: u64,
    budget: &Budget,
    chain: &[&str],
    items: &mut Vec<BatchItemResult>,
) {
    let last = rungs.len() - 1;
    for (rung, (name, k, constraints)) in rungs.into_iter().enumerate() {
        if rung == last {
            if let Some(slot) = budget.hierarchy_slot() {
                slot.last_use();
            }
        }
        inst.name = name;
        inst.k = k;
        inst.constraints = constraints;
        let _item = trace::span("batch", "item", items.len() as i64);
        let t0 = Instant::now();
        let result = robust_partition(&inst, seed, budget, chain);
        let seconds = t0.elapsed().as_secs_f64();
        match &result {
            Ok(r) => {
                if r.outcome.completion.is_degraded() {
                    trace::counter("batch", "degraded_items", 1);
                }
            }
            Err(_) => trace::counter("batch", "failed_items", 1),
        }
        items.push(BatchItemResult {
            name: inst.name.clone(),
            result,
            seconds,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_gen::community_graph;
    use ppn_graph::Constraints;

    fn inst(name: &str, seed: u64, k: usize) -> PartitionInstance {
        let g = community_graph(k, 8, 2, 9, 1, seed);
        let c = Constraints::new(g.total_node_weight(), g.total_edge_weight());
        PartitionInstance::from_graph(name, g, k, c)
    }

    #[test]
    fn batch_of_one_matches_single_run_bit_for_bit() {
        let single = robust_partition(&inst("a", 3, 2), 7, &Budget::unlimited(), &[]).unwrap();
        let mut session = BatchSession::new(Budget::unlimited());
        session.push(inst("a", 3, 2));
        let summary = session.run(7).unwrap();
        assert_eq!(summary.served, 1);
        let batched = summary.items[0].result.as_ref().unwrap();
        assert_eq!(batched.outcome, single.outcome);
    }

    #[test]
    fn per_item_failures_do_not_sink_the_batch() {
        let mut session = BatchSession::new(Budget::unlimited());
        session.push(inst("good", 3, 2));
        let mut bad = inst("bad", 4, 2);
        bad.k = 0; // malformed: rejected per-item, not per-batch
        session.push(bad);
        session.push(inst("also-good", 5, 3));
        let summary = session.run(7).unwrap();
        assert_eq!(summary.served, 2);
        assert_eq!(summary.failed, 1);
        assert!(summary.items[1].result.is_err());
        assert_eq!(summary.items[2].name, "also-good");
        assert!(summary.items[2].served());
    }

    #[test]
    fn config_sweep_expands_one_instance() {
        let base = inst("net", 3, 2);
        let total = base.graph.total_node_weight();
        let bw = base.graph.total_edge_weight();
        let mut session = BatchSession::new(Budget::unlimited());
        session.push_configs(&base, &[(2, total, bw), (4, total, bw)]);
        assert_eq!(session.len(), 2);
        let summary = session.run(7).unwrap();
        assert_eq!(summary.served, 2);
        assert!(summary.items[0].name.contains("#k2"));
        assert!(summary.items[1].name.contains("#k4"));
        let a = summary.items[0].result.as_ref().unwrap();
        let b = summary.items[1].result.as_ref().unwrap();
        assert_eq!(a.outcome.partition.k(), 2);
        assert_eq!(b.outcome.partition.k(), 4);
    }

    #[test]
    fn last_rung_takes_the_hierarchy_out_of_the_slot() {
        // 288 nodes: above gp's `coarsen_to`, so cycle 0 builds levels
        let g = community_graph(4, 72, 2, 9, 1, 9);
        let c = Constraints::new(g.total_node_weight(), g.total_edge_weight());
        let base = PartitionInstance::from_graph("net", g, 4, c);
        let budget = Budget::unlimited().with_hierarchy_slot();
        let slot = budget.hierarchy_slot().expect("no ledger, no faults");
        robust_partition(&base, 7, &budget, &[]).unwrap();
        assert!(!slot.is_empty(), "gp's first cycle fills the slot");
        let rung = (base.name.clone(), base.k, base.constraints);
        let mut items = Vec::new();
        run_group(
            Group {
                inst: base.clone(),
                rungs: vec![rung],
            },
            7,
            &budget,
            &[],
            &mut items,
        );
        assert!(items[0].served());
        assert!(slot.is_empty(), "the last rung must take the hierarchy");
    }

    #[test]
    fn bad_chain_fails_the_whole_batch_up_front() {
        let mut session = BatchSession::new(Budget::unlimited()).with_chain(["gp", "tpyo"]);
        session.push(inst("a", 3, 2));
        let err = session.run(7).unwrap_err();
        assert!(matches!(err, PartitionError::UnknownBackend { .. }));
    }

    #[test]
    fn scratch_pool_is_warm_after_the_first_item() {
        let mut session = BatchSession::new(Budget::unlimited());
        // large enough that coarsening actually runs and parks scratch
        session.push(inst("warmup", 9, 2));
        session.push(inst("amortized", 10, 2));
        let summary = session.run(7).unwrap();
        assert_eq!(summary.served, 2);
        assert!(
            gp_core::scratch_pool_warm(),
            "the session must leave the thread's scratch pool parked"
        );
    }

    #[test]
    fn shared_memory_budget_spans_items() {
        // every item shares one ledger; each run must drain it back to
        // zero, so a batch under a tight cap degrades items rather than
        // leaking reservations into later ones
        let budget = Budget::unlimited().with_max_bytes(8 * 1024);
        let mut session = BatchSession::new(budget.clone());
        for i in 0..3 {
            session.push(inst(&format!("i{i}"), 20 + i, 2));
        }
        let summary = session.run(7).unwrap();
        assert_eq!(summary.served, 3);
        let ledger = budget.memory_ledger().expect("ledger attached");
        assert_eq!(ledger.used(), 0, "batch leaked ledger bytes");
    }

    #[test]
    fn cancellation_stops_remaining_items() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let flag = Arc::new(AtomicBool::new(true));
        let mut session = BatchSession::new(Budget::unlimited().with_cancel(flag));
        session.push(inst("a", 3, 2));
        session.push(inst("b", 4, 2));
        let summary = session.run(7).unwrap();
        assert_eq!(summary.served, 0);
        assert_eq!(summary.failed, 2);
        for item in &summary.items {
            assert!(matches!(
                item.result,
                Err(PartitionError::BudgetExhausted { .. })
            ));
        }
    }
}
