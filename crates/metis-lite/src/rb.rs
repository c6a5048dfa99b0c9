//! Constrained multilevel recursive bisection — the alternative k-way
//! route of the workspace.
//!
//! Schlag et al. ("k-way Hypergraph Partitioning via n-Level Recursive
//! Bisection") show recursive bisection is a competitive alternative to
//! direct k-way partitioning. This engine follows that route under the
//! paper's `Rmax`/`Bmax` constraints:
//!
//! 1. **Split the part count** `k = k0 + k1` with `k0 = ⌈k/2⌉`, so
//!    `k ≠ 2^i` stays balanced (each side's weight target is
//!    proportional to the parts it will hold);
//! 2. **Split the resource budget**: a side destined for `k_i` parts
//!    may weigh at most `k_i × Rmax`
//!    ([`Constraints::resource_budget`]) — tighter of that and the
//!    balance cap is handed to FM as an absolute side cap;
//! 3. **Multilevel per subproblem**: each induced subgraph is coarsened
//!    with gp-core's best-of-three matching tournament into the same
//!    flat level arena GP uses, bisected on the coarsest graph (greedy
//!    growing + FM restarts), and FM-refined on each arena level while
//!    un-coarsening — the n-level analogue of the GP V-cycle, applied
//!    `⌈log₂ k⌉` deep. Un-coarsening is the cycle driver's level walk
//!    ([`CycleRun::walk_up`]): each level asks the `rb:refine`
//!    checkpoint for its edges × `fm_passes` before FM runs on it;
//! 4. **Repair the pairwise bandwidth**: recursive bisection never sees
//!    `Bmax` (a 2-way cut says nothing about final part pairs), so the
//!    assembled k-way partition runs gp-core's boundary-driven
//!    [`constrained_refine`] which does;
//! 5. **Cycle** with fresh seeds while constraints are violated: the
//!    ppn-graph cycle driver ([`run_cycles`]) keeps the goodness-best
//!    attempt and returns the same [`BestAttempt`] as `gp_partition`.

use gp_classic::bisect::{bisect_candidates, BisectOptions};
use gp_classic::fm::{fm_refine_bisection, FmOptions};
use gp_classic::subgraph::induced_subgraph;
use gp_core::gp_coarsen_flat;
use gp_core::initial::{greedy_initial_partition, InitialOptions};
use gp_core::params::MatchingKind;
use gp_core::refine::{constrained_refine, RefineOptions};
use ppn_graph::budget::{Budget, Stop};
use ppn_graph::cycle::{run_cycles, BestAttempt, CycleRun};
use ppn_graph::metrics::{CutMatrix, PartitionQuality};
use ppn_graph::prng::derive_seed;
use ppn_graph::trace;
use ppn_graph::{Constraints, NodeId, Partition, WeightedGraph};
use std::ops::ControlFlow;

/// Parameters of [`rb_partition`].
#[derive(Clone, Debug)]
pub struct RbParams {
    /// Per-subproblem coarsening floor (the subgraph is coarsened until
    /// it has at most this many nodes).
    pub coarsen_to: usize,
    /// Matching heuristics entered into each level's tournament.
    pub matchings: Vec<MatchingKind>,
    /// Restarts of the coarsest-graph bisection.
    pub bisect_restarts: usize,
    /// FM passes per bisection refinement step.
    pub fm_passes: usize,
    /// Constrained k-way repair sweeps on the assembled partition.
    pub repair_passes: usize,
    /// Bisection candidates explored per split when the leading one
    /// dooms a descendant subproblem (best-first backtracking; a split
    /// whose subtree stays within its `Bmax` budgets never branches).
    pub branch_width: usize,
    /// Total extra subtree evaluations allowed per cycle across the
    /// whole recursion — the backtracking's hard work bound. Each split
    /// always evaluates its leading candidate; alternatives draw from
    /// this budget, so provably-infeasible instances terminate in
    /// bounded time instead of exploring the full branch tree.
    pub branch_budget: usize,
    /// Full restarts with fresh seeds while constraints are violated.
    pub max_cycles: usize,
    /// Allowed per-side imbalance of each bisection.
    pub balance: f64,
    /// Root seed for every stochastic component.
    pub seed: u64,
}

impl Default for RbParams {
    fn default() -> Self {
        RbParams {
            coarsen_to: 60,
            matchings: MatchingKind::ALL.to_vec(),
            bisect_restarts: 8,
            fm_passes: 8,
            repair_passes: 8,
            branch_width: 4,
            branch_budget: 192,
            max_cycles: 4,
            balance: 1.1,
            seed: 0xCA77A,
        }
    }
}

impl RbParams {
    /// Same parameters, different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Absolute side caps for splitting `total` weight into `k0`/`k1` final
/// parts: the tighter of the resource budget (`k_i × Rmax`) and the
/// balance cap, relaxed stepwise when the tighter combination cannot
/// hold the subproblem at all.
fn side_caps(total: u64, k0: usize, k1: usize, c: &Constraints, balance: f64) -> [u64; 2] {
    let k = (k0 + k1) as f64;
    let budget = [c.resource_budget(k0), c.resource_budget(k1)];
    let bal = [
        ((total as f64) * (k0 as f64 / k) * balance).ceil() as u64,
        ((total as f64) * (k1 as f64 / k) * balance).ceil() as u64,
    ];
    let tight = [budget[0].min(bal[0]), budget[1].min(bal[1])];
    if tight[0].saturating_add(tight[1]) >= total {
        tight
    } else if budget[0].saturating_add(budget[1]) >= total {
        budget
    } else {
        // the subproblem itself overflows its Rmax budget — aim for
        // balance and let the feasibility check report the violation
        bal
    }
}

/// All ways of choosing `k0` of `k` parts as side 0, as membership
/// masks — mirror-duplicates removed for the even split (part 0 pinned
/// to side 0) and the enumeration capped at 24 groupings (small `k` is
/// exhaustive; large `k` keeps the lexicographic head, which is enough
/// diversity for a branch stage that only runs on doomed subtrees).
fn part_groupings(k: usize, k0: usize) -> Vec<Vec<bool>> {
    const CAP: usize = 24;
    let mut out = Vec::new();
    let mut chosen: Vec<usize> = Vec::with_capacity(k0);
    fn recurse(
        k: usize,
        k0: usize,
        start: usize,
        chosen: &mut Vec<usize>,
        out: &mut Vec<Vec<bool>>,
    ) {
        if out.len() >= CAP {
            return;
        }
        if chosen.len() == k0 {
            let mut mask = vec![false; k];
            for &p in chosen.iter() {
                mask[p] = true;
            }
            out.push(mask);
            return;
        }
        for p in start..k {
            chosen.push(p);
            recurse(k, k0, p + 1, chosen, out);
            chosen.pop();
        }
    }
    // pin part 0 into side 0 when the split is even: {S, S̄} describe
    // the same bisection
    if 2 * k0 == k {
        chosen.push(0);
        recurse(k, k0, 1, &mut chosen, &mut out);
    } else {
        recurse(k, k0, 0, &mut chosen, &mut out);
    }
    out
}

/// Conservative bytes a bisection subproblem allocates: the induced
/// `WeightedGraph`, times two for its geometric coarsening hierarchy.
/// Per node, 56 bytes cover the graph's weight, CSR offset and label
/// slot (8 + 8 + 24) and leave 16 for what building it adds (the
/// builder's forward-star head and degree, the back map entry: 4 each).
/// Per edge, 32 bytes are its edge-list entry (endpoints and weight,
/// 4 + 4 + 8) and its two `(neighbour, edge id)` adjacency pairs.
fn rb_sub_bytes_estimate(n: usize, ne: u64) -> u64 {
    2 * (n as u64 * 56 + ne * 32)
}

/// One constrained multilevel bisection of the subproblem induced by
/// `nodes`, assigning parts `part_base..part_base + k` into `out`.
///
/// Candidates are scored by the subtree's *violation magnitude*: the
/// `Rmax`/`Bmax` violation of the completed subtree's final partition,
/// measured over the subproblem's internal edges. Every final part
/// pair separates at exactly one split — the pair's LCA — and all of
/// its traffic comes from edges internal to that split's subtree, so a
/// zero-scoring candidate proves every pair separated below here fits
/// `Bmax` and every part assembled below here fits `Rmax`. When the
/// leading bisection candidate scores positive, up to `branch_width`
/// alternative candidates are explored best-first and the
/// lowest-violation subtree is kept. `branches` is the cycle's
/// remaining backtracking budget; the run's deadline, memory ledger and
/// degradation record come from `run`.
#[allow(clippy::too_many_arguments)]
fn rb_recurse(
    g: &WeightedGraph,
    nodes: &[NodeId],
    k: usize,
    part_base: u32,
    c: &Constraints,
    params: &RbParams,
    seed: u64,
    out: &mut Partition,
    branches: &mut usize,
    run: &mut CycleRun<'_>,
) {
    if k == 1 || nodes.len() <= 1 {
        for &v in nodes {
            out.assign(v, part_base);
        }
        return; // parts beyond the first stay empty when k > |nodes|
    }
    // Deadline and memory checks at subproblem entry: a budget that
    // cannot afford the subproblem — in wall-clock, or in bytes for the
    // induced subgraph plus its coarsening hierarchy — fills the
    // remaining subtree with the O(n) contiguous split instead of
    // bisecting it — complete and weight-balanced, no claim on the cut.
    let budget = run.budget();
    let deg_sum: u64 = nodes.iter().map(|&v| g.neighbors(v).len() as u64).sum();
    let bytes = rb_sub_bytes_estimate(nodes.len(), deg_sum / 2);
    if let Err(stop) = budget.checkpoint("rb", "bisect", nodes.len() as u64, bytes) {
        let cause = match stop {
            Stop::Memory => "memory budget cannot fit the subproblem",
            Stop::Deadline => "deadline expired",
        };
        run.degrade(
            "bisect",
            format!("{cause}; contiguous fill over {} nodes", nodes.len()),
        );
        let weights: Vec<u64> = nodes.iter().map(|&v| g.node_weight(v)).collect();
        let fill = Partition::contiguous_balanced(&weights, k);
        for (i, &v) in nodes.iter().enumerate() {
            out.assign(v, part_base + fill.part_of(NodeId::from_index(i)));
        }
        return;
    }
    budget.fault_point("rb", "bisect");
    let _sp = trace::span("rb", "bisect", k as i64);
    let (sub, back) = induced_subgraph(g, nodes);
    let sub_seed = derive_seed(seed, part_base as u64 ^ (k as u64) << 20);

    // multilevel: coarsen the subproblem once (the hierarchy is
    // shape-independent), bisect the coarsest graph
    budget.fault_point("rb", "coarsen");
    let sp = trace::span("rb", "coarsen", nodes.len() as i64);
    let hier = gp_coarsen_flat(&sub, &params.matchings, params.coarsen_to.max(4), sub_seed);
    let coarsest = hier.coarsest_graph();
    let levels = hier.depth() - 1;
    drop(sp);

    // split shapes, best-first: the balanced `⌈k/2⌉ | ⌊k/2⌋` split, and
    // — only when every balanced candidate leaves a violation — the
    // `1 | k−1` peel, which moves every pair's separation point to a
    // different split and often escapes a doomed pair grouping
    let balanced_k0 = k.div_ceil(2);
    let shapes: &[usize] = if k >= 3 {
        &[balanced_k0, 1]
    } else {
        &[balanced_k0]
    };

    let mut best: Option<(u64, Vec<u32>)> = None;
    'shapes: for &k0 in shapes {
        let k1 = k - k0;
        let caps = side_caps(sub.total_node_weight(), k0, k1, c, params.balance);
        // every final part pair separated here routes its traffic
        // through this split: k0·k1 links of capacity Bmax (exact at
        // leaf splits, where the pair's final traffic *is* this cut)
        let cut_budget = c.bmax.saturating_mul(k0 as u64 * k1 as u64);
        let sp = trace::span("rb", "bisect_candidates", k0 as i64);
        let mut plain = Some(bisect_candidates(
            &coarsest,
            &BisectOptions {
                restarts: params.bisect_restarts,
                target0_frac: k0 as f64 / k as f64,
                balance: params.balance,
                fm_passes: params.fm_passes,
                seed: derive_seed(sub_seed, 0xB1 + k0 as u64),
                max_side_weight: Some(caps),
                max_cut: Some(cut_budget),
            },
        ));
        drop(sp);

        // best-first branch over distinct candidates: the first subtree
        // whose splits all meet their budgets wins immediately, so easy
        // instances never pay for the backtracking. Stage 0 tries the
        // min-cut restart candidates; stage 1 — reached only when every
        // one of them leaves a violation — derives side groupings from
        // gp-core's *constrained* k-way initial partition, whose higher
        // cut buys a pair structure that fits `Bmax` (a feasible split
        // of a tight instance is rarely a minimum cut).
        for stage in 0..2 {
            let candidates: Vec<(Partition, bool)> = if stage == 0 {
                plain
                    .take()
                    .expect("stage 0 runs once")
                    .into_iter()
                    .take(params.branch_width.max(1))
                    .map(|bi| (bi.partition, false))
                    .collect()
            } else if *branches == 0 {
                break; // backtracking budget exhausted: keep the best so far
            } else {
                let sp = trace::span("rb", "grouping_candidates", k as i64);
                let p_init = greedy_initial_partition(
                    &coarsest,
                    k,
                    c,
                    &InitialOptions {
                        restarts: params.bisect_restarts,
                        repair_passes: params.fm_passes,
                        seed: derive_seed(sub_seed, 0x6B),
                        parallel: false,
                    },
                );
                drop(sp);
                let n_coarse = coarsest.num_nodes();
                part_groupings(k, k0)
                    .into_iter()
                    .map(|side0_parts| {
                        let assign: Vec<u32> = (0..n_coarse)
                            .map(|i| {
                                let part = p_init.part_of(NodeId::from_index(i));
                                u32::from(!side0_parts[part as usize])
                            })
                            .collect();
                        // skip FM: minimising the cut away would undo
                        // exactly the structure this candidate carries
                        (Partition::from_assignment(assign, 2).unwrap(), true)
                    })
                    .collect()
            };

            for (p0, skip_fm) in candidates {
                // the leading candidate of a split is free; alternatives
                // draw from the per-cycle backtracking budget — and stop
                // when the wall-clock budget expires mid-exploration
                if best.is_some() {
                    if *branches == 0 {
                        break 'shapes;
                    }
                    if budget.checkpoint("rb", "bisect", 0, 0).is_err() {
                        run.degrade(
                            "bisect",
                            "deadline expired while exploring alternative candidates",
                        );
                        break 'shapes;
                    }
                    *branches -= 1;
                }
                // carry the candidate back up through the hierarchy:
                // structure-preserving candidates only project, the rest
                // take the level walk, FM-refining under the caps
                let sp = trace::span("rb", "fm_refine", k0 as i64);
                let p2 = if skip_fm {
                    hier.project_to_finest(p0, levels)
                } else {
                    let fm = FmOptions {
                        max_passes: params.fm_passes,
                        max_side_weight: caps,
                        allow_empty_side: false,
                    };
                    let level = |i: usize| {
                        let edges = hier.level(i).num_edges() as u64;
                        (hier.map(i), edges.saturating_mul(params.fm_passes as u64))
                    };
                    run.walk_up(0..levels, p0, level, |i, p| {
                        fm_refine_bisection(hier.level(i), p, &fm);
                    })
                };
                drop(sp);

                let mut side0 = Vec::new();
                let mut side1 = Vec::new();
                for (i, &orig) in back.iter().enumerate() {
                    if p2.part_of(NodeId::from_index(i)) == 0 {
                        side0.push(orig);
                    } else {
                        side1.push(orig);
                    }
                }
                let (base0, base1) = (part_base, part_base + k0 as u32);
                rb_recurse(g, &side0, k0, base0, c, params, seed, out, branches, run);
                rb_recurse(g, &side1, k1, base1, c, params, seed, out, branches, run);

                // exact subtree score: the completed subtree's Rmax/Bmax
                // violation over the subproblem's internal edges
                let mut q = Partition::unassigned(sub.num_nodes(), out.k());
                for (i, &orig) in back.iter().enumerate() {
                    q.assign(NodeId::from_index(i), out.part_of(orig));
                }
                let cm = CutMatrix::compute(&sub, &q);
                let violation = c.violation_magnitude(&cm, &q.part_weights(sub.node_weights()));
                let is_better = best.as_ref().map(|(b, _)| violation < *b).unwrap_or(true);
                if is_better {
                    best = Some((violation, nodes.iter().map(|&v| out.part_of(v)).collect()));
                    if violation == 0 {
                        break 'shapes;
                    }
                }
            }
        }
    }

    let (_, assignment) = best.expect("at least one bisection candidate");
    for (&v, &part) in nodes.iter().zip(&assignment) {
        out.assign(v, part);
    }
}

/// Run the constrained multilevel recursive-bisection partitioner:
/// its goodness-best attempt, feasible or not
/// ([`BestAttempt::feasible`]).
/// Assumes the instance gate's weight bound (see the crate docs).
pub fn rb_partition(
    g: &WeightedGraph,
    k: usize,
    c: &Constraints,
    params: &RbParams,
) -> BestAttempt {
    rb_partition_budgeted(g, k, c, params, &Budget::unlimited())
}

/// [`rb_partition`] under a cooperative [`Budget`]. Deadline checks
/// bound the best-first candidate exploration (at subproblem entry and
/// before each alternative candidate) and each FM level; on expiry the
/// remaining subtree is filled with a contiguous balanced split, a
/// refused level is projected without FM, and the result carries a
/// [`Degradation`](ppn_graph::Degradation) record. `Budget::unlimited()`
/// is bit-identical to the plain entry point.
/// Assumes the instance gate's weight bound (see the crate docs).
pub fn rb_partition_budgeted(
    g: &WeightedGraph,
    k: usize,
    c: &Constraints,
    params: &RbParams,
    budget: &Budget,
) -> BestAttempt {
    assert!(k >= 1, "k must be at least 1");
    let n = g.num_nodes();
    let _run = trace::span("rb", "partition", n as i64);
    if n == 0 {
        return BestAttempt {
            partition: Partition::unassigned(0, k),
            goodness: (0, 0, 0),
            cycles_used: 0,
            degraded: None,
        };
    }

    // Reduced-footprint budgets shrink the search's working set: fewer
    // bisection restarts and no best-first branching alternatives.
    let reduced_params;
    let params = if budget.reduced_footprint() {
        reduced_params = RbParams {
            bisect_restarts: params.bisect_restarts.min(2),
            branch_width: 1,
            ..params.clone()
        };
        &reduced_params
    } else {
        params
    };

    let all: Vec<NodeId> = g.node_ids().collect();
    // when the necessary condition already fails (a node outweighs Rmax
    // or total weight exceeds k·Rmax) no amount of backtracking helps:
    // produce one balanced best attempt and report infeasibility
    let provably_impossible = !c.admits(g, k);
    let cycles = if provably_impossible {
        1
    } else {
        params.max_cycles
    };
    run_cycles("rb", budget, cycles, |run, cycle| {
        let cycle_seed = derive_seed(params.seed, 0x5B15EC7 + cycle as u64);
        let mut p = Partition::unassigned(n, k);
        let mut branches = if provably_impossible {
            0
        } else {
            params.branch_budget
        };
        rb_recurse(
            g,
            &all,
            k,
            0,
            c,
            params,
            cycle_seed,
            &mut p,
            &mut branches,
            run,
        );
        debug_assert!(p.is_complete());

        // recursive bisection never saw Bmax — gp-core's constrained
        // k-way refinement does. An expired budget skips the repair:
        // the contiguous fill is already the best we can afford.
        budget.fault_point("rb", "refine");
        if budget.checkpoint("rb", "refine", 0, 0).is_ok() {
            let _sp = trace::span("rb", "kway_repair", cycle as i64);
            constrained_refine(
                g,
                &mut p,
                c,
                &RefineOptions {
                    max_passes: params.repair_passes,
                    seed: derive_seed(cycle_seed, 0x4EF),
                    protect_nonempty: true,
                },
            );
        } else {
            run.degrade("refine", "deadline expired; skipping the Bmax repair pass");
        }
        run.offer(
            PartitionQuality::measure(g, &p).goodness_key(c.rmax, c.bmax),
            p,
        );
        ControlFlow::Continue(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::{edge_cut, imbalance};
    use ppn_graph::GraphBuilder;

    fn clustered(clusters: usize, size: usize) -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..clusters * size).map(|_| g.add_node(2)).collect();
        for c in 0..clusters {
            let b = c * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    g.add_edge(n[b + i], n[b + j], 20).unwrap();
                }
            }
        }
        for c in 0..clusters {
            let next = (c + 1) % clusters;
            g.add_edge(n[c * size], n[next * size + 1], 1).unwrap();
        }
        g.build()
    }

    #[test]
    fn finds_planted_clusters_under_constraints() {
        let g = clustered(4, 5);
        // each cluster weighs 10; one cluster per part is feasible
        let c = Constraints::new(12, 4);
        let r = rb_partition(&g, 4, &c, &RbParams::default());
        assert!(r.feasible());
        assert!(r.partition.is_complete());
        assert!(c.is_feasible(&g, &r.partition));
        assert_eq!(r.goodness.2, edge_cut(&g, &r.partition));
        assert_eq!(r.goodness.2, 4, "ideal split cuts the 4 bridges");
    }

    #[test]
    fn non_power_of_two_k_stays_balanced() {
        let g = clustered(6, 4); // 24 nodes, weight 48
        for k in [3, 5, 6] {
            let c = Constraints::new(48 / k as u64 + 12, 1_000);
            let r = rb_partition(&g, k, &c, &RbParams::default());
            assert!(r.partition.is_complete(), "k={k}");
            assert!(
                r.partition.part_sizes().iter().all(|&s| s > 0),
                "k={k} left a part empty: {:?}",
                r.partition.part_sizes()
            );
            assert!(
                imbalance(&g, &r.partition) <= 1.8,
                "k={k} imbalance {}",
                imbalance(&g, &r.partition)
            );
        }
    }

    #[test]
    fn budget_split_respects_rmax_on_feasible_instances() {
        let g = clustered(4, 6); // 24 nodes of weight 2: total 48
        let c = Constraints::new(14, 1_000); // 4 × 14 = 56 ≥ 48, tight-ish
        let r = rb_partition(&g, 4, &c, &RbParams::default());
        assert!(r.feasible());
        assert!(r
            .partition
            .part_weights(g.node_weights())
            .iter()
            .all(|&w| w <= 14));
    }

    #[test]
    fn impossible_rmax_reports_infeasible_with_best_attempt() {
        let g = clustered(2, 4);
        let c = Constraints::new(1, 1_000); // below every node weight
        let r = rb_partition(&g, 4, &c, &RbParams::default());
        assert!(!r.feasible());
        assert!(!c.is_feasible(&g, &r.partition));
        assert!(r.partition.is_complete());
        assert_eq!(
            r.cycles_used, 1,
            "a provably impossible instance runs one cycle"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let g = clustered(4, 5);
        let c = Constraints::new(12, 4);
        let a = rb_partition(&g, 4, &c, &RbParams::default());
        let b = rb_partition(&g, 4, &c, &RbParams::default());
        assert!(a.feasible());
        assert_eq!(a, b);
        let other = rb_partition(&g, 4, &c, &RbParams::default().with_seed(9));
        assert!(other.feasible()); // may or may not equal `a` — but must be valid
    }

    #[test]
    fn k_exceeding_n_never_panics() {
        let g = clustered(2, 2); // 4 nodes
        let c = Constraints::new(100, 100);
        let r = rb_partition(&g, 8, &c, &RbParams::default());
        assert!(r.partition.is_complete());
        assert_eq!(r.partition.k(), 8);
    }

    #[test]
    fn k1_and_empty_graph_are_trivial() {
        let g = clustered(2, 3);
        let r = rb_partition(&g, 1, &Constraints::unconstrained(), &RbParams::default());
        assert!(r.feasible());
        assert_eq!(r.goodness.2, 0);
        let empty = GraphBuilder::new().build();
        let r = rb_partition(&empty, 4, &Constraints::new(5, 5), &RbParams::default());
        assert!(r.feasible());
        assert_eq!(r.partition.len(), 0);
    }

    #[test]
    fn multilevel_engages_on_larger_subproblems() {
        let g = clustered(8, 20); // 160 nodes > coarsen_to=60
        let c = Constraints::new(60, 1_000);
        let (r, session) = trace::collect(trace::TraceConfig::default(), || {
            rb_partition(&g, 4, &c, &RbParams::default())
        });
        assert!(r.partition.is_complete());
        let totals = session.span_totals();
        assert!(
            totals
                .iter()
                .any(|s| (s.cat, s.name) == ("gp", "contract") && s.count > 0),
            "a subproblem above coarsen_to must contract a level: {totals:?}"
        );
    }

    #[test]
    fn bmax_repair_engages() {
        // two heavy pairs joined by a medium bridge: the min-cut
        // bisection routes 30 over one pair — Bmax 29 forces the repair
        // pass to trade cut for feasibility or report the violation
        let mut g = GraphBuilder::new();
        let a = g.add_node(10);
        let b = g.add_node(10);
        let c_ = g.add_node(10);
        let d = g.add_node(10);
        g.add_edge(a, b, 100).unwrap();
        g.add_edge(c_, d, 100).unwrap();
        g.add_edge(b, c_, 30).unwrap();
        let cons = Constraints::new(40, 29);
        let g = g.build();
        let r = rb_partition(&g, 2, &cons, &RbParams::default());
        let report = cons.check(&g, &r.partition);
        assert_eq!(r.feasible(), report.is_feasible());
        if r.feasible() {
            assert!(PartitionQuality::measure(&g, &r.partition).max_local_bandwidth <= 29);
        } else {
            assert!(report.violation_count() > 0);
        }
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use ppn_graph::{Budget, GraphBuilder};
    use std::time::Duration;

    fn clustered(clusters: usize, size: usize) -> WeightedGraph {
        let mut g = GraphBuilder::new();
        let n: Vec<_> = (0..clusters * size).map(|_| g.add_node(2)).collect();
        for c in 0..clusters {
            let b = c * size;
            for i in 0..size {
                for j in (i + 1)..size {
                    g.add_edge(n[b + i], n[b + j], 20).unwrap();
                }
            }
        }
        for c in 0..clusters {
            let next = (c + 1) % clusters;
            g.add_edge(n[c * size], n[next * size + 1], 1).unwrap();
        }
        g.build()
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_unbudgeted() {
        let g = clustered(4, 6);
        let c = Constraints::new(60, 1_000);
        let plain = rb_partition(&g, 4, &c, &RbParams::default());
        let budgeted = rb_partition_budgeted(&g, 4, &c, &RbParams::default(), &Budget::unlimited());
        assert_eq!(plain, budgeted);
        assert!(budgeted.degraded.is_none());
    }

    #[test]
    fn expired_deadline_still_returns_a_complete_partition() {
        let g = clustered(6, 10);
        let c = Constraints::new(200, 10_000);
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let r = rb_partition_budgeted(&g, 4, &c, &RbParams::default(), &budget);
        assert!(r.partition.is_complete(), "fallback must assign every node");
        assert_eq!(r.partition.k(), 4);
        let d = r.degraded.expect("zero deadline must report degradation");
        assert!(!d.phase.is_empty() && !d.reason.is_empty());
    }

    #[test]
    fn a_refused_fm_level_is_projected_without_refinement() {
        // each FM level asks for its edges × fm_passes units of work:
        // at 2^40 passes no level fits an hour, while every subproblem's
        // bisect checkpoint (one unit per node) does
        let g = clustered(8, 20); // 160 nodes > coarsen_to: levels exist
        let c = Constraints::new(200, 10_000);
        let params = RbParams {
            fm_passes: 1 << 40,
            ..RbParams::default()
        };
        let budget = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        let r = rb_partition_budgeted(&g, 4, &c, &params, &budget);
        assert!(r.partition.is_complete());
        let d = r.degraded.expect("no FM level fits the deadline");
        assert_eq!(d.phase, "refine");
        assert!(d.reason.contains("without refinement"), "{}", d.reason);
    }
}
