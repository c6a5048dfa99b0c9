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
//!    `⌈log₂ k⌉` deep;
//! 4. **Repair the pairwise bandwidth**: recursive bisection never sees
//!    `Bmax` (a 2-way cut says nothing about final part pairs), so the
//!    assembled k-way partition runs gp-core's boundary-driven
//!    [`constrained_refine`] which does;
//! 5. **Cycle** with fresh seeds while constraints are violated, keep
//!    the goodness-best attempt, and report the same
//!    feasible-or-best-attempt contract as `gp_partition`.

use gp_classic::bisect::{bisect_candidates, BisectOptions};
use gp_classic::fm::{fm_refine_bisection, FmOptions};
use gp_classic::subgraph::induced_subgraph;
use gp_core::initial::{greedy_initial_partition, InitialOptions};
use gp_core::params::MatchingKind;
use gp_core::refine::{constrained_refine, RefineOptions};
use gp_core::{gp_coarsen_flat, PhaseSeconds};
use ppn_graph::budget::{Budget, Degradation, Stop};
use ppn_graph::metrics::{CutMatrix, PartitionQuality};
use ppn_graph::prng::derive_seed;
use ppn_graph::trace;
use ppn_graph::{ConstraintReport, Constraints, NodeId, Partition, WeightedGraph};

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

/// Result of a recursive-bisection run (same shape as `GpResult`).
#[derive(Clone, Debug)]
pub struct RbResult {
    /// The assembled k-way partition.
    pub partition: Partition,
    /// Quality metrics of that partition.
    pub quality: PartitionQuality,
    /// Constraint check against the requested `Rmax`/`Bmax`.
    pub report: ConstraintReport,
    /// True when both constraints hold.
    pub feasible: bool,
    /// Restart cycles executed.
    pub cycles_used: usize,
    /// Wall-clock seconds per phase, summed over all subproblems and
    /// cycles (`initial_s` holds the bisection time).
    pub phases: PhaseSeconds,
    /// Set when a [`Budget`] cut the run short and the partition is
    /// best-so-far rather than fully explored.
    pub degraded: Option<Degradation>,
}

/// The cycle budget ran out with constraints still violated; carries the
/// best attempt, mirroring `GpInfeasible`.
#[derive(Clone, Debug)]
pub struct RbInfeasible {
    /// Best (least-violating) result found.
    pub best: RbResult,
}

impl std::fmt::Display for RbInfeasible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recursive bisection with these constraints is either impossible or needs \
             more cycles: after {} cycle(s) the best candidate still has {} violation(s) \
             (magnitude {})",
            self.best.cycles_used,
            self.best.report.violation_count(),
            self.best.report.violation_magnitude()
        )
    }
}

impl std::error::Error for RbInfeasible {}

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
/// `WeightedGraph` (per-node weight + adjacency `Vec` header + label
/// slot, per-edge entries in the edge list and both adjacency lists)
/// times two for its geometric coarsening hierarchy.
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
/// lowest-violation subtree is kept.
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
    phases: &mut PhaseSeconds,
    budget: &mut usize,
    time_budget: &Budget,
    degraded: &mut Option<Degradation>,
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
    let deg_sum: u64 = nodes.iter().map(|&v| g.neighbors(v).len() as u64).sum();
    let bytes = rb_sub_bytes_estimate(nodes.len(), deg_sum / 2);
    if let Err(stop) = time_budget.checkpoint("rb", "bisect", nodes.len() as u64, bytes) {
        let cause = match stop {
            Stop::Memory => "memory budget cannot fit the subproblem",
            Stop::Deadline => "deadline expired",
        };
        degraded.get_or_insert_with(|| {
            Degradation::new(
                "bisect",
                format!("{cause}; contiguous fill over {} nodes", nodes.len()),
            )
        });
        let weights: Vec<u64> = nodes.iter().map(|&v| g.node_weight(v)).collect();
        let fill = Partition::contiguous_balanced(&weights, k);
        for (i, &v) in nodes.iter().enumerate() {
            out.assign(v, part_base + fill.part_of(NodeId::from_index(i)));
        }
        return;
    }
    time_budget.fault_point("rb", "bisect");
    let _sp = trace::span("rb", "bisect", k as i64);
    let (sub, back) = induced_subgraph(g, nodes);
    let sub_seed = derive_seed(seed, part_base as u64 ^ (k as u64) << 20);

    // multilevel: coarsen the subproblem once (the hierarchy is
    // shape-independent), bisect the coarsest graph
    time_budget.fault_point("rb", "coarsen");
    let sp = trace::timed_span("rb", "coarsen", nodes.len() as i64);
    let hier = gp_coarsen_flat(&sub, &params.matchings, params.coarsen_to.max(4), sub_seed);
    let coarsest = hier.coarsest_graph();
    phases.coarsen_s += sp.finish();

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
        let sp = trace::timed_span("rb", "bisect_candidates", k0 as i64);
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
        phases.initial_s += sp.finish();

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
            } else if *budget == 0 {
                break; // backtracking budget exhausted: keep the best so far
            } else {
                let sp = trace::timed_span("rb", "grouping_candidates", k as i64);
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
                phases.initial_s += sp.finish();
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
                    if *budget == 0 {
                        break 'shapes;
                    }
                    if time_budget.checkpoint("rb", "bisect", 0, 0).is_err() {
                        degraded.get_or_insert_with(|| {
                            Degradation::new(
                                "bisect",
                                "deadline expired while exploring alternative candidates",
                            )
                        });
                        break 'shapes;
                    }
                    *budget -= 1;
                }
                // carry the candidate back up through the hierarchy,
                // FM-refining under the caps unless structure-preserving
                let sp = trace::timed_span("rb", "fm_refine", k0 as i64);
                let mut p2 = p0;
                for i in (0..hier.depth() - 1).rev() {
                    p2 = p2.project(hier.map(i));
                    if !skip_fm {
                        fm_refine_bisection(
                            &hier.level(i),
                            &mut p2,
                            &FmOptions {
                                max_passes: params.fm_passes,
                                max_side_weight: caps,
                                allow_empty_side: false,
                            },
                        );
                    }
                }
                phases.refine_s += sp.finish();

                let mut side0 = Vec::new();
                let mut side1 = Vec::new();
                for (i, &orig) in back.iter().enumerate() {
                    if p2.part_of(NodeId::from_index(i)) == 0 {
                        side0.push(orig);
                    } else {
                        side1.push(orig);
                    }
                }
                rb_recurse(
                    g,
                    &side0,
                    k0,
                    part_base,
                    c,
                    params,
                    seed,
                    out,
                    phases,
                    budget,
                    time_budget,
                    degraded,
                );
                rb_recurse(
                    g,
                    &side1,
                    k1,
                    part_base + k0 as u32,
                    c,
                    params,
                    seed,
                    out,
                    phases,
                    budget,
                    time_budget,
                    degraded,
                );

                // exact subtree score: the completed subtree's Rmax/Bmax
                // violation over the subproblem's internal edges
                let mut q = Partition::unassigned(sub.num_nodes(), out.k());
                for (i, &orig) in back.iter().enumerate() {
                    q.assign(NodeId::from_index(i), out.part_of(orig));
                }
                let cm = CutMatrix::compute(&sub, &q);
                let violation = c.violation_magnitude(&cm, &q.part_weights(&sub));
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

/// Run the constrained multilevel recursive-bisection partitioner.
/// Returns `Ok` when both constraints are met, `Err(RbInfeasible)` with
/// the best attempt otherwise.
pub fn rb_partition(
    g: &WeightedGraph,
    k: usize,
    c: &Constraints,
    params: &RbParams,
) -> Result<RbResult, Box<RbInfeasible>> {
    rb_partition_budgeted(g, k, c, params, &Budget::unlimited())
}

/// [`rb_partition`] under a cooperative [`Budget`]. Deadline checks
/// bound the best-first candidate exploration (at subproblem entry and
/// before each alternative candidate); on expiry the remaining subtree
/// is filled with a contiguous balanced split and the result carries a
/// [`Degradation`] record. `Budget::unlimited()` is bit-identical to
/// the plain entry point.
pub fn rb_partition_budgeted(
    g: &WeightedGraph,
    k: usize,
    c: &Constraints,
    params: &RbParams,
    time_budget: &Budget,
) -> Result<RbResult, Box<RbInfeasible>> {
    assert!(k >= 1, "k must be at least 1");
    let n = g.num_nodes();
    let _run = trace::span("rb", "partition", n as i64);
    let mut phases = PhaseSeconds::default();
    if n == 0 {
        let partition = Partition::unassigned(0, k);
        let quality = PartitionQuality::measure(g, &partition);
        let report = c.check_quality(&quality);
        return Ok(RbResult {
            partition,
            quality,
            report,
            feasible: true,
            cycles_used: 0,
            phases,
            degraded: None,
        });
    }

    // Reduced-footprint budgets shrink the search's working set: fewer
    // bisection restarts and no best-first branching alternatives.
    let reduced_params;
    let params = if time_budget.reduced_footprint() {
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
    let mut best: Option<((u64, u64, u64), Partition)> = None;
    let mut cycles_used = 0;
    let mut degraded: Option<Degradation> = None;
    // when the necessary condition already fails (a node outweighs Rmax
    // or total weight exceeds k·Rmax) no amount of backtracking helps:
    // produce one balanced best attempt and report infeasibility
    let provably_impossible = !c.admits(g, k);
    let cycles = if provably_impossible {
        1
    } else {
        params.max_cycles.max(1)
    };
    for cycle in 0..cycles {
        let _cyc = trace::span("rb", "cycle", cycle as i64);
        if cycle > 0 && time_budget.checkpoint("rb", "cycle", 0, 0).is_err() {
            degraded.get_or_insert_with(|| {
                Degradation::new("cycle", format!("deadline expired after {cycle} cycle(s)"))
            });
            break;
        }
        cycles_used = cycle + 1;
        let cycle_seed = derive_seed(params.seed, 0x5B15EC7 + cycle as u64);
        let mut p = Partition::unassigned(n, k);
        let mut budget = if provably_impossible {
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
            &mut phases,
            &mut budget,
            time_budget,
            &mut degraded,
        );
        debug_assert!(p.is_complete());

        // recursive bisection never saw Bmax — gp-core's constrained
        // k-way refinement does. An expired budget skips the repair:
        // the contiguous fill is already the best we can afford.
        time_budget.fault_point("rb", "refine");
        if time_budget.checkpoint("rb", "refine", 0, 0).is_ok() {
            let sp = trace::timed_span("rb", "kway_repair", cycle as i64);
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
            phases.refine_s += sp.finish();
        } else {
            degraded.get_or_insert_with(|| {
                Degradation::new("refine", "deadline expired; skipping the Bmax repair pass")
            });
        }

        let goodness = PartitionQuality::measure(g, &p).goodness_key(c.rmax, c.bmax);
        let is_better = best.as_ref().map(|(bg, _)| goodness < *bg).unwrap_or(true);
        if is_better {
            best = Some((goodness, p));
        }
        if best.as_ref().map(|(b, _)| b.0 == 0).unwrap_or(false) {
            break;
        }
    }

    let (_, partition) = best.expect("at least one cycle ran");
    let quality = PartitionQuality::measure(g, &partition);
    let report = c.check_quality(&quality);
    let feasible = report.is_feasible();
    let result = RbResult {
        partition,
        quality,
        report,
        feasible,
        cycles_used,
        phases,
        degraded,
    };
    if feasible {
        Ok(result)
    } else {
        Err(Box::new(RbInfeasible { best: result }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppn_graph::metrics::{edge_cut, imbalance};

    fn clustered(clusters: usize, size: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new();
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
        g
    }

    #[test]
    fn finds_planted_clusters_under_constraints() {
        let g = clustered(4, 5);
        // each cluster weighs 10; one cluster per part is feasible
        let c = Constraints::new(12, 4);
        let r = rb_partition(&g, 4, &c, &RbParams::default()).expect("feasible");
        assert!(r.feasible);
        assert!(r.partition.is_complete());
        assert!(c.is_feasible(&g, &r.partition));
        assert_eq!(r.quality.total_cut, edge_cut(&g, &r.partition));
        assert_eq!(r.quality.total_cut, 4, "ideal split cuts the 4 bridges");
    }

    #[test]
    fn non_power_of_two_k_stays_balanced() {
        let g = clustered(6, 4); // 24 nodes, weight 48
        for k in [3, 5, 6] {
            let c = Constraints::new(48 / k as u64 + 12, 1_000);
            let r = match rb_partition(&g, k, &c, &RbParams::default()) {
                Ok(r) => r,
                Err(e) => e.best.clone(),
            };
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
        let r = rb_partition(&g, 4, &c, &RbParams::default()).expect("feasible");
        assert!(r.quality.max_resource <= 14);
    }

    #[test]
    fn impossible_rmax_reports_infeasible_with_best_attempt() {
        let g = clustered(2, 4);
        let c = Constraints::new(1, 1_000); // below every node weight
        let err = rb_partition(&g, 4, &c, &RbParams::default()).unwrap_err();
        assert!(!err.best.feasible);
        assert!(err.best.partition.is_complete());
        assert!(err.to_string().contains("impossible"));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = clustered(4, 5);
        let c = Constraints::new(12, 4);
        let a = rb_partition(&g, 4, &c, &RbParams::default()).unwrap();
        let b = rb_partition(&g, 4, &c, &RbParams::default()).unwrap();
        assert_eq!(a.partition, b.partition);
        let other = rb_partition(&g, 4, &c, &RbParams::default().with_seed(9)).unwrap();
        assert!(other.feasible); // may or may not equal `a` — but must be valid
    }

    #[test]
    fn k_exceeding_n_never_panics() {
        let g = clustered(2, 2); // 4 nodes
        let c = Constraints::new(100, 100);
        let r = match rb_partition(&g, 8, &c, &RbParams::default()) {
            Ok(r) => r,
            Err(e) => e.best.clone(),
        };
        assert!(r.partition.is_complete());
        assert_eq!(r.partition.k(), 8);
    }

    #[test]
    fn k1_and_empty_graph_are_trivial() {
        let g = clustered(2, 3);
        let r = rb_partition(&g, 1, &Constraints::unconstrained(), &RbParams::default()).unwrap();
        assert_eq!(r.quality.total_cut, 0);
        let empty = WeightedGraph::new();
        let r = rb_partition(&empty, 4, &Constraints::new(5, 5), &RbParams::default()).unwrap();
        assert_eq!(r.partition.len(), 0);
    }

    #[test]
    fn multilevel_engages_on_larger_subproblems() {
        let g = clustered(8, 20); // 160 nodes > coarsen_to=60
        let c = Constraints::new(60, 1_000);
        let r = match rb_partition(&g, 4, &c, &RbParams::default()) {
            Ok(r) => r,
            Err(e) => e.best.clone(),
        };
        assert!(r.partition.is_complete());
        assert!(
            r.phases.coarsen_s > 0.0,
            "coarsening must have run: {:?}",
            r.phases
        );
    }

    #[test]
    fn bmax_repair_engages() {
        // two heavy pairs joined by a medium bridge: the min-cut
        // bisection routes 30 over one pair — Bmax 29 forces the repair
        // pass to trade cut for feasibility or report the violation
        let mut g = WeightedGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(10);
        let c_ = g.add_node(10);
        let d = g.add_node(10);
        g.add_edge(a, b, 100).unwrap();
        g.add_edge(c_, d, 100).unwrap();
        g.add_edge(b, c_, 30).unwrap();
        let cons = Constraints::new(40, 29);
        match rb_partition(&g, 2, &cons, &RbParams::default()) {
            Ok(r) => assert!(r.quality.max_local_bandwidth <= 29),
            Err(e) => assert!(e.best.report.violation_count() > 0),
        }
    }
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use ppn_graph::Budget;
    use std::time::Duration;

    fn clustered(clusters: usize, size: usize) -> WeightedGraph {
        let mut g = WeightedGraph::new();
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
        g
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_unbudgeted() {
        let g = clustered(4, 6);
        let c = Constraints::new(60, 1_000);
        let plain = match rb_partition(&g, 4, &c, &RbParams::default()) {
            Ok(r) => r,
            Err(e) => e.best.clone(),
        };
        let budgeted =
            match rb_partition_budgeted(&g, 4, &c, &RbParams::default(), &Budget::unlimited()) {
                Ok(r) => r,
                Err(e) => e.best.clone(),
            };
        assert_eq!(plain.partition, budgeted.partition);
        assert!(budgeted.degraded.is_none());
    }

    #[test]
    fn expired_deadline_still_returns_a_complete_partition() {
        let g = clustered(6, 10);
        let c = Constraints::new(200, 10_000);
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let r = match rb_partition_budgeted(&g, 4, &c, &RbParams::default(), &budget) {
            Ok(r) => r,
            Err(e) => e.best.clone(),
        };
        assert!(r.partition.is_complete(), "fallback must assign every node");
        assert_eq!(r.partition.k(), 4);
        let d = r.degraded.expect("zero deadline must report degradation");
        assert!(!d.phase.is_empty() && !d.reason.is_empty());
    }
}
