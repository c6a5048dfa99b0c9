//! Property tests for the classical partitioners.

use gp_classic::bisect::{bisect, recursive_bisection, BisectOptions};
use gp_classic::fm::{fm_refine_bisection, FmOptions, FmOutcome};
use gp_classic::gain::GainHeap;
use gp_classic::kway::{balanced_cap, kway_refine};
use gp_classic::matching::{
    heavy_edge_matching, heavy_edge_matching_prepared, shuffled_sorted_edges,
};
use gp_classic::subgraph::induced_subgraph;
use ppn_graph::matching::Matching;
use ppn_graph::metrics::edge_cut;
use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{EdgeId, GraphBuilder, NodeId, Partition, RefineOptions, WeightedGraph};
use proptest::prelude::*;
use std::cmp::Reverse;

fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..24, any::<u64>(), 1u64..20, 1u64..15).prop_map(|(n, mask, wmax, emax)| {
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_node(1 + (mask.rotate_left(i as u32) % wmax)))
            .collect();
        for i in 1..n {
            g.add_edge(ids[i - 1], ids[i], 1 + (mask.rotate_right(i as u32) % emax))
                .unwrap();
        }
        let mut bit = 0u32;
        for i in 0..n {
            for j in (i + 2)..n {
                bit = bit.wrapping_add(3);
                if (mask.rotate_left(bit) & 3) == 0 {
                    let _ = g.add_edge(ids[i], ids[j], 1 + (mask.rotate_right(bit) % emax));
                }
            }
        }
        g.build()
    })
}

/// The shuffled-then-sorted `(weight, edge id)` order by comparison
/// sort: the seeded shuffle, then a stable sort by descending weight.
fn edge_id_order(g: &WeightedGraph, seed: u64) -> Vec<(u64, u32)> {
    let mut edges: Vec<(u64, u32)> = (0..g.num_edges() as u32)
        .map(|e| (g.edge_weight(EdgeId(e)), e))
        .collect();
    XorShift128Plus::new(seed).shuffle(&mut edges);
    edges.sort_by_key(|e| Reverse(e.0));
    edges
}

/// [`edge_id_order`] with each id replaced by its endpoints in stored
/// orientation. The oracle for `shuffled_sorted_edges`.
fn shuffled_sorted_edges_oracle(g: &WeightedGraph, seed: u64) -> Vec<(u64, u32, u32)> {
    edge_id_order(g, seed)
        .into_iter()
        .map(|(w, e)| {
            let (u, v, _) = g.edge(EdgeId(e));
            (w, u.0, v.0)
        })
        .collect()
}

/// Heavy-edge matching over a `(weight, edge id)` order, each edge's
/// endpoints looked up by id. The oracle for
/// `heavy_edge_matching_prepared`, which reads them from the order.
fn heavy_edge_by_edge_id(g: &WeightedGraph, order: &[(u64, u32)]) -> Matching {
    let mut m = Matching::empty(g.num_nodes());
    for &(w, e) in order {
        let (u, v, _) = g.edge(EdgeId(e));
        if !m.is_matched(u) && !m.is_matched(v) {
            m.add_pair_absorbing(u, v, w);
        }
    }
    m
}

/// A random graph whose edge weights are tied (`1..=3`), spread over
/// the full `u64` range, or equal in every byte that `byte_mask` clears,
/// so the radix sort skips a different set of bytes in each case.
fn edge_order_graph(n: usize, m: usize, weights: u8, byte_mask: u64, seed: u64) -> WeightedGraph {
    let mut rng = XorShift128Plus::new(seed);
    let mut g = GraphBuilder::new();
    let ids: Vec<_> = (0..n).map(|_| g.add_node(1)).collect();
    let base = rng.next_u64() | 1;
    for _ in 0..m {
        let (a, b) = (rng.next_below(n), rng.next_below(n));
        let w = match weights {
            0 => 1 + rng.next_below(3) as u64,
            1 => rng.next_u64().max(1),
            _ => (base & !byte_mask) | (rng.next_u64() & byte_mask) | 1,
        };
        if a != b && g.find_edge(ids[a], ids[b]).is_none() {
            g.add_edge(ids[a], ids[b], w).unwrap();
        }
    }
    g.build()
}

/// FM as `fm_refine_bisection` runs it, with each side's best move found
/// by a linear scan for the largest `(gain, id)` among its unlocked
/// nodes, each gain summed afresh from the partition and each cut
/// re-measured. It keeps FM's admissibility rule (a move may overshoot a
/// cap by the heaviest node, or must strictly reduce the total cap
/// violation), its best-prefix rule (least `(violation, cut)`, earliest
/// on ties) and its stop rules. The oracle for FM's indexed gain heaps.
fn fm_by_scan(g: &WeightedGraph, p: &mut Partition, opts: &FmOptions) -> FmOutcome {
    let caps = opts.max_side_weight;
    let slack = g.node_weights().iter().copied().max().unwrap_or(0);
    let violation = |w: [u64; 2]| w[0].saturating_sub(caps[0]) + w[1].saturating_sub(caps[1]);
    let gain = |p: &Partition, v: NodeId| -> i64 {
        g.neighbors(v)
            .iter()
            .map(|&(u, e)| {
                let w = g.edge_weight(e) as i64;
                if p.part_of(u) == p.part_of(v) {
                    -w
                } else {
                    w
                }
            })
            .sum()
    };
    let admissible = |w: [u64; 2], sizes: [usize; 2], wv: u64, s: usize| {
        let t = 1 - s;
        if !opts.allow_empty_side && sizes[s] == 1 {
            return false;
        }
        let mut after = w;
        after[s] -= wv;
        after[t] += wv;
        after[t] <= caps[t].saturating_add(slack) || violation(after) < violation(w)
    };
    let initial_cut = edge_cut(g, p);
    let (mut cut, mut passes, mut moves_applied) = (initial_cut, 0, 0);
    for _ in 0..opts.max_passes {
        passes += 1;
        let pass_start_cut = cut;
        let (w, sz) = (p.part_weights(g.node_weights()), p.part_sizes());
        let (mut weights, mut sizes) = ([w[0], w[1]], [sz[0], sz[1]]);
        let (mut best, mut best_len) = ((violation(weights), cut), 0);
        let mut locked = vec![false; g.num_nodes()];
        let mut moves: Vec<(NodeId, u32)> = Vec::new();
        loop {
            let mut choice: Option<(i64, NodeId, usize)> = None;
            for s in 0..2 {
                let top = g
                    .node_ids()
                    .filter(|&v| !locked[v.index()] && p.part_of(v) as usize == s)
                    .map(|v| (gain(p, v), v))
                    .max();
                if let Some((gv, v)) = top {
                    if admissible(weights, sizes, g.node_weight(v), s)
                        && choice.is_none_or(|(bg, _, _)| gv > bg)
                    {
                        choice = Some((gv, v, s));
                    }
                }
            }
            let Some((_, v, s)) = choice else { break };
            let (t, wv) = (1 - s, g.node_weight(v));
            locked[v.index()] = true;
            p.assign(v, t as u32);
            weights[s] -= wv;
            weights[t] += wv;
            sizes[s] -= 1;
            sizes[t] += 1;
            moves.push((v, s as u32));
            cut = edge_cut(g, p);
            if (violation(weights), cut) < best {
                best = (violation(weights), cut);
                best_len = moves.len();
            }
        }
        for &(v, from) in moves[best_len..].iter().rev() {
            p.assign(v, from);
        }
        cut = best.1;
        moves_applied += best_len;
        if cut >= pass_start_cut && (best_len == 0 || passes >= 2) {
            break;
        }
    }
    FmOutcome {
        initial_cut,
        final_cut: cut,
        passes,
        moves_applied,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fm_improves_cut_or_repairs_balance(g in arb_graph(), seed in any::<u64>()) {
        let n = g.num_nodes();
        let assign: Vec<u32> = (0..n).map(|i| ((seed >> (i % 60)) & 1) as u32).collect();
        let mut p = Partition::from_assignment(assign, 2).unwrap();
        // ensure both sides non-empty
        p.assign(NodeId(0), 0);
        p.assign(NodeId(1), 1);
        let opts = FmOptions::balanced(&g, 1.2);
        let caps = opts.max_side_weight;
        let viol = |p: &Partition| {
            let w = p.part_weights(g.node_weights());
            w[0].saturating_sub(caps[0]) + w[1].saturating_sub(caps[1])
        };
        let before_cut = edge_cut(&g, &p);
        let before_viol = viol(&p);
        let out = fm_refine_bisection(&g, &mut p, &opts);
        prop_assert_eq!(out.final_cut, edge_cut(&g, &p));
        prop_assert!(p.is_complete());
        if before_viol == 0 {
            // feasible start: the cut never worsens
            prop_assert!(out.final_cut <= before_cut);
            prop_assert_eq!(viol(&p), 0, "feasible start must stay feasible");
        } else {
            // infeasible start: FM may raise the cut to repair balance,
            // but the violation must not grow
            prop_assert!(viol(&p) <= before_viol);
        }
    }

    #[test]
    fn kway_refinement_reaches_a_fixed_point(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..6,
        balance_pct in 100u64..160
    ) {
        // judged by the fresh edge cut: on exit no unprotected node has a
        // positive-gain move to a neighbouring part that stays within
        // the cap
        let cap = balanced_cap(g.total_node_weight(), k, balance_pct as f64 / 100.0);
        let mut rng = XorShift128Plus::new(seed);
        let assign = (0..g.num_nodes()).map(|_| rng.next_below(k) as u32).collect();
        let mut p = Partition::from_assignment(assign, k).unwrap();
        kway_refine(&g, &mut p, cap, &RefineOptions {
            seed,
            max_passes: 64, // far above what these sizes need to converge
            ..Default::default()
        });
        let cut = edge_cut(&g, &p);
        let weights = p.part_weights(g.node_weights());
        let sizes = p.part_sizes();
        for v in g.node_ids() {
            let from = p.part_of(v);
            if sizes[from as usize] == 1 {
                continue; // protected, as during refinement
            }
            for &(u, _) in g.neighbors(v) {
                let t = p.part_of(u);
                if t == from || weights[t as usize] + g.node_weight(v) > cap {
                    continue;
                }
                let mut moved = p.clone();
                moved.assign(v, t);
                prop_assert!(
                    edge_cut(&g, &moved) >= cut,
                    "node {:?} -> {} lowers the cut {} to {}",
                    v, t, cut, edge_cut(&g, &moved)
                );
            }
        }
    }

    #[test]
    fn prepared_heavy_edge_equals_the_edge_id_lookup(g in arb_graph(), seed in any::<u64>()) {
        let mut edges = Vec::new();
        shuffled_sorted_edges(&g, seed, &mut edges);
        let m = heavy_edge_matching_prepared(&g, &edges);
        let oracle = heavy_edge_by_edge_id(&g, &edge_id_order(&g, seed));
        prop_assert_eq!(m.absorbed(), oracle.absorbed());
        prop_assert_eq!(m, oracle);
    }

    #[test]
    fn hem_is_maximal_and_valid(g in arb_graph(), seed in any::<u64>()) {
        let m = heavy_edge_matching(&g, seed);
        prop_assert!(m.validate(&g));
        prop_assert!(m.is_maximal(&g));
    }

    #[test]
    fn recursive_bisection_covers_all_parts(g in arb_graph(), k in 2usize..6, seed in any::<u64>()) {
        let p = recursive_bisection(&g, k, 1.2, seed);
        prop_assert!(p.is_complete());
        prop_assert_eq!(p.k(), k);
        if g.num_nodes() >= 2 * k {
            let sizes = p.part_sizes();
            prop_assert!(sizes.iter().all(|&s| s > 0), "empty part: {:?}", sizes);
        }
        // projection sanity: weights sum preserved
        prop_assert_eq!(
            p.part_weights(g.node_weights()).iter().sum::<u64>(),
            g.total_node_weight()
        );
    }

    #[test]
    fn bisect_never_empties_a_side(g in arb_graph(), seed in any::<u64>()) {
        let b = bisect(&g, &BisectOptions { seed, ..Default::default() });
        prop_assert!(b.partition.is_complete());
        let sizes = b.partition.part_sizes();
        prop_assert!(sizes[0] > 0 && sizes[1] > 0);
        prop_assert_eq!(b.cut, edge_cut(&g, &b.partition));
    }

    #[test]
    fn induced_subgraph_preserves_internal_structure(g in arb_graph(), mask in any::<u64>()) {
        let nodes: Vec<NodeId> = g
            .node_ids()
            .filter(|v| (mask >> (v.index() % 60)) & 1 == 1)
            .collect();
        let (sub, back) = induced_subgraph(&g, &nodes);
        prop_assert_eq!(sub.num_nodes(), nodes.len());
        for (i, &orig) in back.iter().enumerate() {
            prop_assert_eq!(sub.node_weight(NodeId::from_index(i)), g.node_weight(orig));
        }
        // every subgraph edge exists in the parent with equal weight
        for (u, v, w) in sub.edges() {
            let e = g.find_edge(back[u.index()], back[v.index()]);
            prop_assert!(e.is_some());
            prop_assert_eq!(g.edge_weight(e.unwrap()), w);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn radix_edge_order_equals_stable_comparison_sort(
        n in 2usize..60,
        m in 0usize..300,
        weights in 0u8..3,
        bytes in any::<u8>(),
        seed in any::<u64>()
    ) {
        // each set bit of `bytes` lets one byte of the weights vary
        let byte_mask = (0..8)
            .filter(|b| bytes >> b & 1 == 1)
            .fold(0u64, |acc, b| acc | 0xFF << (8 * b));
        let g = edge_order_graph(n, m, weights, byte_mask, seed);
        let mut edges = vec![(7, 7, 7); 3]; // stale contents are cleared
        shuffled_sorted_edges(&g, seed, &mut edges);
        prop_assert_eq!(edges, shuffled_sorted_edges_oracle(&g, seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn fm_moves_as_a_scan_for_the_best_gain_does(
        g in arb_graph(),
        start in any::<u64>(),
        caps in 0u8..4,
        allow_empty_side in any::<bool>(),
        max_passes in 1usize..6
    ) {
        let n = g.num_nodes();
        let assign: Vec<u32> = (0..n).map(|i| ((start >> (i % 64)) & 1) as u32).collect();
        let p = Partition::from_assignment(assign, 2).unwrap();
        let (total, w) = (g.total_node_weight(), p.part_weights(g.node_weights()));
        let max_side_weight = match caps {
            // loose: nothing binds
            0 => [total, total],
            // tight: half the weight a side
            1 => [total.div_ceil(2), total.div_ceil(2)],
            // both sides over their caps at the start (escape mode)
            2 => [w[0] * 2 / 3, w[1] * 2 / 3],
            // one side over, the other loose
            _ => [w[0] / 2, total],
        };
        let opts = FmOptions { max_passes, max_side_weight, allow_empty_side };
        let (mut heaps, mut scan) = (p.clone(), p);
        let out = fm_refine_bisection(&g, &mut heaps, &opts);
        prop_assert_eq!(out, fm_by_scan(&g, &mut scan, &opts));
        prop_assert_eq!(heaps, scan);
    }

    #[test]
    fn gain_heap_pops_what_a_scan_picks(
        n in 1usize..40,
        ops in proptest::collection::vec((0u8..5, any::<u32>(), -6i64..6), 0..300)
    ) {
        // the oracle: each node's gain, or None when it has no entry
        let mut gains: Vec<Option<i64>> = vec![None; n];
        let best = |gains: &[Option<i64>]| {
            (0..n as u32).filter_map(|v| gains[v as usize].map(|g| (g, v))).max()
        };
        let mut heap = GainHeap::new(n);
        for (op, v, x) in ops {
            let v = v % n as u32;
            match op {
                // set a gain: inserts, re-inserts a popped node, or moves
                // an entry either way
                0 => {
                    heap.update(v, x);
                    gains[v as usize] = Some(x);
                }
                // raise or lower the current gain by `x`
                1 => {
                    let g = gains[v as usize].unwrap_or(0) + x;
                    heap.update(v, g);
                    gains[v as usize] = Some(g);
                }
                2 => prop_assert_eq!(heap.peek(), best(&gains)),
                3 => {
                    let want = best(&gains);
                    if let Some((_, u)) = want {
                        gains[u as usize] = None;
                    }
                    prop_assert_eq!(heap.pop(), want);
                }
                _ => {
                    heap.clear();
                    gains.fill(None);
                }
            }
        }
        // draining yields every live entry once, best first
        loop {
            let want = best(&gains);
            prop_assert_eq!(heap.pop(), want);
            match want {
                Some((_, u)) => gains[u as usize] = None,
                None => break,
            }
        }
    }
}
