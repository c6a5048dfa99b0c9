//! Clique-expansion equivalence: on hypergraphs whose nets all have
//! exactly two pins, the connectivity metric degenerates to the edge
//! cut, the per-boundary traffic matrix to the pairwise cut matrix, and
//! the hyper partitioner's feasibility verdict must match `gp-core`'s.
//! This anchors the new engine to the existing, paper-validated one.

use gp_core::{gp_partition, GpParams};
use ppn_graph::metrics::{CutMatrix, PartitionQuality};
use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{Constraints, GraphBuilder, NodeId, Partition, RefineOptions, WeightedGraph};
use ppn_hyper::initial::grow_from;
use ppn_hyper::{
    hyper_partition, hyper_refine, measure, HyperContractScratch, HyperParams, Hypergraph,
    HypergraphBuilder, NetConnectivity, NetId,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::hash_map::{Entry, HashMap};

/// Random connected weighted graph strategy (the 2-pin-net source).
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (4usize..24, 0usize..30, any::<u64>())
        .prop_map(|(n, extra, seed)| ppn_gen_like(n, n - 1 + extra, seed))
}

/// Connected random graph without depending on ppn-gen (spanning tree +
/// random chords), deterministic per seed.
fn ppn_gen_like(n: usize, m: usize, seed: u64) -> WeightedGraph {
    let mut rng = XorShift128Plus::new(seed);
    let mut g = GraphBuilder::new();
    for _ in 0..n {
        g.add_node(5 + rng.next_below(40) as u64);
    }
    for i in 1..n {
        let parent = rng.next_below(i);
        g.add_edge(
            NodeId::from_index(i),
            NodeId::from_index(parent),
            1 + rng.next_below(9) as u64,
        )
        .unwrap();
    }
    let mut added = n - 1;
    let mut guard = 0;
    while added < m && guard < 50 * n {
        guard += 1;
        let a = rng.next_below(n);
        let b = rng.next_below(n);
        if a == b {
            continue;
        }
        let (u, v) = (NodeId::from_index(a), NodeId::from_index(b));
        if g.find_edge(u, v).is_some() {
            continue;
        }
        g.add_edge(u, v, 1 + rng.next_below(9) as u64).unwrap();
        added += 1;
    }
    g.build()
}

/// Random multicast-ish hypergraph: every node roots a few nets over
/// random co-pins, weights varied, plus planted duplicate nets (same
/// root, permuted pins) so the identical-net merge has real work.
fn random_hypergraph(n: usize, seed: u64) -> Hypergraph {
    let mut rng = XorShift128Plus::new(seed);
    let mut b = HypergraphBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|_| b.add_node(1 + rng.next_below(9) as u64))
        .collect();
    for v in 0..n {
        let nets = 1 + rng.next_below(3);
        for _ in 0..nets {
            let fanout = 1 + rng.next_below(4.min(n - 1));
            let mut pins = vec![ids[v]];
            for _ in 0..fanout {
                pins.push(ids[rng.next_below(n)]);
            }
            let w = 1 + rng.next_below(7) as u64;
            if pins.iter().skip(1).any(|&p| p != pins[0]) {
                b.add_net(w, &pins);
                if rng.next_below(3) == 0 {
                    // duplicate with permuted non-root pins
                    pins[1..].reverse();
                    b.add_net(w + 1, &pins);
                }
            }
        }
    }
    b.build()
}

/// Random mate array: repeatedly pair two distinct unmatched nodes.
fn random_mate(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = XorShift128Plus::new(seed);
    let mut mate = vec![ppn_hyper::coarsen::UNMATCHED; n];
    for _ in 0..n {
        let a = rng.next_below(n);
        let b = rng.next_below(n);
        if a != b
            && mate[a] == ppn_hyper::coarsen::UNMATCHED
            && mate[b] == ppn_hyper::coarsen::UNMATCHED
        {
            mate[a] = b as u32;
            mate[b] = a as u32;
        }
    }
    mate
}

/// Naive contraction keyed on `(root, sorted rest)` `Vec`s — the oracle
/// for the fingerprint merge of `contract_with`.
fn contract_oracle(hg: &Hypergraph, mate: &[u32]) -> (Hypergraph, Vec<u32>) {
    let mut map = vec![u32::MAX; hg.num_nodes()];
    let mut b = HypergraphBuilder::new();
    for v in 0..hg.num_nodes() {
        if map[v] != u32::MAX {
            continue;
        }
        let m = mate[v];
        let matched = m != ppn_hyper::coarsen::UNMATCHED;
        let mut w = hg.node_weight(NodeId(v as u32));
        if matched {
            w += hg.node_weight(NodeId(m));
        }
        map[v] = b.add_node(w).0;
        if matched {
            map[m as usize] = map[v];
        }
    }
    let mut seen: HashMap<(u32, Vec<u32>), usize> = HashMap::new();
    let mut nets: Vec<(u64, Vec<NodeId>)> = Vec::new();
    for e in hg.net_ids() {
        let mut pins: Vec<u32> = Vec::new();
        for &p in hg.pins(e) {
            if !pins.contains(&map[p as usize]) {
                pins.push(map[p as usize]);
            }
        }
        if pins.len() < 2 {
            continue;
        }
        let mut rest = pins[1..].to_vec();
        rest.sort_unstable();
        let w = hg.net_weight(e);
        match seen.entry((pins[0], rest)) {
            Entry::Occupied(slot) => nets[*slot.get()].0 += w,
            Entry::Vacant(slot) => {
                slot.insert(nets.len());
                nets.push((w, pins.into_iter().map(NodeId).collect()));
            }
        }
    }
    for (w, pins) in &nets {
        b.add_net(*w, pins);
    }
    (b.build(), map)
}

/// A random hypergraph for the growth oracle: nets of 2 to 5 pins, a
/// third of them on one of two hub nodes, with weights either drawn
/// from `0..=2` (ties and zero-weight nets) or up to 2^40.
fn growth_hypergraph(n: usize, nets: usize, wide: bool, seed: u64) -> Hypergraph {
    let mut rng = XorShift128Plus::new(seed);
    let mut b = HypergraphBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|_| b.add_node(1 + rng.next_below(20) as u64))
        .collect();
    for _ in 0..nets {
        let mut pins = vec![if rng.next_below(3) == 0 {
            ids[rng.next_below(2.min(n))]
        } else {
            ids[rng.next_below(n)]
        }];
        for _ in 0..1 + rng.next_below(4) {
            pins.push(ids[rng.next_below(n)]);
        }
        let w = if wide {
            1 + (rng.next_u64() >> 24)
        } else {
            rng.next_below(3) as u64
        };
        b.add_net(w, &pins);
    }
    b.build()
}

/// Greedy growth by frontier scan: after each absorbed node, drop the
/// assigned nodes from the frontier and scan the rest for the heaviest
/// gain, O(frontier) per node. The oracle for `grow_from`'s frontier
/// heap.
fn grow_from_scan(hg: &Hypergraph, k: usize, c: &Constraints, first: NodeId) -> Partition {
    let n = hg.num_nodes();
    let mut p = Partition::unassigned(n, k);
    let mut part_weight = vec![0u64; k];
    let mut by_weight: Vec<NodeId> = hg.node_ids().collect();
    by_weight.sort_by_key(|&v| Reverse((hg.node_weight(v), Reverse(v.0))));
    let mut next_seed = Some(first);
    for part in 0..k as u32 {
        // a fresh gain per part: the heaviest-connected unassigned pin
        // of the nets the part touches
        let mut net_in_part = vec![false; hg.num_nets()];
        let mut gain = vec![0u64; n];
        let mut frontier: Vec<u32> = Vec::new();
        let Some(seed_node) = next_seed
            .take()
            .or_else(|| by_weight.iter().copied().find(|&v| !p.is_assigned(v)))
        else {
            break;
        };
        let mut v = seed_node;
        loop {
            p.assign(v, part);
            part_weight[part as usize] += hg.node_weight(v);
            for &e in hg.nets_of(v) {
                if !std::mem::replace(&mut net_in_part[e as usize], true) {
                    for &pin in hg.pins(NetId(e)) {
                        if !p.is_assigned(NodeId(pin)) {
                            frontier.push(pin);
                            gain[pin as usize] += hg.net_weight(NetId(e));
                        }
                    }
                }
            }
            frontier.retain(|&u| !p.is_assigned(NodeId(u)));
            let mut best: Option<(u64, u32)> = None;
            for &u in &frontier {
                let g = gain[u as usize];
                match best {
                    Some((bw, bu)) if (bw, Reverse(bu)) >= (g, Reverse(u)) => {}
                    _ => best = Some((g, u)),
                }
            }
            let Some((_, u)) = best else { break };
            if part_weight[part as usize] + hg.node_weight(NodeId(u)) > c.rmax {
                break;
            }
            v = NodeId(u);
        }
    }
    for v in p.unassigned_nodes() {
        let wv = hg.node_weight(v);
        let target = (0..k)
            .filter(|&q| part_weight[q] + wv <= c.rmax)
            .max_by_key(|&q| (c.rmax - part_weight[q], Reverse(q)))
            .unwrap_or_else(|| {
                (0..k)
                    .max_by_key(|&q| (c.rmax.saturating_sub(part_weight[q]), Reverse(q)))
                    .unwrap()
            });
        p.assign(v, target as u32);
        part_weight[target] += wv;
    }
    p
}

fn random_partition(n: usize, k: usize, seed: u64) -> Partition {
    let mut rng = XorShift128Plus::new(seed);
    let assign: Vec<u32> = (0..n).map(|_| rng.next_below(k) as u32).collect();
    Partition::from_assignment(assign, k).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn two_pin_connectivity_equals_edge_cut(g in arb_graph(), k in 2usize..5, pseed in any::<u64>()) {
        let hg = Hypergraph::from_graph(&g);
        hg.validate().unwrap();
        let p = random_partition(g.num_nodes(), k, pseed);
        // cost, peak, resources and every pair of the traffic matrix
        let (q, _) = measure(&hg, &p);
        prop_assert_eq!(q, PartitionQuality::measure(&g, &p));
    }

    #[test]
    fn two_pin_tracker_stays_exact_under_moves(g in arb_graph(), k in 2usize..5, mseed in any::<u64>()) {
        let hg = Hypergraph::from_graph(&g);
        let mut p = random_partition(g.num_nodes(), k, mseed);
        let mut s = NetConnectivity::new(&hg, &p);
        s.track_bmax(20);
        let mut cut = CutMatrix::compute(&g, &p);
        cut.track_bmax(20);
        let mut rng = XorShift128Plus::new(mseed ^ 0xABCD);
        for _ in 0..20 {
            let v = NodeId::from_index(rng.next_below(g.num_nodes()));
            let to = rng.next_below(k) as u32;
            let from = p.part_of(v);
            s.apply_move(&hg, v, from, to);
            cut.apply_move(&g, &p, v, from, to);
            p.assign(v, to);
            prop_assert_eq!(s.traffic(), &cut);
            prop_assert_eq!(s.connectivity_cost(), cut.total_cut());
            prop_assert_eq!(s.tracked_excess(), cut.tracked_excess());
        }
    }

    #[test]
    fn tracker_stays_exact_on_multicast_hypergraphs_under_long_sequences(
        n in 4usize..24,
        hseed in any::<u64>(),
        k in 2usize..6,
        mseed in any::<u64>(),
    ) {
        // true multicast nets (fanout > 1), not the 2-pin embedding:
        // λ, the per-net pin counts, the traffic matrix and the
        // tracked excess must all match a from-scratch recomputation
        // at every step of a long random move sequence
        let hg = random_hypergraph(n, hseed);
        let mut p = random_partition(n, k, mseed);
        let mut s = NetConnectivity::new(&hg, &p);
        let bmax = 1 + (hseed % 13);
        s.track_bmax(bmax);
        let mut rng = XorShift128Plus::new(mseed ^ 0x10C0_5EED);
        for step in 0..120 {
            let v = NodeId::from_index(rng.next_below(n));
            let to = rng.next_below(k) as u32;
            let from = p.part_of(v);
            s.apply_move(&hg, v, from, to);
            p.assign(v, to);

            let fresh = NetConnectivity::new(&hg, &p);
            prop_assert_eq!(s.connectivity_cost(), fresh.connectivity_cost(), "step {}", step);
            prop_assert_eq!(s.cut_nets(), fresh.cut_nets(), "step {}", step);
            prop_assert_eq!(s.traffic(), fresh.traffic(), "step {}", step);
            prop_assert_eq!(
                s.tracked_excess(),
                fresh.traffic().violation_magnitude(bmax),
                "step {}",
                step
            );
            // deep per-net state every few steps (λ and pin counts)
            if step % 10 == 9 {
                for e in hg.net_ids() {
                    prop_assert_eq!(s.lambda(e), fresh.lambda(e), "net {:?}", e);
                    for q in 0..k {
                        prop_assert_eq!(
                            s.pin_count(e, q),
                            fresh.pin_count(e, q),
                            "net {:?} part {}",
                            e,
                            q
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fingerprint_net_merge_equals_hashmap_reference(
        n in 3usize..28,
        hseed in any::<u64>(),
        mseeds in proptest::collection::vec(any::<u64>(), 1..4)
    ) {
        // one scratch reused across matings — the multilevel usage
        let hg = random_hypergraph(n, hseed);
        hg.validate().unwrap();
        let mut scratch = HyperContractScratch::new();
        for mseed in mseeds {
            let mate = random_mate(n, mseed);
            let (c_opt, map_opt) = ppn_hyper::contract_with(&hg, &mate, &mut scratch);
            let (c_ref, map_ref) = contract_oracle(&hg, &mate);
            prop_assert_eq!(map_opt, map_ref);
            prop_assert_eq!(c_opt, c_ref);
        }
    }

    #[test]
    fn feasibility_verdicts_match_gp_core(g in arb_graph(), k in 2usize..4) {
        let hg = Hypergraph::from_graph(&g);
        // generous constraints: both engines must report feasible
        let generous = Constraints::new(
            g.total_node_weight(),
            g.total_edge_weight().max(1),
        );
        let hyper_ok = hyper_partition(&hg, k, &generous, &HyperParams::default()).feasible();
        let gp_ok = gp_partition(&g, k, &generous, &GpParams::default()).0.feasible();
        prop_assert_eq!(hyper_ok, gp_ok, "generous constraints");
        prop_assert!(hyper_ok);

        // provably impossible: Rmax below the heaviest node
        let impossible = Constraints::new(
            g.max_node_weight().saturating_sub(1),
            g.total_edge_weight().max(1),
        );
        let hyper_bad = !hyper_partition(&hg, k, &impossible, &HyperParams::default()).feasible();
        let gp_bad = !gp_partition(&g, k, &impossible, &GpParams::default()).0.feasible();
        prop_assert_eq!(hyper_bad, gp_bad, "impossible constraints");
        prop_assert!(hyper_bad);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn frontier_heap_growth_equals_scan(
        n in 1usize..40,
        density in 0usize..4,
        wide in any::<bool>(),
        seed in any::<u64>(),
        k in 1usize..7,
        rmax_pct in 1u64..160
    ) {
        let hg = growth_hypergraph(n, n * density + n / 2, wide, seed);
        let total = hg.total_node_weight();
        // from below the heaviest node (every part stops at once) to
        // above the whole hypergraph (part 0 takes its component)
        let c = Constraints::new((total * rmax_pct / 100 / k as u64).max(1), u64::MAX);
        let first = NodeId::from_index(seed as usize % n);
        prop_assert_eq!(grow_from(&hg, k, &c, first), grow_from_scan(&hg, k, &c, first));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn refinement_reaches_single_move_fixed_point(
        n in 4usize..32,
        seed in any::<u64>(),
        k in 2usize..5,
        rmax_frac in 3u64..8,
        bmax_frac in 1u64..8
    ) {
        // judged by fresh measurements, not by the engine: on exit no
        // unprotected node has a strictly improving move to a part its
        // nets span or to its escape part, and no node outside the
        // active set (no cut net, home part within Rmax) has one to any
        // part, which is why a pass may skip those nodes
        let hg = random_hypergraph(n, seed);
        let c = Constraints::new(
            (hg.total_node_weight() * rmax_frac / (2 * k as u64)).max(1),
            (hg.total_net_weight() * bmax_frac / 8).max(1),
        );
        let mut p = random_partition(n, k, seed);
        hyper_refine(&hg, &mut p, &c, &RefineOptions {
            seed,
            max_passes: 64, // far above what these sizes need to converge
            ..Default::default()
        });
        let key = |p: &Partition| {
            let (_, magnitude, cost) = measure(&hg, p).0.goodness_key(c.rmax, c.bmax);
            (magnitude, cost)
        };
        let at_exit = key(&p);
        let weights = p.part_weights(hg.node_weights());
        let sizes = p.part_sizes();
        let s = NetConnectivity::new(&hg, &p);
        for v in hg.node_ids() {
            let from = p.part_of(v);
            let over = weights[from as usize] > c.rmax;
            let escape = (0..k as u32)
                .filter(|&t| over && t != from)
                .min_by_key(|&t| (weights[t as usize], t));
            let nets = hg.nets_of(v);
            let spans = |t: u32| nets.iter().any(|&e| s.pin_count(NetId(e), t as usize) > 0);
            let active = over || nets.iter().any(|&e| s.is_cut(NetId(e)));
            let unprotected = sizes[from as usize] > 1;
            for t in (0..k as u32).filter(|&t| t != from) {
                let candidate = unprotected && (spans(t) || escape == Some(t));
                if !candidate && active {
                    continue;
                }
                let mut moved = p.clone();
                moved.assign(v, t);
                prop_assert!(
                    key(&moved) >= at_exit,
                    "node {:?} -> {} improves {:?} to {:?} (active: {})",
                    v, t, at_exit, key(&moved), active
                );
            }
        }
    }
}
