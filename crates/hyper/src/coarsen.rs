//! Multilevel coarsening for hypergraphs: heavy-pin-connectivity
//! matching and net contraction.
//!
//! The rating between two nodes is the hMETIS-style *heavy connectivity*
//! score `Σ w(e) / (|e| − 1)` over the nets both pin — the expected
//! bandwidth hidden inside the coarse node if the pair merges. Matching
//! greedily by that rating concentrates multicast fan-out inside coarse
//! nodes, which is exactly what minimises the connectivity any coarse
//! partition can expose (the same argument `gp-core` makes for absorbed
//! edge weight).
//!
//! Contraction re-pins every net through the fine→coarse map, drops
//! pins that collapse together, drops nets left with a single pin
//! (absorbed), and merges nets that end up with the same root and pin
//! set — the standard identical-net collapse that keeps coarse
//! hypergraphs small.

use crate::hypergraph::{Hypergraph, HypergraphBuilder, NetId};
use ppn_graph::prng::{derive_seed, splitmix64, XorShift128Plus};
use ppn_graph::NodeId;
use std::collections::HashMap;

/// Sentinel for "unmatched".
pub const UNMATCHED: u32 = u32::MAX;

/// Nets larger than this are skipped when rating pairs (they contribute
/// almost nothing per pin and make rating quadratic; standard practice).
const RATING_NET_LIMIT: usize = 256;

/// Fixed-point scale for the `w/(|e|−1)` rating, so ties behave
/// deterministically without floats.
const RATING_SCALE: u64 = 256;

/// Greedy heavy-pin-connectivity matching: visit nodes in seeded random
/// order; an unmatched node pairs with the unmatched co-pin of maximum
/// rating (ties to the smaller node id). Returns `mate[v]` (or
/// [`UNMATCHED`]).
pub fn heavy_connectivity_matching(hg: &Hypergraph, seed: u64) -> Vec<u32> {
    let n = hg.num_nodes();
    let mut mate = vec![UNMATCHED; n];
    let mut order: Vec<u32> = (0..n as u32).collect();
    XorShift128Plus::new(seed).shuffle(&mut order);
    // sparse scratch: rating per candidate plus the touched list
    let mut rating = vec![0u64; n];
    let mut touched: Vec<u32> = Vec::new();
    for &v in &order {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        touched.clear();
        for &net in hg.nets_of(NodeId(v)) {
            let pins = hg.pins(NetId(net));
            if pins.len() < 2 || pins.len() > RATING_NET_LIMIT {
                continue;
            }
            let score = hg.net_weight(NetId(net)) * RATING_SCALE / (pins.len() as u64 - 1);
            for &u in pins {
                if u == v || mate[u as usize] != UNMATCHED {
                    continue;
                }
                if rating[u as usize] == 0 {
                    touched.push(u);
                }
                rating[u as usize] += score;
            }
        }
        let mut best: Option<(u64, u32)> = None;
        for &u in &touched {
            let key = (rating[u as usize], u);
            let better = match best {
                None => true,
                // higher rating wins; smaller id breaks ties
                Some((bs, bu)) => key.0 > bs || (key.0 == bs && u < bu),
            };
            if better {
                best = Some(key);
            }
            rating[u as usize] = 0;
        }
        if let Some((_, u)) = best {
            mate[v as usize] = u;
            mate[u as usize] = v;
        }
    }
    mate
}

/// First contraction pass: merge matched pairs into coarse nodes and
/// fill the fine→coarse map.
fn build_coarse_nodes(
    hg: &Hypergraph,
    mate: &[u32],
    map: &mut [u32],
    b: &mut HypergraphBuilder,
) -> usize {
    let n = hg.num_nodes();
    let mut coarse_nodes = 0usize;
    for v in 0..n {
        if map[v] != u32::MAX {
            continue;
        }
        let m = mate[v];
        let w = if m != UNMATCHED {
            hg.node_weight(NodeId(v as u32)) + hg.node_weight(NodeId(m))
        } else {
            hg.node_weight(NodeId(v as u32))
        };
        let id = b.add_node(w);
        coarse_nodes += 1;
        map[v] = id.0;
        if m != UNMATCHED {
            map[m as usize] = id.0;
        }
    }
    coarse_nodes
}

/// Chain terminator in [`HyperContractScratch::next`].
const NO_NET: u32 = u32::MAX;

/// Reusable working memory for [`contract_with`]: pin-dedup epoch
/// markers, the coarse-pin scratch, and the fingerprint table that
/// replaces the per-net `(root, sorted Vec<u32>)` HashMap key. Held
/// across levels by [`hyper_coarsen`], everything is `clear()`ed with
/// capacity retained.
#[derive(Clone, Debug, Default)]
pub struct HyperContractScratch {
    /// Epoch marker per coarse node: `seen[c] == epoch` iff `c` is a pin
    /// of the net currently being re-pinned. Doubles as the set-equality
    /// probe during bucket verification.
    seen: Vec<u32>,
    /// Current epoch (one per processed net).
    epoch: u32,
    /// Deduplicated coarse pins of the current net, first-occurrence
    /// order (root first).
    pins: Vec<u32>,
    /// Order-independent fingerprint → head of the candidate chain.
    heads: HashMap<u64, u32>,
    /// Next coarse net in the same fingerprint bucket.
    next: Vec<u32>,
}

impl HyperContractScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

#[inline]
fn mix(x: u64) -> u64 {
    let mut s = x;
    splitmix64(&mut s)
}

/// Contract `hg` along a mate array, producing the coarse hypergraph and
/// the fine→coarse map. Output-identical to a merge keyed on
/// `(root, sorted pin set)` (property-tested), but the identical-net
/// merge keys on an order-independent fingerprint — root, pin count,
/// and a commutative sum of mixed pin hashes — verified exactly against
/// the bucket's nets with the epoch marker, so no net ever allocates or
/// sorts a `Vec` key.
pub fn contract_with(
    hg: &Hypergraph,
    mate: &[u32],
    scratch: &mut HyperContractScratch,
) -> (Hypergraph, Vec<u32>) {
    let n = hg.num_nodes();
    assert_eq!(mate.len(), n, "mate/hypergraph mismatch");
    let mut map = vec![u32::MAX; n];
    let mut b = HypergraphBuilder::new();
    let cn = build_coarse_nodes(hg, mate, &mut map, &mut b);

    let s = scratch;
    s.seen.clear();
    s.seen.resize(cn, 0);
    s.epoch = 0;
    s.heads.clear();
    s.next.clear();

    let mut coarse_nets: Vec<(u64, Vec<NodeId>)> = Vec::new();
    for e in hg.net_ids() {
        s.epoch += 1;
        // dedup pins through the map, first-occurrence order (root first)
        s.pins.clear();
        for &p in hg.pins(e) {
            let c = map[p as usize];
            if s.seen[c as usize] != s.epoch {
                s.seen[c as usize] = s.epoch;
                s.pins.push(c);
            }
        }
        if s.pins.len() < 2 {
            continue; // absorbed into one coarse node
        }
        let root = s.pins[0];
        // order-independent fingerprint over the non-root pins
        let mut acc = 0u64;
        for &c in &s.pins[1..] {
            acc = acc.wrapping_add(mix(c as u64 ^ 0x9E37_79B9_7F4A_7C15));
        }
        let fp = mix(acc ^ mix(root as u64) ^ ((s.pins.len() as u64) << 48));
        let w = hg.net_weight(e);
        // bucket walk: exact verification against each candidate via the
        // epoch marker (a pin set equals ours iff same root, same length,
        // and every candidate pin was marked by the dedup pass above)
        let mut cand = s.heads.get(&fp).copied().unwrap_or(NO_NET);
        let mut merged = false;
        while cand != NO_NET {
            let (_, ref cpins) = coarse_nets[cand as usize];
            if cpins.len() == s.pins.len()
                && cpins[0].0 == root
                && cpins[1..].iter().all(|p| s.seen[p.index()] == s.epoch)
            {
                coarse_nets[cand as usize].0 += w;
                merged = true;
                break;
            }
            cand = s.next[cand as usize];
        }
        if !merged {
            let idx = coarse_nets.len() as u32;
            coarse_nets.push((w, s.pins.iter().map(|&c| NodeId(c)).collect()));
            let prev = s.heads.insert(fp, idx).unwrap_or(NO_NET);
            s.next.push(prev);
        }
    }
    for (w, pins) in &coarse_nets {
        b.add_net(*w, pins);
    }
    (b.build(), map)
}

/// Contract with a one-shot scratch; multilevel loops hold a
/// [`HyperContractScratch`] and call [`contract_with`] instead.
pub fn contract(hg: &Hypergraph, mate: &[u32]) -> (Hypergraph, Vec<u32>) {
    contract_with(hg, mate, &mut HyperContractScratch::new())
}

/// Coarsening hierarchy over a borrowed input: level 0 is the input
/// itself, level `i + 1` the contraction of level `i`. It owns only the
/// coarse hypergraphs and their maps.
#[derive(Clone, Debug)]
pub struct HyperHierarchy<'a> {
    input: &'a Hypergraph,
    /// Levels `1..depth()`, finest first.
    coarse: Vec<Hypergraph>,
    /// `maps[i]`: the fine→coarse node map from level `i` to `i + 1`.
    maps: Vec<Vec<u32>>,
}

impl HyperHierarchy<'_> {
    /// Borrow level `i` (0 = the input).
    pub fn level(&self, i: usize) -> &Hypergraph {
        match i {
            0 => self.input,
            _ => &self.coarse[i - 1],
        }
    }

    /// Fine→coarse map from level `i` to level `i + 1`.
    pub fn map(&self, i: usize) -> &[u32] {
        &self.maps[i]
    }

    /// The coarsest hypergraph.
    pub fn coarsest(&self) -> &Hypergraph {
        self.coarse.last().unwrap_or(self.input)
    }

    /// Number of hypergraphs (contractions + 1).
    pub fn depth(&self) -> usize {
        self.coarse.len() + 1
    }

    /// Node counts per hypergraph, finest first.
    pub fn size_trace(&self) -> Vec<usize> {
        (0..self.depth())
            .map(|i| self.level(i).num_nodes())
            .collect()
    }
}

/// Build a coarsening hierarchy over `hg` down to `coarsen_to` nodes.
pub fn hyper_coarsen(hg: &Hypergraph, coarsen_to: usize, seed: u64) -> HyperHierarchy<'_> {
    let mut hier = HyperHierarchy {
        input: hg,
        coarse: Vec::new(),
        maps: Vec::new(),
    };
    let mut scratch = HyperContractScratch::new();
    while hier.coarsest().num_nodes() > coarsen_to {
        let current = hier.coarsest();
        let round = hier.maps.len() as u64;
        let mate = heavy_connectivity_matching(current, derive_seed(seed, 0x6C + round));
        let pairs = mate.iter().filter(|&&m| m != UNMATCHED).count() / 2;
        let coarse_nodes = current.num_nodes() - pairs;
        if coarse_nodes as f64 > current.num_nodes() as f64 * 0.95 {
            break; // stalled (e.g. one giant net)
        }
        let (coarse, map) = contract_with(current, &mate, &mut scratch);
        hier.coarse.push(coarse);
        hier.maps.push(map);
    }
    hier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::measure;
    use ppn_graph::Partition;

    /// Ring of 3-pin nets: node i roots {i, i+1, i+2} (mod n).
    fn ring(n: usize, w: u64) -> Hypergraph {
        let mut b = HypergraphBuilder::new();
        let ids: Vec<_> = (0..n).map(|_| b.add_node(2)).collect();
        for i in 0..n {
            b.add_net(
                w + (i as u64 % 3),
                &[ids[i], ids[(i + 1) % n], ids[(i + 2) % n]],
            );
        }
        b.build()
    }

    #[test]
    fn matching_is_symmetric_and_uses_shared_nets() {
        let hg = ring(16, 4);
        let mate = heavy_connectivity_matching(&hg, 7);
        for v in 0..16usize {
            let m = mate[v];
            if m != UNMATCHED {
                assert_eq!(mate[m as usize], v as u32, "asymmetric at {v}");
                assert_ne!(m, v as u32);
                // mates must share at least one net
                let shared = hg
                    .nets_of(NodeId(v as u32))
                    .iter()
                    .any(|&e| hg.pins(NetId(e)).contains(&m));
                assert!(shared, "{v} matched to non-co-pin {m}");
            }
        }
        assert!(mate.iter().any(|&m| m != UNMATCHED), "nothing matched");
    }

    #[test]
    fn contract_preserves_node_weight_and_validates() {
        let hg = ring(16, 4);
        let mate = heavy_connectivity_matching(&hg, 3);
        let (coarse, map) = contract(&hg, &mate);
        coarse.validate().unwrap();
        assert_eq!(coarse.total_node_weight(), hg.total_node_weight());
        assert!(coarse.num_nodes() < hg.num_nodes());
        assert!(map.iter().all(|&c| (c as usize) < coarse.num_nodes()));
    }

    #[test]
    fn projected_connectivity_equals_coarse_connectivity() {
        // the hypergraph analogue of "projected cut equals coarse cut":
        // λ of a net only depends on which parts its pins land in, and
        // contraction never separates merged pins
        let hg = ring(12, 5);
        for seed in 0..6 {
            let mate = heavy_connectivity_matching(&hg, seed);
            let (coarse, map) = contract(&hg, &mate);
            let assign: Vec<u32> = (0..coarse.num_nodes() as u32).map(|i| i % 3).collect();
            let pc = Partition::from_assignment(assign, 3).unwrap();
            let pf = pc.project(&map);
            assert_eq!(
                measure(&coarse, &pc).0.total_cut,
                measure(&hg, &pf).0.total_cut,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn identical_nets_merge_weights() {
        let mut b = HypergraphBuilder::new();
        let n: Vec<_> = (0..4).map(|_| b.add_node(1)).collect();
        // two parallel nets rooted at 0 over {0,1,2}; after matching
        // (1,2) they both become {c0, c12} and must merge to weight 9
        b.add_net(4, &[n[0], n[1], n[2]]);
        b.add_net(5, &[n[0], n[2], n[1]]);
        b.add_net(2, &[n[2], n[3]]);
        let hg = b.build();
        let mate = vec![UNMATCHED, 2, 1, UNMATCHED];
        let (coarse, _) = contract(&hg, &mate);
        coarse.validate().unwrap();
        assert_eq!(coarse.num_nets(), 2);
        let total: u64 = coarse.net_ids().map(|e| coarse.net_weight(e)).sum();
        assert_eq!(total, 11);
        assert!(coarse.net_ids().any(|e| coarse.net_weight(e) == 9));
    }

    #[test]
    fn absorbed_nets_disappear() {
        let mut b = HypergraphBuilder::new();
        let n: Vec<_> = (0..2).map(|_| b.add_node(1)).collect();
        b.add_net(6, &[n[0], n[1]]);
        let hg = b.build();
        let mate = vec![1, 0];
        let (coarse, map) = contract(&hg, &mate);
        assert_eq!(coarse.num_nodes(), 1);
        assert_eq!(coarse.num_nets(), 0);
        assert_eq!(map, vec![0, 0]);
    }

    #[test]
    fn hierarchy_reaches_target_deterministically() {
        let hg = ring(64, 3);
        let a = hyper_coarsen(&hg, 12, 9);
        let b = hyper_coarsen(&hg, 12, 9);
        assert!(a.coarsest().num_nodes() <= 12 || a.depth() == 1);
        assert_eq!(a.size_trace(), b.size_trace());
        assert_eq!(a.coarsest().total_node_weight(), hg.total_node_weight());
        let trace = a.size_trace();
        assert!(trace.windows(2).all(|w| w[1] < w[0]), "{trace:?}");
        // level 0 is the input itself, and each map leads to the next
        assert!(std::ptr::eq(a.level(0), &hg));
        assert!(a.depth() > 1);
        for i in 0..a.depth() - 1 {
            assert_eq!(a.map(i).len(), a.level(i).num_nodes());
            let next = a.level(i + 1).num_nodes();
            assert!(a.map(i).iter().all(|&c| (c as usize) < next));
        }
        assert!(std::ptr::eq(a.coarsest(), a.level(a.depth() - 1)));
    }
}
