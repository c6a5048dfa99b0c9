//! Property-based tests for the graph substrate: the builder, the
//! arena's contraction, delta application and the sparse boundary each
//! against a naive oracle, contraction invariants, incremental metric
//! consistency, and I/O round-trips on arbitrary graphs.

use ppn_graph::arena::{LevelArena, PARALLEL_EDGE_THRESHOLD};
use ppn_graph::boundary::Boundary;
use ppn_graph::io::{json, matrix, metis};
use ppn_graph::matching::{random_maximal_matching, Matching};
use ppn_graph::metrics::{edge_cut, CutMatrix};
use ppn_graph::partition::Partition;
use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{
    DeltaMap, EdgeId, GraphBuilder, GraphDelta, GraphError, NodeId, PartLoads, WeightedGraph,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy: a random simple graph with 2..=24 nodes, edge probability ~
/// controlled by the pair mask, weights in small ranges.
fn arb_graph() -> impl Strategy<Value = WeightedGraph> {
    (2usize..24, any::<u64>(), 1u64..50, 1u64..20).prop_map(|(n, mask, wmax, emax)| {
        let mut g = GraphBuilder::new();
        let ids: Vec<_> = (0..n)
            .map(|i| g.add_node(1 + (mask.rotate_left(i as u32) % wmax)))
            .collect();
        let mut bit = 0u32;
        for i in 0..n {
            for j in (i + 1)..n {
                bit = bit.wrapping_add(1);
                // pseudo-random inclusion driven by the mask
                if (mask.rotate_left(bit) & 3) == 0 {
                    let w = 1 + (mask.rotate_right(bit) % emax);
                    g.add_edge(ids[i], ids[j], w).unwrap();
                }
            }
        }
        g.build()
    })
}

/// Random simple graph: a ring over `n` nodes plus about `extra` chords,
/// node weights 1..=9 and edge weights 1..=7.
fn ring_with_chords(n: usize, extra: usize, seed: u64) -> WeightedGraph {
    let mut g = GraphBuilder::new();
    let mut rng = XorShift128Plus::new(seed);
    let ids: Vec<_> = (0..n).map(|_| g.add_node(1 + rng.next_u64() % 9)).collect();
    for i in 0..n {
        g.add_edge(ids[i], ids[(i + 1) % n], 1 + rng.next_u64() % 7)
            .unwrap();
    }
    for _ in 0..extra {
        let a = rng.next_below(n);
        let b = rng.next_below(n);
        if a != b {
            let _ = g.add_or_merge_edge(ids[a], ids[b], 1 + rng.next_u64() % 7);
        }
    }
    g.build()
}

/// `g` written as JSON (labels included) with each node's adjacency
/// list shuffled out of edge creation order, then read back through
/// `graph_from_json`: the one kind of graph whose adjacency is not in
/// creation order.
fn shuffled_json_graph(g: &WeightedGraph, seed: u64) -> WeightedGraph {
    let mut rng = XorShift128Plus::new(seed);
    let adj: Vec<Vec<(NodeId, EdgeId)>> = g
        .node_ids()
        .map(|v| {
            let mut list = g.neighbors(v).to_vec();
            rng.shuffle(&mut list);
            list
        })
        .collect();
    let value = serde_json::json!({
        "node_weights": g.node_weights(),
        "edges": g.edges().collect::<Vec<_>>(),
        "adj": adj,
        "labels": g.node_ids().map(|v| g.label(v)).collect::<Vec<_>>()
    });
    json::graph_from_json(&serde_json::to_string(&value).unwrap()).unwrap()
}

/// Naive contraction — coarse nodes in first-visit order, every fine
/// edge re-targeted and merged with `add_or_merge_edge` — the oracle
/// for `LevelArena::contract_top`. Returns the coarse graph and the
/// fine→coarse map.
fn contract_oracle(g: &WeightedGraph, m: &Matching) -> (WeightedGraph, Vec<u32>) {
    let mut map = vec![u32::MAX; g.num_nodes()];
    let mut coarse = GraphBuilder::new();
    for v in g.node_ids() {
        if map[v.index()] != u32::MAX {
            continue;
        }
        let mate = m.mate_of(v);
        let w = g.node_weight(v) + mate.map_or(0, |u| g.node_weight(u));
        let id = coarse.add_node(w);
        map[v.index()] = id.0;
        if let Some(u) = mate {
            map[u.index()] = id.0;
        }
    }
    for (u, v, w) in g.edges() {
        let (cu, cv) = (map[u.index()], map[v.index()]);
        if cu != cv {
            coarse.add_or_merge_edge(NodeId(cu), NodeId(cv), w).unwrap();
        }
    }
    (coarse.build(), map)
}

/// One `contract_top` on a fresh arena over `g`: the coarse level as a
/// graph, and the fine→coarse map.
fn contract_once(g: &WeightedGraph, m: &Matching) -> (WeightedGraph, Vec<u32>) {
    let mut arena = LevelArena::from_graph(g);
    arena.contract_top(m);
    (arena.top().to_graph(), arena.map_slice(0).to_vec())
}

/// The builder's naive model: node weights, labels, the edge list, and
/// one adjacency `Vec` per node in insertion order — the representation
/// the builder replaced. The one oracle for [`GraphBuilder`].
#[derive(Default)]
struct NaiveGraph {
    weights: Vec<u64>,
    labels: Vec<Option<String>>,
    edges: Vec<(NodeId, NodeId, u64)>,
    adj: Vec<Vec<(NodeId, EdgeId)>>,
}

impl NaiveGraph {
    fn add_node(&mut self, w: u64, label: Option<String>) -> NodeId {
        self.weights.push(w);
        self.labels.push(label);
        self.adj.push(Vec::new());
        NodeId(self.weights.len() as u32 - 1)
    }

    fn check(&self, u: NodeId, v: NodeId, w: u64) -> Result<(), GraphError> {
        let n = self.weights.len();
        if u == v {
            Err(GraphError::SelfLoop(u.0))
        } else if w == 0 {
            Err(GraphError::ZeroWeight)
        } else if u.index() >= n {
            Err(GraphError::InvalidNode(u.0))
        } else if v.index() >= n {
            Err(GraphError::InvalidNode(v.0))
        } else {
            Ok(())
        }
    }

    fn find(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.adj[u.index()]
            .iter()
            .find(|&&(x, _)| x == v)
            .map(|&(_, e)| e)
    }

    fn push(&mut self, u: NodeId, v: NodeId, w: u64) -> EdgeId {
        let e = EdgeId(self.edges.len() as u32);
        self.edges.push((u, v, w));
        self.adj[u.index()].push((v, e));
        self.adj[v.index()].push((u, e));
        e
    }

    fn add_edge(&mut self, u: NodeId, v: NodeId, w: u64) -> Result<EdgeId, GraphError> {
        self.check(u, v, w)?;
        match self.find(u, v) {
            Some(_) => Err(GraphError::DuplicateEdge(u.0, v.0)),
            None => Ok(self.push(u, v, w)),
        }
    }

    fn add_or_merge_edge(&mut self, u: NodeId, v: NodeId, w: u64) -> Result<EdgeId, GraphError> {
        self.check(u, v, w)?;
        match self.find(u, v) {
            Some(e) => {
                let merged = &mut self.edges[e.index()].2;
                *merged = merged
                    .checked_add(w)
                    .ok_or(GraphError::WeightOverflow(u.0, v.0))?;
                Ok(e)
            }
            None => Ok(self.push(u, v, w)),
        }
    }
}

/// `g` with a label on about half its nodes.
fn labeled(g: &WeightedGraph, seed: u64) -> WeightedGraph {
    let mut b = GraphBuilder::new();
    for v in g.node_ids() {
        if (seed >> (v.index() % 64)) & 1 == 1 {
            b.add_labeled_node(g.node_weight(v), format!("p{}", v.0));
        } else {
            b.add_node(g.node_weight(v));
        }
    }
    for (u, v, w) in g.edges() {
        b.add_edge(u, v, w).unwrap();
    }
    b.build()
}

/// `GraphDelta::apply` as it was first written, against the public
/// builder API: validate, look the drift up in maps keyed by endpoints,
/// push every surviving base node and edge through a [`GraphBuilder`],
/// then merge the added edges with `add_or_merge_edge`. The oracle for
/// `apply`.
fn apply_oracle(
    d: &GraphDelta,
    base: &WeightedGraph,
) -> Result<(WeightedGraph, DeltaMap), GraphError> {
    let base_n = base.num_nodes();
    let virt_n = base_n + d.add_nodes.len();
    let check = |i: u32| {
        if (i as usize) < virt_n {
            Ok(())
        } else {
            Err(GraphError::InvalidNode(i))
        }
    };
    if d.add_nodes.contains(&0)
        || d.node_drift.iter().any(|&(_, w)| w == 0)
        || d.add_edges.iter().any(|&(_, _, w)| w == 0)
        || d.edge_drift.iter().any(|&(_, _, w)| w == 0)
    {
        return Err(GraphError::ZeroWeight);
    }
    let mut removed = vec![false; base_n];
    for &n in &d.remove_nodes {
        if (n as usize) >= base_n {
            return Err(GraphError::InvalidNode(n));
        }
        removed[n as usize] = true;
    }
    let live = |i: u32| (i as usize) >= base_n || !removed[i as usize];
    for &(u, v, _) in &d.add_edges {
        check(u)?;
        check(v)?;
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !live(u) || !live(v) {
            return Err(GraphError::InvalidNode(if live(u) { v } else { u }));
        }
    }
    let key = |u: u32, v: u32| (u.min(v), u.max(v));
    let base_edge = |u: u32, v: u32| {
        if (u as usize) >= base_n || (v as usize) >= base_n {
            Err(GraphError::InvalidNode(u.max(v)))
        } else if base.find_edge(NodeId(u), NodeId(v)).is_none() {
            Err(GraphError::InvalidEdge(u.max(v)))
        } else {
            Ok(key(u, v))
        }
    };
    let mut dropped_edges = BTreeMap::new();
    for &(u, v) in &d.remove_edges {
        dropped_edges.insert(base_edge(u, v)?, ());
    }
    let mut drifted_nodes = BTreeMap::new();
    for &(n, w) in &d.node_drift {
        if (n as usize) >= base_n || removed[n as usize] {
            return Err(GraphError::InvalidNode(n));
        }
        drifted_nodes.insert(n, w);
    }
    let mut drifted_edges = BTreeMap::new();
    for &(u, v, w) in &d.edge_drift {
        drifted_edges.insert(base_edge(u, v)?, w);
    }
    let mut g = GraphBuilder::new();
    let mut old_to_new = vec![Partition::UNASSIGNED; base_n];
    for v in base.node_ids() {
        if removed[v.index()] {
            continue;
        }
        let w = drifted_nodes
            .get(&v.0)
            .copied()
            .unwrap_or(base.node_weight(v));
        let id = match base.label(v) {
            Some(l) => g.add_labeled_node(w, l),
            None => g.add_node(w),
        };
        old_to_new[v.index()] = id.0;
    }
    let added: Vec<u32> = d.add_nodes.iter().map(|&w| g.add_node(w).0).collect();
    let remap = |i: u32| {
        NodeId(if (i as usize) < base_n {
            old_to_new[i as usize]
        } else {
            added[i as usize - base_n]
        })
    };
    for (u, v, w) in base.edges() {
        let k = key(u.0, v.0);
        if removed[u.index()] || removed[v.index()] || dropped_edges.contains_key(&k) {
            continue;
        }
        let w = drifted_edges.get(&k).copied().unwrap_or(w);
        g.add_edge(remap(u.0), remap(v.0), w).unwrap();
    }
    for &(u, v, w) in &d.add_edges {
        g.add_or_merge_edge(remap(u), remap(v), w)
            .map_err(|_| GraphError::WeightOverflow(u, v))?;
    }
    Ok((g.build(), DeltaMap { old_to_new, added }))
}

/// A random delta against `g` (at least two nodes). Where `g` has room
/// for them, it plants the cases the oracle's maps handled implicitly:
/// node and edge drift listed twice (the later entry wins), the drift of
/// an edge the delta also removes, the drift of an edge whose endpoint
/// it removes, an added edge onto a removed base edge, an added edge
/// onto a drifted surviving edge, the same added pair twice in either
/// orientation, and added edges between inserted nodes. One delta in
/// eight adds a near-`u64::MAX` weight onto an existing edge, and one in
/// four is broken in one of the ways `apply` rejects.
fn random_delta(g: &WeightedGraph, seed: u64) -> GraphDelta {
    let mut rng = XorShift128Plus::new(seed);
    let n = g.num_nodes();
    let mut d = GraphDelta::default();
    let edges: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u.0, v.0)).collect();
    let w = |rng: &mut XorShift128Plus| 1 + rng.next_u64() % 9;
    let coin = |rng: &mut XorShift128Plus| rng.next_below(2) == 0;
    let flip = |rng: &mut XorShift128Plus, (u, v): (u32, u32)| {
        if rng.next_below(2) == 0 {
            (u, v)
        } else {
            (v, u)
        }
    };
    let pick = |rng: &mut XorShift128Plus, list: &[(u32, u32)]| {
        (!list.is_empty()).then(|| list[rng.next_below(list.len())])
    };

    d.add_nodes = (0..rng.next_below(4)).map(|_| w(&mut rng)).collect();
    let virt_n = (n + d.add_nodes.len()) as u32;
    let retired = rng.next_below(n) as u32;
    d.remove_nodes.push(retired);
    if coin(&mut rng) {
        d.remove_nodes.push(retired);
    }
    let (kept, incident): (Vec<_>, Vec<_>) = edges
        .iter()
        .partition(|&&(u, v)| u != retired && v != retired);
    // a removed edge, removed again in the other orientation, drifted,
    // and re-added: dropped, then appended
    if let Some(e) = pick(&mut rng, &kept) {
        let (a, b) = flip(&mut rng, e);
        d.remove_edges.push((a, b));
        if coin(&mut rng) {
            d.remove_edges.push((b, a));
        }
        d.edge_drift.push((a, b, w(&mut rng)));
        d.add_edges.push((b, a, w(&mut rng)));
    }
    // the drift of an edge that leaves with its retired endpoint
    if let Some((a, b)) = pick(&mut rng, &incident) {
        d.edge_drift.push((a, b, w(&mut rng)));
    }
    // a surviving edge drifted twice, then merged onto in the other
    // orientation (it may be the removed edge above: then dropped and
    // appended)
    if let Some(e) = pick(&mut rng, &kept) {
        let (a, b) = flip(&mut rng, e);
        d.edge_drift.push((a, b, w(&mut rng)));
        d.edge_drift.push((b, a, w(&mut rng)));
        d.add_edges.push((b, a, w(&mut rng)));
    }
    // node drift with duplicates, on nodes that stay
    for _ in 0..rng.next_below(4) {
        let v = rng.next_below(n) as u32;
        if v != retired {
            d.node_drift.push((v, w(&mut rng)));
            if coin(&mut rng) {
                d.node_drift.push((v, w(&mut rng)));
            }
        }
    }
    // more removed edges, and random adds between live nodes (inserted
    // ones included), some listed twice in either orientation
    for _ in 0..rng.next_below(3) {
        if let Some(e) = pick(&mut rng, &edges) {
            let e = flip(&mut rng, e);
            d.remove_edges.push(e);
        }
    }
    for _ in 0..rng.next_below(6) {
        let (a, b) = (
            rng.next_below(virt_n as usize) as u32,
            rng.next_below(virt_n as usize) as u32,
        );
        if a != b && a != retired && b != retired {
            d.add_edges.push((a, b, w(&mut rng)));
            if coin(&mut rng) {
                let again = flip(&mut rng, (a, b));
                d.add_edges.push((again.0, again.1, w(&mut rng)));
            }
        }
    }
    if d.add_nodes.len() >= 2 {
        d.add_edges.push((n as u32, n as u32 + 1, w(&mut rng)));
        d.add_edges.push((n as u32 + 1, n as u32, w(&mut rng)));
    }
    if rng.next_below(8) == 0 {
        if let Some((a, b)) = pick(&mut rng, &kept) {
            d.add_edges.push((a, b, u64::MAX - rng.next_u64() % 4));
        }
    }
    if rng.next_below(4) == 0 {
        match rng.next_below(9) {
            0 => d.add_nodes.push(0),
            1 => d.remove_nodes.push(n as u32 + rng.next_below(3) as u32),
            2 => d.add_edges.push((0, virt_n + rng.next_below(3) as u32, 1)),
            3 => d.add_edges.push((retired, retired, 1)),
            4 => {
                let (a, b) = flip(&mut rng, (retired, virt_n - 1));
                d.add_edges.push((a, b, 1));
            }
            5 => {
                let (a, b) = (rng.next_below(n) as u32, rng.next_below(n) as u32);
                d.remove_edges.push((a, b));
            }
            6 => d.node_drift.push((retired, 1)),
            7 => d
                .edge_drift
                .push((0, n as u32 + rng.next_below(3) as u32, 1)),
            _ => d.edge_drift.push((0, 1, 0)),
        }
    }
    d
}

/// Contract `g` once per matching seed, through one arena and through
/// the oracle side by side: every level of the chain must carry the
/// oracle's fine→coarse map and coarse graph. Each matching is computed
/// on the oracle's graph, so the arena never feeds its own input.
fn assert_chain_matches_oracle(g: &WeightedGraph, seeds: &[u64], ctx: &str) {
    let mut arena = LevelArena::from_graph(g);
    let mut current = g.clone();
    let mut sizes = vec![g.num_nodes()];
    for (level, &seed) in seeds.iter().enumerate() {
        let m = random_maximal_matching(&current, seed);
        arena.contract_top(&m);
        let (coarse, map) = contract_oracle(&current, &m);
        let ctx = format!("{ctx}, level {level}");
        assert_eq!(arena.map_slice(level), &map[..], "{ctx}: map");
        assert_eq!(arena.top(), coarse.view(), "{ctx}: coarse level");
        sizes.push(coarse.num_nodes());
        current = coarse;
    }
    assert_eq!(arena.size_trace(), sizes, "{ctx}: size trace");
}

fn arb_partition(n: usize, k: usize, seed: u64) -> Partition {
    let assign: Vec<u32> = (0..n)
        .map(|i| ((seed.rotate_left(i as u32) ^ i as u64) % k as u64) as u32)
        .collect();
    Partition::from_assignment(assign, k).unwrap()
}

/// The dense boundary the sparse one replaced: an n×k row per node,
/// kept here as the oracle for rows, masks, external weights,
/// membership and the exact order of the boundary set.
struct DenseBoundary {
    k: usize,
    conn: Vec<u64>,
    mask: Vec<u64>,
    ext: Vec<u64>,
    nodes: Vec<NodeId>,
    pos: Vec<u32>,
}

impl DenseBoundary {
    const OUT: u32 = u32::MAX;

    fn new(g: &WeightedGraph, p: &Partition) -> Self {
        let (n, k) = (g.num_nodes(), p.k());
        let mut b = DenseBoundary {
            k,
            conn: vec![0; n * k],
            mask: vec![0; n],
            ext: vec![0; n],
            nodes: Vec::new(),
            pos: vec![Self::OUT; n],
        };
        for v in g.node_ids() {
            let i = v.index();
            for &(u, e) in g.neighbors(v) {
                b.conn[i * k + p.part_of(u) as usize] += g.edge_weight(e);
            }
            b.refresh_row(v, p.part_of(v) as usize);
        }
        b
    }

    fn conn(&self, v: NodeId) -> &[u64] {
        &self.conn[v.index() * self.k..(v.index() + 1) * self.k]
    }

    fn conn_mask(&self, v: NodeId) -> u64 {
        if self.k <= 64 {
            self.mask[v.index()]
        } else {
            u64::MAX
        }
    }

    /// Recompute `v`'s mask and external weight against part `own` and
    /// re-derive its membership.
    fn refresh_row(&mut self, v: NodeId, own: usize) {
        let i = v.index();
        let row = &self.conn[i * self.k..(i + 1) * self.k];
        self.mask[i] = row
            .iter()
            .enumerate()
            .filter(|&(q, &w)| q < 64 && w > 0)
            .fold(0, |m, (q, _)| m | 1 << q);
        self.ext[i] = row.iter().sum::<u64>() - row[own];
        if self.ext[i] > 0 && self.pos[i] == Self::OUT {
            self.pos[i] = self.nodes.len() as u32;
            self.nodes.push(v);
        } else if self.ext[i] == 0 && self.pos[i] != Self::OUT {
            let at = self.pos[i] as usize;
            let last = *self.nodes.last().unwrap();
            self.nodes.swap_remove(at);
            if last != v {
                self.pos[last.index()] = at as u32;
            }
            self.pos[i] = Self::OUT;
        }
    }

    fn apply_move(&mut self, g: &WeightedGraph, p: &Partition, v: NodeId, from: u32, to: u32) {
        if from == to {
            return;
        }
        let (f, t) = (from as usize, to as usize);
        for &(u, e) in g.neighbors(v) {
            let w = g.edge_weight(e);
            self.conn[u.index() * self.k + f] -= w;
            self.conn[u.index() * self.k + t] += w;
            self.refresh_row(u, p.part_of(u) as usize);
        }
        self.refresh_row(v, t);
    }
}

/// Compare the sparse boundary with the dense oracle: every node's row
/// (stored or implicit), mask, external weight and membership, and the
/// boundary set in its exact order.
fn assert_boundary_matches(b: &Boundary, dense: &DenseBoundary, g: &WeightedGraph, p: &Partition) {
    let k = p.k();
    for v in g.node_ids() {
        let own = p.part_of(v) as usize;
        let (row, mask) = if b.has_row(v) {
            (b.conn(v).to_vec(), b.conn_mask(v))
        } else {
            // implicit: every neighbour in the own part
            let mut row = vec![0; k];
            row[own] = g.neighbors(v).iter().map(|&(_, e)| g.edge_weight(e)).sum();
            let mask = match (k <= 64, row[own] > 0) {
                (false, _) => u64::MAX,
                (true, true) => 1 << own,
                (true, false) => 0,
            };
            (row, mask)
        };
        prop_assert_eq!(row.as_slice(), dense.conn(v), "row of {:?}", v);
        prop_assert_eq!(mask, dense.conn_mask(v), "mask of {:?}", v);
        prop_assert_eq!(b.external(v), dense.ext[v.index()], "ext of {:?}", v);
        prop_assert_eq!(
            b.is_boundary(v),
            dense.pos[v.index()] != DenseBoundary::OUT,
            "membership of {:?}",
            v
        );
    }
    prop_assert_eq!(b.nodes(), dense.nodes.as_slice(), "boundary order");
    prop_assert_eq!(b.cut_matrix(p), CutMatrix::compute(g, p));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_matches_naive_model(
        ops in proptest::collection::vec((0u8..4, 0u32..10, 0u32..10, any::<u64>()), 1..80)
    ) {
        // node ids up to 9 against a growing node count: unknown
        // endpoints early, self loops and duplicates throughout; edge
        // weights include 0 and near-`u64::MAX` values that overflow on
        // merge
        let mut b = GraphBuilder::new();
        let mut model = NaiveGraph::default();
        for (i, &(op, u, v, raw)) in ops.iter().enumerate() {
            let (u, v) = (NodeId(u), NodeId(v));
            let w = match raw % 8 {
                0 => 0,
                1 => u64::MAX - raw % 4,
                _ => 1 + raw % 9,
            };
            match op {
                0 => prop_assert_eq!(b.add_node(1 + raw % 9), model.add_node(1 + raw % 9, None)),
                1 => {
                    let label = format!("p{i}");
                    prop_assert_eq!(
                        b.add_labeled_node(1 + raw % 9, label.clone()),
                        model.add_node(1 + raw % 9, Some(label))
                    );
                }
                2 => prop_assert_eq!(b.add_edge(u, v, w), model.add_edge(u, v, w), "op {}", i),
                _ => prop_assert_eq!(
                    b.add_or_merge_edge(u, v, w),
                    model.add_or_merge_edge(u, v, w),
                    "op {}",
                    i
                ),
            }
        }
        let n = model.weights.len() as u32;
        for u in 0..n {
            for v in 0..n {
                let want = if u == v { None } else { model.find(NodeId(u), NodeId(v)) };
                prop_assert_eq!(b.find_edge(NodeId(u), NodeId(v)), want);
            }
        }
        let g = b.build();
        prop_assert_eq!(g.node_weights(), &model.weights[..]);
        for v in g.node_ids() {
            prop_assert_eq!(g.label(v), model.labels[v.index()].as_deref());
            prop_assert_eq!(g.neighbors(v), &model.adj[v.index()][..]);
            let weighted: Vec<(NodeId, u64)> = model.adj[v.index()]
                .iter()
                .map(|&(u, e)| (u, model.edges[e.index()].2))
                .collect();
            prop_assert_eq!(g.view().weighted_neighbors(v).collect::<Vec<_>>(), weighted);
        }
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), model.edges);
        g.validate().unwrap();
        prop_assert_eq!(LevelArena::from_graph(&g).level(0), g.view());
    }

    #[test]
    fn contraction_preserves_node_weight(g in arb_graph(), seed in any::<u64>()) {
        let m = random_maximal_matching(&g, seed);
        prop_assert!(m.validate(&g));
        prop_assert!(m.is_maximal(&g));
        let (c, _) = contract_once(&g, &m);
        prop_assert_eq!(c.total_node_weight(), g.total_node_weight());
        c.validate().unwrap();
    }

    #[test]
    fn contraction_preserves_crossing_weight(g in arb_graph(), seed in any::<u64>()) {
        // total fine edge weight = coarse edge weight + absorbed weight
        let m = random_maximal_matching(&g, seed);
        let (c, _) = contract_once(&g, &m);
        prop_assert_eq!(
            g.total_edge_weight(),
            c.total_edge_weight() + m.absorbed_weight(&g)
        );
    }

    #[test]
    fn contract_top_equals_oracle(g in arb_graph(), seeds in proptest::collection::vec(any::<u64>(), 1..4)) {
        // one level per seed, each contracted from the one before:
        // single levels and chains, as the multilevel loops run them
        assert_chain_matches_oracle(&g, &seeds, "arb_graph");
        // a level 0 read from JSON keeps the file's adjacency order; the
        // random matching reads it, contraction must not
        let shuffled = shuffled_json_graph(&g, seeds[0]);
        assert_chain_matches_oracle(&shuffled, &seeds, "arb_graph from shuffled JSON");
    }

    #[test]
    fn matching_absorbed_tracks_scan(g in arb_graph(), seed in any::<u64>()) {
        let m = random_maximal_matching(&g, seed);
        prop_assert_eq!(m.absorbed(), m.absorbed_weight(&g));
    }

    #[test]
    fn projected_cut_matches_coarse_cut(g in arb_graph(), seed in any::<u64>(), k in 2usize..5) {
        let m = random_maximal_matching(&g, seed);
        let (c, map) = contract_once(&g, &m);
        let pc = arb_partition(c.num_nodes(), k, seed);
        let pf = pc.project(&map);
        prop_assert_eq!(edge_cut(&c, &pc), edge_cut(&g, &pf));
        // pairwise matrices agree too
        let mc = CutMatrix::compute(&c, &pc);
        let mf = CutMatrix::compute(&g, &pf);
        prop_assert_eq!(mc, mf);
    }

    #[test]
    fn cut_matrix_total_matches_edge_cut(g in arb_graph(), seed in any::<u64>(), k in 2usize..6) {
        let p = arb_partition(g.num_nodes(), k, seed);
        let m = CutMatrix::compute(&g, &p);
        prop_assert_eq!(m.total_cut(), edge_cut(&g, &p));
    }

    #[test]
    fn incremental_moves_agree_with_recompute(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..5,
        moves in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..30)
    ) {
        let mut p = arb_partition(g.num_nodes(), k, seed);
        let mut m = CutMatrix::compute(&g, &p);
        for (rn, rp) in moves {
            let n = NodeId((rn as usize % g.num_nodes()) as u32);
            let to = rp % k as u32;
            let from = p.part_of(n);
            m.apply_move(&g, &p, n, from, to);
            p.assign(n, to);
        }
        prop_assert_eq!(m, CutMatrix::compute(&g, &p));
    }

    #[test]
    fn incremental_aggregates_agree_with_scans(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..5,
        bmax in 0u64..40,
        rmax in 0u64..400,
        moves in proptest::collection::vec((any::<u32>(), any::<u32>()), 1..30)
    ) {
        let mut p = arb_partition(g.num_nodes(), k, seed);
        let mut m = CutMatrix::compute(&g, &p);
        m.track_bmax(bmax);
        let mut loads = PartLoads::new(g.node_weights(), &p, rmax);
        for (rn, rp) in moves {
            let n = NodeId((rn as usize % g.num_nodes()) as u32);
            let to = rp % k as u32;
            let from = p.part_of(n);
            m.apply_move(&g, &p, n, from, to);
            let w = g.node_weight(n);
            let before = loads.excess();
            let d = loads.excess_change(from as usize, to as usize, w, 0);
            loads.shift(from as usize, to as usize, w);
            if from != to {
                prop_assert_eq!(loads.excess() as i64 - before as i64, d);
            }
            p.assign(n, to);
            let fresh = CutMatrix::compute(&g, &p);
            prop_assert_eq!(m.total_cut(), fresh.total_cut());
            prop_assert_eq!(m.tracked_excess(), fresh.violation_magnitude(bmax));
            prop_assert_eq!(m.violation_magnitude(bmax), m.tracked_excess());
            let weights = p.part_weights(g.node_weights());
            prop_assert_eq!(loads.weights(), &weights[..]);
            let sizes: Vec<usize> = (0..k).map(|q| loads.size(q)).collect();
            prop_assert_eq!(sizes, p.part_sizes());
            let excess: u64 = weights.iter().map(|&w| w.saturating_sub(rmax)).sum();
            prop_assert_eq!(loads.excess(), excess);
        }
    }

    #[test]
    fn sparse_boundary_matches_dense_oracle(
        g in arb_graph(),
        seed in any::<u64>(),
        k in 2usize..71,
        used in 1usize..71,
        offset in any::<u32>(),
        moves in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u8>()), 1..40)
    ) {
        // `used` consecutive parts from `offset` on (mod k): few parts
        // leave interior nodes with implicit rows, k > 64 runs the
        // unmasked path
        let shift = offset % k as u32;
        let assign = arb_partition(g.num_nodes(), used.min(k), seed)
            .assignment()
            .iter()
            .map(|&q| (q + shift) % k as u32)
            .collect();
        let mut p = Partition::from_assignment(assign, k).unwrap();
        let mut b = Boundary::new(&g, &p);
        let mut dense = DenseBoundary::new(&g, &p);
        assert_boundary_matches(&b, &dense, &g, &p);
        let mut rng = XorShift128Plus::new(seed);
        for (rn, rp, how) in moves {
            let n = NodeId((rn as usize % g.num_nodes()) as u32);
            let to = (rp ^ rng.next_u64() as u32) % k as u32;
            let from = p.part_of(n);
            if how & 4 != 0 {
                let other = NodeId((rp as usize % g.num_nodes()) as u32);
                b.ensure_row(&g, &p, other);
            }
            // either side of the partition write, as the docs allow
            if how & 1 == 0 {
                b.apply_move(&g, &p, n, from, to);
                dense.apply_move(&g, &p, n, from, to);
                p.assign(n, to);
            } else {
                p.assign(n, to);
                b.apply_move(&g, &p, n, from, to);
                dense.apply_move(&g, &p, n, from, to);
            }
            assert_boundary_matches(&b, &dense, &g, &p);
        }
        let fresh = Boundary::new(&g, &p);
        let mut have: Vec<_> = b.nodes().to_vec();
        let mut want: Vec<_> = fresh.nodes().to_vec();
        have.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(have, want);
        prop_assert!(b.stored_rows() >= fresh.stored_rows());
        b.ensure_all_rows(&g, &p);
        prop_assert_eq!(b.stored_rows(), g.num_nodes());
        assert_boundary_matches(&b, &dense, &g, &p);
    }

    #[test]
    fn metis_roundtrip(g in arb_graph()) {
        let text = metis::write(&g);
        let g2 = metis::parse(&text).unwrap();
        prop_assert_eq!(g2.num_nodes(), g.num_nodes());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        prop_assert_eq!(g2.total_edge_weight(), g.total_edge_weight());
        for v in g.node_ids() {
            prop_assert_eq!(g2.node_weight(v), g.node_weight(v));
        }
        for (u, v, w) in g.edges() {
            let e = g2.find_edge(u, v).unwrap();
            prop_assert_eq!(g2.edge_weight(e), w);
        }
    }

    #[test]
    fn matrix_roundtrip(g in arb_graph()) {
        let text = matrix::write(&g);
        let g2 = matrix::parse(&text).unwrap();
        prop_assert_eq!(g2.num_nodes(), g.num_nodes());
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v, w) in g.edges() {
            let e = g2.find_edge(u, v).unwrap();
            prop_assert_eq!(g2.edge_weight(e), w);
        }
    }

    #[test]
    fn part_weights_sum_to_total_when_complete(g in arb_graph(), seed in any::<u64>(), k in 1usize..6) {
        let p = arb_partition(g.num_nodes(), k, seed);
        let weights = p.part_weights(g.node_weights());
        prop_assert_eq!(weights.iter().sum::<u64>(), g.total_node_weight());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn delta_apply_matches_builder_oracle(
        g in arb_graph(),
        ring in (3usize..24, 0usize..30),
        kind in 0u8..8,
        seed in any::<u64>()
    ) {
        // bases: an arbitrary graph or a ring with chords, each plain,
        // labeled, read from JSON with shuffled adjacency, or both
        let g = if kind & 4 == 0 { g } else { ring_with_chords(ring.0, ring.1, seed) };
        let base = match kind & 3 {
            0 => g,
            1 => labeled(&g, seed),
            2 => shuffled_json_graph(&g, seed),
            _ => shuffled_json_graph(&labeled(&g, seed), seed),
        };
        let delta = random_delta(&base, seed);
        match (delta.apply(&base), apply_oracle(&delta, &base)) {
            (Ok((got, got_map)), Ok((want, want_map))) => {
                prop_assert_eq!(got.view(), want.view());
                for v in want.node_ids() {
                    prop_assert_eq!(got.label(v), want.label(v));
                }
                prop_assert_eq!(got_map, want_map);
            }
            (got, want) => prop_assert_eq!(got.err(), want.err(), "{:?}", delta),
        }
    }
}

#[test]
fn contract_top_matches_oracle_on_ring_graphs() {
    // single levels on ten 60-node graphs, and a four-level chain on a
    // 120-node one
    for seed in 0..10 {
        let g = ring_with_chords(60, 50, seed);
        assert_chain_matches_oracle(&g, &[seed ^ 0xA5], &format!("ring 60, seed {seed}"));
    }
    assert_chain_matches_oracle(&ring_with_chords(120, 90, 3), &[11, 12, 13, 14], "ring 120");
}

#[test]
fn contract_top_matches_oracle_above_parallel_threshold() {
    // about 12k nodes and 40k edges, so the first contraction takes the
    // sharded parallel merge that every smaller case here skips
    let g = ring_with_chords(12_000, 28_000, 0x5EED);
    assert!(
        g.num_edges() >= PARALLEL_EDGE_THRESHOLD,
        "{} edges stay below the parallel threshold",
        g.num_edges()
    );
    assert_chain_matches_oracle(&g, &[1, 2], "ring 12k");
}
