//! Flat-arena hierarchy vs a textbook match-then-contract loop, across
//! the conformance instance families.
//!
//! `gp_coarsen_flat` appends compact CSR levels into one arena instead
//! of rebuilding a `WeightedGraph` per level — but it runs the same
//! tournament, seeds, and stall rule as the plain loop below (one
//! `best_matching` per level on a materialised graph, contracted
//! through a one-level arena), so the hierarchy it produces must be
//! *bit-identical* to that loop's: same size trace, same per-level
//! fine→coarse maps, same winning heuristics, same coarse adjacency.
//! Contraction itself is checked against a naive oracle in ppn-graph's
//! property suite; this suite pins the multilevel loop around it —
//! tournament, seed stream, stall rule and level composition — over
//! every conformance instance family (paper experiments, communities,
//! multicast stars, chains, cliques, degenerate shapes), re-generated
//! per `CONFORMANCE_SEED` in the CI seed matrix.

use ppn_partition::gp_core::{
    best_matching, gp_coarsen_flat, gp_partition, GpParams, MatchingKind,
};
use ppn_partition::ppn_backend::{conformance_matrix, degenerate_matrix};
use ppn_partition::ppn_graph::io::metis;
use ppn_partition::ppn_graph::metrics::PartitionQuality;
use ppn_partition::ppn_graph::prng::derive_seed;
use ppn_partition::ppn_graph::{LevelArena, WeightedGraph};
use ppn_partition::PartitionInstance;

fn matrix_seed() -> u64 {
    std::env::var("CONFORMANCE_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// All instances both suites run on, flattened into one family list.
fn all_instances(seed: u64) -> Vec<PartitionInstance> {
    let mut m = conformance_matrix(seed);
    m.extend(degenerate_matrix(seed));
    m
}

/// One contracted level of the oracle: the finer graph, its
/// fine→coarse map, and the tournament winner.
type OracleLevel = (WeightedGraph, Vec<u32>, MatchingKind);

/// The oracle hierarchy: per level, `best_matching` on the materialised
/// graph with the engine's `0x6C + round` seed stream, then one
/// `contract_top` on a fresh arena over that graph — stopping at
/// `coarsen_to` nodes, or when a matching would keep more than 95% of
/// the nodes (the engine's stall rule). Returns the levels, finest
/// first, and the coarsest graph.
fn oracle_hierarchy(
    g: &WeightedGraph,
    kinds: &[MatchingKind],
    coarsen_to: usize,
    seed: u64,
) -> (Vec<OracleLevel>, WeightedGraph) {
    let mut levels = Vec::new();
    let mut current = g.clone();
    let mut round = 0u64;
    while current.num_nodes() > coarsen_to {
        let (kind, m) = best_matching(kinds, &current, derive_seed(seed, 0x6C + round));
        if m.coarse_node_count() as f64 > current.num_nodes() as f64 * 0.95 {
            break;
        }
        let mut arena = LevelArena::from_graph(&current);
        arena.contract_top(&m);
        let (coarse, map) = (arena.top().to_graph(), arena.map_slice(0).to_vec());
        levels.push((current, map, kind));
        current = coarse;
        round += 1;
    }
    (levels, current)
}

/// Assert the flat hierarchy is bit-identical to the oracle hierarchy
/// for one instance × (coarsen_to, seed) cell.
fn assert_hierarchies_identical(inst: &PartitionInstance, coarsen_to: usize, seed: u64) {
    let kinds = GpParams::default().effective_matchings();
    let ctx = format!("{} (coarsen_to {coarsen_to}, seed {seed})", inst.name);

    let (levels, coarsest) = oracle_hierarchy(&inst.graph, &kinds, coarsen_to, seed);
    let flat = gp_coarsen_flat(&inst.graph, &kinds, coarsen_to, seed);

    assert_eq!(levels.len() + 1, flat.depth(), "{ctx}: depth");
    let mut sizes: Vec<usize> = levels.iter().map(|(fine, _, _)| fine.num_nodes()).collect();
    sizes.push(coarsest.num_nodes());
    assert_eq!(sizes, flat.size_trace(), "{ctx}: size trace");

    let winners: Vec<_> = levels.iter().map(|&(_, _, kind)| kind).collect();
    assert_eq!(winners, flat.winners, "{ctx}: tournament winners");

    for (i, (fine, map, _)) in levels.iter().enumerate() {
        assert_eq!(&map[..], flat.map(i), "{ctx}: fine→coarse map at level {i}");
        // adjacency of every intermediate graph, via the canonical
        // METIS serialisation (node weights, neighbor order, edge
        // weights all captured)
        assert_eq!(
            metis::write(fine),
            metis::write(&flat.level(i).to_graph()),
            "{ctx}: level {i} adjacency"
        );
    }
    assert_eq!(
        metis::write(&coarsest),
        metis::write(&flat.coarsest_graph()),
        "{ctx}: coarsest adjacency"
    );
}

#[test]
fn flat_hierarchy_is_bit_identical_across_conformance_families() {
    let seed = matrix_seed();
    for inst in all_instances(seed) {
        for coarsen_to in [8, 40] {
            assert_hierarchies_identical(&inst, coarsen_to, seed ^ 0xF1A7);
        }
    }
}

#[test]
fn flat_hierarchy_is_bit_identical_across_seeds() {
    // the equivalence must hold for every tournament outcome, not just
    // one lucky seed — vary the coarsening seed on a fixed instance set
    let insts = all_instances(matrix_seed());
    for s in 0..4u64 {
        for inst in &insts {
            assert_hierarchies_identical(inst, 12, s);
        }
    }
}

#[test]
fn gp_partition_on_flat_hierarchy_stays_conformant() {
    // the full pipeline now runs on the arena: results must remain
    // deterministic, complete, and self-consistent on every family
    let seed = matrix_seed();
    for inst in all_instances(seed) {
        let params = GpParams {
            seed: seed ^ 0x9E37,
            ..GpParams::default()
        };
        let run = || match gp_partition(&inst.graph, inst.k, &inst.constraints, &params) {
            Ok(r) => (true, r),
            Err(e) => (false, e.best),
        };
        let (feas_a, a) = run();
        let (feas_b, b) = run();
        assert_eq!(feas_a, feas_b, "{}: verdict flapped", inst.name);
        assert_eq!(a.partition, b.partition, "{}: nondeterministic", inst.name);
        assert!(a.partition.is_complete(), "{}", inst.name);
        assert_eq!(a.partition.k(), inst.k, "{}", inst.name);
        // reported quality equals independent recomputation
        let q = PartitionQuality::measure(&inst.graph, &a.partition);
        assert_eq!(q.total_cut, a.quality.total_cut, "{}", inst.name);
        if feas_a {
            assert!(
                inst.constraints.check_quality(&q).is_feasible(),
                "{}: feasible verdict contradicts reference checker",
                inst.name
            );
        }
    }
}
