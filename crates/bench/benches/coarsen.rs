//! Coarsening hot-path benches on the dense-community family: each
//! matching heuristic in isolation — including the node-scan HEM variant
//! against the paper's sort-based HEM — and `LevelArena::contract_top`,
//! the one contraction every multilevel engine runs. Each contraction
//! sample clones a one-level arena first (a copy of level 0's flat
//! arrays), since `contract_top` appends to the arena it runs on.

use criterion::{criterion_group, criterion_main, Criterion};
use gp_core::coarsen::run_matching;
use gp_core::MatchingKind;
use ppn_gen::dense_community_graph;
use ppn_graph::matching::random_maximal_matching;
use ppn_graph::LevelArena;

fn bench_coarsen(c: &mut Criterion) {
    let g = dense_community_graph(8, 256, (2, 9), 12, 2, 4, 99);

    let mut group = c.benchmark_group("coarsen_matching");
    group.sample_size(20);
    for kind in MatchingKind::WITH_NODE_SCAN {
        group.bench_function(kind.to_string(), |b| {
            b.iter(|| run_matching(kind, &g, 42).num_pairs())
        });
    }
    group.finish();

    let m = random_maximal_matching(&g, 42);
    let mut group = c.benchmark_group("contract");
    group.sample_size(20);
    let base = LevelArena::from_graph(&g);
    group.bench_function("contract_top", |b| b.iter(|| base.clone().contract_top(&m)));
    group.finish();
}

criterion_group!(benches, bench_coarsen);
criterion_main!(benches);
