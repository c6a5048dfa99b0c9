//! Coarsening hot-path benches on the dense-community family: each
//! matching heuristic in isolation — including the node-scan HEM variant
//! against the paper's sort-based HEM — and marker-array contraction.

use criterion::{criterion_group, criterion_main, Criterion};
use gp_core::coarsen::run_matching;
use gp_core::MatchingKind;
use ppn_gen::dense_community_graph;
use ppn_graph::contract::{contract_with, ContractScratch};
use ppn_graph::matching::random_maximal_matching;

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
    let mut scratch = ContractScratch::new();
    group.bench_function("marker_array", |b| {
        b.iter(|| contract_with(&g, &m, &mut scratch).0.num_edges())
    });
    group.finish();
}

criterion_group!(benches, bench_coarsen);
criterion_main!(benches);
