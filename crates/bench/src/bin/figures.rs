//! Regenerate the paper's Figures 1–13 as DOT files (plus a textual
//! V-cycle trace for Fig. 1).
//!
//! * Fig. 2/6/10 — unpartitioned graphs, node radius ∝ weight;
//! * Fig. 3/7/11 — weight/bandwidth-annotated graphs;
//! * Fig. 4/8/12 — GP partitionings (constraints met);
//! * Fig. 5/9/13 — baseline partitionings (constraints violated);
//! * Fig. 1 — the multilevel V-cycle, emitted as the GP level trace.
//!
//! The GP and baseline partitions are the paper table's: the `gp` and
//! `metis` backends of the registry at `ppn_gen::paper::TABLE_SEED`.
//! Render with `dot -Tpdf` / `neato -Tpng` if Graphviz is available.

use gp_core::{gp_partition, GpParams};
use ppn_backend::{backend_by_name, paper_instance, Budget, PartitionInstance};
use ppn_gen::paper::{all_experiments, TABLE_SEED};
use ppn_graph::io::dot::{to_dot, DotOptions};
use ppn_graph::Partition;

fn partition(backend: &str, inst: &PartitionInstance) -> Partition {
    backend_by_name(backend)
        .expect("registered backend")
        .partition(inst, TABLE_SEED, &Budget::unlimited())
        .unwrap_or_else(|e| panic!("{e}"))
        .partition
}

fn main() {
    std::fs::create_dir_all("out").expect("create out/");
    // figure numbers per experiment: (plain, weighted, gp, metis)
    let figs = [(2, 3, 4, 5), (6, 7, 8, 9), (10, 11, 12, 13)];

    for (e, (f_plain, f_weighted, f_gp, f_metis)) in all_experiments().iter().zip(figs) {
        let write = |fig: usize, suffix: &str, opts: &DotOptions| {
            let path = format!("out/fig{fig:02}_exp{}_{suffix}.dot", e.id);
            std::fs::write(&path, to_dot(&e.graph, opts)).expect("write dot");
            println!("wrote {path}");
        };
        write(
            f_plain,
            "plain",
            &DotOptions {
                name: format!("fig{f_plain}"),
                size_by_weight: true,
                show_weights: false,
                partition: None,
            },
        );
        write(
            f_weighted,
            "weighted",
            &DotOptions {
                name: format!("fig{f_weighted}"),
                size_by_weight: true,
                show_weights: true,
                partition: None,
            },
        );

        let inst = paper_instance(e);
        for (fig, backend) in [(f_gp, "gp"), (f_metis, "metis")] {
            write(
                fig,
                backend,
                &DotOptions {
                    name: format!("fig{fig}"),
                    size_by_weight: true,
                    show_weights: true,
                    partition: Some(partition(backend, &inst)),
                },
            );
        }

        // Fig. 1: the multilevel scheme, as the V-cycle trace of the
        // `gp` row's run on exp 1
        if e.id == 1 {
            let params = GpParams::default().with_seed(TABLE_SEED);
            let (_, trace) = gp_partition(&e.graph, e.k, &e.constraints, &params);
            let mut txt = String::from(
                "Fig. 1 — Multi-Level scheme (coarsening / initial partitioning / un-coarsening)\n\
                 GP V-cycle trace for experiment 1:\n",
            );
            for t in &trace {
                txt.push_str(&format!(
                    "  cycle {} attempt {}: sizes {:?} matchings {:?} mid-level {} goodness {:?}{}\n",
                    t.cycle,
                    t.attempt,
                    t.hierarchy_sizes,
                    t.matchings.iter().map(|m| m.to_string()).collect::<Vec<_>>(),
                    t.mid_level,
                    t.goodness_at_mid,
                    if t.selected { "  [selected]" } else { "" }
                ));
            }
            std::fs::write("out/fig01_vcycle.txt", txt).expect("write trace");
            println!("wrote out/fig01_vcycle.txt");
        }
    }
}
