//! Quickstart: partition a small process-network graph onto 4 FPGAs
//! under bandwidth and resource constraints, and compare with the
//! unconstrained baseline.
//!
//! Run with `cargo run --example quickstart`.

use ppn_partition::ppn_graph::metrics::PartitionQuality;
use ppn_partition::{
    Budget, Constraints, GpBackend, GpParams, GraphBuilder, PartitionInstance, Partitioner,
};

fn main() {
    // Build a 12-process network graph by hand: node weights are FPGA
    // resources (LUTs), edge weights are FIFO bandwidth. Two of the
    // four natural clusters are slightly too heavy for one FPGA — a
    // cut-only partitioner will keep them intact anyway.
    let mut g = GraphBuilder::new();
    let weights = [40, 49, 35, 60, 45, 30, 50, 42, 38, 47, 52, 36];
    let nodes: Vec<_> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| g.add_labeled_node(w, format!("p{i}")))
        .collect();
    // four natural clusters of three processes, bridged lightly
    for c in 0..4 {
        let b = c * 3;
        g.add_edge(nodes[b], nodes[b + 1], 9).unwrap();
        g.add_edge(nodes[b + 1], nodes[b + 2], 9).unwrap();
        g.add_edge(nodes[b], nodes[b + 2], 9).unwrap();
    }
    for c in 0..4 {
        g.add_edge(nodes[c * 3 + 2], nodes[((c + 1) % 4) * 3], 3)
            .unwrap();
    }

    // Platform limits: each FPGA offers 133 LUTs (clusters {p3,p4,p5}
    // and {p9,p10,p11} weigh 135 — they must be broken up); each
    // inter-FPGA link sustains 40 units of bandwidth.
    let constraints = Constraints::new(133, 40);
    let inst = PartitionInstance::from_graph("quickstart", g.build(), 4, constraints);
    let g = &inst.graph;

    // The validated front door: the instance is checked, the engine's
    // answer measured, and the verdict reported whether or not the
    // constraints could be met.
    let gp = GpBackend::default()
        .partition(&inst, GpParams::default().seed, &Budget::unlimited())
        .expect("the hand-built graph is a valid instance");
    if gp.feasible {
        println!("GP found a feasible 4-way mapping:");
        println!("  total cut              = {}", gp.cost.objective);
        println!("  max resource per FPGA  = {}", gp.cost.max_resource);
        println!("  max link bandwidth     = {}", gp.cost.max_local_bandwidth);
        for (part, members) in gp.partition.members().iter().enumerate() {
            let names: Vec<_> = members
                .iter()
                .map(|&n| g.label(n).unwrap_or("?").to_string())
                .collect();
            println!("  FPGA {part}: {}", names.join(", "));
        }
    } else {
        println!(
            "GP could not satisfy the constraints: {}",
            gp.report.summary()
        );
    }

    // The unconstrained baseline minimises the cut but ignores both
    // limits — exactly the behaviour gap the paper addresses.
    let baseline = ppn_partition::metis_lite::kway_partition(g, 4, &Default::default());
    let q = PartitionQuality::measure(g, &baseline.partition);
    let rep = constraints.check_quality(&q);
    println!(
        "\nbaseline (cut-only): cut={} max_res={} max_bw={} -> {}",
        q.total_cut,
        q.max_resource,
        q.max_local_bandwidth,
        rep.summary()
    );
}
