//! Domain scenario 1 — imaging pipeline: derive a Polyhedral Process
//! Network from the Sobel edge-detection kernel, lower it to the
//! partitioning graph, map it onto a 4-FPGA platform with GP, and
//! simulate the mapped system with link contention.
//!
//! Run with `cargo run --example sobel_pipeline`.

use ppn_partition::multi_fpga::{simulate_mapped, Mapping, Platform, SystemOptions};
use ppn_partition::ppn_model::{lower_to_graph, simulate, LoweringOptions, SimOptions};
use ppn_partition::ppn_poly::{derive_ppn, kernels, CostModel};
use ppn_partition::{Budget, Constraints, GpBackend, GpParams, PartitionInstance, Partitioner};

fn main() {
    // 1. the polyhedral front-end: Sobel on a 16×16 frame
    let program = kernels::sobel(16, 16);
    println!(
        "program: {} ({} statements)",
        program.name,
        program.statements.len()
    );

    // 2. exact dataflow analysis → process network
    let net = derive_ppn(&program, &CostModel::default());
    println!(
        "derived PPN: {} processes, {} channels, {} tokens total",
        net.num_processes(),
        net.num_channels(),
        net.total_volume()
    );
    for p in net.process_ids() {
        let proc = net.process(p);
        println!(
            "  {:<10} firings={:<5} latency={} luts={}",
            proc.name, proc.firings, proc.latency, proc.resources.luts
        );
    }

    // 3. functional validation on the unmapped network
    let base = simulate(&net, &SimOptions::default());
    assert!(base.completed, "PPN must run to completion");
    println!(
        "\nunmapped simulation: {} cycles, throughput {:.3} firings/cycle",
        base.cycles, base.throughput
    );

    // 4. partition onto 4 FPGAs under resource + bandwidth constraints.
    // Rmax is 1.5× a balanced share; links carry half the total volume,
    // enough for the heaviest channel, whose two processes are too big
    // to share one FPGA.
    let g = lower_to_graph(&net, &LoweringOptions::default());
    let k = 4;
    let rmax = (g.total_node_weight() as f64 / k as f64 * 1.5).ceil() as u64;
    let bmax = g.total_edge_weight() / 2;
    let inst = PartitionInstance::from_graph("sobel", g, k, Constraints::new(rmax, bmax));
    let result = GpBackend::default()
        .partition(&inst, GpParams::default().seed, &Budget::unlimited())
        .expect("the lowered network is a valid instance");
    println!(
        "\nGP mapping: feasible={} cut={} max_res={} max_bw={} (Rmax={rmax}, Bmax={bmax})",
        result.feasible,
        result.cost.objective,
        result.cost.max_resource,
        result.cost.max_local_bandwidth
    );
    if !result.feasible {
        println!("no feasible mapping: {}", result.report.summary());
        return;
    }

    // 5. simulate the mapped system: links move 8 tokens/cycle
    let platform = Platform::homogeneous(k, rmax, 8);
    let mapped = simulate_mapped(
        &net,
        &Mapping::from_partition(&result.partition),
        &platform,
        &SystemOptions::default(),
    );
    assert!(mapped.completed, "mapped system must still complete");
    println!(
        "mapped simulation:   {} cycles ({}× the unmapped run), max link utilisation {:.2}",
        mapped.cycles,
        mapped.cycles as f64 / base.cycles.max(1) as f64,
        mapped.max_link_utilization
    );
}
