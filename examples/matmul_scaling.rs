//! Domain scenario 3 — HPC kernel: matrix-multiply PPNs of growing
//! size, partitioned onto platforms of 2–8 FPGAs; shows how the
//! feasibility frontier moves as the constraints tighten relative to
//! the workload.
//!
//! Run with `cargo run --release --example matmul_scaling`.

use ppn_partition::ppn_model::{lower_to_graph, LoweringOptions};
use ppn_partition::ppn_poly::{derive_ppn, kernels, CostModel};
use ppn_partition::{Budget, Constraints, GpBackend, GpParams, PartitionInstance, Partitioner};

fn main() {
    println!(
        "{:>4} {:>3} {:>8} {:>8} {:>9} {:>6} {:>6} {:>9}",
        "n", "k", "procs", "volume", "feasible", "cut", "maxbw", "maxres"
    );
    for n in [4i64, 6, 8] {
        let program = kernels::matmul(n);
        let net = derive_ppn(&program, &CostModel::default());
        let g = lower_to_graph(&net, &LoweringOptions::default());
        for k in [2usize, 4] {
            // platform sized to ~1.4× balanced share, but never below
            // the heaviest process (which must fit one FPGA); links to
            // 45% of the total traffic
            let share = (g.total_node_weight() as f64 / k as f64 * 1.4).ceil() as u64;
            let rmax = share.max(g.max_node_weight());
            let bmax = (g.total_edge_weight() as f64 * 0.45).ceil() as u64;
            let constraints = Constraints::new(rmax, bmax);
            let inst =
                PartitionInstance::from_graph(format!("matmul{n}"), g.clone(), k, constraints);
            let out = GpBackend::default()
                .partition(&inst, GpParams::default().seed, &Budget::unlimited())
                .expect("the lowered network is a valid instance");
            println!(
                "{:>4} {:>3} {:>8} {:>8} {:>9} {:>6} {:>6} {:>9}",
                n,
                k,
                net.num_processes(),
                net.total_volume(),
                out.feasible,
                out.cost.objective,
                out.cost.max_local_bandwidth,
                out.cost.max_resource
            );
        }
    }
}
