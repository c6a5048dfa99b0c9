//! End-to-end pipeline: affine kernel → dataflow analysis → PPN →
//! graph lowering → constrained partitioning → multi-FPGA mapping →
//! mapped simulation.

use ppn_partition::multi_fpga::{simulate_mapped, Mapping, Platform, SystemOptions};
use ppn_partition::ppn_model::{lower_to_graph, simulate, LoweringOptions, SimOptions};
use ppn_partition::ppn_poly::{derive_ppn, kernels, CostModel};
use ppn_partition::{
    Budget, Constraints, GpBackend, GpParams, PartitionInstance, PartitionOutcome, Partitioner,
    WeightedGraph,
};

/// GP through the validated front door, at its default seed.
fn gp(g: &WeightedGraph, k: usize, constraints: Constraints) -> PartitionOutcome {
    let inst = PartitionInstance::from_graph("pipeline", g.clone(), k, constraints);
    GpBackend::default()
        .partition(&inst, GpParams::default().seed, &Budget::unlimited())
        .expect("a lowered network is a valid instance")
}

#[test]
fn sobel_end_to_end() {
    let program = kernels::sobel(8, 8);
    let net = derive_ppn(&program, &CostModel::default());
    net.validate().unwrap();
    assert_eq!(net.num_processes(), 4);

    // functional check before mapping
    let base = simulate(&net, &SimOptions::default());
    assert!(base.completed && !base.deadlocked, "{base:?}");

    let g = lower_to_graph(&net, &LoweringOptions::default());
    assert_eq!(g.num_nodes(), net.num_processes());

    let k = 2;
    let rmax = (g.total_node_weight() as f64 / k as f64 * 1.6).ceil() as u64;
    let bmax = g.total_edge_weight(); // loose for functionality test
    let constraints = Constraints::new(rmax, bmax);
    let r = gp(&g, k, constraints);
    assert!(r.feasible, "loose constraints must be feasible");

    let platform = Platform::homogeneous(k, rmax, 16);
    let mapped = simulate_mapped(
        &net,
        &Mapping::from_partition(&r.partition),
        &platform,
        &SystemOptions::default(),
    );
    assert!(mapped.completed, "{mapped:?}");
    assert!(!mapped.deadlocked);
    // mapping can only slow things down
    assert!(mapped.cycles >= base.cycles);
    // every process fired the same number of times as unmapped
    assert_eq!(mapped.fired, base.fired);
}

#[test]
fn fir_and_matmul_networks_partition_feasibly() {
    for (name, program) in [("fir", kernels::fir(4, 24)), ("matmul", kernels::matmul(4))] {
        let net = derive_ppn(&program, &CostModel::default());
        let g = lower_to_graph(&net, &LoweringOptions::default());
        let k = 2;
        let rmax = (g.total_node_weight() as f64 / k as f64 * 1.7).ceil() as u64;
        let constraints = Constraints::new(rmax, g.total_edge_weight());
        let r = gp(&g, k, constraints);
        assert!(r.feasible, "{name}: loose constraints must be feasible");
    }
}

#[test]
fn tight_bandwidth_changes_the_mapping() {
    // the partition under a tight Bmax must differ from the
    // unconstrained one whenever the latter violates the limit
    let program = kernels::sobel(10, 10);
    let net = derive_ppn(&program, &CostModel::default());
    let g = lower_to_graph(&net, &LoweringOptions::default());
    let k = 2;
    let rmax = (g.total_node_weight() as f64 / k as f64 * 1.8).ceil() as u64;

    let loose = gp(&g, k, Constraints::new(rmax, u64::MAX));
    assert!(loose.feasible, "unconstrained is feasible");
    let loose_bw = loose.cost.max_local_bandwidth;

    // constrain strictly below what the loose mapping used
    let tight_bmax = loose_bw / 2;
    let tight = gp(&g, k, Constraints::new(rmax, tight_bmax));
    if tight.feasible {
        assert!(tight.cost.max_local_bandwidth <= tight_bmax);
        assert_ne!(
            tight.partition, loose.partition,
            "a tight Bmax must force a different mapping"
        );
    } else {
        // also acceptable: GP correctly reports infeasibility with the
        // violations of its best attempt
        assert!(tight.report.violation_count() > 0);
    }
}

#[test]
fn lu_kernel_analysis_is_stable() {
    let program = kernels::lu(5);
    let net = derive_ppn(&program, &CostModel::default());
    net.validate().unwrap();
    // derivation is deterministic
    let again = derive_ppn(&kernels::lu(5), &CostModel::default());
    assert_eq!(net, again);
}
