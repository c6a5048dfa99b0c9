//! End-to-end validation on the multi-FPGA simulator (the paper's
//! future-work deployment, substituted per DESIGN.md §3).
//!
//! Maps a 24-process layered streaming PPN onto a 4-FPGA platform with
//! (a) the GP partition (bandwidth-constrained) and (b) the
//! unconstrained baseline partition, then simulates both with per-link
//! bandwidth contention. The link rate is chosen between the two
//! mappings' busiest-pair demands, so a mapping that respects the
//! pairwise bound sustains its throughput while one that concentrates
//! traffic on a single link serialises on it.

use gp_core::GpParams;
use metis_lite::MetisOptions;
use multi_fpga::{simulate_mapped, Mapping, Platform, SystemOptions};
use ppn_backend::{Budget, GpBackend, PartitionInstance, Partitioner};
use ppn_graph::metrics::PartitionQuality;
use ppn_model::{lower_to_graph, LoweringOptions};

fn max_pair_volume(m: &Mapping, net: &ppn_model::ProcessNetwork) -> u64 {
    let t = m.traffic_matrix(net);
    let k = m.k;
    (0..k)
        .flat_map(|a| ((a + 1)..k).map(move |b| (a, b)))
        .map(|(a, b)| t[a * k + b])
        .max()
        .unwrap_or(0)
}

fn main() {
    let net = ppn_gen::random_layered_ppn(6, 4, 2024);
    println!(
        "layered PPN: {} processes, {} channels, total volume {}",
        net.num_processes(),
        net.num_channels(),
        net.total_volume()
    );

    let g = lower_to_graph(&net, &LoweringOptions::default());
    let k = 4;
    let rmax = (g.total_node_weight() as f64 / k as f64 * 1.4).ceil() as u64;

    // the baseline ignores pairwise bandwidth entirely
    let metis = metis_lite::kway_partition(&g, k, &MetisOptions::default());
    let metis_map = Mapping::from_partition(&metis.partition);
    let metis_pair = max_pair_volume(&metis_map, &net);
    let metis_cut = PartitionQuality::measure(&g, &metis.partition).total_cut;

    // GP is asked to keep every pair under 60% of the baseline's
    // busiest pair
    let bmax_volume = (metis_pair as f64 * 0.6).ceil() as u64;
    let constraints = ppn_graph::Constraints::new(rmax, bmax_volume);
    let inst = PartitionInstance::from_graph("layered", g, k, constraints);
    let gp = GpBackend::default()
        .partition(&inst, GpParams::default().seed, &Budget::unlimited())
        .expect("the lowered network is a valid instance");
    let gp_map = Mapping::from_partition(&gp.partition);
    let gp_pair = max_pair_volume(&gp_map, &net);
    println!("baseline: cut={metis_cut} busiest pair volume={metis_pair}");
    println!(
        "GP (Bmax={bmax_volume}): feasible={} cut={} busiest pair volume={gp_pair}",
        gp.feasible, gp.cost.objective
    );

    // link rate between the two demands: the run takes roughly
    // busiest-pair / rate cycles once the link binds
    let base = ppn_model::simulate(&net, &ppn_model::SimOptions::default());
    let rate = ((gp_pair + metis_pair) / 2 / base.cycles.max(1)).max(1);
    let platform = Platform::homogeneous(k, rmax, rate);
    println!(
        "\nunmapped run: {} cycles; link rate {} tokens/cycle",
        base.cycles, rate
    );

    let opts = SystemOptions::default();
    let gp_sim = simulate_mapped(&net, &gp_map, &platform, &opts);
    let metis_sim = simulate_mapped(&net, &metis_map, &platform, &opts);
    println!(
        "\n{:<10} {:>10} {:>12} {:>14}",
        "mapping", "cycles", "throughput", "max link util"
    );
    for (name, sim) in [("GP", &gp_sim), ("baseline", &metis_sim)] {
        println!(
            "{:<10} {:>10} {:>12.4} {:>14.3}",
            name, sim.cycles, sim.throughput, sim.max_link_utilization
        );
    }
    let speedup = metis_sim.cycles as f64 / gp_sim.cycles.max(1) as f64;
    println!("\nGP mapping speedup over baseline mapping: {speedup:.2}×");
}
