//! Integration test of the hypergraph subsystem across the stack:
//! multicast PPN → both lowerings → connectivity-metric partitioning →
//! multi-FPGA mapping check, plus the degenerate-equivalence anchor on
//! a paper instance.

use ppn_partition::multi_fpga::{Mapping, Platform};
use ppn_partition::ppn_gen::{multicast_network, MulticastSpec};
use ppn_partition::ppn_graph::metrics::{edge_cut, PartitionQuality};
use ppn_partition::ppn_hyper::{hyper_partition, measure, HyperParams, Hypergraph};
use ppn_partition::ppn_model::{lower_to_graph, lower_to_hypergraph, LoweringOptions};
use ppn_partition::{Budget, Constraints, GpBackend, GpParams, PartitionInstance, Partitioner};

#[test]
fn multicast_ppn_partitions_feasibly_under_connectivity_model() {
    let net = multicast_network(&MulticastSpec::ring(12, 4, 7));
    let opts = LoweringOptions::default();
    let hg = lower_to_hypergraph(&net, &opts);
    let g = lower_to_graph(&net, &opts);
    assert_eq!(hg.num_nodes(), g.num_nodes());

    let k = 4;
    let total = hg.total_node_weight();
    let c = Constraints::new(total / k as u64 + total / 8, 40);
    let r = hyper_partition(&hg, k, &c, &HyperParams::default());
    assert!(r.feasible(), "feasible instance");
    assert!(r.partition.is_complete());
    let (q, _) = measure(&hg, &r.partition);
    assert!(c.check_quality(&q).is_feasible());

    // connectivity-(λ−1) never exceeds the edge-cut model's cost for
    // the same partition: a net spanning λ parts is charged λ−1 times,
    // the clique model at least once per stranded consumer
    let conn = q.total_cut;
    let edge_model = edge_cut(&g, &r.partition);
    assert!(
        conn <= edge_model,
        "connectivity {conn} must not exceed edge-cut model {edge_model}"
    );

    // the mapping layer agrees: per-boundary traffic equals the
    // hypergraph's bandwidth matrix, so the platform check passes with
    // bmax = the measured maximum
    let mapping = Mapping::from_partition(&r.partition);
    let traffic = mapping.traffic_matrix(&net);
    let mut max_pair = 0;
    for a in 0..k {
        for b in (a + 1)..k {
            max_pair = max_pair.max(traffic[a * k + b]);
        }
    }
    assert_eq!(max_pair, q.max_local_bandwidth);
    let platform = Platform::homogeneous(k, c.rmax, max_pair);
    assert!(mapping.check(&net, &platform, 1).is_feasible());
}

#[test]
fn fanout_heavy_networks_show_the_edge_cut_gap() {
    // on fan-out-heavy instances the two models genuinely diverge
    let net = multicast_network(&MulticastSpec::ring(10, 6, 21));
    let opts = LoweringOptions::default();
    let hg = lower_to_hypergraph(&net, &opts);
    let g = lower_to_graph(&net, &opts);
    let k = 5;
    let total = hg.total_node_weight();
    let c = Constraints::new(total / k as u64 + total / 6, 60);
    let r = hyper_partition(&hg, k, &c, &HyperParams::default());
    let conn = measure(&hg, &r.partition).0.total_cut;
    let edge_model = edge_cut(&g, &r.partition);
    assert!(
        conn < edge_model,
        "fan-out 6 must expose double-counting: conn {conn} vs edge {edge_model}"
    );
}

#[test]
fn degenerate_hypergraph_matches_gp_on_paper_instance() {
    let e = ppn_partition::ppn_gen::experiment1();
    let hg = Hypergraph::from_graph(&e.graph);
    let hyper = hyper_partition(&hg, e.k, &e.constraints, &HyperParams::default());
    let inst = PartitionInstance::from_graph("experiment1", e.graph.clone(), e.k, e.constraints);
    let gp = GpBackend::default()
        .partition(&inst, GpParams::default().seed, &Budget::unlimited())
        .expect("the paper instance is valid");
    // both engines must find feasible partitions, and on 2-pin nets the
    // hyper measurement of any partition equals the edge-cut one
    let (hq, _) = measure(&hg, &hyper.partition);
    assert_eq!(hq, PartitionQuality::measure(&e.graph, &hyper.partition));
    assert!(
        hyper.feasible() && gp.feasible,
        "paper instance is feasible"
    );
}
