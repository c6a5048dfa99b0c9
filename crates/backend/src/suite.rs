//! The generated instance families of the cross-backend conformance
//! matrix, plus the independent reference checker the differential
//! suite verifies every outcome against.

use crate::instance::PartitionInstance;
use crate::outcome::{CostModel, PartitionOutcome};
use ppn_gen::{chain_graph, clique_graph, community_graph, multicast_network, MulticastSpec};
use ppn_graph::metrics::PartitionQuality;
use ppn_graph::prng::XorShift128Plus;
use ppn_graph::{Constraints, GraphDelta, Partition};
use ppn_hyper::HyperQuality;

/// The regular conformance matrix: every backend must produce a valid,
/// self-consistent, deterministic outcome on each of these. Families:
/// the paper's three experiment instances, a planted dense-community
/// graph, a multicast-star network (carrying a true hypergraph view),
/// a pathological chain, and a pathological clique.
pub fn conformance_matrix(seed: u64) -> Vec<PartitionInstance> {
    let mut m = Vec::new();

    for e in ppn_gen::all_experiments() {
        m.push(PartitionInstance::from_graph(
            format!("paper{}", e.id),
            e.graph,
            e.k,
            e.constraints,
        ));
    }

    let g = community_graph(4, 16, 3, 12, 1, seed);
    let total = g.total_node_weight();
    let c = Constraints::new(
        (total as f64 / 4.0 * 1.4).ceil() as u64,
        g.total_edge_weight() / 4,
    );
    m.push(PartitionInstance::from_graph("communities", g, 4, c));

    let net = multicast_network(&MulticastSpec::ring(8, 4, seed));
    // generous Rmax, Bmax sized for once-per-boundary charging
    m.push(PartitionInstance::from_network(
        "multicast-stars",
        &net,
        4,
        Constraints::new(10_000, 10_000),
    ));

    let g = chain_graph(18, (2, 8), (1, 6), seed);
    let total = g.total_node_weight();
    let c = Constraints::new((total as f64 / 4.0 * 1.6).ceil() as u64, 1_000);
    m.push(PartitionInstance::from_graph("chain", g, 4, c));

    let g = clique_graph(10, (1, 4), (1, 3), seed);
    let total = g.total_node_weight();
    // every part pair carries traffic in a clique: Bmax stays loose,
    // Rmax stays meaningful
    let c = Constraints::new((total as f64 / 3.0 * 1.7).ceil() as u64, 1_000);
    m.push(PartitionInstance::from_graph("clique", g, 3, c));

    m
}

/// Provably impossible instances (`Rmax` below the heaviest node):
/// every backend must return a complete best attempt with verdict
/// `infeasible` — never panic.
pub fn infeasible_matrix(seed: u64) -> Vec<PartitionInstance> {
    let mut m = Vec::new();

    let g = chain_graph(10, (5, 9), (1, 4), seed);
    let rmax = g.max_node_weight() - 1;
    m.push(PartitionInstance::from_graph(
        "chain-rmax-impossible",
        g,
        3,
        Constraints::new(rmax, 1_000),
    ));

    let net = multicast_network(&MulticastSpec::ring(4, 3, seed));
    let mut inst = PartitionInstance::from_network(
        "stars-rmax-impossible",
        &net,
        3,
        Constraints::new(0, 1_000),
    );
    inst.constraints = Constraints::new(inst.graph.max_node_weight().saturating_sub(1), 1_000);
    m.push(inst);

    m
}

/// Degenerate-but-legal instances (`k > n`, `k = 1`): backends must not
/// panic; the verdict is whatever the reference check of the returned
/// partition says.
pub fn degenerate_matrix(seed: u64) -> Vec<PartitionInstance> {
    let g = clique_graph(4, (2, 5), (1, 3), seed);
    let c = Constraints::new(g.total_node_weight(), g.total_edge_weight());
    let k_gt_n = PartitionInstance::from_graph("clique-k-gt-n", g, 9, c);

    let g = chain_graph(7, (1, 6), (1, 5), seed);
    let c = Constraints::new(g.total_node_weight(), g.total_edge_weight());
    let k1 = PartitionInstance::from_graph("chain-k1", g, 1, c);

    vec![k_gt_n, k1]
}

/// The incremental-repartitioning matrix: `(base instance, delta)`
/// pairs for the differential "warm-start quality within ε of
/// from-scratch" family. Each delta is small (well under the default
/// churn ceiling) so [`repartition`](fn@crate::repartition) takes the
/// warm-start path; the differential suite then checks the warm cut
/// against a from-scratch solve of the successor instance. Families:
/// pure weight drift, node insertion, node removal, and a mixed churn
/// of all three.
pub fn incremental_matrix(seed: u64) -> Vec<(PartitionInstance, GraphDelta)> {
    let mut rng = XorShift128Plus::new(seed ^ 0x1C4E);
    let mut m = Vec::new();

    // Pure weight drift: no structural change, the warm start should
    // barely move anything.
    let g = community_graph(4, 16, 3, 12, 1, seed);
    let n = g.num_nodes();
    let total = g.total_node_weight();
    let c = Constraints::new(
        (total as f64 / 4.0 * 1.5).ceil() as u64,
        g.total_edge_weight() / 3,
    );
    let mut delta = GraphDelta::default();
    for _ in 0..n / 20 {
        let v = rng.next_below(n) as u32;
        if !delta.node_drift.iter().any(|&(u, _)| u == v) {
            delta.node_drift.push((v, 1 + rng.next_below(6) as u64));
        }
    }
    m.push((
        PartitionInstance::from_graph("drift-communities", g, 4, c),
        delta,
    ));

    // Insertion: a few new nodes hang off existing ones; the placer has
    // to find them homes before refinement.
    let g = chain_graph(40, (2, 8), (1, 6), seed);
    let n = g.num_nodes();
    let total = g.total_node_weight();
    let c = Constraints::new((total as f64 / 4.0 * 1.7).ceil() as u64, 1_000);
    let mut delta = GraphDelta::default();
    for i in 0..2 {
        let virt = (n + i) as u32;
        delta.add_nodes.push(3);
        delta
            .add_edges
            .push((virt, rng.next_below(n) as u32, 1 + rng.next_below(4) as u64));
    }
    m.push((
        PartitionInstance::from_graph("insert-chain", g, 4, c),
        delta,
    ));

    // Removal: survivors keep their parts, the answer shrinks.
    let g = community_graph(3, 12, 2, 9, 1, seed.wrapping_add(1));
    let n = g.num_nodes();
    let total = g.total_node_weight();
    let c = Constraints::new(
        (total as f64 / 3.0 * 1.6).ceil() as u64,
        g.total_edge_weight() / 3,
    );
    let delta = GraphDelta {
        remove_nodes: vec![rng.next_below(n) as u32],
        ..GraphDelta::default()
    };
    m.push((
        PartitionInstance::from_graph("remove-communities", g, 3, c),
        delta,
    ));

    // Mixed churn: drift + one insertion + one edge-weight edit, still
    // under the churn ceiling.
    let g = community_graph(4, 20, 3, 10, 1, seed.wrapping_add(2));
    let n = g.num_nodes();
    let total = g.total_node_weight();
    let c = Constraints::new(
        (total as f64 / 4.0 * 1.6).ceil() as u64,
        g.total_edge_weight() / 3,
    );
    let mut delta = GraphDelta::default();
    delta.node_drift.push((rng.next_below(n) as u32, 7));
    delta.add_nodes.push(2);
    delta
        .add_edges
        .push((n as u32, rng.next_below(n) as u32, 3));
    m.push((
        PartitionInstance::from_graph("mixed-communities", g, 4, c),
        delta,
    ));

    m
}

/// Independently re-derive everything a backend reported from its raw
/// assignment and compare. Returns a description of the first
/// disagreement, `Ok` when the outcome is exactly reproducible.
pub fn reference_verify(inst: &PartitionInstance, out: &PartitionOutcome) -> Result<(), String> {
    let ctx = format!("backend {} on {}", out.backend, inst.name);
    let p: &Partition = &out.partition;
    if p.len() != inst.num_nodes() {
        return Err(format!(
            "{ctx}: assignment covers {} nodes, instance has {}",
            p.len(),
            inst.num_nodes()
        ));
    }
    if p.k() != inst.k {
        return Err(format!("{ctx}: k={} reported, {} requested", p.k(), inst.k));
    }
    if inst.num_nodes() > 0 && !p.is_complete() {
        return Err(format!("{ctx}: incomplete assignment"));
    }

    let (objective, cut_nets, max_resource, max_bw, reference_report) = match out.cost.model {
        CostModel::EdgeCut => {
            let q = PartitionQuality::measure(&inst.graph, p);
            let rep = inst.constraints.check_quality(&q);
            (
                q.total_cut,
                None,
                q.max_resource,
                q.max_local_bandwidth,
                rep,
            )
        }
        CostModel::Connectivity => {
            let hg = inst.hyper_view();
            let q = HyperQuality::measure(&hg, p);
            let rep = q.check(&inst.constraints);
            (
                q.connectivity_cost,
                Some(q.cut_nets),
                q.max_resource,
                q.max_local_bandwidth,
                rep,
            )
        }
    };

    if out.cost.objective != objective {
        return Err(format!(
            "{ctx}: reported objective {} != recomputed {objective}",
            out.cost.objective
        ));
    }
    if out.cost.cut_nets != cut_nets {
        return Err(format!(
            "{ctx}: reported cut_nets {:?} != recomputed {cut_nets:?}",
            out.cost.cut_nets
        ));
    }
    if out.cost.max_resource != max_resource {
        return Err(format!(
            "{ctx}: reported max_resource {} != recomputed {max_resource}",
            out.cost.max_resource
        ));
    }
    if out.cost.max_local_bandwidth != max_bw {
        return Err(format!(
            "{ctx}: reported max_local_bandwidth {} != recomputed {max_bw}",
            out.cost.max_local_bandwidth
        ));
    }
    if out.report != reference_report {
        return Err(format!(
            "{ctx}: constraint report disagrees with the reference checker\n  reported: {:?}\n  reference: {:?}",
            out.report, reference_report
        ));
    }
    if out.feasible != reference_report.is_feasible() {
        return Err(format!(
            "{ctx}: verdict {} disagrees with reference checker {}",
            out.feasible,
            reference_report.is_feasible()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_families_are_well_formed() {
        for inst in conformance_matrix(0xC0FFEE)
            .into_iter()
            .chain(infeasible_matrix(0xC0FFEE))
            .chain(degenerate_matrix(0xC0FFEE))
        {
            inst.validate().unwrap_or_else(|e| panic!("{e}"));
            assert!(!inst.name.is_empty());
        }
    }

    #[test]
    fn matrix_covers_the_promised_families() {
        let names: Vec<String> = conformance_matrix(1).into_iter().map(|i| i.name).collect();
        for expected in [
            "paper1",
            "paper2",
            "paper3",
            "communities",
            "multicast-stars",
            "chain",
            "clique",
        ] {
            assert!(names.iter().any(|n| n == expected), "missing {expected}");
        }
    }

    #[test]
    fn infeasible_family_is_provably_impossible() {
        for inst in infeasible_matrix(3) {
            assert!(
                !inst.constraints.admits(&inst.graph, inst.k),
                "{} should fail the necessary-condition check",
                inst.name
            );
        }
    }

    #[test]
    fn reference_verify_accepts_honest_and_rejects_tampered() {
        let inst = &conformance_matrix(7)[0];
        let b = crate::registry::backend_by_name("gp").unwrap();
        let mut out = b.run(inst, 9);
        reference_verify(inst, &out).unwrap();
        out.cost.objective += 1;
        assert!(reference_verify(inst, &out).is_err());
    }

    #[test]
    fn incremental_family_deltas_apply_and_stay_small() {
        for (inst, delta) in incremental_matrix(0xC0FFEE) {
            assert!(!delta.is_empty(), "{}: empty delta", inst.name);
            let churn = delta.churn_fraction(inst.num_nodes());
            assert!(
                churn <= 0.25,
                "{}: churn {churn} above the warm-start ceiling",
                inst.name
            );
            ppn_graph::apply_delta(&inst.graph, &delta)
                .unwrap_or_else(|e| panic!("{}: delta does not apply: {e}", inst.name));
        }
    }

    #[test]
    fn matrices_are_deterministic_per_seed() {
        let a = conformance_matrix(5);
        let b = conformance_matrix(5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(
                ppn_graph::io::metis::write(&x.graph),
                ppn_graph::io::metis::write(&y.graph)
            );
        }
    }
}
