//! The paper's three experiment instances (§V, Tables I–III).
//!
//! The paper evaluates on three synthetic 12-node process networks with
//! the node/edge counts, constraints, and result numbers quoted below.
//! The actual adjacency/weights were never published (they lived in
//! MATLAB incidence matrices), so we regenerate seeded stand-ins with
//! the same node count, edge count and weight regime; the seeds are
//! pinned so that the *qualitative* result of each table reproduces:
//! the unconstrained baseline (metis-lite) violates at least one
//! constraint while GP satisfies both at a modest cut premium. Every
//! partitioner in a table row runs at one seed, [`TABLE_SEED`]. See
//! DESIGN.md §3 for the substitution argument and EXPERIMENTS.md for
//! paper-vs-measured numbers.

use crate::random::{random_graph, RandomGraphSpec};
use ppn_graph::{Constraints, WeightedGraph};

/// One row of a paper table (METIS or GP).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperRow {
    /// "Total Edge-Cuts".
    pub total_cut: u64,
    /// "Total Time(S)".
    pub time_s: f64,
    /// "Maximum Resource Allocation".
    pub max_resource: u64,
    /// "Maximum Local bandwidth".
    pub max_local_bandwidth: u64,
}

/// A full experiment: instance + constraints + the paper's reported
/// rows.
#[derive(Clone, Debug)]
pub struct Experiment {
    /// 1, 2 or 3.
    pub id: usize,
    /// Human-readable name.
    pub name: String,
    /// The 12-node instance graph.
    pub graph: WeightedGraph,
    /// Number of partitions (K = 4 in all paper experiments).
    pub k: usize,
    /// The experiment's `Rmax`/`Bmax`.
    pub constraints: Constraints,
    /// METIS row of the paper's table.
    pub paper_metis: PaperRow,
    /// GP row of the paper's table.
    pub paper_gp: PaperRow,
}

/// The partitioner seed of every paper-table row: each registered
/// backend runs each experiment at this seed. It is 1 because the
/// generation seeds below were searched (`ppn-bench --bin find_seeds`)
/// with the baseline and GP running at seed 1, so this is the seed at
/// which the instances reproduce each table's feasibility pattern.
pub const TABLE_SEED: u64 = 1;

/// Pinned generation seed for experiment 1, found with
/// `ppn-bench --bin find_seeds`: the baseline violates *both*
/// constraints (Table I's pattern) while GP meets both at a small cut
/// premium.
pub const EXP1_SEED: u64 = 7;
/// Seed for experiment 2: the baseline violates the *resource*
/// constraint while meeting bandwidth (Table II's pattern).
pub const EXP2_SEED: u64 = 13;
/// Seed for experiment 3: the baseline violates the *bandwidth*
/// constraint while meeting resources exactly (Table III's pattern —
/// METIS lands on max resource 78 = Rmax, as in the paper).
pub const EXP3_SEED: u64 = 223;

/// Generation spec of experiment `id` (1–3) with an arbitrary seed —
/// used both by the pinned constructors below and by the seed-search
/// harness.
pub fn spec(id: usize, seed: u64) -> (RandomGraphSpec, Constraints) {
    match id {
        1 => (
            RandomGraphSpec {
                nodes: 12,
                edges: 33,
                node_weight: (25, 78),
                edge_weight: (1, 8),
                seed,
            },
            Constraints::new(165, 16),
        ),
        2 => (
            RandomGraphSpec {
                nodes: 12,
                edges: 30,
                node_weight: (20, 60),
                edge_weight: (2, 10),
                seed,
            },
            Constraints::new(130, 25),
        ),
        3 => (
            RandomGraphSpec {
                nodes: 12,
                edges: 32,
                node_weight: (12, 36),
                edge_weight: (2, 9),
                seed,
            },
            Constraints::new(78, 20),
        ),
        _ => panic!("experiment id must be 1, 2 or 3"),
    }
}

fn build(id: usize, seed: u64, paper_metis: PaperRow, paper_gp: PaperRow) -> Experiment {
    let (gspec, constraints) = spec(id, seed);
    Experiment {
        id,
        name: format!("experiment{id}"),
        graph: random_graph(&gspec),
        k: 4,
        constraints,
        paper_metis,
        paper_gp,
    }
}

/// Experiment 1 (Table I): 12 nodes, 33 edges, K=4, Bmax=16, Rmax=165.
pub fn experiment1() -> Experiment {
    build(
        1,
        EXP1_SEED,
        PaperRow {
            total_cut: 58,
            time_s: 0.02,
            max_resource: 172,
            max_local_bandwidth: 20,
        },
        PaperRow {
            total_cut: 70,
            time_s: 0.33,
            max_resource: 163,
            max_local_bandwidth: 16,
        },
    )
}

/// Experiment 2 (Table II): 12 nodes, 30 edges, K=4, Bmax=25, Rmax=130.
pub fn experiment2() -> Experiment {
    build(
        2,
        EXP2_SEED,
        PaperRow {
            total_cut: 77,
            time_s: 0.02,
            max_resource: 137,
            max_local_bandwidth: 25,
        },
        PaperRow {
            total_cut: 62,
            time_s: 0.25,
            max_resource: 127,
            max_local_bandwidth: 18,
        },
    )
}

/// Experiment 3 (Table III): 12 nodes, 32 edges, K=4, Bmax=20, Rmax=78.
pub fn experiment3() -> Experiment {
    build(
        3,
        EXP3_SEED,
        PaperRow {
            total_cut: 90,
            time_s: 0.02,
            max_resource: 78,
            max_local_bandwidth: 38,
        },
        PaperRow {
            total_cut: 96,
            time_s: 7.76,
            max_resource: 76,
            max_local_bandwidth: 19,
        },
    )
}

/// All three experiments.
pub fn all_experiments() -> Vec<Experiment> {
    vec![experiment1(), experiment2(), experiment3()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instances_match_published_counts() {
        for (e, edges) in all_experiments().iter().zip([33usize, 30, 32]) {
            assert_eq!(e.graph.num_nodes(), 12, "exp {}", e.id);
            assert_eq!(e.graph.num_edges(), edges, "exp {}", e.id);
            assert_eq!(e.k, 4);
            e.graph.validate().unwrap();
        }
    }

    #[test]
    fn instances_admit_the_constraints() {
        for e in all_experiments() {
            assert!(
                e.constraints.admits(&e.graph, e.k),
                "exp {}: single node exceeds Rmax or total exceeds k·Rmax \
                 (total={}, max node={}, rmax={})",
                e.id,
                e.graph.total_node_weight(),
                e.graph.max_node_weight(),
                e.constraints.rmax
            );
        }
    }

    #[test]
    fn paper_rows_transcribed_correctly() {
        let e1 = experiment1();
        assert_eq!(e1.paper_metis.total_cut, 58);
        assert_eq!(e1.paper_gp.max_local_bandwidth, 16);
        let e3 = experiment3();
        assert_eq!(e3.paper_metis.max_local_bandwidth, 38);
        assert_eq!(e3.paper_gp.max_resource, 76);
    }

    #[test]
    fn deterministic_instances() {
        let a = experiment1();
        let b = experiment1();
        assert_eq!(
            ppn_graph::io::metis::write(&a.graph),
            ppn_graph::io::metis::write(&b.graph)
        );
    }

    #[test]
    #[should_panic]
    fn invalid_experiment_id_panics() {
        let _ = spec(4, 0);
    }
}
