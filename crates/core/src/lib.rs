//! # gp-core
//!
//! The paper's contribution: **GP**, a constrained multilevel k-way
//! partitioner for mapping process networks onto multi-FPGA systems
//! (Cattaneo et al., IPDPSW 2015).
//!
//! Given a weighted graph — node weights are FPGA resources, edge
//! weights are FIFO bandwidth — GP finds a k-way partition such that
//!
//! * the resources of every part stay below `Rmax` (one FPGA's capacity),
//! * the traffic between *each pair* of parts stays below `Bmax` (one
//!   inter-FPGA link's capacity),
//!
//! while heuristically minimising the total edge cut. METIS minimises
//! only the cut and routinely violates both limits (see `metis-lite` and
//! the bench harness reproducing the paper's Tables I–III).
//!
//! ## Quick start
//!
//! ```
//! use gp_core::{GpParams, GpPartitioner};
//! use ppn_graph::{Constraints, WeightedGraph};
//!
//! let mut g = WeightedGraph::new();
//! let a = g.add_node(40);
//! let b = g.add_node(40);
//! let c = g.add_node(40);
//! let d = g.add_node(40);
//! g.add_edge(a, b, 10).unwrap();
//! g.add_edge(b, c, 3).unwrap();
//! g.add_edge(c, d, 10).unwrap();
//!
//! let partitioner = GpPartitioner::new(GpParams::default());
//! let result = partitioner
//!     .partition(&g, 2, &Constraints::new(90, 5))
//!     .expect("these constraints are satisfiable");
//! assert!(result.feasible);
//! assert!(result.quality.max_local_bandwidth <= 5);
//! assert!(result.quality.max_resource <= 90);
//! ```

pub mod coarsen;
pub mod cycle;
pub mod initial;
pub mod kmeans;
pub mod params;
pub mod refine;
pub mod report;

pub use coarsen::{
    best_matching, best_matching_in, gp_coarsen_flat, gp_coarsen_flat_budgeted_observed,
    scratch_pool_warm, FlatHierarchy, HeuristicTiming, LevelTiming, MatchScratch,
};
pub use cycle::{gp_partition, gp_partition_budgeted};
pub use initial::{greedy_initial_partition, InitialOptions};
pub use kmeans::kmeans_matching;
pub use params::{GpParams, MatchingKind};
pub use refine::{
    constrained_refine, constrained_refine_csr, constrained_refine_migration,
    constrained_refine_parallel_csr, migration_mass, ConstrainedState, MigrationOptions, MoveDelta,
    RefineOptions,
};
pub use report::{CycleTrace, GpInfeasible, GpResult, PhaseSeconds};

use ppn_graph::{Constraints, WeightedGraph};

/// Convenience façade over [`gp_partition`] holding a parameter set.
#[derive(Clone, Debug, Default)]
pub struct GpPartitioner {
    /// Algorithm parameters.
    pub params: GpParams,
}

impl GpPartitioner {
    /// Partitioner with the given parameters.
    pub fn new(params: GpParams) -> Self {
        GpPartitioner { params }
    }

    /// Partition `g` into `k` parts under `constraints`.
    pub fn partition(
        &self,
        g: &WeightedGraph,
        k: usize,
        constraints: &Constraints,
    ) -> Result<GpResult, Box<GpInfeasible>> {
        gp_partition(g, k, constraints, &self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_matches_free_function() {
        let mut g = WeightedGraph::new();
        let a = g.add_node(10);
        let b = g.add_node(10);
        let c = g.add_node(10);
        g.add_edge(a, b, 4).unwrap();
        g.add_edge(b, c, 4).unwrap();
        let cons = Constraints::new(20, 10);
        let p1 = GpPartitioner::default().partition(&g, 2, &cons).unwrap();
        let p2 = gp_partition(&g, 2, &cons, &GpParams::default()).unwrap();
        assert_eq!(p1.partition, p2.partition);
    }
}
