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
//! ## Weight bounds
//!
//! Edge gains are `i64`. The engines assume the instance gate's bound,
//! a total edge weight below 2^62 (`ppn_backend::validate_instance`),
//! under which every gain fits; `Partitioner::partition` enforces it,
//! a direct call into this crate does not.
//!
//! ## Quick start
//!
//! [`gp_partition`] returns the goodness-best attempt of its cycles
//! (feasible or not) beside the per-attempt V-cycle traces; the
//! validated front door that also measures the answer is `GpBackend`
//! behind `ppn_backend::Partitioner`.
//!
//! ```
//! use gp_core::{gp_partition, GpParams};
//! use ppn_graph::metrics::PartitionQuality;
//! use ppn_graph::{Constraints, GraphBuilder};
//!
//! let mut g = GraphBuilder::new();
//! let a = g.add_node(40);
//! let b = g.add_node(40);
//! let c = g.add_node(40);
//! let d = g.add_node(40);
//! g.add_edge(a, b, 10).unwrap();
//! g.add_edge(b, c, 3).unwrap();
//! g.add_edge(c, d, 10).unwrap();
//! let g = g.build();
//!
//! let (best, _trace) = gp_partition(&g, 2, &Constraints::new(90, 5), &GpParams::default());
//! assert!(best.feasible(), "these constraints are satisfiable");
//! let quality = PartitionQuality::measure(&g, &best.partition);
//! assert!(quality.max_local_bandwidth <= 5);
//! assert!(quality.max_resource <= 90);
//! ```

pub mod coarsen;
pub mod cycle;
pub mod initial;
pub mod kmeans;
pub mod params;
pub mod refine;

pub use coarsen::{
    best_matching, best_matching_in, gp_coarsen_flat, gp_coarsen_flat_budgeted_observed,
    scratch_pool_warm, FlatHierarchy, HeuristicTiming, LevelTiming, MatchScratch,
};
pub use cycle::{gp_partition, gp_partition_budgeted, CycleTrace};
pub use initial::{greedy_initial_partition, InitialOptions};
pub use kmeans::kmeans_matching;
pub use params::{GpParams, MatchingKind};
pub use refine::{
    constrained_refine, constrained_refine_csr, constrained_refine_migration,
    constrained_refine_parallel_csr, migration_mass, ConstrainedState, MigrationOptions, MoveDelta,
    RefineOptions,
};
