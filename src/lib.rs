//! # ppn-partition
//!
//! Facade crate for the reproduction of *"K-Ways Partitioning of
//! Polyhedral Process Networks: a Multi-Level Approach"* (Cattaneo,
//! Moradmand, Sciuto, Santambrogio — IEEE IPDPSW 2015).
//!
//! The workspace implements, from scratch:
//!
//! * [`gp_core`] — **the paper's contribution**: GP, a multilevel k-way
//!   partitioner that maps process networks onto multi-FPGA systems
//!   under simultaneous per-FPGA resource (`Rmax`) and per-link
//!   bandwidth (`Bmax`) constraints;
//! * [`metis_lite`] — the unconstrained METIS-style baseline it is
//!   evaluated against, plus the constrained multilevel
//!   recursive-bisection engine (`metis_lite::rb`);
//! * [`ppn_backend`] — the unified [`Partitioner`] trait every engine
//!   implements, the named backend registry (`gp`, `rb`, `kway`,
//!   `metis`, `hyper`), and the conformance instance families the
//!   cross-backend differential suite runs on;
//! * [`gp_classic`] — the classical heuristics both are built from
//!   (FM, greedy growing, recursive bisection, k-way refinement);
//! * [`ppn_graph`] — the weighted-graph substrate with partition
//!   metrics and constraint checking;
//! * [`ppn_hyper`] — the hypergraph substrate and multilevel
//!   connectivity-metric partitioner: multicast channels become nets
//!   whose bandwidth is charged once per spanned FPGA boundary instead
//!   of once per consumer;
//! * [`ppn_model`] — process networks, FIFO channels, and a dataflow
//!   simulator;
//! * [`ppn_poly`] — a mini polyhedral front-end deriving PPNs from
//!   affine loop nests;
//! * [`multi_fpga`] — the multi-FPGA platform model and mapped-system
//!   simulator;
//! * [`ppn_gen`] — workload generators, including the paper's three
//!   experiment instances.
//!
//! See `examples/quickstart.rs` for the 60-second tour and DESIGN.md /
//! EXPERIMENTS.md for the reproduction methodology.

pub use gp_classic;
pub use gp_core;
pub use metis_lite;
pub use multi_fpga;
pub use ppn_backend;
pub use ppn_gen;
pub use ppn_graph;
pub use ppn_hyper;
pub use ppn_model;
pub use ppn_poly;

pub use gp_core::{GpParams, GpPartitioner, GpResult};
pub use ppn_backend::{
    backend_by_name, backend_names, backends, CostModel, PartitionInstance, PartitionOutcome,
    Partitioner,
};
pub use ppn_graph::{Constraints, GraphBuilder, Partition, WeightedGraph};
pub use ppn_hyper::{hyper_partition, HyperParams, HyperResult, Hypergraph};
