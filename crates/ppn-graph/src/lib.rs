//! # ppn-graph
//!
//! Weighted-graph substrate for the constrained multilevel k-way
//! partitioner of Cattaneo et al. (IPDPSW 2015).
//!
//! A process network is lowered to an undirected [`WeightedGraph`] where
//! every node carries a *resource weight* (FPGA area the process consumes,
//! e.g. LUTs) and every edge carries a *bandwidth weight* (sustained traffic
//! over the FIFO channels between two processes). The partitioning problem
//! attaches two hard constraints to a k-way [`Partition`]:
//!
//! * **resource** — each part's summed node weight must stay below `Rmax`;
//! * **bandwidth** — the traffic between each *pair* of parts (the
//!   "local edge cut") must stay below `Bmax`.
//!
//! This crate provides the data structures shared by every partitioner in
//! the workspace: the graph itself (a [`GraphBuilder`] frozen into the
//! level arena's CSR layout, read through one [`LevelView`] type),
//! partitions and their incremental cut/bandwidth/resource metrics,
//! matchings and the level arena that contracts along them for the
//! multilevel scheme, what the constrained engines of both cost models
//! share (the cycle driver, the initial-partitioning growth kernel and
//! restart driver, the part-load ledger), and I/O (METIS format, dense matrix format as used
//! by the paper's MATLAB setup, DOT, JSON).

pub mod algo;
pub mod arena;
pub mod boundary;
pub mod budget;
pub mod constraints;
pub mod cycle;
pub mod delta;
pub mod error;
pub mod faultpoint;
pub mod graph;
pub mod ids;
pub mod initial;
pub mod io;
pub mod matching;
pub mod metrics;
pub mod partition;
pub mod prng;
pub mod refine;
pub mod trace;

pub use arena::{LevelArena, LevelView};
pub use boundary::Boundary;
pub use budget::{Budget, Degradation, HierarchySlot, MemoryLedger, Reservation, Stop};
pub use constraints::{ConstraintReport, Constraints};
pub use cycle::{run_cycles, BestAttempt, CycleRun, Goodness};
pub use delta::{DeltaMap, GraphDelta};
pub use error::GraphError;
pub use faultpoint::FaultPlan;
pub use graph::{GraphBuilder, WeightedGraph};
pub use ids::{EdgeId, NodeId};
pub use initial::InitialOptions;
pub use matching::Matching;
pub use metrics::{CutMatrix, PartitionQuality};
pub use partition::Partition;
pub use refine::{refine_passes, PartLoads, PassModel, RefineOptions};
