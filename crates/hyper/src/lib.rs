//! # ppn-hyper
//!
//! Hypergraph substrate and multilevel connectivity-metric partitioner
//! for multicast process networks.
//!
//! The graph model of `ppn-graph` charges a producer that multicasts one
//! token stream to consumers on several FPGAs once *per consumer* — but
//! on a real multi-FPGA link the stream crosses each boundary once.
//! Modelling every channel as a *net* (hyperedge) over the producer and
//! all its consumers, and minimising the connectivity metric
//! `Σ w(e)·(λ(e) − 1)` (λ = number of parts a net spans), prices
//! multicast correctly — the classic hypergraph-partitioning objective
//! (Schlag et al., n-level recursive bisection; Papp et al., 2022).
//!
//! The crate mirrors the workspace's graph stack piece by piece:
//!
//! * [`hypergraph`] — CSR incidence storage ([`Hypergraph`],
//!   [`HypergraphBuilder`]), the dual node→nets index, and the
//!   degenerate [`Hypergraph::from_graph`] embedding (one 2-pin net per
//!   edge) on which every objective coincides with the graph engine's —
//!   the correctness anchor, property-tested in `tests/properties.rs`;
//! * [`connectivity`] — the incremental [`NetConnectivity`] tracker
//!   (per-net part-pin counts, λ, connectivity cost, cut-net count, and
//!   the per-boundary [`BandwidthMatrix`] with a tracked `Bmax` excess),
//!   O(nets(v)·k) per move, O(1) per query;
//! * [`coarsen`] — heavy-pin-connectivity matching and net contraction;
//! * [`initial`] — greedy constrained growth with restarts;
//! * [`refine`] — boundary-driven constrained FM-style refinement;
//! * [`multilevel`] — the [`hyper_partition`] V-cycle driver honouring
//!   the paper's `Rmax`/`Bmax` constraints under multicast-aware
//!   bandwidth charging.

pub mod coarsen;
pub mod connectivity;
pub mod hypergraph;
pub mod initial;
pub mod metrics;
pub mod multilevel;
pub mod refine;

pub use coarsen::{
    contract, contract_with, heavy_connectivity_matching, hyper_coarsen, HyperContractScratch,
    HyperHierarchy, HyperLevel,
};
pub use connectivity::{BandwidthMatrix, NetConnectivity};
pub use hypergraph::{Hypergraph, HypergraphBuilder, NetId};
pub use initial::{greedy_hyper_initial, HyperInitialOptions};
pub use metrics::{is_feasible, part_weights, HyperQuality};
pub use multilevel::{
    hyper_partition, hyper_partition_budgeted, HyperInfeasible, HyperParams, HyperResult,
};
pub use refine::{hyper_refine, HyperRefineOptions};
