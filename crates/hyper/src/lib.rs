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
//! The crate keeps what is specific to hypergraphs: nets, per-net pin
//! counts, λ, root parts, matching and contraction, the growth frontier
//! and the refiner's apply-and-revert move evaluation. Pair traffic,
//! quality, goodness and feasibility are ppn-graph's types
//! ([`CutMatrix`](ppn_graph::CutMatrix),
//! [`PartitionQuality`](ppn_graph::PartitionQuality),
//! [`Constraints::check_quality`](ppn_graph::Constraints::check_quality)),
//! filled under the connectivity model. So are the part-load ledger
//! ([`PartLoads`](ppn_graph::PartLoads)), the options
//! ([`InitialOptions`](ppn_graph::InitialOptions),
//! [`RefineOptions`](ppn_graph::RefineOptions)), the growth kernel and
//! restart driver ([`ppn_graph::initial`]), the refinement pass loop
//! ([`refine_passes`](ppn_graph::refine_passes)) and the cycle driver
//! the V-cycle runs over:
//!
//! * [`hypergraph`] — CSR incidence storage ([`Hypergraph`],
//!   [`HypergraphBuilder`]), the dual node→nets index, and the
//!   degenerate [`Hypergraph::from_graph`] embedding (one 2-pin net per
//!   edge) on which every objective coincides with the graph engine's —
//!   the correctness anchor, property-tested in `tests/properties.rs`;
//! * [`connectivity`] — the incremental [`NetConnectivity`] tracker
//!   (per-net part-pin counts, λ, cut-net count, and the per-boundary
//!   traffic matrix whose total is the connectivity cost),
//!   O(nets(v)·k) per move, O(1) per query;
//! * [`metrics`] — [`measure`], a partition's quality record plus its
//!   cut-net count;
//! * [`coarsen`] — heavy-pin-connectivity matching, net contraction and
//!   the [`HyperHierarchy`] over the borrowed input;
//! * [`initial`] — the net-connection frontier of the shared greedy
//!   constrained growth with restarts;
//! * [`refine`] — the connectivity model of the shared refinement pass
//!   loop: which nodes a pass visits and what a better move is;
//! * [`multilevel`] — the [`hyper_partition`] V-cycle, honouring the
//!   paper's `Rmax`/`Bmax` constraints under multicast-aware bandwidth
//!   charging.
//!
//! ## Weight bounds
//!
//! Move gains are `i64`. The instance gate
//! (`ppn_backend::validate_instance`) bounds Σ w(e)·(|pins(e)| − 1)
//! below 2^62 (on the degenerate embedding of a graph, its total edge
//! weight), so the connectivity cost, every pair-traffic cell and the
//! traffic's excess over `Bmax` fit in `i64`; `Partitioner::partition`
//! enforces it, a direct call into this crate does not. Resource deltas
//! come from [`PartLoads`](ppn_graph::PartLoads), exact while all parts
//! together weigh at most `u64::MAX`.

pub mod coarsen;
pub mod connectivity;
pub mod hypergraph;
pub mod initial;
pub mod metrics;
pub mod multilevel;
pub mod refine;

pub use coarsen::{
    contract, contract_with, heavy_connectivity_matching, hyper_coarsen, HyperContractScratch,
    HyperHierarchy,
};
pub use connectivity::NetConnectivity;
pub use hypergraph::{Hypergraph, HypergraphBuilder, NetId};
pub use initial::greedy_hyper_initial;
pub use metrics::measure;
pub use multilevel::{hyper_partition, hyper_partition_budgeted, HyperParams};
pub use refine::hyper_refine;
