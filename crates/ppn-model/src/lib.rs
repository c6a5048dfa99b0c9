//! # ppn-model
//!
//! Process-network model underlying the partitioning problem: the paper
//! partitions *Polyhedral Process Networks* (PPNs) — graphs of
//! autonomous processes communicating exclusively over FIFO channels —
//! for mapping onto multi-FPGA systems.
//!
//! This crate provides:
//!
//! * [`resource`] — FPGA resource vectors (LUT/FF/BRAM/DSP) with the
//!   scalarisation the paper uses ("only one resource is considered at
//!   this time, for example LUTs");
//! * [`network`] — processes, FIFO channels and the [`ProcessNetwork`]
//!   container with validation and structural queries;
//! * [`lower`] — lowering a PPN to the undirected [`ppn_graph::WeightedGraph`]
//!   consumed by the edge-cut partitioners (node weight = resources,
//!   edge weight = summed channel traffic) and to the
//!   [`ppn_hyper::Hypergraph`] consumed by the connectivity-metric
//!   partitioner (one net per channel, multicast consumers as pins);
//! * [`simulate`](mod@simulate) — a deterministic bounded-FIFO dataflow simulator
//!   (blocking reads/writes, Kahn semantics specialised to single-rate
//!   firings) used to validate that feasible mappings actually sustain
//!   their throughput and to measure channel traffic.

pub mod lower;
pub mod network;
pub mod resource;
pub mod simulate;

pub use lower::{lower_to_graph, lower_to_hypergraph, LoweringOptions};
pub use network::{Channel, ChannelId, Process, ProcessId, ProcessNetwork};
pub use resource::ResourceVector;
pub use simulate::{simulate, SimOptions, SimReport};
