//! # gp-classic
//!
//! The classical partitioning heuristics that the paper's related-work
//! section surveys and that both partitioners in this workspace are built
//! from:
//!
//! * [`fm`] — Fiduccia–Mattheyses two-way refinement over indexed gain
//!   heaps (near-linear passes, §II-A.2 of the paper);
//! * [`grow`] — greedy graph growing (the seed-and-grow heuristic used for
//!   initial partitioning);
//! * [`bisect`](mod@bisect) — bisection driver (grow + FM + restarts) and recursive
//!   bisection to k parts;
//! * [`kway`] — direct k-way greedy refinement under a balance cap;
//! * [`matching`] — heavy-edge matching for coarsening;
//! * [`subgraph`] — induced subgraph extraction used by recursive
//!   bisection;
//! * [`gain`] — an indexed max-heap keyed by move gain, used by FM and
//!   greedy growing.
//!
//! ## Weight bounds
//!
//! Edge gains are `i64`. The engines assume the instance gate's bound,
//! a total edge weight below 2^62 (`ppn_backend::validate_instance`),
//! under which every gain fits; `Partitioner::partition` enforces it,
//! a direct call into this crate does not.

pub mod bisect;
pub mod fm;
pub mod gain;
pub mod grow;
pub mod kway;
pub mod matching;
pub mod subgraph;

pub use bisect::{bisect, bisect_candidates, recursive_bisection, BisectOptions, Bisection};
pub use fm::{fm_refine_bisection, FmOptions, FmOutcome};
pub use grow::greedy_grow_bisection;
pub use kway::{balanced_cap, kway_refine};
pub use matching::{
    heavy_edge_matching, heavy_edge_matching_node_scan, heavy_edge_matching_prepared,
    shuffled_sorted_edges,
};
