//! # gp-classic
//!
//! The classical partitioning heuristics that the paper's related-work
//! section surveys and that both partitioners in this workspace are built
//! from:
//!
//! * [`fm`] — Fiduccia–Mattheyses two-way refinement with gain buckets
//!   (linear-time passes, §II-A.2 of the paper);
//! * [`grow`] — greedy graph growing (the seed-and-grow heuristic used for
//!   initial partitioning);
//! * [`bisect`] — bisection driver (grow + FM + restarts) and recursive
//!   bisection to k parts;
//! * [`kway`] — direct k-way boundary refinement;
//! * [`matching`] — heavy-edge matching for coarsening;
//! * [`subgraph`] — induced subgraph extraction used by recursive
//!   bisection;
//! * [`gain`] — a lazy max-heap keyed by move gain, shared by the
//!   refiners.

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
pub use kway::{kway_refine, KwayOptions};
pub use matching::{
    heavy_edge_matching, heavy_edge_matching_node_scan, heavy_edge_matching_prepared,
    shuffled_sorted_edges,
};
