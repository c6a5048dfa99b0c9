//! # ppn-poly
//!
//! A miniature polyhedral front-end: the workspace's stand-in for the
//! "suitable tools" (pn/Compaan-style PPN derivation) that produced the
//! paper's process networks.
//!
//! From a *static affine nested-loop program* — statements with integer
//! polyhedral domains, affine array accesses and affine schedules — the
//! crate computes **exact dataflow dependences** by enumeration (the
//! domains of interest are small enough that Feautrier-style symbolic
//! analysis would be overkill) and derives a
//! [`ppn_model::ProcessNetwork`]: one process per statement, one FIFO
//! channel per flow dependence, channel volume = number of tokens
//! (dependence instances), resources estimated from the statement's
//! operation profile.
//!
//! Modules:
//!
//! * [`affine`] — affine expressions over iteration variables;
//! * [`set`] — integer sets: a bounding box plus affine constraints,
//!   with exact enumeration and counting;
//! * [`program`] — statements, accesses, schedules, and whole programs;
//! * [`deps`] — exact (enumerative) dataflow dependence analysis;
//! * [`derive`](mod@derive) — PPN derivation with a tunable resource cost model;
//! * [`kernels`] — stock affine kernels (matmul, jacobi2d, FIR, sobel,
//!   LU, seidel) used by the examples and benches.

pub mod affine;
pub mod deps;
pub mod derive;
pub mod kernels;
pub mod program;
pub mod set;

pub use affine::AffineExpr;
pub use deps::{analyze_dependences, Dependence};
pub use derive::{derive_ppn, CostModel};
pub use program::{Access, AffineProgram, Statement};
pub use set::IntegerSet;
