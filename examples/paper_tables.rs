//! Domain scenario 2 — the paper's evaluation, as an example: rerun
//! Tables I–III across every registered backend and print the measured
//! rows next to the paper's published ones. `gp demo N` and the
//! `tables` binary print the same tables.
//!
//! Run with `cargo run --release --example paper_tables`.

use ppn_partition::ppn_backend::{paper_table, render_paper_table};
use ppn_partition::ppn_gen::paper::all_experiments;

fn main() {
    for e in all_experiments() {
        println!("{}", render_paper_table(&e, &paper_table(&e)));
    }
}
