//! Regenerate the paper's Tables I–III.
//!
//! Usage: `cargo run --release -p ppn-bench --bin tables [1|2|3]`
//! (no argument = all three). Prints each table as `gp demo N` does
//! (every registered backend at `ppn_gen::paper::TABLE_SEED`, then the
//! paper's published rows) and writes `out/table<N>.json`. Exits 1 when
//! an artifact cannot be written, 2 on an argument other than 1–3.

use ppn_backend::{paper_table, render_paper_table};
use ppn_gen::paper::{all_experiments, PaperRow, TABLE_SEED};
use serde_json::{json, Value};
use std::process::ExitCode;

fn paper_row(p: &PaperRow) -> Value {
    json!({
        "cut": p.total_cut,
        "max_resource": p.max_resource,
        "max_local_bandwidth": p.max_local_bandwidth,
    })
}

fn main() -> ExitCode {
    let filter = match std::env::args().nth(1) {
        None => None,
        Some(a) => match a.parse::<usize>() {
            Ok(id @ 1..=3) => Some(id),
            _ => {
                eprintln!("error: tables takes an experiment number (1|2|3), got `{a}`");
                return ExitCode::from(2);
            }
        },
    };
    for e in all_experiments() {
        if filter.is_some_and(|id| id != e.id) {
            continue;
        }
        let rows = paper_table(&e);
        println!("{}", render_paper_table(&e, &rows));
        let artifact = json!({
            "experiment": e.id,
            "k": e.k,
            "rmax": e.constraints.rmax,
            "bmax": e.constraints.bmax,
            "seed": TABLE_SEED,
            "measured": rows.iter().map(|r| json!({
                "backend": r.backend,
                "cut": r.cost.objective,
                "max_resource": r.cost.max_resource,
                "max_local_bandwidth": r.cost.max_local_bandwidth,
                "feasible": r.feasible,
            })).collect::<Vec<_>>(),
            "paper": {
                "metis": paper_row(&e.paper_metis),
                "gp": paper_row(&e.paper_gp),
            },
        });
        let path = format!("out/table{}.json", e.id);
        let text = serde_json::to_string_pretty(&artifact).unwrap();
        if let Err(err) = std::fs::create_dir_all("out").and_then(|()| std::fs::write(&path, text))
        {
            eprintln!("error: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}\n");
    }
    ExitCode::SUCCESS
}
