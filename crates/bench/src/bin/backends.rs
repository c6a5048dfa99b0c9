//! Cross-backend quality table: every registered backend over the
//! conformance instance families, with cost, verdict, and wall-clock
//! per cell — the quantitative side of the differential suite. Each
//! cell runs in a trace session; its span totals are the row's
//! `phase_timings`.
//!
//! ```text
//! cargo run --release -p ppn-bench --bin backends [-- --seed N]
//! ```
//!
//! Prints the table and writes `out/backends.json`.

use ppn_backend::trace::{self, TraceConfig};
use ppn_backend::{backends, conformance_matrix, reference_verify};
use serde_json::json;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEEu64);

    let instances = conformance_matrix(seed);
    let mut rows = Vec::new();
    println!(
        "{:<16} {:<6} {:>6} {:>9} {:>8} {:>8} {:>9}  verdict",
        "instance", "backend", "k", "objective", "max_res", "max_bw", "time_ms"
    );
    for inst in &instances {
        for b in backends() {
            let t0 = Instant::now();
            let (out, session) = trace::collect(TraceConfig::default(), || b.run(inst, seed));
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            reference_verify(inst, &out).expect("backend outcome must self-verify");
            println!(
                "{:<16} {:<6} {:>6} {:>9} {:>8} {:>8} {:>9.2}  {}",
                inst.name,
                out.backend,
                inst.k,
                out.cost.objective,
                out.cost.max_resource,
                out.cost.max_local_bandwidth,
                wall_ms,
                if out.feasible {
                    "feasible"
                } else {
                    "INFEASIBLE"
                }
            );
            rows.push(json!({
                "instance": inst.name,
                "backend": out.backend,
                "k": inst.k,
                "rmax": inst.constraints.rmax,
                "bmax": inst.constraints.bmax,
                "cost_model": format!("{}", out.cost.model),
                "objective": out.cost.objective,
                "max_resource": out.cost.max_resource,
                "max_local_bandwidth": out.cost.max_local_bandwidth,
                "feasible": out.feasible,
                "wall_ms": wall_ms,
                "phase_timings": session.span_totals().iter()
                    .map(|t| json!({
                        "phase": format!("{}/{}", t.cat, t.name),
                        "seconds": t.total_us as f64 / 1e6,
                    }))
                    .collect::<Vec<_>>(),
            }));
        }
        println!();
    }

    let row_count = rows.len();
    let doc = json!({
        "schema": 1,
        "seed": seed,
        "rows": rows,
    });
    std::fs::create_dir_all("out").expect("create out/");
    std::fs::write(
        "out/backends.json",
        serde_json::to_string_pretty(&doc).unwrap(),
    )
    .expect("write out/backends.json");
    println!("wrote out/backends.json ({row_count} rows)");
}
