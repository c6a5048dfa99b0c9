//! Constraint-tightness sweep (beyond-paper ablation #5 in DESIGN.md).
//!
//! Sweeps `Bmax` from loose to tight on the experiment-1 instance and
//! reports, for each setting, whether GP stays feasible and at what cut
//! premium over the unconstrained baseline. This quantifies the paper's
//! closing remark that the cut premium "might not be the case if we
//! employed stricter constraints". Both engines run through the backend
//! registry at `ppn_gen::paper::TABLE_SEED`. Writes `out/sweep_bmax.json`
//! and exits 1 when it cannot.

use ppn_backend::{backend_by_name, paper_instance, Budget, PartitionInstance, PartitionOutcome};
use ppn_gen::paper::{experiment1, TABLE_SEED};
use std::error::Error;
use std::process::ExitCode;

fn run(backend: &str, inst: &PartitionInstance) -> Result<PartitionOutcome, Box<dyn Error>> {
    let b = backend_by_name(backend).ok_or("unregistered backend")?;
    Ok(b.partition(inst, TABLE_SEED, &Budget::unlimited())?)
}

fn sweep() -> Result<(), Box<dyn Error>> {
    let mut inst = paper_instance(&experiment1());
    let metis = run("metis", &inst)?.cost;
    println!(
        "baseline (unconstrained): cut={} max_local_bw={} max_res={}\n",
        metis.objective, metis.max_local_bandwidth, metis.max_resource
    );
    println!(
        "{:>6} {:>9} {:>8} {:>8} {:>10}",
        "Bmax", "feasible", "cut", "bw", "premium%"
    );
    let mut bmax = metis.max_local_bandwidth + 8;
    let mut rows = Vec::new();
    while bmax >= 6 {
        inst.constraints.bmax = bmax;
        let gp = run("gp", &inst)?;
        let premium = if metis.objective > 0 {
            100.0 * (gp.cost.objective as f64 - metis.objective as f64) / metis.objective as f64
        } else {
            0.0
        };
        println!(
            "{:>6} {:>9} {:>8} {:>8} {:>10.1}",
            bmax, gp.feasible, gp.cost.objective, gp.cost.max_local_bandwidth, premium,
        );
        rows.push(serde_json::json!({
            "bmax": bmax,
            "feasible": gp.feasible,
            "cut": gp.cost.objective,
            "max_local_bandwidth": gp.cost.max_local_bandwidth,
            "premium_pct": premium,
        }));
        bmax -= 2;
    }
    let path = "out/sweep_bmax.json";
    std::fs::create_dir_all("out")
        .and_then(|()| std::fs::write(path, serde_json::to_string_pretty(&rows).unwrap()))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("\nwrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    match sweep() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
