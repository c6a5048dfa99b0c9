//! Integration tests asserting the *shape* of the paper's evaluation
//! (Tables I–III) on the rows the one paper table prints: the
//! constrained backends satisfy both limits on every experiment, the
//! unconstrained baseline violates the limits each paper table shows it
//! violating, and the cut premium GP pays stays modest.

use ppn_partition::ppn_backend::{paper_instance, paper_table, reference_verify};
use ppn_partition::ppn_gen::paper::{all_experiments, Experiment};
use ppn_partition::PartitionOutcome;

/// The row of `backend` in experiment `e`'s table.
fn row<'a>(rows: &'a [PartitionOutcome], backend: &str) -> &'a PartitionOutcome {
    rows.iter()
        .find(|r| r.backend == backend)
        .unwrap_or_else(|| panic!("no {backend} row"))
}

fn tables() -> Vec<(Experiment, Vec<PartitionOutcome>)> {
    all_experiments()
        .into_iter()
        .map(|e| {
            let rows = paper_table(&e);
            (e, rows)
        })
        .collect()
}

#[test]
fn gp_meets_constraints_on_all_experiments() {
    for (e, rows) in tables() {
        for backend in ["gp", "rb", "hyper"] {
            let r = row(&rows, backend);
            assert!(
                r.feasible,
                "experiment {}: {backend} must be feasible",
                e.id
            );
            assert!(r.cost.max_local_bandwidth <= e.constraints.bmax);
            assert!(r.cost.max_resource <= e.constraints.rmax);
            assert!(r.partition.is_complete());
            assert_eq!(r.partition.k(), 4);
        }
    }
}

#[test]
fn baseline_violates_constraints_on_all_experiments() {
    for (e, rows) in tables() {
        assert!(
            !row(&rows, "metis").feasible,
            "experiment {}: the baseline should violate a constraint (paper's key claim)",
            e.id
        );
    }
}

#[test]
fn experiment_violation_patterns_match_the_paper() {
    // Table I: both violated; Table II: resource only; Table III:
    // bandwidth only.
    let expect = [(false, false), (false, true), (true, false)];
    for ((e, rows), (res_ok, bw_ok)) in tables().into_iter().zip(expect) {
        let rep = &row(&rows, "metis").report;
        assert_eq!(
            rep.resource_violations.is_empty(),
            res_ok,
            "experiment {} resource pattern",
            e.id
        );
        assert_eq!(
            rep.bandwidth_violations.is_empty(),
            bw_ok,
            "experiment {} bandwidth pattern",
            e.id
        );
    }
}

#[test]
fn gp_cut_premium_is_bounded() {
    // The paper calls the cut increase "near to negligible"; allow a
    // generous 60% margin over the unconstrained baseline to keep the
    // test robust across refactors.
    for (e, rows) in tables() {
        let gp = row(&rows, "gp").cost.objective;
        let metis = row(&rows, "metis").cost.objective;
        assert!(
            (gp as f64) <= metis as f64 * 1.6,
            "experiment {}: GP cut {gp} too far above baseline {metis}",
            e.id
        );
    }
}

#[test]
fn quality_rows_are_internally_consistent() {
    for (e, rows) in tables() {
        assert_eq!(rows.len(), 5, "one row per registered backend");
        let inst = paper_instance(&e);
        for r in &rows {
            reference_verify(&inst, r).unwrap();
            assert_eq!(
                r.cost.part_resources.iter().sum::<u64>(),
                e.graph.total_node_weight()
            );
        }
    }
}
