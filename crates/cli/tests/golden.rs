//! Golden-file tests: the `gp` CLI's summary output is byte-stable per
//! seed for every backend and model.
//!
//! The inputs under `tests/golden/` are committed canonical instances
//! (`g12.metis` from `gp gen --nodes 12 --edges 22 --seed 9`,
//! `g600.metis` from `gp gen --nodes 600 --edges 1800 --seed 9`,
//! `stars4.ppn.json` from `gp gen --multicast --stars 4 --fanout 3
//! --seed 5`); the `.out` files are the expected stdout of each
//! invocation. `g12` sits below every engine's coarsening threshold, so
//! its cases pin the flat path; the `_ml` cases on `g600` coarsen
//! (several levels in gp, rb, metis and hyper) and pin the multilevel
//! path. `g12.json` and `g12.matrix` hold the same graph as `g12.metis`,
//! written by `json::graph_to_json` and `matrix::write`; their cases pin
//! the two readers, and writing each loaded fixture must reproduce its
//! bytes, so the writers are pinned too. `g32_shuffled.json` is
//! `gp gen --nodes 32 --edges 80 --seed 2` written the same way, then
//! each node's `adj` list shuffled out of edge creation order; its cases
//! pin how the engines treat an input adjacency in file order. The
//! `repartition_*` cases apply a committed delta to `g600.metis` and to
//! `g32_shuffled.json`, each beside its previous partition, so they pin
//! the successor graph `GraphDelta::apply` builds, adjacency order
//! included, through the warm start and a scratch run on it. The
//! `demo*` cases pin the paper's three tables (`gp demo 1`–`3`). The
//! `serve_*` cases run batch files; `serve_sweep` runs four rungs on
//! `g600.metis` as one group, whose rungs share gp's first-cycle
//! hierarchy, so it pins that sharing answers as each rung alone. Any
//! change to an engine's per-seed behaviour, the output format, or the
//! report wording shows up as a byte diff here.
//!
//! Regenerate after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p gp-cli --test golden`.

use ppn_graph::io::{json, matrix, metis};
use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn run_case(name: &str, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_gp"))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{name}: failed to run gp: {e}"));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let expected_path = golden_dir().join(format!("{name}.out"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&expected_path, &stdout).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&expected_path)
        .unwrap_or_else(|e| panic!("{name}: missing golden file {expected_path:?}: {e}"));
    assert_eq!(
        stdout, expected,
        "{name}: stdout drifted from {expected_path:?}\n\
         (run UPDATE_GOLDEN=1 cargo test -p gp-cli --test golden if intentional)"
    );
}

fn metis_input() -> String {
    golden_dir().join("g12.metis").to_str().unwrap().to_string()
}

fn golden_input(file: &str) -> String {
    golden_dir().join(file).to_str().unwrap().to_string()
}

fn multilevel_input() -> String {
    golden_dir()
        .join("g600.metis")
        .to_str()
        .unwrap()
        .to_string()
}

fn ppn_input() -> String {
    golden_dir()
        .join("stars4.ppn.json")
        .to_str()
        .unwrap()
        .to_string()
}

#[test]
fn partition_output_is_byte_stable_per_backend() {
    for backend in ["gp", "rb", "kway", "metis", "hyper"] {
        run_case(
            &format!("partition_{backend}"),
            &[
                "partition",
                "--backend",
                backend,
                "--input",
                &metis_input(),
                "--k",
                "3",
                "--rmax",
                "220",
                "--bmax",
                "40",
                "--seed",
                "7",
            ],
        );
    }
}

#[test]
fn json_and_matrix_inputs_are_byte_stable() {
    for format in ["json", "matrix"] {
        run_case(
            &format!("partition_gp_{format}"),
            &[
                "partition",
                "--backend",
                "gp",
                "--input",
                &golden_input(&format!("g12.{format}")),
                "--format",
                format,
                "--k",
                "3",
                "--rmax",
                "220",
                "--bmax",
                "40",
                "--seed",
                "7",
            ],
        );
    }
}

#[test]
fn shuffled_json_adjacency_is_byte_stable() {
    for backend in ["gp", "rb", "metis"] {
        run_case(
            &format!("partition_{backend}_shuffled"),
            &[
                "partition",
                "--backend",
                backend,
                "--input",
                &golden_input("g32_shuffled.json"),
                "--format",
                "json",
                "--k",
                "3",
                "--rmax",
                "571",
                "--bmax",
                "61",
                "--seed",
                "7",
            ],
        );
    }
}

#[test]
fn graph_writers_reproduce_the_loaded_fixtures() {
    let read = |file: &str| std::fs::read_to_string(golden_dir().join(file)).unwrap();
    for file in ["g12.json", "g32_shuffled.json"] {
        let text = read(file);
        let g = json::graph_from_json(&text).unwrap();
        assert_eq!(json::graph_to_json(&g), text, "{file}");
    }
    let text = read("g12.matrix");
    let g = matrix::parse(&text).unwrap();
    assert_eq!(matrix::write(&g), text, "g12.matrix");
    for file in ["g12.metis", "g600.metis"] {
        let text = read(file);
        let g = metis::parse(&text).unwrap();
        assert_eq!(metis::write(&g), text, "{file}");
    }
}

#[test]
fn multilevel_partition_output_is_byte_stable_per_backend() {
    for backend in ["gp", "rb", "kway", "metis", "hyper"] {
        run_case(
            &format!("partition_{backend}_ml"),
            &[
                "partition",
                "--backend",
                backend,
                "--input",
                &multilevel_input(),
                "--k",
                "4",
                "--rmax",
                "9000",
                "--bmax",
                "900",
                "--seed",
                "7",
            ],
        );
    }
}

#[test]
fn hyper_model_on_multicast_ppn_is_byte_stable() {
    run_case(
        "partition_hyper_ppn",
        &[
            "partition",
            "--input",
            &ppn_input(),
            "--format",
            "ppn",
            "--model",
            "hyper",
            "--k",
            "2",
            "--rmax",
            "300",
            "--bmax",
            "60",
            "--seed",
            "11",
        ],
    );
}

#[test]
fn baseline_alias_is_byte_stable() {
    run_case(
        "partition_baseline_alias",
        &[
            "partition",
            "--baseline",
            "--input",
            &metis_input(),
            "--k",
            "3",
            "--rmax",
            "220",
            "--bmax",
            "40",
            "--seed",
            "7",
        ],
    );
}

#[test]
fn repartition_output_is_byte_stable() {
    // Each delta (`STEM.delta.json`, applied to `STEM.FORMAT` and its
    // previous partition `STEM.prev.json`, written by `gp partition
    // --backend gp --seed 7` at the `_ml`/`_shuffled` limits) removes
    // and inserts nodes, removes edges, drifts nodes and edges, and adds
    // edges that merge onto surviving ones. The limits sit below the
    // previous partition's, so the warm start must move nodes;
    // `--max-churn 0` sends the g600 step to a scratch run instead.
    let cases: [(&str, &str, &str, &[&str]); 3] = [
        (
            "repartition_ml",
            "g600",
            "metis",
            &["--k", "4", "--rmax", "8900", "--bmax", "850"],
        ),
        (
            "repartition_ml_scratch",
            "g600",
            "metis",
            &[
                "--k",
                "4",
                "--rmax",
                "8900",
                "--bmax",
                "850",
                "--max-churn",
                "0",
            ],
        ),
        (
            "repartition_shuffled",
            "g32_shuffled",
            "json",
            &["--k", "3", "--rmax", "520", "--bmax", "50"],
        ),
    ];
    for (name, stem, format, flags) in cases {
        let input = golden_input(&format!("{stem}.{format}"));
        let prev = golden_input(&format!("{stem}.prev.json"));
        let delta = golden_input(&format!("{stem}.delta.json"));
        let mut args = vec![
            "repartition",
            "--input",
            &input,
            "--format",
            format,
            "--prev",
            &prev,
            "--delta",
            &delta,
            "--seed",
            "7",
        ];
        args.extend_from_slice(flags);
        run_case(name, &args);
    }
}

#[test]
fn demo_tables_are_byte_stable() {
    // the paper's Tables I–III: every backend at the table seed, then
    // the paper's published rows
    for experiment in ["1", "2", "3"] {
        run_case(&format!("demo{experiment}"), &["demo", experiment]);
    }
}

#[test]
fn backends_listing_is_byte_stable() {
    run_case("backends", &["backends"]);
}

#[test]
fn serve_batch_is_byte_stable() {
    // item paths resolve relative to the batch file and item names use
    // the input's basename, so the batch summary is path-independent
    let batch = golden_dir().join("serve2.batch.json");
    run_case(
        "serve_batch",
        &["serve", "--batch", batch.to_str().unwrap()],
    );
}

#[test]
fn serve_sweep_is_byte_stable() {
    // four rungs on g600 (above gp's `coarsen_to`) run as one group and
    // share gp's first-cycle hierarchy; the last rung (Rmax below the
    // average part weight) then runs all of its cycles. The answers are
    // those of each rung run alone.
    let batch = golden_dir().join("serve_sweep.batch.json");
    run_case(
        "serve_sweep",
        &["serve", "--batch", batch.to_str().unwrap()],
    );
}

#[test]
fn gen_is_byte_stable() {
    // the committed inputs themselves stay regenerable: gen with the
    // pinned seeds must reproduce them byte for byte
    let out = Command::new(env!("CARGO_BIN_EXE_gp"))
        .args(["gen", "--nodes", "12", "--edges", "22", "--seed", "9"])
        .output()
        .unwrap();
    let expected = std::fs::read_to_string(golden_dir().join("g12.metis")).unwrap();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);

    let out = Command::new(env!("CARGO_BIN_EXE_gp"))
        .args(["gen", "--nodes", "600", "--edges", "1800", "--seed", "9"])
        .output()
        .unwrap();
    let expected = std::fs::read_to_string(golden_dir().join("g600.metis")).unwrap();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);

    let out = Command::new(env!("CARGO_BIN_EXE_gp"))
        .args([
            "gen",
            "--multicast",
            "--stars",
            "4",
            "--fanout",
            "3",
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    let expected = std::fs::read_to_string(golden_dir().join("stars4.ppn.json")).unwrap();
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);
}
