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
//! path. Any change to an engine's per-seed behaviour, the output
//! format, or the report wording shows up as a byte diff here.
//!
//! Regenerate after an intentional change with
//! `UPDATE_GOLDEN=1 cargo test -p gp-cli --test golden`.

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
