//! The regeneration binaries end to end, each run in a temporary
//! working directory: `tables` prints the one paper table `gp demo`
//! prints and writes one JSON entry per backend; `tables` and `sweep`
//! exit 1 naming the path when `out/` cannot be written, and `tables`
//! exits 2 on an experiment other than 1–3.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppn-bench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"))
}

/// A working directory whose `out` is a regular file, so nothing can be
/// written under it.
fn unwritable_dir(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    std::fs::write(dir.join("out"), "not a directory").unwrap();
    dir
}

#[test]
fn tables_prints_the_demo_table_and_writes_one_entry_per_backend() {
    let dir = temp_dir("tables");
    let run = run(env!("CARGO_BIN_EXE_tables"), &dir, &["2"]);
    assert!(run.status.success());
    let stdout = String::from_utf8(run.stdout).unwrap();
    let demo = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../cli/tests/golden/demo2.out"),
    )
    .unwrap();
    assert!(
        stdout.starts_with(&demo),
        "tables 2 must print gp demo 2's table:\n{stdout}"
    );
    assert!(stdout.contains("wrote out/table2.json"), "{stdout}");

    let doc: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("out/table2.json")).unwrap())
            .unwrap();
    let field = |v: &'static str| doc.get(v).unwrap_or_else(|| panic!("no {v}"));
    let backends: Vec<&str> = field("measured")
        .as_array()
        .unwrap()
        .iter()
        .map(|r| r.get("backend").and_then(|b| b.as_str()).unwrap())
        .collect();
    assert_eq!(backends, ["gp", "rb", "kway", "metis", "hyper"]);
    assert_eq!(field("seed").as_u64(), Some(1));
    let paper_gp_cut = field("paper").get("gp").and_then(|r| r.get("cut"));
    assert_eq!(paper_gp_cut.and_then(|c| c.as_u64()), Some(62));
}

#[test]
fn tables_fails_when_it_cannot_write() {
    let dir = unwritable_dir("tables-unwritable");
    let run = run(env!("CARGO_BIN_EXE_tables"), &dir, &["1"]);
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("out/table1.json"), "{stderr}");
    assert!(!String::from_utf8_lossy(&run.stdout).contains("wrote"));
}

#[test]
fn sweep_fails_when_it_cannot_write() {
    let dir = unwritable_dir("sweep-unwritable");
    let run = run(env!("CARGO_BIN_EXE_sweep"), &dir, &[]);
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("out/sweep_bmax.json"), "{stderr}");
    assert!(!String::from_utf8_lossy(&run.stdout).contains("wrote"));
}

#[test]
fn tables_rejects_experiments_other_than_1_to_3() {
    let dir = temp_dir("tables-usage");
    for arg in ["4", "0", "x"] {
        let run = run(env!("CARGO_BIN_EXE_tables"), &dir, &[arg]);
        assert_eq!(run.status.code(), Some(2), "tables {arg}");
        assert!(run.stdout.is_empty(), "tables {arg} printed a table");
    }
}
