//! Robustness smoke tests of the `gp` binary: malformed input, bad
//! flags, provably impossible constraints, budgets, and fallback
//! chains all produce a nonzero exit and a one-line diagnostic — never
//! a panic, never a silent success.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn gp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gp"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gp-hardening-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).to_string()
}

/// One `error:` line, no panic/backtrace leakage.
fn assert_clean_failure(out: &Output, needle: &str) {
    assert!(!out.status.success(), "expected nonzero exit");
    let err = stderr_of(out);
    assert!(err.contains(needle), "stderr missing `{needle}`: {err}");
    assert!(!err.contains("panicked"), "panic leaked to stderr: {err}");
    assert!(!err.contains("RUST_BACKTRACE"), "backtrace leaked: {err}");
    let diag_lines = err.lines().filter(|l| l.starts_with("error:")).count();
    assert_eq!(diag_lines, 1, "want exactly one error line: {err}");
}

fn write_graph(dir: &Path, nodes: &str, edges: &str, seed: &str) -> PathBuf {
    let gen = gp()
        .args(["gen", "--nodes", nodes, "--edges", edges, "--seed", seed])
        .output()
        .unwrap();
    assert!(gen.status.success());
    let path = dir.join("graph.metis");
    std::fs::write(&path, &gen.stdout).unwrap();
    path
}

#[test]
fn truncated_metis_input_is_rejected() {
    let dir = temp_dir("truncated");
    let path = dir.join("bad.metis");
    // header promises 4 nodes / 3 edges, body delivers one line
    std::fs::write(&path, "4 3 011\n30 2 5\n").unwrap();
    let run = gp()
        .args([
            "partition",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "2",
            "--rmax",
            "1000",
            "--bmax",
            "1000",
        ])
        .output()
        .unwrap();
    assert_clean_failure(&run, "error:");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_file_is_one_line_error() {
    let run = gp()
        .args([
            "partition",
            "--input",
            "/nonexistent/nowhere.metis",
            "--k",
            "2",
            "--rmax",
            "10",
            "--bmax",
            "10",
        ])
        .output()
        .unwrap();
    assert_clean_failure(&run, "error:");
}

#[test]
fn unknown_backend_is_rejected_with_the_available_list() {
    let dir = temp_dir("badbackend");
    let path = write_graph(&dir, "8", "12", "1");
    let run = gp()
        .args([
            "partition",
            "--backend",
            "frobnicate",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "2",
            "--rmax",
            "1000",
            "--bmax",
            "1000",
        ])
        .output()
        .unwrap();
    assert!(!run.status.success());
    let err = stderr_of(&run);
    assert!(err.contains("unknown backend"), "{err}");
    assert!(err.contains("gp"), "must list alternatives: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn provably_impossible_rmax_is_a_typed_infeasible_error() {
    let dir = temp_dir("impossible");
    let path = write_graph(&dir, "8", "12", "2");
    // gen weights nodes in 20..60; Rmax 1 cannot fit any node
    let run = gp()
        .args([
            "partition",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "2",
            "--rmax",
            "1",
            "--bmax",
            "1000",
        ])
        .output()
        .unwrap();
    assert_clean_failure(&run, "infeasible instance");
    assert!(stderr_of(&run).contains("Rmax"), "{}", stderr_of(&run));
    std::fs::remove_dir_all(&dir).ok();
}

/// Node weights that fit a u64 total but whose balance cap plus
/// heaviest node does not: metis must saturate its refine cap, not
/// overflow it.
#[test]
fn metis_refine_cap_saturates_on_near_max_weights() {
    let dir = temp_dir("heavy");
    let path = dir.join("heavy.metis");
    // a 4-cycle; nodes 1 and 2 weigh 9223372036854775800 each, so the
    // total is u64::MAX - 13
    std::fs::write(
        &path,
        "4 4 011\n\
         9223372036854775800 2 1 4 1\n\
         9223372036854775800 1 1 3 1\n\
         1 2 1 4 1\n\
         1 3 1 1 1\n",
    )
    .unwrap();
    let run = gp()
        .args([
            "partition",
            "--backend",
            "metis",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "2",
            "--rmax",
            "18446744073709551615",
            "--bmax",
            "100",
        ])
        .output()
        .unwrap();
    assert!(run.status.success(), "{}", stderr_of(&run));
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("backend=metis"), "{stdout}");
    assert!(stdout.contains("=> feasible"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Edge gains are `i64`, so the instance gate bounds the total edge
/// weight below 2^62. This 4-cycle's two heavy edges (6·10^18 each)
/// total less than `u64::MAX` but pass the bound; past it, growth
/// computes gains beyond `i64` (`rb`, `kway` and `metis` overflow in
/// `crates/classic/src/grow.rs`).
#[test]
fn edge_weights_past_the_gain_bound_are_invalid_instances() {
    let dir = temp_dir("gainbound");
    let path = dir.join("heavy_edges.metis");
    std::fs::write(
        &path,
        "4 4 011\n\
         1 2 6000000000000000000 4 1\n\
         1 1 6000000000000000000 3 1\n\
         1 2 1 4 6000000000000000000\n\
         1 3 6000000000000000000 1 1\n",
    )
    .unwrap();
    for backend in ["gp", "rb", "kway", "metis", "hyper"] {
        let run = gp()
            .args([
                "partition",
                "--backend",
                backend,
                "--input",
                path.to_str().unwrap(),
                "--k",
                "2",
                "--rmax",
                "2",
                "--bmax",
                "100000000000000000",
            ])
            .output()
            .unwrap();
        assert_eq!(run.status.code(), Some(1), "{backend}: {}", stderr_of(&run));
        assert_clean_failure(&run, "2^62");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `v` × 10^18, as the binary prints it.
fn times_e18(v: &str) -> String {
    if v == "0" {
        v.to_string()
    } else {
        format!("{v}000000000000000000")
    }
}

/// A verdict line with its node-weight quantities (`max_resource` and
/// the violation magnitude) × 10^18; cut and bandwidth are untouched.
fn scale_node_side(line: &str) -> String {
    let mut out = Vec::new();
    let mut prev = "";
    for tok in line.split(' ') {
        out.push(if let Some(v) = tok.strip_prefix("max_resource=") {
            format!("max_resource={}", times_e18(v))
        } else if prev == "magnitude" {
            times_e18(tok)
        } else {
            tok.to_string()
        });
        prev = tok;
    }
    out.join(" ")
}

/// Node-side gains must not wrap once a part weight passes `i64::MAX`.
/// The 4-cycle with node weights 4, 3, 7, 2 (× 10^18, a total of
/// 1.6·10^19 > 2^63) under `Rmax` 7·10^18 scales every resource
/// quantity of the same cycle at weights 4, 3, 7, 2 under `Rmax` 7, so
/// every backend must print the light verdict with `max_resource` and
/// the magnitude × 10^18 and the same cut and bandwidth. gp-core's
/// refinement computed those excesses in `i64` (debug `gp` and `rb`
/// panicked in `swap_pass`).
#[test]
fn part_weights_past_i64_get_the_scaled_verdict() {
    let dir = temp_dir("nodegain");
    let cycle = |name: &str, w: [String; 4]| {
        let path = dir.join(name);
        let body = format!(
            "4 4 011\n{} 2 1 4 1\n{} 1 1 3 3\n{} 2 3 4 3\n{} 3 3 1 1\n",
            w[0], w[1], w[2], w[3]
        );
        std::fs::write(&path, body).unwrap();
        path
    };
    let light = ["4", "3", "7", "2"];
    let light_path = cycle("light.metis", light.map(String::from));
    let heavy_path = cycle("heavy.metis", light.map(times_e18));
    for backend in ["gp", "rb", "kway", "metis", "hyper"] {
        let run = |path: &Path, rmax: &str| {
            gp().args([
                "partition",
                "--backend",
                backend,
                "--input",
                path.to_str().unwrap(),
                "--k",
                "2",
                "--rmax",
                rmax,
                "--bmax",
                "1000",
                "--seed",
                "1",
            ])
            .output()
            .unwrap()
        };
        let verdict = |out: &Output| {
            let err = stderr_of(out);
            assert!(!err.contains("panicked"), "{backend}: panic: {err}");
            let stdout = String::from_utf8_lossy(&out.stdout).to_string();
            stdout
                .lines()
                .find(|l| l.starts_with("backend="))
                .unwrap_or_else(|| panic!("{backend}: no verdict line: {stdout}{err}"))
                .to_string()
        };
        let small = run(&light_path, "7");
        let big = run(&heavy_path, &times_e18("7"));
        assert_eq!(small.status.code(), big.status.code(), "{backend}");
        assert_eq!(
            verdict(&big),
            scale_node_side(&verdict(&small)),
            "{backend}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn k_zero_and_k_beyond_n_are_invalid_instances() {
    let dir = temp_dir("badk");
    let path = write_graph(&dir, "6", "8", "3");
    // `--k 0` is caught at flag parse (as malformed as `--k abc`);
    // `--k 99` survives parsing and fails instance validation
    for (k, needle) in [("0", "--k takes a positive part count"), ("99", "exceeds")] {
        let run = gp()
            .args([
                "partition",
                "--input",
                path.to_str().unwrap(),
                "--k",
                k,
                "--rmax",
                "1000",
                "--bmax",
                "1000",
            ])
            .output()
            .unwrap();
        assert_clean_failure(&run, needle);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_numeric_flags_are_rejected_not_defaulted() {
    let dir = temp_dir("badnum");
    let path = write_graph(&dir, "8", "12", "5");
    let base = [
        "partition",
        "--input",
        path.to_str().unwrap(),
        "--k",
        "2",
        "--rmax",
        "100000",
        "--bmax",
        "100000",
    ];
    // every numeric flag: a malformed value must be a one-line error
    // naming the flag and the offending text, never a silent default
    for (flag, bad) in [
        ("--seed", "abc"),
        ("--k", "two"),
        ("--rmax", "-1"),
        ("--bmax", "1e9"),
        ("--budget-ms", "-1"),
    ] {
        let mut args: Vec<&str> = base.to_vec();
        if let Some(i) = args.iter().position(|a| *a == flag) {
            args[i + 1] = bad;
        } else {
            args.push(flag);
            args.push(bad);
        }
        let run = gp().args(&args).output().unwrap();
        assert_clean_failure(&run, flag);
        assert!(
            stderr_of(&run).contains(&format!("`{bad}`")),
            "{flag} {bad}: error must quote the offending value: {}",
            stderr_of(&run)
        );
    }
    // demo's positional argument gets the same treatment
    let run = gp().args(["demo", "4x"]).output().unwrap();
    assert_clean_failure(&run, "experiment number");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_rejects_impossible_edge_counts_at_the_boundary() {
    // 6 nodes hold at most 15 simple edges: 15 generates, 16 errors
    let ok = gp()
        .args(["gen", "--nodes", "6", "--edges", "15", "--seed", "3"])
        .output()
        .unwrap();
    assert!(ok.status.success(), "{}", stderr_of(&ok));
    let over = gp()
        .args(["gen", "--nodes", "6", "--edges", "16", "--seed", "3"])
        .output()
        .unwrap();
    assert_clean_failure(&over, "exceeds the 15 possible simple edges");
    // malformed counts go through the same numeric-flag validation
    let bad = gp()
        .args(["gen", "--nodes", "lots", "--edges", "9"])
        .output()
        .unwrap();
    assert_clean_failure(&bad, "--nodes");
    // node counts past the NodeId range are refused before any arithmetic
    let huge = gp()
        .args(["gen", "--nodes", "18446744073709551615", "--edges", "1"])
        .output()
        .unwrap();
    assert_clean_failure(&huge, "--nodes");
    assert_eq!(huge.status.code(), Some(2));
}

#[test]
fn backend_chain_is_validated_up_front() {
    let dir = temp_dir("badchain");
    let path = write_graph(&dir, "8", "12", "6");
    // the typo'd entry is named even though the first entry could have
    // served — chains validate whole before any engine runs
    let run = gp()
        .args([
            "partition",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "2",
            "--rmax",
            "100000",
            "--bmax",
            "100000",
            "--backend",
            "gp,tpyo,rb",
        ])
        .output()
        .unwrap();
    assert_clean_failure(&run, "tpyo");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn budget_ms_flag_is_validated_and_accepted() {
    let dir = temp_dir("budget");
    let path = write_graph(&dir, "24", "60", "4");
    // malformed value → usage, nonzero
    let run = gp()
        .args([
            "partition",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "3",
            "--rmax",
            "100000",
            "--bmax",
            "100000",
            "--budget-ms",
            "soon",
        ])
        .output()
        .unwrap();
    assert!(!run.status.success());
    assert!(
        stderr_of(&run).contains("--budget-ms"),
        "{}",
        stderr_of(&run)
    );
    // a generous budget behaves exactly like no budget, up to a
    // deadline past the clock's range
    for generous in ["60000", "18446744073709551615"] {
        let run = gp()
            .args([
                "partition",
                "--input",
                path.to_str().unwrap(),
                "--k",
                "3",
                "--rmax",
                "100000",
                "--bmax",
                "100000",
                "--budget-ms",
                generous,
            ])
            .output()
            .unwrap();
        assert!(run.status.success(), "{}", stderr_of(&run));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn memory_mb_flag_is_validated_and_accepted() {
    let dir = temp_dir("memory");
    let path = write_graph(&dir, "24", "60", "7");
    let base = [
        "partition",
        "--input",
        path.to_str().unwrap(),
        "--k",
        "3",
        "--rmax",
        "100000",
        "--bmax",
        "100000",
    ];
    // malformed, zero and byte-overflowing values → usage (exit 2)
    for bad in ["plenty", "0", "18446744073709551615"] {
        let run = gp().args(base).args(["--memory-mb", bad]).output().unwrap();
        assert_clean_failure(&run, "--memory-mb");
        assert_eq!(run.status.code(), Some(2), "--memory-mb {bad}");
    }
    // a generous cap behaves exactly like no cap
    let run = gp()
        .args(base)
        .args(["--memory-mb", "4096"])
        .output()
        .unwrap();
    assert!(run.status.success(), "{}", stderr_of(&run));
    assert!(!stderr_of(&run).contains("warning"), "{}", stderr_of(&run));
    std::fs::remove_dir_all(&dir).ok();
}

/// A batch file's `memory_mb` gets the `--memory-mb` validation: zero
/// and byte-overflowing caps are usage errors, a sane cap serves.
#[test]
fn serve_batch_memory_mb_is_validated() {
    let dir = temp_dir("batchmem");
    write_graph(&dir, "24", "60", "5");
    let batch = dir.join("batch.json");
    let serve = |memory_mb: &str| {
        std::fs::write(
            &batch,
            format!(
                r#"{{"memory_mb": {memory_mb}, "items": [{{"input": "graph.metis", "k": 3, "rmax": 100000, "bmax": 100000}}]}}"#
            ),
        )
        .unwrap();
        gp().args(["serve", "--batch", batch.to_str().unwrap()])
            .output()
            .unwrap()
    };
    for bad in ["0", "17592186044416"] {
        let run = serve(bad);
        assert_clean_failure(&run, "memory_mb");
        assert_eq!(run.status.code(), Some(2), "memory_mb {bad}");
    }
    let run = serve("4096");
    assert!(run.status.success(), "{}", stderr_of(&run));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tight_memory_cap_degrades_with_a_warning_but_exits_zero() {
    let dir = temp_dir("memtight");
    let path = write_graph(&dir, "8192", "32768", "8");
    // 1 MiB cannot hold the level arena for 8192 nodes / 32768 edges
    // at the engines' conservative estimates, but the run must still
    // complete with a valid (degraded) partition and exit 0.
    let run = gp()
        .args([
            "partition",
            "--backend",
            "gp,rb",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "4",
            "--rmax",
            "1000000",
            "--bmax",
            "1000000",
            "--memory-mb",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "memory-capped run must not fail: {}",
        stderr_of(&run)
    );
    let stderr = stderr_of(&run);
    assert!(
        stderr.contains("warning: memory budget cut the run short"),
        "memory degradation must be reported: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn backend_chain_runs_and_reports_the_server() {
    let dir = temp_dir("chain");
    let path = write_graph(&dir, "16", "36", "5");
    let run = gp()
        .args([
            "partition",
            "--backend",
            "gp,rb,metis",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "4",
            "--rmax",
            "100000",
            "--bmax",
            "100000",
        ])
        .output()
        .unwrap();
    assert!(run.status.success(), "{}", stderr_of(&run));
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        stdout.contains("backend=gp"),
        "healthy chain serves gp: {stdout}"
    );
    // a chain containing an unknown name is a config error
    let run = gp()
        .args([
            "partition",
            "--backend",
            "gp,nope",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "2",
            "--rmax",
            "100000",
            "--bmax",
            "100000",
        ])
        .output()
        .unwrap();
    assert!(!run.status.success());
    assert!(
        stderr_of(&run).contains("unknown backend"),
        "{}",
        stderr_of(&run)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_gp_panic_falls_back_to_rb() {
    let dir = temp_dir("faultchain");
    let path = write_graph(&dir, "16", "36", "6");
    let run = gp()
        .env("FAULT_INJECT", "gp:refine:panic")
        .args([
            "partition",
            "--backend",
            "gp,rb,metis",
            "--input",
            path.to_str().unwrap(),
            "--k",
            "4",
            "--rmax",
            "100000",
            "--bmax",
            "100000",
        ])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "fallback chain must survive an injected gp panic: {}",
        stderr_of(&run)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = stderr_of(&run);
    assert!(stdout.contains("backend=rb"), "rb must serve: {stdout}");
    assert!(
        stderr.contains("panicked"),
        "the gp failure is reported: {stderr}"
    );
    assert!(stderr.contains("served by `rb`"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A delta whose added edge is parallel to an existing one merges by
/// summing weights; a sum past `u64::MAX` is a typed error, not a
/// wrapped weight or an overflow panic.
#[test]
fn repartition_delta_merging_past_u64_max_is_rejected() {
    let dir = temp_dir("delta-merge");
    let graph = dir.join("g.metis");
    std::fs::write(
        &graph,
        "3 1 011\n\
         1 2 18446744073709551614\n\
         1 1 18446744073709551614\n\
         1\n",
    )
    .unwrap();
    let prev = dir.join("prev.json");
    std::fs::write(&prev, r#"{"k":2,"assign":[0,1,1]}"#).unwrap();
    let delta = dir.join("delta.json");
    std::fs::write(&delta, r#"{"add_edges":[[0,1,5]]}"#).unwrap();
    let run = gp()
        .args([
            "repartition",
            "--input",
            graph.to_str().unwrap(),
            "--k",
            "2",
            "--rmax",
            "10",
            "--bmax",
            "18446744073709551615",
            "--prev",
            prev.to_str().unwrap(),
            "--delta",
            delta.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(1), "{}", stderr_of(&run));
    assert_clean_failure(&run, "overflow");
    std::fs::remove_dir_all(&dir).ok();
}

/// Two channels between the same processes lower to one edge weighing
/// their summed volume; volumes whose sum passes `u64::MAX` are
/// rejected when the network is validated, before lowering.
#[test]
fn ppn_channel_volumes_summing_past_u64_max_are_rejected() {
    let dir = temp_dir("ppn-merge");
    let path = dir.join("net.ppn.json");
    let process = |name: &str| {
        format!(
            r#"{{"name":"{name}","resources":{{"luts":5,"ffs":0,"brams":0,"dsps":0}},"latency":1,"firings":1}}"#
        )
    };
    let channel = |volume: u64| {
        format!(
            r#"{{"from":0,"to":1,"volume":{volume},"capacity":1,"initial_tokens":0,"extra_consumers":[]}}"#
        )
    };
    std::fs::write(
        &path,
        format!(
            r#"{{"processes":[{},{}],"channels":[{},{}]}}"#,
            process("a"),
            process("b"),
            channel(18446744073709551614),
            channel(5)
        ),
    )
    .unwrap();
    let run = gp()
        .args([
            "partition",
            "--input",
            path.to_str().unwrap(),
            "--format",
            "ppn",
            "--k",
            "2",
            "--rmax",
            "10",
            "--bmax",
            "18446744073709551615",
        ])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(1), "{}", stderr_of(&run));
    assert_clean_failure(&run, "overflow");
    std::fs::remove_dir_all(&dir).ok();
}
