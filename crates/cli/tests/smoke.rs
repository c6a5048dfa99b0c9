//! End-to-end smoke test of the `gp` binary: generate an instance,
//! partition it under constraints, and check the artifacts it writes.

use std::path::PathBuf;
use std::process::Command;

fn gp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gp"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gp-smoke-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_then_partition_end_to_end() {
    let dir = temp_dir("pipeline");
    let graph_path = dir.join("graph.metis");
    let out_path = dir.join("partition.json");
    let dot_path = dir.join("partition.dot");

    // 1. generate a random instance in METIS format on stdout
    let gen = gp()
        .args(["gen", "--nodes", "24", "--edges", "60", "--seed", "7"])
        .output()
        .expect("failed to run gp gen");
    assert!(gen.status.success(), "gp gen failed: {gen:?}");
    let metis_text = String::from_utf8(gen.stdout).unwrap();
    assert!(!metis_text.trim().is_empty(), "gp gen wrote nothing");
    std::fs::write(&graph_path, &metis_text).unwrap();

    // 2. partition it with generous constraints — must succeed (exit 0)
    let run = gp()
        .args([
            "partition",
            "--input",
            graph_path.to_str().unwrap(),
            "--k",
            "4",
            "--rmax",
            "100000",
            "--bmax",
            "100000",
            "--seed",
            "11",
            "--out",
            out_path.to_str().unwrap(),
            "--dot",
            dot_path.to_str().unwrap(),
        ])
        .output()
        .expect("failed to run gp partition");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "gp partition exited nonzero\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("k=4"), "summary line missing: {stdout}");

    // 3. artifacts parse back
    let json_text = std::fs::read_to_string(&out_path).unwrap();
    let p = ppn_graph::io::json::partition_from_json(&json_text).unwrap();
    assert_eq!(p.len(), 24);
    assert!(p.is_complete());
    let dot = std::fs::read_to_string(&dot_path).unwrap();
    assert!(dot.starts_with("graph "));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn baseline_flag_runs_metis_lite() {
    let dir = temp_dir("baseline");
    let graph_path = dir.join("graph.metis");
    let gen = gp()
        .args(["gen", "--nodes", "12", "--edges", "24", "--seed", "3"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    std::fs::write(&graph_path, &gen.stdout).unwrap();

    let run = gp()
        .args([
            "partition",
            "--baseline",
            "--input",
            graph_path.to_str().unwrap(),
            "--k",
            "3",
            "--rmax",
            "100000",
            "--bmax",
            "100000",
        ])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "baseline run failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn demo_subcommand_prints_every_backend() {
    let run = gp().args(["demo", "1"]).output().unwrap();
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("experiment 1"), "got: {stdout}");
    for backend in ["gp", "rb", "kway", "metis", "hyper"] {
        assert!(
            stdout.contains(&format!("  {backend}")),
            "missing {backend} row: {stdout}"
        );
    }
    // the paper's qualitative outcome across the registry: the
    // unconstrained baseline violates, the constrained engines don't
    assert!(stdout.contains("INFEASIBLE"), "got: {stdout}");
    assert!(stdout.contains("feasible"), "got: {stdout}");
}

#[test]
fn backends_subcommand_lists_the_registry() {
    let run = gp().args(["backends"]).output().unwrap();
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    for backend in ["gp", "rb", "kway", "metis", "hyper"] {
        assert!(stdout.contains(backend), "missing {backend}: {stdout}");
    }
    assert!(stdout.contains("edge-cut"));
    assert!(stdout.contains("connectivity"));
}

#[test]
fn explicit_backend_flag_selects_the_engine() {
    let dir = temp_dir("backend-flag");
    let graph_path = dir.join("graph.metis");
    let gen = gp()
        .args(["gen", "--nodes", "16", "--edges", "36", "--seed", "8"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    std::fs::write(&graph_path, &gen.stdout).unwrap();
    for backend in ["gp", "rb", "kway", "metis", "hyper"] {
        let run = gp()
            .args([
                "partition",
                "--backend",
                backend,
                "--input",
                graph_path.to_str().unwrap(),
                "--k",
                "4",
                "--rmax",
                "100000",
                "--bmax",
                "100000",
            ])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(
            run.status.success(),
            "{backend} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        assert!(
            stdout.contains(&format!("backend={backend}")),
            "{backend}: {stdout}"
        );
    }
    // unknown backend exits with usage
    let run = gp()
        .args([
            "partition",
            "--backend",
            "nope",
            "--input",
            graph_path.to_str().unwrap(),
            "--k",
            "2",
            "--rmax",
            "1",
            "--bmax",
            "1",
        ])
        .output()
        .unwrap();
    assert!(!run.status.success());
    // an explicit model that contradicts the backend's cost model is an
    // error, not a silent fallback to the wrong numbers
    for mismatch in [
        ["--model", "hyper", "--baseline"],
        ["--model", "edge", "--backend"],
    ] {
        let mut args = vec![
            "partition",
            "--input",
            graph_path.to_str().unwrap(),
            "--k",
            "2",
            "--rmax",
            "100000",
            "--bmax",
            "100000",
        ];
        args.extend(mismatch);
        if mismatch[2] == "--backend" {
            args.push("hyper");
        }
        let run = gp().args(&args).output().unwrap();
        assert!(!run.status.success(), "{mismatch:?} must be rejected");
        assert!(
            String::from_utf8_lossy(&run.stderr).contains("backend"),
            "{mismatch:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multicast_gen_then_hyper_partition_end_to_end() {
    let dir = temp_dir("hyper");
    let net_path = dir.join("net.ppn.json");
    let out_path = dir.join("partition.json");

    // 1. generate a multicast star network as PPN JSON
    let gen = gp()
        .args([
            "gen",
            "--multicast",
            "--stars",
            "8",
            "--fanout",
            "4",
            "--seed",
            "3",
        ])
        .output()
        .expect("failed to run gp gen --multicast");
    assert!(gen.status.success(), "gp gen --multicast failed: {gen:?}");
    std::fs::write(&net_path, &gen.stdout).unwrap();

    // 2. partition it under the connectivity model — generous Rmax,
    //    tight-ish Bmax that only the once-per-boundary charging meets
    let run = gp()
        .args([
            "partition",
            "--input",
            net_path.to_str().unwrap(),
            "--format",
            "ppn",
            "--model",
            "hyper",
            "--k",
            "4",
            "--rmax",
            "300",
            "--bmax",
            "30",
            "--out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("failed to run gp partition --model hyper");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "hyper partition exited nonzero\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("conn_cost="), "summary missing: {stdout}");
    assert!(stdout.contains("feasible"), "must be feasible: {stdout}");

    // 3. the partition artifact covers every process
    let json_text = std::fs::read_to_string(&out_path).unwrap();
    let p = ppn_graph::io::json::partition_from_json(&json_text).unwrap();
    assert_eq!(p.len(), 8 + 8 * 3);
    assert!(p.is_complete());

    // 4. the same PPN also partitions under the edge model
    let run = gp()
        .args([
            "partition",
            "--input",
            net_path.to_str().unwrap(),
            "--format",
            "ppn",
            "--k",
            "4",
            "--rmax",
            "300",
            "--bmax",
            "100000",
        ])
        .output()
        .unwrap();
    assert!(run.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hyper_model_works_on_graph_formats() {
    let dir = temp_dir("hyper-metis");
    let graph_path = dir.join("graph.metis");
    let gen = gp()
        .args(["gen", "--nodes", "16", "--edges", "40", "--seed", "5"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    std::fs::write(&graph_path, &gen.stdout).unwrap();
    let run = gp()
        .args([
            "partition",
            "--input",
            graph_path.to_str().unwrap(),
            "--model",
            "hyper",
            "--k",
            "4",
            "--rmax",
            "100000",
            "--bmax",
            "100000",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        stdout.contains("nets=40"),
        "2-pin degeneration expected: {stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_chrome_output_is_valid_trace_event_json() {
    let dir = temp_dir("trace-chrome");
    let graph_path = dir.join("graph.metis");
    let trace_path = dir.join("trace.json");
    let gen = gp()
        .args(["gen", "--nodes", "300", "--edges", "900", "--seed", "9"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    std::fs::write(&graph_path, &gen.stdout).unwrap();

    let run = gp()
        .args([
            "partition",
            "--backend",
            "gp,rb",
            "--input",
            graph_path.to_str().unwrap(),
            "--k",
            "4",
            "--rmax",
            "100000",
            "--bmax",
            "100000",
            "--trace",
            trace_path.to_str().unwrap(),
            "--trace-format",
            "chrome",
            "--verbose",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "stderr: {stderr}");
    assert!(stdout.contains("wrote trace"), "got: {stdout}");
    // --verbose prints the robust_partition attempt ledger and the
    // session's span totals
    assert!(stderr.contains("attempt 0: backend=gp"), "got: {stderr}");
    for phase in ["gp/coarsen", "gp/initial", "gp/refine"] {
        assert!(stderr.contains(&format!("phase {phase} ")), "got: {stderr}");
    }

    // the file parses as chrome trace_event JSON: an object with a
    // non-empty traceEvents array, balanced B/E, nested cycle→level
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&text).expect("chrome trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace must not be empty");
    let ph = |e: &serde_json::Value| e.get("ph").and_then(|p| p.as_str()).unwrap().to_string();
    let begins = events.iter().filter(|e| ph(e) == "B").count();
    let ends = events.iter().filter(|e| ph(e) == "E").count();
    assert_eq!(begins, ends, "unbalanced span events");
    assert!(begins > 0, "no spans recorded");
    let names: Vec<&str> = events
        .iter()
        .filter(|e| ph(e) == "B")
        .map(|e| e.get("name").and_then(|n| n.as_str()).unwrap())
        .collect();
    for expected in ["chain", "partition", "cycle", "level", "pass"] {
        assert!(names.contains(&expected), "missing span `{expected}`");
    }
    for e in events {
        assert!(e.get("pid").is_some() && e.get("tid").is_some(), "{e:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verbose_without_trace_prints_phases_and_writes_no_file() {
    let dir = temp_dir("verbose");
    let gen = gp()
        .args(["gen", "--nodes", "300", "--edges", "900", "--seed", "9"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    std::fs::write(dir.join("graph.metis"), &gen.stdout).unwrap();

    let run = gp()
        .current_dir(&dir)
        .args([
            "partition",
            "--backend",
            "gp",
            "--input",
            "graph.metis",
            "--k",
            "4",
            "--rmax",
            "100000",
            "--bmax",
            "100000",
            "--verbose",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "stderr: {stderr}");
    for phase in ["gp/coarsen", "gp/initial", "gp/refine"] {
        assert!(stderr.contains(&format!("phase {phase} ")), "got: {stderr}");
    }
    // the session only feeds the phase lines: no trace is written
    assert!(!stdout.contains("wrote trace"), "got: {stdout}");
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(files, ["graph.metis"], "--verbose alone wrote a file");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_jsonl_and_summary_formats_render() {
    let dir = temp_dir("trace-fmt");
    let graph_path = dir.join("graph.metis");
    let gen = gp()
        .args(["gen", "--nodes", "32", "--edges", "80", "--seed", "4"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    std::fs::write(&graph_path, &gen.stdout).unwrap();
    let base = |trace: &str, fmt: &str| {
        vec![
            "partition".to_string(),
            "--input".to_string(),
            graph_path.to_str().unwrap().to_string(),
            "--k".to_string(),
            "3".to_string(),
            "--rmax".to_string(),
            "100000".to_string(),
            "--bmax".to_string(),
            "100000".to_string(),
            "--trace".to_string(),
            trace.to_string(),
            "--trace-format".to_string(),
            fmt.to_string(),
        ]
    };

    // jsonl: every line is a JSON object, first line is the meta record
    let jsonl_path = dir.join("trace.jsonl");
    let run = gp()
        .args(base(jsonl_path.to_str().unwrap(), "jsonl"))
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let text = std::fs::read_to_string(&jsonl_path).unwrap();
    let mut lines = text.lines();
    let meta: serde_json::Value = serde_json::from_str(lines.next().unwrap()).unwrap();
    assert!(meta.get("meta").is_some(), "first jsonl line is meta");
    let mut events = 0usize;
    for line in lines {
        let v: serde_json::Value = serde_json::from_str(line).expect(line);
        assert!(v.get("ph").is_some(), "event line missing ph: {line}");
        events += 1;
    }
    assert!(events > 0, "jsonl trace has no events");

    // summary: human-readable aggregate with span and counter totals
    let summary_path = dir.join("trace.txt");
    let run = gp()
        .args(base(summary_path.to_str().unwrap(), "summary"))
        .output()
        .unwrap();
    assert!(run.status.success());
    let text = std::fs::read_to_string(&summary_path).unwrap();
    assert!(text.starts_with("trace summary:"), "got: {text}");
    assert!(text.contains("spans:"), "got: {text}");
    assert!(text.contains("gp/partition"), "got: {text}");

    // --trace-format without --trace is a usage error
    let run = gp()
        .args([
            "partition",
            "--input",
            graph_path.to_str().unwrap(),
            "--k",
            "3",
            "--rmax",
            "100000",
            "--bmax",
            "100000",
            "--trace-format",
            "chrome",
        ])
        .output()
        .unwrap();
    assert!(!run.status.success(), "--trace-format alone must fail");

    std::fs::remove_dir_all(&dir).ok();
}

fn golden_batch() -> String {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/serve2.batch.json")
        .to_str()
        .unwrap()
        .to_string()
}

#[test]
fn serve_batch_trace_honours_the_format() {
    let dir = temp_dir("trace-serve");
    let summary_path = dir.join("serve.txt");
    let run = gp()
        .args([
            "serve",
            "--batch",
            &golden_batch(),
            "--trace",
            summary_path.to_str().unwrap(),
            "--trace-format",
            "summary",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("wrote trace"), "got: {stdout}");
    let text = std::fs::read_to_string(&summary_path).unwrap();
    assert!(text.starts_with("trace summary:"), "got: {text}");
    assert!(text.contains("batch/run"), "got: {text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A `ppn` item in a batch keeps its one-net-per-channel hypergraph, so
/// a `hyper` chain answers it as `gp partition --format ppn` does, not
/// on the 2-pin embedding of the per-consumer graph.
#[test]
fn serve_batch_keeps_a_ppn_items_hypergraph() {
    let dir = temp_dir("serve-ppn");
    let net = gp()
        .args([
            "gen",
            "--multicast",
            "--stars",
            "40",
            "--fanout",
            "6",
            "--seed",
            "3",
        ])
        .output()
        .unwrap();
    assert!(net.status.success());
    let net_path = dir.join("net.ppn.json");
    std::fs::write(&net_path, &net.stdout).unwrap();
    let batch_path = dir.join("batch.json");
    std::fs::write(
        &batch_path,
        r#"{"chain": ["hyper"], "seed": 7, "items": [
            {"input": "net.ppn.json", "format": "ppn", "k": 4, "rmax": 2300, "bmax": 100000000}]}"#,
    )
    .unwrap();
    let serve = gp()
        .args(["serve", "--batch", batch_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(serve.status.success());
    let partition = gp()
        .args([
            "partition",
            "--input",
            net_path.to_str().unwrap(),
            "--format",
            "ppn",
            "--backend",
            "hyper",
            "--k",
            "4",
            "--rmax",
            "2300",
            "--bmax",
            "100000000",
            "--seed",
            "7",
        ])
        .output()
        .unwrap();
    assert!(partition.status.success());
    let partition = String::from_utf8_lossy(&partition.stdout);
    let field = |name: &str| {
        let at = partition.find(&format!(" {name}=")).expect(name) + name.len() + 2;
        partition[at..].split(' ').next().unwrap().to_string()
    };
    let want = format!(
        "backend=hyper cut={} max_resource={} max_local_bandwidth={} =>",
        field("conn_cost"),
        field("max_resource"),
        field("max_local_bandwidth")
    );
    let serve = String::from_utf8_lossy(&serve.stdout);
    assert!(serve.contains(&want), "want `{want}` in {serve}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repartition_trace_is_balanced_chrome_json() {
    let dir = temp_dir("trace-repart");
    let graph_path = dir.join("graph.metis");
    let prev_path = dir.join("prev.json");
    let delta_path = dir.join("delta.json");
    let trace_path = dir.join("trace.json");
    let gen = gp()
        .args(["gen", "--nodes", "32", "--edges", "80", "--seed", "4"])
        .output()
        .unwrap();
    assert!(gen.status.success());
    std::fs::write(&graph_path, &gen.stdout).unwrap();
    let instance = [
        "--input",
        graph_path.to_str().unwrap(),
        "--k",
        "3",
        "--rmax",
        "100000",
        "--bmax",
        "100000",
    ];
    let prev = gp()
        .arg("partition")
        .args(instance)
        .args(["--out", prev_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(prev.status.success());
    std::fs::write(&delta_path, r#"{"node_drift": [[3, 40]]}"#).unwrap();

    let run = gp()
        .arg("repartition")
        .args(instance)
        .args([
            "--prev",
            prev_path.to_str().unwrap(),
            "--delta",
            delta_path.to_str().unwrap(),
            "--trace",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(stdout.contains("wrote trace"), "got: {stdout}");
    assert!(stdout.contains("mode=warm"), "got: {stdout}");

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&text).expect("chrome trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    fn field<'a>(e: &'a serde_json::Value, k: &str) -> &'a str {
        e.get(k).and_then(|v| v.as_str()).unwrap_or("")
    }
    let count = |p: &str| events.iter().filter(|e| field(e, "ph") == p).count();
    assert_eq!(count("B"), count("E"), "unbalanced span events");
    let repart: Vec<&str> = events
        .iter()
        .filter(|e| field(e, "ph") == "B" && field(e, "cat") == "repart")
        .map(|e| field(e, "name"))
        .collect();
    assert_eq!(repart, ["repartition", "warm_start"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_format_without_trace_is_a_usage_error_everywhere() {
    let serve = gp()
        .args([
            "serve",
            "--batch",
            &golden_batch(),
            "--trace-format",
            "summary",
        ])
        .output()
        .unwrap();
    assert_eq!(serve.status.code(), Some(2));
    // the flags are checked before any input is read
    let repartition = gp()
        .args([
            "repartition",
            "--input",
            "missing.metis",
            "--k",
            "3",
            "--rmax",
            "10",
            "--bmax",
            "10",
            "--prev",
            "missing.json",
            "--delta",
            "missing.json",
            "--trace-format",
            "chrome",
        ])
        .output()
        .unwrap();
    assert_eq!(repartition.status.code(), Some(2));
}

#[test]
fn bad_usage_exits_nonzero() {
    let run = gp().arg("frobnicate").output().unwrap();
    assert!(!run.status.success());
    let run = gp().args(["partition", "--k", "4"]).output().unwrap();
    assert!(!run.status.success(), "missing --input must fail usage");
}
