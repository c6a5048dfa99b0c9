//! `gp` — command-line constrained k-way partitioner.
//!
//! ```text
//! gp partition --input graph.metis --k 4 --rmax 165 --bmax 16 [--format metis|matrix|json|ppn]
//!              [--backend gp|rb|kway|metis|hyper] [--model edge|hyper] [--seed N]
//!              [--baseline] [--dot out.dot] [--out partition.json]
//!              [--trace out.json] [--trace-format jsonl|chrome|summary] [--verbose]
//! gp backends          # list the registered partitioner backends
//! gp demo [1|2|3]      # one paper table: every backend on an experiment at its seed
//! gp gen --nodes N --edges M --seed S > graph.metis
//! gp gen --multicast --stars S --fanout F [--seed N] > net.ppn.json
//! ```
//!
//! Every engine sits behind the `ppn-backend` registry: `--backend`
//! selects one by name (`--baseline` stays as an alias for `metis`;
//! `--model hyper` defaults the backend to `hyper`). `--format ppn`
//! reads a `ProcessNetwork` JSON (as written by `gp gen --multicast`),
//! the only format that carries multicast structure; hypergraph-model
//! backends on other formats see the degenerate 2-pin embedding.

use ppn_backend::{
    backend_by_name, backend_names, backends, paper_table, render_paper_table, repartition,
    robust_partition, trace, validate_instance, BatchSession, Budget, Completion, CostModel,
    GraphDelta, PartitionError, PartitionInstance, RepartitionOptions,
};
use ppn_graph::io::dot::{to_dot, DotOptions};
use ppn_graph::io::{json, matrix, metis};
use ppn_graph::{Constraints, FaultPlan, WeightedGraph};
use ppn_hyper::Hypergraph;
use ppn_model::{lower_to_graph, lower_to_hypergraph, LoweringOptions, ProcessNetwork};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  gp partition --input FILE --k K --rmax R --bmax B \\\n      [--format metis|matrix|json|ppn] [--backend {} or a,b,... fallback chain] \\\n      [--model edge|hyper] [--seed N] [--budget-ms N] [--memory-mb N] [--baseline] \\\n      [--dot FILE] [--out FILE] [--verbose] {TRACE}\n  gp serve --batch FILE [--seed N] {TRACE}\n  gp repartition --input FILE --k K --rmax R --bmax B --prev FILE --delta FILE \\\n      [--format metis|matrix|json|ppn] [--lambda PERMILLE] [--max-churn FRAC] \\\n      [--seed N] [--budget-ms N] [--memory-mb N] [--out FILE] {TRACE}\n  gp backends\n  gp demo [1|2|3]\n  gp gen --nodes N --edges M [--seed S]\n  gp gen --multicast --stars S --fanout F [--seed N]",
        backend_names().join("|"),
        TRACE = "\\\n      [--trace FILE] [--trace-format jsonl|chrome|summary]",
    );
    ExitCode::from(2)
}

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parse an optional numeric flag. A present-but-malformed value is an
/// error naming the flag and the offending text — never a silent fall
/// back to the default (`--seed abc` must not quietly mean `--seed
/// 3458938`).
fn num_flag<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    what: &str,
) -> Result<Option<T>, ExitCode> {
    match arg_value(args, name) {
        None => Ok(None),
        Some(v) => match v.parse::<T>() {
            Ok(t) => Ok(Some(t)),
            Err(_) => {
                eprintln!("error: {name} takes {what}, got `{v}`");
                Err(ExitCode::from(2))
            }
        },
    }
}

/// `num_flag` for values that must also be nonzero (`--k 0` is as
/// malformed as `--k abc`).
fn positive_flag(args: &[String], name: &str, what: &str) -> Result<Option<u64>, ExitCode> {
    match num_flag::<u64>(args, name, what)? {
        Some(0) => {
            eprintln!("error: {name} takes {what}, got `0`");
            Err(ExitCode::from(2))
        }
        other => Ok(other),
    }
}

macro_rules! try_flag {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(code) => return code,
        }
    };
}

/// The one [`Budget`] a command runs under: an optional deadline, an
/// optional memory cap in MiB (`mb_name` names its source in errors),
/// and the `FAULT_INJECT` plan — read here and nowhere else.
fn run_budget(ms: Option<u64>, mb: Option<u64>, mb_name: &str) -> Result<Budget, ExitCode> {
    let mut budget = Budget::unlimited();
    if let Some(ms) = ms {
        budget = budget.with_deadline(Duration::from_millis(ms));
    }
    if let Some(mb) = mb {
        match mb.checked_mul(1 << 20).filter(|_| mb > 0) {
            Some(bytes) => budget = budget.with_max_bytes(bytes),
            None => {
                eprintln!(
                    "error: {mb_name} takes a positive whole number of MiB up to {}, got `{mb}`",
                    u64::MAX >> 20
                );
                return Err(ExitCode::from(2));
            }
        }
    }
    if let Ok(spec) = std::env::var("FAULT_INJECT") {
        match FaultPlan::parse(&spec) {
            Ok(plan) => budget = budget.with_faults(plan),
            Err(e) => eprintln!("FAULT_INJECT ignored: {e}"),
        }
    }
    Ok(budget)
}

/// [`run_budget`] from the shared `--budget-ms` / `--memory-mb` flags.
fn budget_flags(args: &[String]) -> Result<Budget, ExitCode> {
    let ms = num_flag::<u64>(args, "--budget-ms", "a whole number of milliseconds")?;
    let mb = num_flag::<u64>(args, "--memory-mb", "a positive whole number of MiB")?;
    run_budget(ms, mb, "--memory-mb")
}

/// Where `--trace FILE [--trace-format F]` sends a run's trace.
struct TraceOut {
    path: String,
    format: trace::TraceFormat,
}

/// Parse `--trace` and `--trace-format` (chrome by default); a format
/// without a file is a usage error.
fn trace_flags(args: &[String]) -> Result<Option<TraceOut>, ExitCode> {
    let format = match arg_value(args, "--trace-format").map(|f| f.parse()) {
        None => trace::TraceFormat::Chrome,
        Some(Ok(format)) => format,
        Some(Err(e)) => {
            eprintln!("error: {e}");
            return Err(usage());
        }
    };
    match arg_value(args, "--trace") {
        Some(path) => Ok(Some(TraceOut { path, format })),
        None if has_flag(args, "--trace-format") => {
            eprintln!("error: --trace-format needs --trace FILE");
            Err(usage())
        }
        None => Ok(None),
    }
}

/// Run `work`, recording it into one trace session when `--trace` or
/// `--verbose` asked for one. The session is written to the `--trace`
/// file only; `verbose` prints its span totals on stderr, one `phase
/// <cat>/<name> <seconds>s` line each.
fn traced<R>(
    out: Option<&TraceOut>,
    verbose: bool,
    work: impl FnOnce() -> R,
) -> Result<R, ExitCode> {
    if out.is_none() && !verbose {
        return Ok(work());
    }
    let (result, session) = trace::collect(trace::TraceConfig::default(), work);
    if let Some(out) = out {
        if let Err(e) = std::fs::write(&out.path, session.render(out.format)) {
            eprintln!("error writing {}: {e}", out.path);
            return Err(ExitCode::FAILURE);
        }
        let events = session.event_count();
        println!("wrote trace {} ({events} events)", out.path);
    }
    if verbose {
        for t in session.span_totals() {
            eprintln!("phase {}/{} {:.3}s", t.cat, t.name, t.total_us as f64 / 1e6);
        }
    }
    Ok(result)
}

/// The partitionable forms of an input file: the edge-cut graph always,
/// plus the hypergraph only when asked for (`ppn` nets keep their
/// multicast pins; graph formats degrade to 2-pin nets).
struct LoadedInstance {
    graph: WeightedGraph,
    hyper: Option<Hypergraph>,
}

fn load_instance(path: &str, format: &str, want_hyper: bool) -> Result<LoadedInstance, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if format == "ppn" {
        let net: ProcessNetwork =
            serde_json::from_str(&text).map_err(|e| format!("{path}: bad PPN JSON: {e}"))?;
        net.validate()?;
        let opts = LoweringOptions::default();
        return Ok(LoadedInstance {
            graph: lower_to_graph(&net, &opts),
            hyper: want_hyper.then(|| lower_to_hypergraph(&net, &opts)),
        });
    }
    let g = match format {
        "metis" => metis::parse(&text).map_err(|e| e.to_string())?,
        "matrix" => matrix::parse(&text).map_err(|e| e.to_string())?,
        "json" => json::graph_from_json(&text).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown format `{other}`")),
    };
    let hyper = want_hyper.then(|| Hypergraph::from_graph(&g));
    Ok(LoadedInstance { graph: g, hyper })
}

fn cmd_partition(args: &[String]) -> ExitCode {
    let k = try_flag!(positive_flag(args, "--k", "a positive part count"));
    let rmax = try_flag!(num_flag::<u64>(
        args,
        "--rmax",
        "a whole-number resource limit"
    ));
    let bmax = try_flag!(num_flag::<u64>(
        args,
        "--bmax",
        "a whole-number bandwidth limit"
    ));
    let (Some(input), Some(k), Some(rmax), Some(bmax)) =
        (arg_value(args, "--input"), k, rmax, bmax)
    else {
        return usage();
    };
    let k = k as usize;
    let format = arg_value(args, "--format").unwrap_or_else(|| "metis".into());
    let model = arg_value(args, "--model").unwrap_or_else(|| "edge".into());
    if model != "edge" && model != "hyper" {
        eprintln!("error: unknown model `{model}` (expected edge|hyper)");
        return usage();
    }
    // backend resolution: explicit --backend wins; --baseline and
    // --model hyper keep their historical meanings as defaults. A
    // comma-separated --backend list is a fallback chain served by
    // robust_partition.
    let backend_name = match arg_value(args, "--backend") {
        Some(name) => {
            if has_flag(args, "--baseline") {
                eprintln!("error: --baseline and --backend are mutually exclusive");
                return usage();
            }
            name
        }
        None if has_flag(args, "--baseline") => "metis".to_string(),
        None if model == "hyper" => "hyper".to_string(),
        None => "gp".to_string(),
    };
    let chain: Vec<&str> = backend_name
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if chain.is_empty() {
        eprintln!("error: --backend must name at least one backend");
        return usage();
    }
    let mut resolved = Vec::with_capacity(chain.len());
    for name in &chain {
        let Some(b) = backend_by_name(name) else {
            eprintln!(
                "error: unknown backend `{name}` (available: {})",
                backend_names().join(", ")
            );
            return usage();
        };
        resolved.push(b);
    }
    let backend = &resolved[0];
    // an explicitly requested model must match the backend's cost
    // model — silently reporting edge-cut numbers for a `--model
    // hyper` request (or vice versa) would be worse than an error
    if arg_value(args, "--model").is_some() {
        let wanted = if model == "hyper" {
            CostModel::Connectivity
        } else {
            CostModel::EdgeCut
        };
        for b in &resolved {
            if b.cost_model() != wanted {
                eprintln!(
                    "error: --model {model} needs a {wanted} backend, but `{}` reports {}",
                    b.name(),
                    b.cost_model()
                );
                return usage();
            }
        }
    }
    let seed = try_flag!(num_flag::<u64>(args, "--seed", "a whole-number seed")).unwrap_or(0xCA77A);
    let budget = try_flag!(budget_flags(args));
    let verbose = has_flag(args, "--verbose");
    let trace_out = try_flag!(trace_flags(args));
    let want_hyper = model == "hyper" || backend.cost_model() == CostModel::Connectivity;
    let loaded = match load_instance(&input, &format, want_hyper) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut inst =
        PartitionInstance::from_graph(&input, loaded.graph, k, Constraints::new(rmax, bmax));
    if let Some(hg) = loaded.hyper {
        inst = inst.with_hypergraph(hg);
    }
    // reject malformed instances and provably impossible constraints
    // with one line and a nonzero exit before any engine runs
    if let Err(e) = validate_instance(&inst) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if inst.graph.max_node_weight() > rmax {
        let e = PartitionError::Infeasible {
            instance: input.clone(),
            reason: format!(
                "heaviest node weighs {} but Rmax is {rmax}; no assignment can fit it",
                inst.graph.max_node_weight()
            ),
        };
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }

    let result = try_flag!(traced(trace_out.as_ref(), verbose, || {
        if chain.len() > 1 {
            robust_partition(&inst, seed, &budget, &chain).map(|r| {
                for a in r.attempts.iter().filter(|a| a.error.is_some()) {
                    eprintln!(
                        "warning: backend `{}` failed ({}), falling back",
                        a.backend,
                        a.error.as_ref().unwrap()
                    );
                }
                if r.fell_back() {
                    eprintln!("note: served by `{}`", r.served_by);
                }
                (r.outcome, r.attempts)
            })
        } else {
            backend
                .partition(&inst, seed, &budget)
                .map(|o| (o, Vec::new()))
        }
    }));
    let (outcome, attempts) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if verbose {
        for (i, a) in attempts.iter().enumerate() {
            match &a.error {
                Some(e) => eprintln!("attempt {i}: backend={} error: {e}", a.backend),
                None => eprintln!("attempt {i}: backend={} served", a.backend),
            }
        }
    }
    if let Completion::Degraded { phase, reason } = &outcome.completion {
        if reason.contains("memory") {
            eprintln!("warning: memory budget cut the run short in {phase}: {reason}");
        } else {
            eprintln!("warning: budget cut the run short in {phase}: {reason}");
        }
    }
    if !outcome.feasible {
        eprintln!(
            "warning: backend {} did not meet the constraints: {}",
            outcome.backend,
            outcome.report.summary()
        );
    }
    let g = &inst.graph;
    match outcome.cost.model {
        CostModel::Connectivity => {
            let hg = inst.hyper_view();
            let edge_cut = ppn_graph::metrics::edge_cut(g, &outcome.partition);
            println!(
                "backend={} nodes={} nets={} k={k} conn_cost={} cut_nets={} edge_cut_model={} max_resource={} max_local_bandwidth={} => {}",
                outcome.backend,
                hg.num_nodes(),
                hg.num_nets(),
                outcome.cost.objective,
                outcome.cost.cut_nets.unwrap_or(0),
                edge_cut,
                outcome.cost.max_resource,
                outcome.cost.max_local_bandwidth,
                outcome.report.summary()
            );
        }
        CostModel::EdgeCut => {
            println!(
                "backend={} nodes={} edges={} k={k} cut={} max_resource={} max_local_bandwidth={} => {}",
                outcome.backend,
                g.num_nodes(),
                g.num_edges(),
                outcome.cost.objective,
                outcome.cost.max_resource,
                outcome.cost.max_local_bandwidth,
                outcome.report.summary()
            );
        }
    }

    if let Some(path) = arg_value(args, "--dot") {
        let dot = to_dot(
            g,
            &DotOptions {
                partition: Some(outcome.partition.clone()),
                ..DotOptions::default()
            },
        );
        if let Err(e) = std::fs::write(&path, dot) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = arg_value(args, "--out") {
        if let Err(e) = std::fs::write(&path, json::partition_to_json(&outcome.partition)) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if outcome.feasible {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_backends() -> ExitCode {
    for b in backends() {
        println!("{:<6} [{}] {}", b.name(), b.cost_model(), b.description());
    }
    ExitCode::SUCCESS
}

fn cmd_demo(args: &[String]) -> ExitCode {
    let which: usize = match args.first() {
        None => 1,
        Some(v) => match v.parse() {
            Ok(w) => w,
            Err(_) => {
                eprintln!("error: demo takes an experiment number (1|2|3), got `{v}`");
                return ExitCode::from(2);
            }
        },
    };
    let e = match which {
        1 => ppn_gen::paper::experiment1(),
        2 => ppn_gen::paper::experiment2(),
        3 => ppn_gen::paper::experiment3(),
        _ => return usage(),
    };
    print!("{}", render_paper_table(&e, &paper_table(&e)));
    ExitCode::SUCCESS
}

fn cmd_gen(args: &[String]) -> ExitCode {
    let seed = try_flag!(num_flag::<u64>(args, "--seed", "a whole-number seed")).unwrap_or(1);
    if has_flag(args, "--multicast") {
        let stars = try_flag!(positive_flag(args, "--stars", "a positive star count")).unwrap_or(8)
            as usize;
        let fanout =
            try_flag!(positive_flag(args, "--fanout", "a positive fanout")).unwrap_or(4) as usize;
        if fanout < 2 {
            eprintln!("error: --fanout must be at least 2");
            return usage();
        }
        if stars < 2 {
            eprintln!("error: --multicast needs --stars of at least 2 (ring cover)");
            return usage();
        }
        let net = ppn_gen::multicast_network(&ppn_gen::MulticastSpec::ring(stars, fanout, seed));
        println!("{}", serde_json::to_string(&net).unwrap());
        return ExitCode::SUCCESS;
    }
    let nodes = try_flag!(positive_flag(args, "--nodes", "a positive node count")).unwrap_or(12);
    if nodes > u64::from(u32::MAX) {
        eprintln!(
            "error: --nodes takes at most {} nodes (the node id range), got `{nodes}`",
            u32::MAX
        );
        return ExitCode::from(2);
    }
    let edges = try_flag!(num_flag::<u64>(
        args,
        "--edges",
        "a whole-number edge count"
    ))
    .unwrap_or_else(|| nodes.checked_mul(2).expect("2n fits u64 for n <= u32::MAX"));
    // a simple undirected graph on n nodes holds at most n(n-1)/2
    // edges; asking for more would previously be clamped in silence
    let max_edges = nodes
        .checked_mul(nodes - 1)
        .expect("n(n-1) fits u64 for n <= u32::MAX")
        / 2;
    if edges > max_edges {
        eprintln!(
            "error: --edges {edges} exceeds the {max_edges} possible simple edges on {nodes} nodes"
        );
        return ExitCode::from(2);
    }
    let g = ppn_gen::random_graph(&ppn_gen::RandomGraphSpec {
        nodes: nodes as usize,
        edges: edges as usize,
        node_weight: (20, 60),
        edge_weight: (1, 8),
        seed,
    });
    print!("{}", metis::write(&g));
    ExitCode::SUCCESS
}

/// One request of a `gp serve --batch` file.
#[derive(serde::Deserialize)]
struct BatchItemSpec {
    input: String,
    #[serde(default)]
    format: Option<String>,
    k: usize,
    rmax: u64,
    bmax: u64,
}

/// The `gp serve --batch` file: shared chain/budget/seed plus the item
/// list. Item paths resolve relative to the batch file's directory.
#[derive(serde::Deserialize)]
struct BatchFileSpec {
    #[serde(default)]
    chain: Vec<String>,
    #[serde(default)]
    seed: Option<u64>,
    #[serde(default)]
    budget_ms: Option<u64>,
    #[serde(default)]
    memory_mb: Option<u64>,
    items: Vec<BatchItemSpec>,
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let Some(batch_path) = arg_value(args, "--batch") else {
        return usage();
    };
    let trace_out = try_flag!(trace_flags(args));
    let text = match std::fs::read_to_string(&batch_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {batch_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec: BatchFileSpec = match serde_json::from_str(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {batch_path}: bad batch JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    if spec.items.is_empty() {
        eprintln!("error: {batch_path}: batch has no items");
        return ExitCode::FAILURE;
    }
    let seed = try_flag!(num_flag::<u64>(args, "--seed", "a whole-number seed"))
        .or(spec.seed)
        .unwrap_or(0xCA77A);
    let budget = try_flag!(run_budget(spec.budget_ms, spec.memory_mb, "memory_mb"));
    let base_dir = std::path::Path::new(&batch_path)
        .parent()
        .map(|p| p.to_path_buf())
        .unwrap_or_default();
    let mut session = BatchSession::new(budget).with_chain(spec.chain);
    for item in &spec.items {
        let path = {
            let p = std::path::Path::new(&item.input);
            if p.is_absolute() {
                p.to_path_buf()
            } else {
                base_dir.join(p)
            }
        };
        let format = item.format.as_deref().unwrap_or("metis");
        let loaded = match load_instance(&path.to_string_lossy(), format, false) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        // item names use the file name, not the resolved path, so batch
        // output is stable across checkouts
        let name = std::path::Path::new(&item.input)
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| item.input.clone());
        session.push(PartitionInstance::from_graph(
            name,
            loaded.graph,
            item.k,
            Constraints::new(item.rmax, item.bmax),
        ));
    }
    let summary = match try_flag!(traced(trace_out.as_ref(), false, || session.run(seed))) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for item in &summary.items {
        match &item.result {
            Ok(r) => {
                let o = &r.outcome;
                println!(
                    "item={} backend={} cut={} max_resource={} max_local_bandwidth={} => {}",
                    item.name,
                    o.backend,
                    o.cost.objective,
                    o.cost.max_resource,
                    o.cost.max_local_bandwidth,
                    o.report.summary()
                );
            }
            Err(e) => println!("item={} error: {e}", item.name),
        }
    }
    println!(
        "batch: items={} served={} failed={} degraded={}",
        summary.items.len(),
        summary.served,
        summary.failed,
        summary.degraded
    );
    if summary.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_repartition(args: &[String]) -> ExitCode {
    let k = try_flag!(positive_flag(args, "--k", "a positive part count"));
    let rmax = try_flag!(num_flag::<u64>(
        args,
        "--rmax",
        "a whole-number resource limit"
    ));
    let bmax = try_flag!(num_flag::<u64>(
        args,
        "--bmax",
        "a whole-number bandwidth limit"
    ));
    let (Some(input), Some(k), Some(rmax), Some(bmax), Some(prev_path), Some(delta_path)) = (
        arg_value(args, "--input"),
        k,
        rmax,
        bmax,
        arg_value(args, "--prev"),
        arg_value(args, "--delta"),
    ) else {
        return usage();
    };
    let k = k as usize;
    let seed = try_flag!(num_flag::<u64>(args, "--seed", "a whole-number seed")).unwrap_or(0xCA77A);
    let budget = try_flag!(budget_flags(args));
    let trace_out = try_flag!(trace_flags(args));
    let mut opts = RepartitionOptions::default();
    if let Some(lambda) = try_flag!(num_flag::<u32>(
        args,
        "--lambda",
        "a cut weight in permille (0..=1000)"
    )) {
        if lambda > 1000 {
            eprintln!("error: --lambda takes a cut weight in permille (0..=1000), got `{lambda}`");
            return ExitCode::from(2);
        }
        opts.lambda_permille = lambda;
    }
    if let Some(churn) = try_flag!(num_flag::<f64>(
        args,
        "--max-churn",
        "a churn fraction (0..=1)"
    )) {
        if !(0.0..=1.0).contains(&churn) {
            eprintln!("error: --max-churn takes a churn fraction (0..=1), got `{churn}`");
            return ExitCode::from(2);
        }
        opts.max_churn = churn;
    }
    if let Some(chain) = arg_value(args, "--backend") {
        opts.chain = chain
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
    }
    let format = arg_value(args, "--format").unwrap_or_else(|| "metis".into());
    let loaded = match load_instance(&input, &format, false) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let base = PartitionInstance::from_graph(&input, loaded.graph, k, Constraints::new(rmax, bmax));
    let prev = match std::fs::read_to_string(&prev_path)
        .map_err(|e| format!("{prev_path}: {e}"))
        .and_then(|t| {
            json::partition_from_json(&t).map_err(|e| format!("{prev_path}: bad partition: {e}"))
        }) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let delta: GraphDelta = match std::fs::read_to_string(&delta_path)
        .map_err(|e| format!("{delta_path}: {e}"))
        .and_then(|t| {
            serde_json::from_str(&t).map_err(|e| format!("{delta_path}: bad delta JSON: {e}"))
        }) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = try_flag!(traced(trace_out.as_ref(), false, || {
        repartition(&base, &prev, &delta, &opts, seed, &budget)
    }));
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Completion::Degraded { phase, reason } = &r.outcome.completion {
        eprintln!("warning: budget cut the warm start short in {phase}: {reason}");
    }
    let mig = r.outcome.cost.migration.as_ref().expect("always populated");
    println!(
        "mode={} backend={} nodes={} k={k} cut={} migration={}/{} max_resource={} max_local_bandwidth={} => {}",
        if r.warm_start { "warm" } else { "scratch" },
        r.outcome.backend,
        r.instance.num_nodes(),
        r.outcome.cost.objective,
        mig.mass,
        mig.total,
        r.outcome.cost.max_resource,
        r.outcome.cost.max_local_bandwidth,
        r.outcome.report.summary()
    );
    if let Some(path) = arg_value(args, "--out") {
        if let Err(e) = std::fs::write(&path, json::partition_to_json(&r.outcome.partition)) {
            eprintln!("error writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if r.outcome.feasible {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("partition") => cmd_partition(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("repartition") => cmd_repartition(&args[1..]),
        Some("backends") => cmd_backends(),
        Some("demo") => cmd_demo(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        _ => usage(),
    }
}
