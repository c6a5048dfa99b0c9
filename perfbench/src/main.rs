//! The partitioner benchmark.
//!
//! ```text
//! perfbench --workload <cold-1m|sweep|drift> --seed <n> --seconds <n> --trace <0|1>
//! perfbench --selftest
//! perfbench --threads-sweep [--seed <n>] [--seconds <n>]
//! ```
//!
//! A run prints a header line describing the machine, the metric table
//! (name, value, unit, direction) and, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. It exits 1 when
//! any output check failed. See README.md for the workloads and metrics.
//!
//! `--cold-sample` is how an untraced `cold-1m` run draws each sample:
//! it runs itself again with that flag, and the fresh process makes one
//! cold call and prints it as one JSON line.

mod instances;
mod layers;
mod metrics;
mod selftest;
mod workloads;

use instances::Scale;
use std::process::ExitCode;
use workloads::RunSpec;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selftest: bool,
    threads_sweep: bool,
    cold_sample: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        selftest: false,
        threads_sweep: false,
        cold_sample: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--selftest" => args.selftest = true,
            "--threads-sweep" => args.threads_sweep = true,
            "--cold-sample" => args.cold_sample = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Keep the engines' thread pool within the machine: the pool reads
/// `RAYON_NUM_THREADS`, so a larger value is clamped to `nproc`.
fn clamp_threads() {
    let nproc = nproc();
    let asked = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok());
    if asked.is_some_and(|t| t > nproc) {
        std::env::set_var("RAYON_NUM_THREADS", nproc.to_string());
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit being measured, read from `.git` when the run happens
/// inside a clone, else `unknown`.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// One line describing what ran where.
fn header(workload: &str, args: &Args) -> String {
    format!(
        "# workload={workload} seed={} seconds={} trace={} nproc={} threads={} commit={} cpu=\"{}\"",
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc(),
        rayon::current_num_threads(),
        commit(),
        cpu_model()
    )
}

fn main() -> ExitCode {
    clamp_threads();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selftest {
        return if selftest::run() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if args.threads_sweep {
        return threads_sweep(&args);
    }
    if args.cold_sample {
        println!(
            "{}",
            workloads::cold_sample(Scale::Full, args.seed).to_line()
        );
        return ExitCode::SUCCESS;
    }
    let Some(workload) = args.workload.as_deref() else {
        eprintln!(
            "perfbench: --workload is required (one of {:?})",
            workloads::WORKLOADS
        );
        return ExitCode::from(2);
    };
    let spec = RunSpec {
        scale: Scale::Full,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let Some(rep) = workloads::run(workload, &spec) else {
        eprintln!(
            "perfbench: unknown workload {workload} (one of {:?})",
            workloads::WORKLOADS
        );
        return ExitCode::from(2);
    };
    println!("{}", header(workload, &args));
    for note in &rep.notes {
        println!("# {note}");
    }
    print!("{}", rep.table());
    for e in rep.errors.iter().take(10) {
        eprintln!("check failed: {e}");
    }
    println!("{}", rep.json());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Diagnostic, not part of the gated runs: `cold-1m` once per thread
/// count from 1 to `nproc`, each in a fresh process, printing the
/// single-threaded baseline and the speed-up of each count over it.
fn threads_sweep(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut base = None;
    println!("threads  request_p50_s  speedup");
    for threads in 1..=nproc() {
        let out = std::process::Command::new(&exe)
            .args(["--workload", "cold-1m", "--trace", "0"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .env("RAYON_NUM_THREADS", threads.to_string())
            .output();
        let out = match out {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                eprintln!("perfbench: {threads}-thread run failed ({})", o.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let p50 = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str::<serde_json::Value>(l).ok())
            .and_then(|v| {
                v.get("metrics")?
                    .get("request_p50_s")?
                    .get("value")?
                    .as_f64()
            });
        let Some(p50) = p50 else {
            eprintln!("perfbench: no request_p50_s in the {threads}-thread run");
            return ExitCode::FAILURE;
        };
        let base = *base.get_or_insert(p50);
        println!("{threads:>7}  {p50:>13.4}  {:>7.2}", base / p50);
    }
    ExitCode::SUCCESS
}
