//! The twobit benchmark: seven workloads over the simulator and the
//! distributed service, driven only through the program's public
//! functions. See `README.md` beside this package for the metrics.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!               [--out FILE] [--out-dir DIR] [--node-bin PATH]
//! benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! `run` with a workload runs it in this process and prints, last, the
//! one-line JSON result. Without one it runs every workload, each in a
//! process of its own so that `peak_rss_mb` is that workload's alone.

mod compare;
mod dist;
mod layers;
mod outcome;
mod sim;
mod spans;
mod spec;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use outcome::Outcome;
use spans::SpanLog;

/// Timed repetitions every untraced run makes at least.
pub const MIN_REPS: usize = 7;
/// Times set-up is repeated; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// The warm-up repetition that ends each set-up is this fraction of a
/// timed one, so that work moved into set-up is not hidden behind it.
pub const WARMUP_DIVISOR: u64 = 8;

/// This process's peak resident set (`VmHWM`), in MB.
///
/// # Errors
///
/// `/proc/self/status` unreadable or without the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    node_bin: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 42,
        seconds: 14.0,
        trace: false,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
        node_bin: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds >= 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be between 0 and 60".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => parsed.out = Some(value()?.into()),
            "--out-dir" => parsed.out_dir = value()?.into(),
            "--node-bin" => parsed.node_bin = Some(value()?.into()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.trace != cfg!(feature = "trace") {
        return Err(if parsed.trace {
            "--trace 1 needs the build with `--features trace`".into()
        } else {
            "end-to-end metrics come from the untraced build: this one has `--features trace`"
                .into()
        });
    }
    Ok(parsed)
}

/// Runs one workload in this process.
fn run_workload(name: &str, args: &RunArgs) -> Result<Outcome, String> {
    let (sim, dist) = (sim::spec(name), dist::spec(name));
    let Some(name) = sim.map(|s| s.name).or(dist.map(|d| d.name)) else {
        return Err(format!(
            "unknown workload `{name}`: one of {:?}",
            spec::WORKLOADS
        ));
    };
    let mut log = SpanLog::new(name, args.trace);
    let whole = log.begin("workload");
    let outcome = match (sim, dist) {
        (Some(spec), _) if args.trace => sim::run_traced(&spec, args.seed, &mut log),
        (Some(spec), _) => sim::run_untraced(&spec, args.seed, args.seconds),
        (None, Some(spec)) => {
            let node_bin = if spec.needs_node_bin() {
                let cpu = dist::pin_to_one_cpu()?;
                println!("{name:<22} driver and node processes confined to CPU {cpu}");
                dist::require_node_bin(args.node_bin.clone())?
            } else {
                PathBuf::new()
            };
            if args.trace {
                dist::run_traced(&spec, args.seed, &node_bin, &mut log)
            } else {
                dist::run_untraced(&spec, args.seed, args.seconds, &node_bin)
            }
        }
        (None, None) => unreachable!("a name came from one of the two"),
    }?;
    log.end(whole);
    if args.trace {
        let path = args.out_dir.join(format!("trace-{name}.jsonl"));
        log.write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "{name:<22} benchmark spans (self time), written to {}:",
            path.display()
        );
        for (span, count, total_ns, self_ns) in log.self_times() {
            println!(
                "{name:<22}   {span:<36} x{count:<3} total {:>10.3} ms  self {:>10.3} ms",
                total_ns as f64 / 1e6,
                self_ns as f64 / 1e6
            );
        }
    }
    Ok(outcome)
}

fn write_document(
    path: &Path,
    args: &RunArgs,
    workloads: Vec<(String, twobit_obs::json::Json)>,
) -> Result<(), String> {
    let doc = outcome::document(args.seed, args.seconds, args.trace, workloads);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_json_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `run --workload NAME`: exit code 0 only when every operation was
/// correct; the result line is the last thing printed.
fn run_one(name: &str, args: &RunArgs) -> Result<ExitCode, String> {
    let outcome = run_workload(name, args)?;
    outcome.print();
    if let Some(path) = &args.out {
        write_document(path, args, vec![(name.to_string(), outcome.detail())])?;
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::from(outcome.exit_code()))
}

/// `run` without a workload: every workload in a child process of its
/// own, one after another, their documents merged into `--out`.
fn run_all(args: &RunArgs) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut merged = Vec::new();
    let mut failed = Vec::new();
    for name in spec::WORKLOADS {
        let part = args.out_dir.join(format!("result-{name}.json"));
        let mut child = Command::new(&exe);
        child
            .args(["run", "--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&part)
            .arg("--out-dir")
            .arg(&args.out_dir);
        if let Some(node_bin) = &args.node_bin {
            child.arg("--node-bin").arg(node_bin);
        }
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        if !status.success() {
            failed.push(name);
        }
        let Ok(text) = std::fs::read_to_string(&part) else {
            continue; // the child ended before it had a result
        };
        let doc = twobit_obs::json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
        if let Some(result) = doc.get("workloads").and_then(|w| w.get(name)) {
            merged.push((name.to_string(), result.clone()));
        }
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| args.out_dir.join("results.json"));
    write_document(&out, args, merged)?;
    println!("results written to {}", out.display());
    if failed.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("benchmark: failed workloads: {failed:?}");
        Ok(ExitCode::FAILURE)
    }
}

fn compare_command(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut benchmark_json = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            benchmark_json = it.next().ok_or("--spec needs a value")?.into();
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare takes two result documents".into());
    };
    Ok(if compare::compare(a, b, &benchmark_json)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run_args(rest).and_then(|a| match &a.workload {
            Some(name) => run_one(name, &a),
            None => run_all(&a),
        }),
        Some((cmd, rest)) if cmd == "compare" => compare_command(rest),
        _ => Err(
            "usage: benchmark run [--workload NAME] [--seed N] [--seconds S] \
                  [--trace 0|1] [--out FILE] [--out-dir DIR] [--node-bin PATH]\n       \
                  benchmark compare A.json B.json [--spec BENCHMARK.json]"
                .into(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
