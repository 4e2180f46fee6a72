//! Bench-Throughput: what every directory scheme simulates on four
//! representative workloads — events, cycles, tag probes and per-class
//! latency — serialized as a `BENCH_<label>.json` document (schema
//! `twobit-bench/v2`, documented in EXPERIMENTS.md). The document holds
//! no host timing: `perf_compare` checks a fresh one against the
//! checked-in baseline for equality.
//!
//! ```text
//! bench_throughput [--label NAME] [--out PATH] [--refs N] [--caches N]
//!                  [--seed N] [--quick]
//! ```
//!
//! - `--label` names the output `BENCH_<label>.json` (default `local`);
//!   `--out` overrides the path entirely.
//! - `--quick` shrinks the sweep for CI smoke runs (500 refs/cpu).

use std::process::ExitCode;

use twobit_bench::throughput::{run_suite, BenchConfig};

struct Args {
    cfg: BenchConfig,
    label: String,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bench_throughput [--label NAME] [--out PATH] [--refs N] \
         [--caches N] [--seed N] [--quick]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut cfg = BenchConfig::default();
    let mut label = "local".to_string();
    let mut out = None;
    let mut args = std::env::args().skip(1);
    let next_value = |flag: &str, args: &mut dyn Iterator<Item = String>| -> String {
        args.next().unwrap_or_else(|| {
            eprintln!("{flag} requires a value");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        let mut numeric = |flag: &str| -> u64 {
            let raw = next_value(flag, &mut args);
            raw.parse().unwrap_or_else(|_| {
                eprintln!("{flag} wants a number, got {raw:?}");
                usage()
            })
        };
        match arg.as_str() {
            "--label" => label = next_value("--label", &mut args),
            "--out" => out = Some(next_value("--out", &mut args)),
            "--refs" => cfg.refs_per_cpu = numeric("--refs"),
            "--caches" => cfg.caches = numeric("--caches") as usize,
            "--seed" => cfg.seed = numeric("--seed"),
            "--quick" => cfg.refs_per_cpu = 500,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    Args { cfg, label, out }
}

fn main() -> ExitCode {
    let args = parse_args();
    let doc = run_suite(&args.cfg);
    print!("{}", doc.render());

    let path = args
        .out
        .unwrap_or_else(|| format!("BENCH_{}.json", args.label));
    if let Err(e) = std::fs::write(&path, doc.to_json()) {
        eprintln!("error: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {path}");
    ExitCode::SUCCESS
}
