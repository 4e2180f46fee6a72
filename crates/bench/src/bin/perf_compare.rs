//! Perf-Compare: the CI gate. Diffs two `BENCH_*.json` documents written
//! by `bench_throughput` and exits nonzero unless the candidate simulated
//! exactly the baseline's work.
//!
//! ```text
//! perf_compare BASELINE.json CANDIDATE.json [--verbose]
//! ```
//!
//! Exit 0: every common case's events, cycles, tag probes and latency
//! classes are equal. Exit 1: a quantity drifted, a baseline case is
//! missing, or the two documents were produced with different
//! `caches` / `refs_per_cpu` / `seed`. Exit 2: bad arguments or an
//! unreadable document. `--verbose` also lists the unchanged quantities.

use std::process::ExitCode;

use twobit_bench::compare::compare;
use twobit_bench::throughput::BenchDoc;

fn usage() -> ! {
    eprintln!("usage: perf_compare BASELINE.json CANDIDATE.json [--verbose]");
    std::process::exit(2);
}

fn load(path: &str) -> BenchDoc {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(2);
    });
    BenchDoc::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() -> ExitCode {
    let mut verbose = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--verbose" => verbose = true,
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
            _ => paths.push(arg),
        }
    }
    let [base_path, new_path] = paths.as_slice() else {
        usage()
    };

    match compare(&load(base_path), &load(new_path)) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Ok(cmp) => {
            print!("{}", cmp.render(verbose));
            if cmp.has_regressions() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
    }
}
