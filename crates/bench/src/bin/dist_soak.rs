//! Dist-Soak: run the distributed coherence fleet for every directory
//! scheme under the adversarial fault plan, sweeping client arrival
//! schedules, and serialize the results as a `BENCH_dist_<label>.json`
//! document (schema `twobit-bench/v1`, kind `dist_soak`; documented in
//! EXPERIMENTS.md).
//!
//! ```text
//! dist_soak [--label NAME] [--out PATH] [--seed N] [--refs N]
//!           [--caches N] [--modules N] [--mode inproc|tcp]
//!           [--schedules CSV] [--quick]
//! ```
//!
//! Every run carries the same seeded plan: base link delay plus jitter
//! (reordering), retransmitted drops on the inter-node links, a lossy
//! client edge recovered by idempotent retry, and one partition cutting
//! cache 0 off mid-run before healing. The schedule sweep (default:
//! closed loop plus fixed-rate and bursty open-loop arrivals) measures
//! client-perceived latency per request class — the queueing effects a
//! closed loop structurally understates. The linearizability checker
//! must accept every history or the binary exits nonzero — a soak that
//! merely "finishes" proves nothing.

use std::path::PathBuf;
use std::process::ExitCode;

use twobit_dist::driver::{run, ArrivalSchedule, Mode, RunConfig};
use twobit_dist::faults::FaultConfig;
use twobit_dist::wire::Actor;
use twobit_obs::json::{num_u64, obj, Json};

const ALL_SCHEMES: [&str; 6] = [
    "two-bit",
    "two-bit+tlb",
    "full-map",
    "full-map+local",
    "classical-wt",
    "static-sw",
];

/// Default sweep: the closed loop (PR 8 behavior) plus three fixed
/// open-loop rates and one bursty schedule — ≥ 4 distinct request rates.
const DEFAULT_SCHEDULES: &str = "closed,fixed:60,fixed:25,fixed:10,burst:40:8:6";

struct Args {
    label: String,
    out: Option<String>,
    seed: u64,
    refs: usize,
    caches: usize,
    modules: usize,
    mode: String,
    schedules: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: dist_soak [--label NAME] [--out PATH] [--seed N] [--refs N] \
         [--caches N] [--modules N] [--mode inproc|tcp] \
         [--schedules CSV] [--quick]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        label: "local".to_string(),
        out: None,
        seed: 0xD157,
        refs: 400,
        caches: 4,
        modules: 2,
        mode: "inproc".to_string(),
        schedules: DEFAULT_SCHEDULES.to_string(),
    };
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
            "--label" => a.label = next_value("--label", &mut args),
            "--out" => a.out = Some(next_value("--out", &mut args)),
            "--seed" => a.seed = numeric("--seed"),
            "--refs" => a.refs = numeric("--refs") as usize,
            "--caches" => a.caches = numeric("--caches") as usize,
            "--modules" => a.modules = numeric("--modules") as usize,
            "--mode" => a.mode = next_value("--mode", &mut args),
            "--schedules" => a.schedules = next_value("--schedules", &mut args),
            "--quick" => a.refs = 100,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    a
}

fn node_bin() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = me
        .parent()
        .ok_or("dist_soak binary has no parent directory")?
        .join("dist_node");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("node binary not found at {}", bin.display()))
    }
}

fn main() -> ExitCode {
    let a = parse_args();
    let mode = match a.mode.as_str() {
        "inproc" => Mode::InProc,
        "tcp" => match node_bin() {
            Ok(bin) => Mode::Tcp { node_bin: bin },
            Err(e) => {
                eprintln!("dist_soak: {e} (build twobit-dist first)");
                return ExitCode::FAILURE;
            }
        },
        other => {
            eprintln!("dist_soak: unknown mode {other:?}");
            usage()
        }
    };
    let schedules: Vec<ArrivalSchedule> = match a
        .schedules
        .split(',')
        .filter(|s| !s.is_empty())
        .map(ArrivalSchedule::parse)
        .collect()
    {
        Ok(list) => list,
        Err(e) => {
            eprintln!("dist_soak: {e}");
            usage()
        }
    };

    // Partition window scaled so it bites mid-run regardless of --refs.
    let start = (a.refs as u64) * 3 / 2;
    let heal = start * 2;

    let mut runs: Vec<Json> = Vec::new();
    let mut failed = false;
    for scheme in ALL_SCHEMES {
        for schedule in &schedules {
            let mut cfg = RunConfig::quick(scheme, a.seed);
            cfg.caches = a.caches;
            cfg.modules = a.modules;
            cfg.refs_per_client = a.refs;
            cfg.mode = mode.clone();
            cfg.schedule = schedule.clone();
            cfg.faults = FaultConfig::adversarial(vec![Actor::Cache(0)], start, heal);
            match run(&cfg) {
                Ok(report) => {
                    let wall_s = report.wall_ns.max(1) as f64 / 1e9;
                    let mut doc = report.to_json();
                    if let Json::Obj(map) = &mut doc {
                        // Per-node (client lane) throughput, the headline
                        // figure EXPERIMENTS.md tabulates.
                        map.insert(
                            "per_client_refs_per_sec".to_string(),
                            Json::Arr(
                                report
                                    .per_client_refs
                                    .iter()
                                    .map(|&n| Json::Num(n as f64 / wall_s))
                                    .collect(),
                            ),
                        );
                    }
                    let lat: Vec<String> = report
                        .latency
                        .iter()
                        .filter(|(_, h)| h.count() > 0)
                        .map(|(class, h)| {
                            format!(
                                "{class} p50={} p99={}",
                                h.percentile(0.50),
                                h.percentile(0.99)
                            )
                        })
                        .collect();
                    println!(
                        "{scheme} [{}]: {} refs linearizable ({} retries, {} retransmits, \
                         heal lag {:?}, vt {}, {:.2} ms, {:.0} refs/s; {})",
                        report.schedule,
                        report.total_refs,
                        report.retries,
                        report.retransmits,
                        report.heal_lag,
                        report.virtual_end,
                        wall_s * 1e3,
                        report.total_refs as f64 / wall_s,
                        lat.join(", "),
                    );
                    runs.push(doc);
                }
                Err(e) => {
                    eprintln!("{scheme} [{}]: FAILED: {e}", schedule.label());
                    failed = true;
                }
            }
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }

    let doc = obj([
        ("schema", Json::Str("twobit-bench/v1".into())),
        ("kind", Json::Str("dist_soak".into())),
        ("seed", num_u64(a.seed)),
        ("refs_per_client", num_u64(a.refs as u64)),
        ("caches", num_u64(a.caches as u64)),
        ("modules", num_u64(a.modules as u64)),
        ("mode", Json::Str(a.mode.clone())),
        (
            "schedules",
            Json::Arr(schedules.iter().map(|s| Json::Str(s.label())).collect()),
        ),
        ("partition_start", num_u64(start)),
        ("partition_heal", num_u64(heal)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = a
        .out
        .unwrap_or_else(|| format!("BENCH_dist_{}.json", a.label));
    if let Err(e) = std::fs::write(&path, doc.to_json_pretty()) {
        eprintln!("error: cannot write {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {path}");
    ExitCode::SUCCESS
}
