//! Fleet driver CLI: spawn the six-scheme coherence service over real
//! processes, inject faults, and verify the recorded history.
//!
//! ```text
//! dist_driver --scheme two-bit --seed 7 --refs 200 --mode process \
//!             --partition 300:700 --trace-dir target/dist-trace
//! ```
//!
//! `--scheme all` runs every directory scheme in sequence. The exit code
//! is nonzero if any run fails its linearizability check. `--schedule`
//! selects the client arrival model (`closed`, `fixed:I[:J]`, or
//! `burst:I:E:S`) — open-loop schedules keep issuing at the configured
//! rate regardless of completions, so client-perceived latency includes
//! queueing.

use std::path::PathBuf;
use std::process::ExitCode;

use twobit_dist::driver::{run, ArrivalSchedule, Mode, RunConfig};
use twobit_dist::faults::{Crash, FaultConfig, Partition};
use twobit_dist::wire::Actor;

const ALL_SCHEMES: [&str; 6] = [
    "two-bit",
    "two-bit+tlb",
    "full-map",
    "full-map+local",
    "classical-wt",
    "static-sw",
];

struct Cli {
    schemes: Vec<String>,
    cfg: RunConfig,
    json: bool,
}

fn node_bin() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = me
        .parent()
        .ok_or("driver binary has no parent directory")?
        .join("dist_node");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("node binary not found at {}", bin.display()))
    }
}

fn parse_args() -> Result<Cli, String> {
    let mut schemes = vec!["two-bit".to_string()];
    let mut cfg = RunConfig::quick("two-bit", 1);
    let mut json = false;
    let mut mode = "inproc".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--scheme" => {
                let v = val("--scheme")?;
                schemes = if v == "all" {
                    ALL_SCHEMES.iter().map(|s| s.to_string()).collect()
                } else {
                    vec![v]
                };
            }
            "--seed" => cfg.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--refs" => {
                cfg.refs_per_client = val("--refs")?.parse().map_err(|e| format!("--refs: {e}"))?;
            }
            "--caches" => {
                cfg.caches = val("--caches")?
                    .parse()
                    .map_err(|e| format!("--caches: {e}"))?;
            }
            "--modules" => {
                cfg.modules = val("--modules")?
                    .parse()
                    .map_err(|e| format!("--modules: {e}"))?;
            }
            "--mode" => mode = val("--mode")?,
            "--schedule" => cfg.schedule = ArrivalSchedule::parse(&val("--schedule")?)?,
            "--trace-dir" => cfg.trace_dir = Some(PathBuf::from(val("--trace-dir")?)),
            "--faults" => {
                cfg.faults = match val("--faults")?.as_str() {
                    "none" => FaultConfig::none(),
                    "adversarial" => FaultConfig::adversarial(vec![Actor::Cache(0)], 300, 700),
                    other => return Err(format!("unknown fault plan `{other}`")),
                };
            }
            "--partition" => {
                let v = val("--partition")?;
                let (start, heal) = v.split_once(':').ok_or("--partition wants START:HEAL")?;
                cfg.faults.partitions.push(Partition {
                    start: start.parse().map_err(|e| format!("--partition: {e}"))?,
                    heal: heal.parse().map_err(|e| format!("--partition: {e}"))?,
                    group: vec![Actor::Cache(0)],
                });
            }
            "--crash" => {
                let v = val("--crash")?;
                let parts: Vec<&str> = v.split(':').collect();
                if parts.len() != 3 {
                    return Err("--crash wants AT:NODE:DOWN_FOR (e.g. 400:C1:100)".into());
                }
                cfg.faults.crashes.push(Crash {
                    at: parts[0].parse().map_err(|e| format!("--crash: {e}"))?,
                    node: Actor::parse(parts[1])?,
                    down_for: parts[2].parse().map_err(|e| format!("--crash: {e}"))?,
                });
                if cfg.faults.checkpoint_every == 0 {
                    cfg.faults.checkpoint_every = 200;
                }
            }
            "--checkpoint-every" => {
                cfg.faults.checkpoint_every = val("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?;
            }
            "--json" => json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cfg.mode = match mode.as_str() {
        "inproc" => Mode::InProc,
        "process" => Mode::Process {
            node_bin: node_bin()?,
        },
        "tcp" => Mode::Tcp {
            node_bin: node_bin()?,
        },
        other => return Err(format!("unknown mode `{other}`")),
    };
    Ok(Cli { schemes, cfg, json })
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dist_driver: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = false;
    for scheme in &cli.schemes {
        let mut cfg = cli.cfg.clone();
        cfg.scheme = scheme.clone();
        if let Some(dir) = &cli.cfg.trace_dir {
            cfg.trace_dir = Some(dir.join(scheme));
        }
        match run(&cfg) {
            Ok(report) => {
                if cli.json {
                    println!("{}", report.to_json().to_json());
                } else {
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
                         {} drops, {} recoveries, vt {}, {:.2} ms; {})",
                        report.schedule,
                        report.total_refs,
                        report.retries,
                        report.retransmits,
                        report.client_drops,
                        report.recoveries,
                        report.virtual_end,
                        report.wall_ns as f64 / 1e6,
                        lat.join(", "),
                    );
                }
            }
            Err(e) => {
                eprintln!("{scheme}: FAILED: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
