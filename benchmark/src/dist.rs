//! The three distributed-service workloads: `twobit_dist::driver::run`
//! on the four-cache, two-module `RunConfig::quick` fleet, scheme
//! `two-bit`.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::time::Instant;

use twobit_dist::driver::{run, ArrivalSchedule, Mode, RunConfig, RunReport};
use twobit_dist::faults::{Crash, FaultConfig};
use twobit_dist::history::{check_history, OpRecord};
use twobit_dist::wire::Actor;

use crate::layers;
use crate::outcome::Outcome;
use crate::spans::SpanLog;
use crate::spec;
use crate::stats::{highest_percentile, nearest_rank, Measured, P50, P99};
use crate::{MIN_REPS, SETUPS, WARMUP_DIVISOR};

/// The livelock guard, raised from `RunConfig::quick`'s so the longest
/// run fits.
const MAX_EVENTS: u64 = 100_000_000;
/// The open loop's arrival intervals (virtual time between a client's
/// arrivals), slowest first, each with the metric its p99 goes to.
const OPEN_INTERVALS: [(u64, &str); 4] = [
    (240, "dist.p99_vt.fixed240"),
    (120, "dist.p99_vt.fixed120"),
    (90, "dist.p99_vt.fixed90"),
    (60, "dist.p99_vt.fixed60"),
];
/// The interval whose latency the open-loop workload reports.
const REPORTED_INTERVAL: u64 = 90;
/// A rate meets the limit when its p99 latency is at most this.
const LATENCY_LIMIT_VT: u64 = 2_000;
/// How long the open loop's partition and crashes last.
const PARTITION_VT: u64 = 1_500;
const DOWN_VT: u64 = 400;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    InProc,
    OpenLoopFaults,
    Tcp,
}

/// One distributed workload.
#[derive(Debug, Clone, Copy)]
pub struct DistSpec {
    pub name: &'static str,
    kind: Kind,
    /// References each of the four clients issues in one run.
    pub refs_per_client: usize,
}

/// The distributed workload called `name`.
pub fn spec(name: &str) -> Option<DistSpec> {
    let (kind, refs_per_client) = match name {
        // Long enough that the quadratic history check shows.
        "dist_inproc" => (Kind::InProc, 15_000),
        // Per arrival rate; four rates make one repetition.
        "dist_openloop_faults" => (Kind::OpenLoopFaults, 2_000),
        "dist_tcp" => (Kind::Tcp, 1_500),
        _ => return None,
    };
    let name = spec::WORKLOADS.iter().find(|w| **w == name)?;
    Some(DistSpec {
        name,
        kind,
        refs_per_client,
    })
}

impl DistSpec {
    pub fn needs_node_bin(&self) -> bool {
        self.kind == Kind::Tcp
    }

    fn base(&self, seed: u64, refs_per_client: usize) -> RunConfig {
        let mut cfg = RunConfig::quick("two-bit", seed);
        cfg.refs_per_client = refs_per_client;
        cfg.max_events = MAX_EVENTS;
        cfg
    }

    /// The runs that make one repetition: one, or one per arrival rate.
    fn configs(&self, seed: u64, refs_per_client: usize, node_bin: &Path) -> Vec<RunConfig> {
        let mut base = self.base(seed, refs_per_client);
        match self.kind {
            Kind::InProc => vec![base],
            Kind::Tcp => {
                base.mode = Mode::Tcp {
                    node_bin: node_bin.to_path_buf(),
                };
                vec![base]
            }
            Kind::OpenLoopFaults => OPEN_INTERVALS
                .iter()
                .map(|&(interval, _)| {
                    let mut cfg = base.clone();
                    cfg.schedule = ArrivalSchedule::Fixed {
                        interval,
                        jitter: 0,
                    };
                    cfg.faults = fault_plan(interval * refs_per_client as u64);
                    cfg
                })
                .collect(),
        }
    }
}

/// The adversarial plan (jitter, retransmitted drops, a lossy client
/// edge) with cache 0 cut off mid-run, one cache crash before it and one
/// module crash after it, placed by the run's nominal length `span`.
fn fault_plan(span: u64) -> FaultConfig {
    let cut = span * 45 / 100;
    let mut faults = FaultConfig::adversarial(vec![Actor::Cache(0)], cut, cut + PARTITION_VT);
    faults.checkpoint_every = 2_000;
    faults.crashes = vec![
        Crash {
            at: span / 4,
            node: Actor::Cache(1),
            down_for: DOWN_VT,
        },
        Crash {
            at: span * 7 / 10,
            node: Actor::Module(0),
            down_for: DOWN_VT,
        },
    ];
    faults
}

/// Client-perceived latencies (`arrived → completed`), ascending.
fn latencies(ops: &[OpRecord]) -> Vec<u64> {
    let mut v: Vec<u64> = ops.iter().map(|o| o.completed - o.arrived).collect();
    v.sort_unstable();
    v
}

/// Operations of a history that count as failed when `requested` were
/// asked for: the ones missing, and every op of a block whose ops admit
/// no linearization.
pub fn failed_ops(ops: &[OpRecord], requested: usize) -> (u64, Vec<String>) {
    let mut failed = requested.saturating_sub(ops.len()) as u64;
    let mut notes = Vec::new();
    if failed > 0 {
        notes.push(format!(
            "{failed} of {requested} references never completed"
        ));
    }
    let mut per_block: BTreeMap<u64, Vec<OpRecord>> = BTreeMap::new();
    for op in ops {
        per_block.entry(op.block).or_default().push(op.clone());
    }
    for (block, block_ops) in per_block {
        if let Err(e) = check_history(&block_ops) {
            failed += block_ops.len() as u64;
            notes.push(format!("block {block}: {e}"));
        }
    }
    (failed, notes)
}

/// What must repeat exactly from one repetition to the next.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Signature {
    refs: usize,
    virtual_end: u64,
    deliveries: u64,
    /// Over every field of every `OpRecord`, so latency percentiles too.
    history: u64,
    timeline: u64,
}

impl Signature {
    fn of(report: &RunReport) -> Self {
        let mut history = DefaultHasher::new();
        for o in &report.ops {
            (o.client, o.txn, o.block, o.kind.is_write()).hash(&mut history);
            (o.arrived, o.invoked, o.completed, o.version).hash(&mut history);
            (o.was_hit, o.retries).hash(&mut history);
        }
        let mut timeline = DefaultHasher::new();
        report.timeline.hash(&mut timeline);
        Signature {
            refs: report.total_refs,
            virtual_end: report.virtual_end,
            deliveries: report.deliveries,
            history: history.finish(),
            timeline: timeline.finish(),
        }
    }
}

/// One finished run with its host time.
struct Timed {
    report: RunReport,
    wall_s: f64,
}

fn run_timed(cfg: &RunConfig, log: &mut SpanLog) -> Result<Timed, String> {
    let (report, wall_s) = log.time("dist.driver::run", || run(cfg));
    Ok(Timed {
        report: report?,
        wall_s,
    })
}

/// A one-reference run over TCP: the fleet's start and shutdown.
fn spawn_once(
    spec: &DistSpec,
    seed: u64,
    node_bin: &Path,
    log: &mut SpanLog,
) -> Result<f64, String> {
    let cfg = &spec.configs(seed, 1, node_bin)[0];
    let id = log.begin("dist.fleet_spawn_and_shutdown");
    let timed = run_timed(cfg, log);
    log.end(id);
    Ok(timed?.wall_s)
}

/// The untraced run: set-up timed [`SETUPS`] times, then at least
/// [`MIN_REPS`] timed repetitions filling `seconds`.
///
/// # Errors
///
/// Set-up that cannot start or run the fleet at all.
pub fn run_untraced(
    spec: &DistSpec,
    seed: u64,
    seconds: f64,
    node_bin: &Path,
) -> Result<Outcome, String> {
    let mut log = SpanLog::new(spec.name, false);
    let mut out = Outcome::new(spec.name);

    let mut setup = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let start = Instant::now();
        if spec.kind == Kind::Tcp {
            spawn_once(spec, seed, node_bin, &mut log)?;
        }
        let warm = spec.refs_per_client / WARMUP_DIVISOR as usize;
        for cfg in spec.configs(seed, warm, node_bin) {
            run_timed(&cfg, &mut log)?;
        }
        setup.push(start.elapsed().as_secs_f64());
    }

    let configs = spec.configs(seed, spec.refs_per_client, node_bin);
    // Hosting must not show: the TCP fleet's merged timeline is the
    // in-process one, line for line.
    let reference_timeline = match spec.kind {
        Kind::Tcp => Some(run(&spec.base(seed, spec.refs_per_client))?.timeline),
        _ => None,
    };
    let per_run = spec.refs_per_client * configs[0].caches;
    let mut first: Option<Vec<Signature>> = None;
    let mut totals = (0u64, 0u64, 0u64); // virtual time, deliveries, refs
    let mut rates = Vec::new();
    let timed = Instant::now();
    while rates.len() < MIN_REPS || timed.elapsed().as_secs_f64() < seconds {
        let mut signatures = Vec::with_capacity(configs.len());
        let (mut refs, mut wall_s) = (0usize, 0.0);
        for cfg in &configs {
            out.attempted += per_run as u64;
            match run_timed(cfg, &mut log) {
                Err(e) => out.fail(per_run as u64, e),
                Ok(Timed { report, wall_s: w }) => {
                    refs += report.total_refs;
                    wall_s += w;
                    if first.is_none() {
                        let (failed, notes) = failed_ops(&report.ops, per_run);
                        out.failed += failed;
                        out.notes.extend(notes);
                        totals.0 += report.virtual_end;
                        totals.1 += report.deliveries;
                        totals.2 += report.total_refs as u64;
                    }
                    if reference_timeline
                        .as_ref()
                        .is_some_and(|t| *t != report.timeline)
                    {
                        out.fail(
                            per_run as u64,
                            "TCP timeline differs from the in-process one",
                        );
                    }
                    signatures.push(Signature::of(&report));
                }
            }
        }
        rates.push(if wall_s > 0.0 {
            refs as f64 / wall_s
        } else {
            0.0
        });
        match &first {
            None => first = Some(signatures),
            Some(expected) if *expected != signatures => out.fail(
                (per_run * configs.len()) as u64,
                "repetition differs from the first in refs, virtual end, deliveries, \
                 history (so latency) or timeline",
            ),
            Some(_) => {}
        }
    }

    let n = rates.len();
    out.put("setup_s", Measured::of(&setup));
    out.put("refs_per_s", Measured::of(&rates));
    out.put("peak_rss_mb", Measured::exact(crate::peak_rss_mb()?, 1));
    if totals.2 > 0 {
        // The fleet's simulated clock: virtual time each client spends
        // per reference, and envelopes delivered per reference.
        let per_client = totals.2 as f64 / configs[0].caches as f64;
        out.put(
            "sim_cycles_per_ref",
            Measured::exact(totals.0 as f64 / per_client, n),
        );
        out.put(
            "cmds_per_ref",
            Measured::exact(totals.1 as f64 / totals.2 as f64, n),
        );
    }
    Ok(out)
}

/// Virtual time from `crash` until its victim's client next completes a
/// reference (0 when the victim is not a cache or never completes again).
fn crash_gap(ops: &[OpRecord], crash: &Crash) -> u64 {
    let Actor::Cache(k) = crash.node else {
        return 0;
    };
    ops.iter()
        .filter(|o| o.client == k && o.completed >= crash.at)
        .map(|o| o.completed - crash.at)
        .min()
        .unwrap_or(0)
}

/// The traced run: one repetition under the benchmark's spans, the
/// history check timed again on its own, and — for `dist_tcp` — the
/// in-process and one-reference companions that split its wall time.
///
/// # Errors
///
/// Any run or layer that fails: a traced run has no partial result.
pub fn run_traced(
    spec: &DistSpec,
    seed: u64,
    node_bin: &Path,
    log: &mut SpanLog,
) -> Result<Outcome, String> {
    let mut out = Outcome::new(spec.name);
    let one = |v: f64| Measured::exact(v, 1);
    let configs = spec.configs(seed, spec.refs_per_client, node_bin);
    let per_run = spec.refs_per_client * configs[0].caches;

    let mut runs = Vec::with_capacity(configs.len());
    let (mut check_s, mut states) = (0.0, 0usize);
    for cfg in &configs {
        out.attempted += per_run as u64;
        let timed = run_timed(cfg, log)?;
        let ((failed, notes), _) = log.time("benchmark.failed_ops", || {
            failed_ops(&timed.report.ops, per_run)
        });
        out.failed += failed;
        out.notes.extend(notes);
        let (checked, secs) = log.time("dist.history.check_history", || {
            check_history(&timed.report.ops)
        });
        states += checked?.states_visited;
        check_s += secs;
        runs.push(timed);
    }
    let sum = |f: &dyn Fn(&RunReport) -> u64| runs.iter().map(|t| f(&t.report)).sum::<u64>() as f64;
    let refs = sum(&|r| r.total_refs as u64);
    let deliveries = sum(&|r| r.deliveries);
    let wall_s: f64 = runs.iter().map(|t| t.wall_s).sum();

    // The run whose latency the workload reports.
    let reported_at = match spec.kind {
        Kind::OpenLoopFaults => OPEN_INTERVALS
            .iter()
            .position(|&(interval, _)| interval == REPORTED_INTERVAL)
            .expect("the reported interval is one of the four"),
        _ => 0,
    };
    let reported = &runs[reported_at].report;
    let lat = latencies(&reported.ops);
    out.put("latency_p50_vt", one(nearest_rank(&lat, P50) as f64));
    out.put("latency_p99_vt", one(nearest_rank(&lat, P99) as f64));
    if let Some((label, p)) = highest_percentile(lat.len()) {
        println!(
            "{:<22} latency tail: {label} = {} vt over {} samples",
            spec.name,
            nearest_rank(&lat, p),
            lat.len()
        );
    }
    let mut waits: Vec<u64> = reported.ops.iter().map(|o| o.invoked - o.arrived).collect();
    waits.sort_unstable();
    out.put(
        "dist.queue_wait_p99_vt",
        one(nearest_rank(&waits, P99) as f64),
    );

    out.put("dist.deliveries_per_ref", one(deliveries / refs));
    let hits: usize = runs
        .iter()
        .map(|t| t.report.ops.iter().filter(|o| o.was_hit).count())
        .sum();
    out.put("dist.hit_share", one(hits as f64 / refs));
    let timeline_bytes: usize = runs
        .iter()
        .flat_map(|t| &t.report.timeline)
        .map(|line| line.len() + 1)
        .sum();
    out.put(
        "dist.timeline_bytes_per_ref",
        one(timeline_bytes as f64 / refs),
    );
    out.put("dist.history.check_ns_per_op", one(check_s * 1e9 / refs));
    out.put("dist.history.states_per_op", one(states as f64 / refs));
    out.put("dist.history.share_of_wall", one(check_s / wall_s));

    out.put(
        "dist.retransmits_per_ref",
        one(sum(&|r| r.retransmits) / refs),
    );
    out.put("dist.retries_per_ref", one(sum(&|r| r.retries) / refs));
    out.put("dist.client_drops", one(sum(&|r| r.client_drops)));
    out.put("dist.recoveries", one(sum(&|r| r.recoveries)));

    let mut rows = vec![("dist.history", check_s)];
    if spec.kind != Kind::Tcp {
        out.put(
            "dist.inproc_ns_per_delivery",
            one((wall_s - check_s) * 1e9 / deliveries),
        );
        rows.push(("in-process remainder", wall_s - check_s));
    }
    match spec.kind {
        Kind::InProc => {}
        Kind::OpenLoopFaults => {
            let faults = &configs[reported_at].faults;
            out.put(
                "dist.heal_lag_vt",
                one(reported.heal_lag.first().copied().unwrap_or(0) as f64),
            );
            out.put(
                "dist.crash_gap_vt",
                one(crash_gap(&reported.ops, &faults.crashes[0]) as f64),
            );
            let mut max_rate = 0.0;
            for (&(interval, name), timed) in OPEN_INTERVALS.iter().zip(&runs) {
                let ops = &timed.report.ops;
                let p99 = nearest_rank(&latencies(ops), P99);
                let last_arrival = ops.iter().map(|o| o.arrived).max().unwrap_or(0);
                let last_completion = ops.iter().map(|o| o.completed).max().unwrap_or(0);
                // No growing backlog: the run ends soon after its arrivals do.
                let drained = (last_completion - last_arrival) as f64 <= 0.05 * last_arrival as f64;
                out.put(name, one(p99 as f64));
                if p99 <= LATENCY_LIMIT_VT && drained {
                    max_rate = 1_000.0 / interval as f64;
                }
            }
            out.put("max_rate_per_kvt", one(max_rate));
        }
        Kind::Tcp => {
            // Same configuration and seed hosted in-process, and a
            // one-reference fleet: what is left of the TCP wall is the
            // codec, the framing, the sockets and the process switches.
            let id = log.begin("reference.in_process");
            let inproc = run_timed(&spec.base(seed, spec.refs_per_client), log)?;
            log.end(id);
            // The same timeline means the same history, so the history
            // check timed above is the in-process run's too.
            if inproc.report.timeline != runs[0].report.timeline {
                out.fail(
                    per_run as u64,
                    "TCP timeline differs from the in-process one",
                );
            }
            let spawn_s = spawn_once(spec, seed, node_bin, log)?;
            let transport_s = wall_s - spawn_s - inproc.wall_s;
            out.put("dist.spawn_s", one(spawn_s));
            out.put(
                "dist.transport_ns_per_delivery",
                one(transport_s * 1e9 / deliveries),
            );
            out.put(
                "dist.inproc_ns_per_delivery",
                one((inproc.wall_s - check_s) * 1e9 / deliveries),
            );
            rows.push(("transport", transport_s));
            rows.push(("spawn", spawn_s));
            rows.push(("in-process remainder", inproc.wall_s - check_s));

            let wire = layers::wire_codec(log)?;
            out.put("dist.wire.encode_ns_per_msg", one(wire.encode_ns_per_msg));
            out.put("dist.wire.decode_ns_per_msg", one(wire.decode_ns_per_msg));
            out.put("dist.wire.bytes_per_msg", one(wire.bytes_per_msg));
            out.put(
                "interconnect.transport.line_ns_per_frame",
                one(layers::line_transport_ns_per_frame(log)?),
            );
            out.put(
                "interconnect.poll.tcp_ns_per_frame",
                one(layers::poll_tcp_ns_per_frame(log)?),
            );
        }
    }
    let layered: f64 = rows.iter().map(|(_, s)| s).sum();
    let parts: Vec<String> = rows.iter().map(|(n, s)| format!("{n} {s:.4}")).collect();
    println!(
        "{:<22} layers: {} = {layered:.4} s of {wall_s:.4} s wall",
        spec.name,
        parts.join(" + ")
    );

    out.put("failed_share", one(out.failed_share()));
    out.fill_zero(&spec::PER_LAYER);
    Ok(out)
}

/// Words of a `cpu_set_t`: 1024 CPUs.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines this process, and so the node processes it starts, to the
/// last CPU it may run on, and returns that CPU.
///
/// The fleet's exchange is serial: one process runs while the other six
/// wait on their sockets. Spread over the cores of a shared virtual
/// machine, every hand-over wakes an idle core through the host's
/// scheduler, and the time measured is the host's wake-up delay, which
/// other tenants move by a factor of ten. On one core a hand-over is a
/// context switch and the core never idles.
///
/// # Errors
///
/// The kernel refusing either call.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `bytes` long and outlives both calls; pid 0 is
    // this process.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = last_cpu(&mask).ok_or("sched_getaffinity: no CPU allowed")?;
    mask = [0; CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// The highest CPU in an affinity mask.
fn last_cpu(mask: &[u64]) -> Option<usize> {
    let word = mask.iter().rposition(|w| *w != 0)?;
    Some(word * 64 + 63 - mask[word].leading_zeros() as usize)
}

/// Where `dist_node` should be, for the error message.
pub fn require_node_bin(node_bin: Option<PathBuf>) -> Result<PathBuf, String> {
    let path = node_bin.ok_or("this workload needs --node-bin PATH (the built dist_node)")?;
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "dist_node is missing at {}: build it with \
             `cargo build --release --offline -p twobit-dist --bin dist_node`",
            path.display()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> DistSpec {
        DistSpec {
            refs_per_client: 120,
            ..spec(name).unwrap()
        }
    }

    fn history(seed: u64) -> Vec<OpRecord> {
        run(&tiny("dist_inproc").base(seed, 120)).unwrap().ops
    }

    #[test]
    fn every_dist_workload_has_a_spec() {
        for name in spec::WORKLOADS.iter().filter(|w| w.starts_with("dist_")) {
            assert_eq!(spec(name).unwrap().name, *name);
        }
        assert!(spec("sim_shared").is_none());
    }

    #[test]
    fn a_complete_history_has_no_failed_ops() {
        let ops = history(42);
        assert_eq!(failed_ops(&ops, 480), (0, Vec::new()));
        // One more reference requested than completed is one failure.
        assert_eq!(failed_ops(&ops, 481).0, 1);
    }

    #[test]
    fn a_truncated_history_fails() {
        let mut ops = history(42);
        // Drop a store whose version a later load observed: the load's
        // block no longer linearizes, and the store itself is missing.
        let victim = ops
            .iter()
            .position(|w| {
                w.kind.is_write()
                    && ops
                        .iter()
                        .any(|r| !r.kind.is_write() && r.block == w.block && r.version == w.version)
            })
            .expect("some load observes some store");
        let block = ops[victim].block;
        ops.remove(victim);
        let in_block = ops.iter().filter(|o| o.block == block).count() as u64;
        let (failed, notes) = failed_ops(&ops, 480);
        assert_eq!(failed, 1 + in_block, "{notes:?}");
        let mut out = Outcome::new("dist_inproc");
        out.attempted = 480;
        out.failed = failed;
        assert_ne!(out.exit_code(), 0);
    }

    #[test]
    fn signature_repeats_for_a_seed_and_differs_across_seeds() {
        let sig = |seed| Signature::of(&run(&tiny("dist_inproc").base(seed, 120)).unwrap());
        assert_eq!(sig(42), sig(42));
        assert_ne!(sig(42), sig(43));
    }

    #[test]
    fn open_loop_repetition_runs_four_rates_with_both_crashes() {
        let spec = tiny("dist_openloop_faults");
        let configs = spec.configs(42, 120, Path::new("unused"));
        assert_eq!(configs.len(), 4);
        for cfg in &configs {
            let report = run(cfg).unwrap();
            assert_eq!(report.total_refs, 480);
            assert_eq!(report.recoveries, 2, "{}", report.schedule);
        }
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let out = run_untraced(&tiny("dist_inproc"), 42, 0.0, Path::new("unused")).unwrap();
        assert!(out.correct(), "{:?}", out.notes);
        assert_eq!(out.attempted, 480 * MIN_REPS as u64);
        let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        assert!(out.metrics.iter().all(|(_, m)| m.value > 0.0));
    }

    #[test]
    fn crash_gap_measures_to_the_victims_next_completion() {
        let op = |client, completed| OpRecord {
            client,
            txn: 0,
            block: 0,
            kind: twobit_types::AccessKind::Read,
            arrived: 0,
            invoked: 0,
            completed,
            version: 0,
            was_hit: true,
            retries: 0,
        };
        let crash = Crash {
            at: 100,
            node: Actor::Cache(1),
            down_for: 50,
        };
        let ops = [op(1, 90), op(0, 101), op(1, 180), op(1, 400)];
        assert_eq!(crash_gap(&ops, &crash), 80);
        let module = Crash {
            node: Actor::Module(0),
            ..crash
        };
        assert_eq!(crash_gap(&ops, &module), 0);
    }

    #[test]
    fn missing_node_bin_is_a_clear_error() {
        assert!(require_node_bin(None).unwrap_err().contains("--node-bin"));
        let err = require_node_bin(Some("no/such/dist_node".into())).unwrap_err();
        assert!(err.contains("dist_node is missing"), "{err}");
    }

    #[test]
    fn last_cpu_is_the_highest_bit_of_the_mask() {
        assert_eq!(last_cpu(&[0, 0]), None);
        assert_eq!(last_cpu(&[0b11, 0]), Some(1));
        assert_eq!(last_cpu(&[1, 0]), Some(0));
        assert_eq!(last_cpu(&[u64::MAX, 0b100]), Some(66));
    }

    #[test]
    fn traced_open_loop_reports_every_per_layer_metric() {
        let spec = tiny("dist_openloop_faults");
        let mut log = SpanLog::new(spec.name, true);
        let out = run_traced(&spec, 42, Path::new("unused"), &mut log).unwrap();
        assert!(out.correct(), "{:?}", out.notes);
        assert_eq!(out.attempted, 4 * 480);
        let mut names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
        let mut want: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(names, want);
        let value = |name: &str| {
            out.metrics
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap()
                .1
                .value
        };
        assert_eq!(value("dist.recoveries"), 8.0);
        assert!(value("latency_p99_vt") >= value("latency_p50_vt"));
        assert!(value("dist.retransmits_per_ref") > 0.0);
        assert_eq!(
            value("dist.wire.bytes_per_msg"),
            0.0,
            "the layer is never entered"
        );
        let spans = log.self_times();
        assert_eq!(
            spans.iter().find(|r| r.0 == "dist.driver::run").unwrap().1,
            4
        );
    }
}
