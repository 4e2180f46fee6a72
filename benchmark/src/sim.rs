//! The four simulator workloads: `System::build` + `System::run_jobs`
//! over a `SharingModel` stream, eight caches, `jobs = 1`.

use std::time::Instant;

use twobit_analytic::{MarkovModel, OverheadParams};
use twobit_obs::PerfReport;
use twobit_sim::{Report, System};
use twobit_types::{ProtocolKind, SystemConfig};
use twobit_workload::{SharingModel, SharingParams};

use crate::layers;
use crate::outcome::Outcome;
use crate::spans::SpanLog;
use crate::spec;
use crate::stats::Measured;
use crate::{MIN_REPS, SETUPS, WARMUP_DIVISOR};

/// Processors (and memory modules) in every simulated system.
pub const CACHES: usize = 8;

/// One simulator workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub name: &'static str,
    pub protocol: ProtocolKind,
    pub params: SharingParams,
    /// References each processor issues in one repetition.
    pub refs_per_cpu: u64,
}

/// The simulator workload called `name`.
pub fn spec(name: &str) -> Option<SimSpec> {
    let (protocol, params, refs_per_cpu) = match name {
        // q = 0.01 over 96 cache-resident private blocks: hits dominate.
        "sim_private" => (ProtocolKind::TwoBit, SharingParams::low(), 1_000_000),
        // The paper's own Table 4-2 parameters: write sharing.
        "sim_shared" => (
            ProtocolKind::TwoBit,
            SharingParams::table4_2(0.10, 0.4),
            400_000,
        ),
        // A private working set 32 times the 128-block cache.
        "sim_capacity" => (
            ProtocolKind::TwoBit,
            SharingParams {
                private_blocks: 4096,
                ..SharingParams::moderate()
            },
            100_000,
        ),
        // Every store is a memory transaction, in another protocol.
        "sim_writethrough" => (
            ProtocolKind::ClassicalWriteThrough,
            SharingParams::moderate(),
            300_000,
        ),
        _ => return None,
    };
    let name = spec::WORKLOADS.iter().find(|w| **w == name)?;
    Some(SimSpec {
        name,
        protocol,
        params,
        refs_per_cpu,
    })
}

/// One finished run on a fresh system.
struct Run {
    report: Report,
    wall_s: f64,
    perf: PerfReport,
}

/// What must repeat exactly from one repetition to the next.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Signature {
    refs: u64,
    events: u64,
    cycles: u64,
    commands: u64,
}

impl Signature {
    fn of(report: &Report) -> Self {
        Signature {
            refs: report.stats.total_references(),
            events: report.events,
            cycles: report.cycles,
            commands: report.stats.cache_totals().commands_received.get(),
        }
    }
}

/// Builds a fresh system and workload and runs `refs_per_cpu` references
/// per processor; only `run_jobs` is inside the returned wall time.
fn run_once(
    spec: &SimSpec,
    protocol: ProtocolKind,
    seed: u64,
    refs_per_cpu: u64,
    jobs: usize,
    profile: bool,
    log: &mut SpanLog,
) -> Result<Run, String> {
    let config = SystemConfig::with_defaults(CACHES).with_protocol(protocol);
    let (system, _) = log.time("sim.System::build", || System::build(config));
    let mut system = system.map_err(|e| format!("{}: build: {e}", spec.name))?;
    let (workload, _) = log.time("workload.SharingModel::new", || {
        SharingModel::new(spec.params, CACHES, seed)
    });
    let workload = workload.map_err(|e| format!("{}: workload: {e}", spec.name))?;
    system.set_profiling(profile);
    let (report, wall_s) = log.time("sim.System::run_jobs", || {
        system.run_jobs(workload, refs_per_cpu, jobs)
    });
    let report = report.map_err(|e| format!("{}: run: {e}", spec.name))?;
    Ok(Run {
        report,
        wall_s,
        perf: system.perf_report(),
    })
}

/// References requested of one repetition that `report` did not complete.
pub fn missing_refs(report: &Report, requested: u64) -> u64 {
    requested.saturating_sub(report.stats.total_references())
}

/// The untraced run: set-up timed [`SETUPS`] times, then at least
/// [`MIN_REPS`] timed repetitions filling `seconds`.
///
/// # Errors
///
/// Set-up that cannot build or run the system at all.
pub fn run_untraced(spec: &SimSpec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut log = SpanLog::new(spec.name, false);
    let mut out = Outcome::new(spec.name);

    let mut setup = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let start = Instant::now();
        let warm = spec.refs_per_cpu / WARMUP_DIVISOR;
        run_once(spec, spec.protocol, seed, warm, 1, false, &mut log)?;
        setup.push(start.elapsed().as_secs_f64());
    }

    let requested = spec.refs_per_cpu * CACHES as u64;
    let mut first: Option<(Signature, Report)> = None;
    let mut rates = Vec::new();
    let timed = Instant::now();
    while rates.len() < MIN_REPS || timed.elapsed().as_secs_f64() < seconds {
        out.attempted += requested;
        let run = match run_once(
            spec,
            spec.protocol,
            seed,
            spec.refs_per_cpu,
            1,
            false,
            &mut log,
        ) {
            Ok(run) => run,
            Err(e) => {
                out.fail(requested, e);
                rates.push(0.0);
                continue;
            }
        };
        let signature = Signature::of(&run.report);
        rates.push(signature.refs as f64 / run.wall_s);
        let missing = missing_refs(&run.report, requested);
        if missing > 0 {
            out.fail(missing, "references requested but not completed");
        }
        match &first {
            None => first = Some((signature, run.report)),
            Some((expected, _)) if *expected != signature => out.fail(
                requested,
                format!("repetition gave {signature:?}, the first gave {expected:?}"),
            ),
            Some(_) => {}
        }
    }

    let n = rates.len();
    out.put("setup_s", Measured::of(&setup));
    out.put("refs_per_s", Measured::of(&rates));
    out.put("peak_rss_mb", Measured::exact(crate::peak_rss_mb()?, 1));
    if let Some((_, report)) = &first {
        out.put(
            "sim_cycles_per_ref",
            Measured::exact(report.cycles_per_reference(), n),
        );
        out.put(
            "cmds_per_ref",
            Measured::exact(report.commands_per_reference(), n),
        );
    }
    Ok(out)
}

/// `T_SUM` as the paper's analytic model predicts it for `params`.
fn predicted_t_sum(params: &SharingParams) -> Result<f64, String> {
    let solved = MarkovModel {
        n: CACHES,
        q: params.q,
        w: params.w,
        shared_blocks: params.shared_blocks,
        eviction_rate: 0.05 / 128.0,
    }
    .solve()
    .map_err(|e| format!("analytic model: {e}"))?;
    Ok(OverheadParams {
        n: CACHES,
        q: params.q,
        w: params.w,
        h: solved.shared_hit_ratio,
        p_p1: solved.p_present1,
        p_pstar: solved.p_present_star,
        p_pm: solved.p_present_m,
    }
    .t_sum())
}

/// Metric name of a `Profiler` span's self-time share; `ctrl.queue.*`
/// fold into one row.
fn span_metric(span: &str) -> Option<&'static str> {
    Some(match span {
        "agent.start" => "core.span.agent_start.self_share",
        "agent.on_network" => "core.span.agent_on_network.self_share",
        "ctrl.protocol.open" => "core.span.ctrl_protocol_open.self_share",
        "ctrl.queue.drain" | "ctrl.queue.enqueue" => "core.span.ctrl_queue.self_share",
        "net.dispatch" => "interconnect.span.net_dispatch.self_share",
        "net.schedule" => "interconnect.span.net_schedule.self_share",
        "engine.pop" => "sim.span.engine_pop.self_share",
        "event.issue" => "sim.span.event_issue.self_share",
        "event.deliver_cache" => "sim.span.event_deliver_cache.self_share",
        "event.deliver_module" => "sim.span.event_deliver_module.self_share",
        _ => return None,
    })
}

/// The traced run: one repetition with the program's span timers off and
/// one with them on, then each layer timed alone on the same reference
/// stream.
///
/// # Errors
///
/// Any run or layer that fails: a traced run has no partial result.
pub fn run_traced(spec: &SimSpec, seed: u64, log: &mut SpanLog) -> Result<Outcome, String> {
    let mut out = Outcome::new(spec.name);
    let one = |v: f64| Measured::exact(v, 1);
    let requested = spec.refs_per_cpu * CACHES as u64;
    let refs = requested as f64;

    let id = log.begin("repetition.spans_off");
    let plain = run_once(spec, spec.protocol, seed, spec.refs_per_cpu, 1, false, log)?;
    log.end(id);
    let id = log.begin("repetition.spans_on");
    let traced = run_once(spec, spec.protocol, seed, spec.refs_per_cpu, 1, true, log)?;
    log.end(id);

    out.attempted = 2 * requested;
    for run in [&plain, &traced] {
        let missing = missing_refs(&run.report, requested);
        if missing > 0 {
            out.fail(missing, "references requested but not completed");
        }
    }
    if Signature::of(&plain.report) != Signature::of(&traced.report) {
        out.fail(
            requested,
            "the traced repetition differs from the untraced one",
        );
    }

    // Counts, from the run's own statistics.
    let report = &plain.report;
    let caches = report.stats.cache_totals();
    let received = caches.commands_received.get();
    out.put("cache.hit_ratio", one(report.hit_ratio()));
    out.put(
        "cache.tag_probes_per_ref",
        one(caches.tag_probes.as_f64() / refs),
    );
    out.put(
        "core.useless_share",
        one(caches.useless_commands.as_f64() / received.max(1) as f64),
    );
    out.put(
        "core.broadcasts_per_ref",
        one(report.broadcasts_per_reference()),
    );
    out.put(
        "core.deliveries_per_ref",
        one(report.deliveries_per_reference()),
    );
    out.put(
        "core.peak_queue_depth",
        one(report.peak_queue_depth() as f64),
    );
    out.put(
        "interconnect.queueing_cycles_per_ref",
        one(report.stats.network.queueing_cycles.as_f64() / refs),
    );
    out.put("sim.events_per_ref", one(report.events as f64 / refs));
    out.put(
        "sim.host_ns_per_event",
        one(plain.wall_s * 1e9 / report.events as f64),
    );

    // The program's spans: self time as a share of the traced wall.
    let traced_ns = traced.wall_s * 1e9;
    if traced.perf.is_empty() {
        return Err("no spans recorded: build with `--features trace`".into());
    }
    let mut shares: Vec<(&'static str, f64)> = Vec::new();
    for (span, stat) in traced.perf.spans() {
        let name =
            span_metric(span).ok_or_else(|| format!("span `{span}` has no metric: name it"))?;
        let share = stat.self_ns as f64 / traced_ns;
        match shares.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => *s += share,
            None => shares.push((name, share)),
        }
    }
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    for (name, share) in shares {
        out.put(name, one(share));
    }
    out.put("sim.span.unattributed_share", one(1.0 - attributed));
    out.put(
        "sim.tracing_overhead_pct",
        one((traced.wall_s / plain.wall_s - 1.0) * 100.0),
    );

    // Each layer alone, on a prefix of the same stream.
    let stream = layers::Stream::generate(spec.params, seed, spec.refs_per_cpu, log)?;
    let config = SystemConfig::with_defaults(CACHES).with_protocol(spec.protocol);
    let func_ns = layers::functional_ns_per_ref(config, &stream, log)?;
    out.put("workload.gen_ns_per_ref", one(stream.gen_ns_per_ref));
    out.put("workload.shared_share", one(stream.shared_share()));
    out.put(
        "cache.probe_ns",
        one(layers::cache_probe_ns(config.cache, &stream, log)),
    );
    out.put("core.func_ns_per_ref", one(func_ns));
    out.put(
        "interconnect.schedule_ns",
        one(layers::crossbar_schedule_ns(&config, log)),
    );
    out.put(
        "sim.engine_ns_per_ref",
        one(plain.wall_s * 1e9 / refs - func_ns - stream.gen_ns_per_ref),
    );

    if spec.name == "sim_shared" {
        // The paper's model predicts the two-bit scheme's extra commands
        // over a full map, so the reference run is a full-map one.
        let id = log.begin("reference.full_map");
        let full_map = run_once(
            spec,
            ProtocolKind::FullMap,
            seed,
            spec.refs_per_cpu,
            1,
            false,
            log,
        )?;
        log.end(id);
        let measured = report.commands_per_reference() - full_map.report.commands_per_reference();
        let predicted = predicted_t_sum(&spec.params)?;
        out.put(
            "model_err_pct",
            one((predicted - measured).abs() / measured * 100.0),
        );

        // Informational: the only place the benchmark uses a second
        // engine thread. A tenth of the length, jobs 1 against jobs 2.
        let id = log.begin("reference.jobs");
        let tenth = spec.refs_per_cpu / 10;
        let j1 = run_once(spec, spec.protocol, seed, tenth, 1, false, log)?;
        let j2 = run_once(spec, spec.protocol, seed, tenth, 2, false, log)?;
        log.end(id);
        if Signature::of(&j1.report) != Signature::of(&j2.report) {
            out.fail(tenth * CACHES as u64, "jobs = 2 differs from jobs = 1");
        }
        out.put("sim.j2_over_j1", one(j2.wall_s / j1.wall_s));
    }

    out.put("failed_share", one(out.failed_share()));
    out.fill_zero(&spec::PER_LAYER);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str) -> SimSpec {
        SimSpec {
            refs_per_cpu: 2_000,
            ..spec(name).unwrap()
        }
    }

    #[test]
    fn every_sim_workload_has_a_spec() {
        for name in spec::WORKLOADS.iter().filter(|w| w.starts_with("sim_")) {
            assert_eq!(spec(name).unwrap().name, *name);
        }
        assert!(spec("dist_tcp").is_none());
    }

    #[test]
    fn a_run_completes_what_was_requested_and_no_more() {
        let spec = tiny("sim_shared");
        let mut log = SpanLog::new(spec.name, false);
        let run = run_once(&spec, spec.protocol, 42, 2_000, 1, false, &mut log).unwrap();
        assert_eq!(missing_refs(&run.report, 16_000), 0);
        // Asking for one more reference than completes is one failure.
        assert_eq!(missing_refs(&run.report, 16_001), 1);
    }

    #[test]
    fn repetitions_repeat_exactly_and_seeds_differ() {
        let spec = tiny("sim_capacity");
        let mut log = SpanLog::new(spec.name, false);
        let mut sig = |seed| {
            let run = run_once(&spec, spec.protocol, seed, 2_000, 1, false, &mut log).unwrap();
            Signature::of(&run.report)
        };
        assert_eq!(sig(42), sig(42));
        assert_ne!(sig(42), sig(43));
    }

    #[test]
    fn untraced_run_reports_every_end_to_end_metric() {
        let out = run_untraced(&tiny("sim_writethrough"), 42, 0.0).unwrap();
        assert!(out.correct(), "{:?}", out.notes);
        assert_eq!(out.attempted, 16_000 * MIN_REPS as u64);
        let names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        assert!(out.metrics.iter().all(|(_, m)| m.value > 0.0));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn traced_run_reports_every_per_layer_metric_and_shares_sum_to_one() {
        let spec = tiny("sim_shared");
        let mut log = SpanLog::new(spec.name, true);
        let out = run_traced(&spec, 42, &mut log).unwrap();
        assert!(out.correct(), "{:?}", out.notes);
        let mut names: Vec<&str> = out.metrics.iter().map(|(n, _)| *n).collect();
        let mut want: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        names.sort_unstable();
        want.sort_unstable();
        assert_eq!(names, want);
        let shares: f64 = out
            .metrics
            .iter()
            .filter(|(n, _)| n.contains(".span."))
            .map(|(_, m)| m.value)
            .sum();
        assert!((shares - 1.0).abs() < 1e-9, "{shares}");
        assert!(log
            .self_times()
            .iter()
            .any(|r| r.0 == "sim.System::run_jobs"));
    }
}
