//! Integration tests for the observability layer: trace determinism,
//! JSONL round-tripping through a whole run, the differential check
//! that the metrics registry's useless-command accounting agrees exactly
//! with the legacy per-cache statistics, and span attribution (with the
//! `twobit-obs/perf-spans` feature on or off).

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use twobit_obs::{JsonlTracer, Profiler, SimEvent, TxnClass};
use twobit_sim::{DirectorySim, System};
use twobit_types::{ProtocolKind, SystemConfig};
use twobit_workload::{SharingModel, SharingParams};

/// A `Write` sink whose bytes stay reachable after the tracer is boxed
/// away behind `dyn Tracer` (no downcasting needed).
#[derive(Debug, Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl SharedBuf {
    fn bytes(&self) -> Vec<u8> {
        self.0.borrow().clone()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the standard 4-cpu two-bit configuration with a JSONL tracer
/// attached and returns the raw trace bytes.
fn traced_run(seed: u64, refs_per_cpu: u64) -> Vec<u8> {
    let buf = SharedBuf::default();
    let mut system = System::build(SystemConfig::with_defaults(4)).unwrap();
    system.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    let workload = SharingModel::new(SharingParams::moderate(), 4, seed).unwrap();
    system.run(workload, refs_per_cpu).unwrap();
    drop(system.take_tracer());
    buf.bytes()
}

#[test]
fn identical_config_and_seed_give_byte_identical_traces() {
    let a = traced_run(42, 300);
    let b = traced_run(42, 300);
    assert!(!a.is_empty(), "traced run must produce events");
    assert_eq!(a, b, "simulation is deterministic, so traces must be too");
}

#[test]
fn different_seeds_give_different_traces() {
    // Guards the determinism test against vacuously comparing constants.
    assert_ne!(traced_run(42, 300), traced_run(43, 300));
}

#[test]
fn whole_run_trace_round_trips_through_jsonl() {
    let bytes = traced_run(7, 100);
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    let mut parsed = 0;
    for line in text.lines() {
        let ev =
            SimEvent::from_jsonl(line).unwrap_or_else(|| panic!("unparseable trace line: {line}"));
        assert_eq!(ev.to_jsonl(), line, "round trip must be lossless");
        parsed += 1;
    }
    assert!(
        parsed > 100,
        "expected a substantial trace, got {parsed} events"
    );
}

#[test]
fn metrics_useless_accounting_reconciles_with_stats() {
    // The registry and the legacy stats count useless commands through
    // entirely separate code paths; they must agree exactly, per
    // protocol. Broadcast-heavy, multicast, and write-through protocols
    // exercise different uselessness sources.
    for protocol in [
        ProtocolKind::TwoBit,
        ProtocolKind::TwoBitTlb { entries: 4 },
        ProtocolKind::FullMap,
        ProtocolKind::FullMapLocal,
        ProtocolKind::ClassicalWriteThrough,
    ] {
        let config = SystemConfig::with_defaults(4).with_protocol(protocol);
        let mut sim = DirectorySim::build(config).unwrap();
        let workload = SharingModel::new(SharingParams::high(), 4, 9).unwrap();
        let report = sim.run(workload, 2_000).unwrap();
        sim.metrics()
            .reconcile_useless(&report.stats.caches)
            .unwrap_or_else(|(i, mine, theirs)| {
                panic!("{protocol}: cache {i} metrics={mine} stats={theirs}")
            });
        let obs = report.obs.as_ref().expect("directory runs carry metrics");
        let stats_received: u64 = report
            .stats
            .caches
            .iter()
            .map(|c| c.commands_received.get())
            .sum();
        assert_eq!(
            obs.commands_delivered, stats_received,
            "{protocol}: delivered total"
        );
    }
}

#[test]
fn latency_and_gauges_populated_on_directory_runs() {
    let config = SystemConfig::with_defaults(4);
    let mut sim = DirectorySim::build(config).unwrap();
    let workload = SharingModel::new(SharingParams::high(), 4, 5).unwrap();
    let report = sim.run(workload, 2_000).unwrap();
    let read = report.latency(TxnClass::ReadMiss).expect("metrics present");
    assert!(read.count > 0, "read misses complete");
    // p50/p99 are bucket upper bounds (so may exceed the exact max);
    // only their ordering and positivity are guaranteed.
    assert!(read.mean > 0.0 && read.max > 0, "latencies are non-trivial");
    assert!(read.p50 <= read.p99, "percentiles are monotone");
    let obs = report.obs.as_ref().unwrap();
    assert!(
        obs.peak_outstanding >= 1,
        "stalled transactions were observed"
    );
}

#[test]
fn bus_reports_carry_reconciled_metrics() {
    let mut config = SystemConfig::with_defaults(4).with_protocol(ProtocolKind::Illinois);
    config.address_map = twobit_types::AddressMap::interleaved(1);
    let mut system = System::build(config).unwrap();
    let workload = SharingModel::new(SharingParams::moderate(), 4, 3).unwrap();
    let report = system.run(workload, 1_000).unwrap();
    let obs = report.obs.as_ref().expect("bus runs carry metrics");
    let stats_useless: u64 = report
        .stats
        .caches
        .iter()
        .map(|c| c.useless_commands.get())
        .sum();
    assert_eq!(obs.useless_commands, stats_useless);
    assert!(
        report.latency(TxnClass::ReadMiss).map_or(0, |l| l.count) > 0,
        "bus read misses measured in bus cycles"
    );
}

#[test]
fn a_profiled_run_attributes_its_event_handlers() {
    let mut system = System::build(SystemConfig::with_defaults(2)).unwrap();
    system.set_profiling(true);
    let workload = SharingModel::new(SharingParams::moderate(), 2, 7).unwrap();
    system.run(workload, 60).unwrap();
    let report = system.perf_report();
    if Profiler::enabled().is_enabled() {
        for span in ["engine.pop", "event.deliver_module"] {
            assert!(
                report.get(span).is_some_and(|s| s.count > 0),
                "{span} missing from {:?}",
                report.spans()
            );
        }
    } else {
        assert!(report.is_empty(), "spans compiled out record nothing");
    }
}
