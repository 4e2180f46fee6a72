//! The event-driven simulation of a directory-based Figure 3-1 system:
//! its state, construction, observers and the quiescent-end checks. The
//! event loop that runs it, [`DirectorySim::run`], is [`crate::engine`].

use crate::report::Report;
use twobit_core::{
    build_policy_for, build_protocol_for, invariants, CacheAgent, Controller,
    DEFAULT_STATIC_SHARED_FROM,
};
use twobit_obs::{Metrics, NullTracer, PerfReport, Profiler, Tracer, TxnClass};
use twobit_types::{
    AccessKind, CacheId, CacheToMemory, ConfigError, Counter, ModuleId, NetworkStats,
    ProtocolError, SystemConfig, SystemStats, TxnId,
};

/// Gauge sampling cadence, in cycles.
const METRICS_CADENCE: u64 = 64;

/// An open (started, not yet retired) cache transaction, for latency
/// accounting and trace correlation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingTxn {
    pub(crate) class: TxnClass,
    pub(crate) start: u64,
    pub(crate) id: TxnId,
}

/// A timed directory-protocol simulation.
///
/// Uses the identical protocol machines as
/// [`twobit_core::FunctionalSystem`] — agents and controllers — driven by
/// one calendar queue with the latencies of
/// [`SystemConfig::latency`](twobit_types::SystemConfig) and crossbar
/// port contention, so controller queueing (section 3.2.5), in-flight
/// invalidation races, and broadcast traffic all play out in time.
#[derive(Debug)]
pub struct DirectorySim {
    pub(crate) config: SystemConfig,
    pub(crate) agents: Vec<CacheAgent>,
    pub(crate) controllers: Vec<Controller>,
    /// Traffic statistics; each run schedules on a crossbar of its own
    /// and its counters are folded in here after the run.
    pub(crate) network: NetworkStats,
    pub(crate) now: u64,
    pub(crate) version_counters: Vec<u64>,
    pub(crate) refs_done: Vec<u64>,
    pub(crate) refs_target: u64,
    pub(crate) tracer: Box<dyn Tracer>,
    pub(crate) metrics: Metrics,
    pub(crate) pending: Vec<Option<PendingTxn>>,
    pub(crate) txn_counters: Vec<u64>,
    pub(crate) profiler: Profiler,
    pub(crate) events: u64,
}

impl DirectorySim {
    /// Builds the simulation.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid configurations or bus
    /// protocols.
    pub fn build(config: SystemConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        if config.protocol.is_bus_based() {
            return Err(ConfigError::new(
                "bus protocols are handled by System via BusSim",
            ));
        }
        let agents = CacheId::all(config.caches)
            .map(|id| {
                let mut agent = CacheAgent::new(
                    id,
                    config.cache,
                    build_policy_for(config.protocol, DEFAULT_STATIC_SHARED_FROM),
                    config.duplicate_directory,
                );
                agent.set_bias_entries(config.bias_entries);
                agent
            })
            .collect();
        let controllers = ModuleId::all(config.address_map.modules())
            .map(|m| {
                Controller::new(
                    m,
                    config.address_map,
                    build_protocol_for(&config),
                    config.caches,
                    config.concurrency,
                )
            })
            .collect();
        Ok(DirectorySim {
            config,
            agents,
            controllers,
            network: NetworkStats::default(),
            now: 0,
            version_counters: vec![0; config.caches],
            refs_done: vec![0; config.caches],
            refs_target: 0,
            tracer: Box::new(NullTracer),
            metrics: Metrics::new(METRICS_CADENCE),
            pending: vec![None; config.caches],
            txn_counters: vec![0; config.caches],
            profiler: Profiler::disabled(),
            events: 0,
        })
    }

    /// Installs a trace sink. The default is [`NullTracer`]; call-sites
    /// guard on `enabled()`, so the default run never even formats event
    /// strings.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// Removes and returns the installed tracer (replacing it with
    /// [`NullTracer`]), so ring buffers can be dumped and JSONL writers
    /// recovered after a run.
    pub fn take_tracer(&mut self) -> Box<dyn Tracer> {
        std::mem::replace(&mut self.tracer, Box::new(NullTracer))
    }

    /// The metrics registry (latency histograms and gauges).
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Turns hot-path span timing on or off. Spans cost nothing unless
    /// the `perf-spans` cargo feature is enabled *and* this is set.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiler.set_enabled(on);
    }

    /// The accumulated span report: event-class handlers
    /// (`event.issue` / `event.deliver_cache` / `event.deliver_module`),
    /// the calendar-queue pop (`engine.pop`), network scheduling
    /// (`net.dispatch` / `net.schedule`), and the controller's per-block
    /// queue ops (`ctrl.*`) — one unified hierarchy, so self-times sum to
    /// the instrumented wall time.
    #[must_use]
    pub fn perf_report(&self) -> PerfReport {
        self.profiler.report()
    }

    /// Simulation events processed so far (one per calendar-queue pop).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Classifies the transaction a stalled issue opened, from the
    /// commands it emitted. `MGRANTED(no)` retries convert a pending
    /// modify into a write miss on the wire, but the transaction keeps
    /// its original class: latency is attributed to what the processor
    /// *asked for*.
    pub(crate) fn classify_open(sends: &[CacheToMemory], kind: AccessKind) -> TxnClass {
        sends
            .iter()
            .find_map(|cmd| match cmd {
                CacheToMemory::MRequest { .. } => Some(TxnClass::WriteHitUnmod),
                CacheToMemory::Request {
                    rw: AccessKind::Read,
                    ..
                }
                | CacheToMemory::DirectRead { .. } => Some(TxnClass::ReadMiss),
                CacheToMemory::Request {
                    rw: AccessKind::Write,
                    ..
                }
                | CacheToMemory::WriteThrough { .. } => Some(TxnClass::WriteMiss),
                _ => None,
            })
            .unwrap_or(match kind {
                AccessKind::Read => TxnClass::ReadMiss,
                AccessKind::Write => TxnClass::WriteMiss,
            })
    }

    /// Quiescence checks, invariants, trace flush, and the final report,
    /// once the event loop has drained.
    pub(crate) fn finish(&mut self) -> Result<Report, ProtocolError> {
        // Quiescence checks: everyone retired, nothing stuck.
        for (i, agent) in self.agents.iter().enumerate() {
            if agent.is_stalled() {
                return Err(ProtocolError::UnexpectedCommand {
                    state: format!("C{i} stalled at drain"),
                    command: "liveness violation".to_string(),
                });
            }
            if self.refs_done[i] != self.refs_target {
                return Err(ProtocolError::UnexpectedCommand {
                    state: format!(
                        "C{i} completed {} of {}",
                        self.refs_done[i], self.refs_target
                    ),
                    command: "liveness violation".to_string(),
                });
            }
        }
        for controller in &self.controllers {
            if controller.busy() {
                return Err(ProtocolError::UnexpectedCommand {
                    state: format!("{} busy at drain", controller.module()),
                    command: "liveness violation".to_string(),
                });
            }
        }
        invariants::check_system(&self.agents, &self.controllers, self.config.address_map)?;

        self.tracer.flush();
        let stats = self.collect_stats();
        let obs = self.metrics.summary(&stats.caches);
        Ok(Report {
            protocol: self.config.protocol,
            stats,
            cycles: self.now,
            events: self.events,
            obs: Some(obs),
        })
    }

    fn collect_stats(&self) -> SystemStats {
        let mut stats = SystemStats::new(self.agents.len(), self.controllers.len());
        for (slot, agent) in stats.caches.iter_mut().zip(&self.agents) {
            *slot = *agent.stats();
            slot.tag_probes = Counter::from(agent.cache().probes());
        }
        for (slot, controller) in stats.controllers.iter_mut().zip(&self.controllers) {
            *slot = controller.stats();
        }
        stats.network.merge(&self.network);
        stats.cycles = self.now;
        stats
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::{MemRef, ProtocolKind, WordAddr};
    use twobit_workload::{scenarios, SharingModel, SharingParams, Workload};

    fn config(n: usize, protocol: ProtocolKind) -> SystemConfig {
        SystemConfig::with_defaults(n).with_protocol(protocol)
    }

    /// A scripted workload for deterministic micro-tests.
    struct Script {
        per_cpu: Vec<Vec<MemRef>>,
        cursor: Vec<usize>,
    }

    impl Script {
        fn new(per_cpu: Vec<Vec<MemRef>>) -> Self {
            let cursor = vec![0; per_cpu.len()];
            Script { per_cpu, cursor }
        }
    }

    impl Workload for Script {
        fn next_ref(&mut self, k: CacheId) -> MemRef {
            let refs = &self.per_cpu[k.index()];
            let c = self.cursor[k.index()];
            self.cursor[k.index()] += 1;
            refs[c % refs.len()]
        }

        fn name(&self) -> &'static str {
            "script"
        }
    }

    fn rd(b: u64) -> MemRef {
        MemRef::read(WordAddr::new(b, 0))
    }

    fn wr(b: u64) -> MemRef {
        MemRef::write(WordAddr::new(b, 0))
    }

    #[test]
    fn single_cpu_completes_and_advances_time() {
        let mut sim = DirectorySim::build(config(1, ProtocolKind::TwoBit)).unwrap();
        let report = sim
            .run(Script::new(vec![vec![rd(1), wr(1), rd(2)]]), 9)
            .unwrap();
        assert_eq!(report.stats.total_references(), 9);
        assert!(report.cycles > 9, "misses cost real time");
    }

    #[test]
    fn contended_hot_block_stays_coherent_and_live() {
        // All four cpus hammer one block with writes: the section 3.2.5
        // queueing and BROADINV/MREQUEST races happen in flight.
        let script = Script::new(vec![
            vec![wr(7), rd(7)],
            vec![rd(7), wr(7)],
            vec![wr(7), wr(7)],
            vec![rd(7), rd(7)],
        ]);
        let mut sim = DirectorySim::build(config(4, ProtocolKind::TwoBit)).unwrap();
        let report = sim.run(script, 200).unwrap();
        assert_eq!(report.stats.total_references(), 800);
        let broadcasts: u64 = report
            .stats
            .controllers
            .iter()
            .map(|c| c.broadcasts_sent.get())
            .sum();
        assert!(broadcasts > 0, "write sharing must broadcast");
        let conflicts: u64 = report
            .stats
            .controllers
            .iter()
            .map(|c| c.conflicts_queued.get())
            .sum();
        assert!(
            conflicts > 0,
            "hot-block requests must queue at the controller"
        );
    }

    #[test]
    fn all_directory_protocols_run_the_sharing_model() {
        for protocol in [
            ProtocolKind::TwoBit,
            ProtocolKind::TwoBitTlb { entries: 8 },
            ProtocolKind::FullMap,
            ProtocolKind::FullMapLocal,
        ] {
            let workload = SharingModel::new(SharingParams::high(), 4, 13).unwrap();
            let mut sim = DirectorySim::build(config(4, protocol)).unwrap();
            let report = sim.run(workload, 500).unwrap();
            assert_eq!(report.stats.total_references(), 2000, "{protocol}");
        }
    }

    #[test]
    fn classical_and_static_run_timed() {
        let mut cfg = config(4, ProtocolKind::ClassicalWriteThrough);
        cfg.address_map = twobit_types::AddressMap::interleaved(1);
        let workload = SharingModel::new(SharingParams::moderate(), 4, 5).unwrap();
        let mut sim = DirectorySim::build(cfg).unwrap();
        let report = sim.run(workload, 300).unwrap();
        assert!(
            report.broadcasts_per_reference() > 0.0,
            "classical broadcasts stores"
        );

        let cfg = config(4, ProtocolKind::StaticSoftware);
        let workload = SharingModel::new(SharingParams::moderate(), 4, 5).unwrap();
        let mut sim = DirectorySim::build(cfg).unwrap();
        let report = sim.run(workload, 300).unwrap();
        assert_eq!(
            report.broadcasts_per_reference(),
            0.0,
            "static scheme never broadcasts"
        );
    }

    #[test]
    fn two_bit_receives_more_commands_than_full_map_timed() {
        let run = |protocol| {
            let workload = SharingModel::new(SharingParams::high().with_w(0.4), 8, 21).unwrap();
            let mut sim = DirectorySim::build(config(8, protocol)).unwrap();
            sim.run(workload, 800).unwrap()
        };
        let two_bit = run(ProtocolKind::TwoBit);
        let full_map = run(ProtocolKind::FullMap);
        assert!(
            two_bit.commands_per_reference() > full_map.commands_per_reference(),
            "two-bit {} vs full-map {}",
            two_bit.commands_per_reference(),
            full_map.commands_per_reference()
        );
    }

    #[test]
    fn scenario_workloads_run() {
        let scenarios: Vec<Box<dyn Workload>> = vec![
            Box::new(scenarios::IndependentProcesses::new(4, 64, 1).unwrap()),
            Box::new(scenarios::ProducerConsumer::new(4, 8, 2).unwrap()),
            Box::new(scenarios::LockContention::new(4, 2, 3).unwrap()),
            Box::new(scenarios::Migratory::new(4, 4, 16, 4).unwrap()),
        ];
        for workload in scenarios {
            let mut sim = DirectorySim::build(config(4, ProtocolKind::TwoBit)).unwrap();
            let report = sim.run(workload, 400).unwrap();
            assert_eq!(report.stats.total_references(), 1600);
        }
    }

    #[test]
    fn duplicate_directory_reduces_stolen_cycles() {
        let run = |dup| {
            let mut cfg = config(8, ProtocolKind::TwoBit);
            cfg.duplicate_directory = dup;
            let workload = SharingModel::new(SharingParams::high(), 8, 33).unwrap();
            let mut sim = DirectorySim::build(cfg).unwrap();
            sim.run(workload, 600).unwrap()
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with.stolen_per_reference() < without.stolen_per_reference(),
            "dup-dir {} vs plain {}",
            with.stolen_per_reference(),
            without.stolen_per_reference()
        );
        // Same protocol: same commands, just cheaper to receive.
        assert!(with.commands_per_reference() > 0.0);
    }

    #[test]
    fn bus_protocols_rejected_here() {
        let mut cfg = config(2, ProtocolKind::Illinois);
        cfg.address_map = twobit_types::AddressMap::interleaved(1);
        assert!(DirectorySim::build(cfg).is_err());
    }
}
