//! Adapter running the section 2.5 snooping protocols under the common
//! `System`/`Report` interface.

use crate::report::Report;
use twobit_bus::{BusProtocolKind, BusSystem};
use twobit_obs::{ActorId, Metrics, NullTracer, SimEvent, Tracer, TxnClass};
use twobit_types::{AccessKind, CacheId, ConfigError, ProtocolError, ProtocolKind, SystemConfig};
use twobit_workload::Workload;

/// A snooping-bus run: transaction-atomic execution (the bus serializes
/// coherence by nature) with bus-occupancy time accounting.
#[derive(Debug)]
pub struct BusSim {
    config: SystemConfig,
    system: BusSystem,
    tracer: Box<dyn Tracer>,
    metrics: Metrics,
}

impl BusSim {
    /// Builds the bus simulation.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid configurations or directory
    /// protocols.
    pub fn build(config: SystemConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let kind = match config.protocol {
            ProtocolKind::WriteOnce => BusProtocolKind::WriteOnce,
            ProtocolKind::Illinois => BusProtocolKind::Illinois,
            other => {
                return Err(ConfigError::new(format!(
                    "{other} is not a bus protocol; use DirectorySim"
                )))
            }
        };
        let system = BusSystem::new(kind, config.caches, config.cache)?;
        let metrics = Metrics::new(1);
        Ok(BusSim {
            config,
            system,
            tracer: Box::new(NullTracer),
            metrics,
        })
    }

    /// Installs a trace sink (default [`NullTracer`]). Bus references are
    /// atomic, so the trace is one event per reference, stamped with the
    /// bus-cycle clock.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = tracer;
    }

    /// Removes and returns the installed tracer (replacing it with
    /// [`NullTracer`]).
    pub fn take_tracer(&mut self) -> Box<dyn Tracer> {
        std::mem::replace(&mut self.tracer, Box::new(NullTracer))
    }

    /// Runs `refs_per_cpu` references per CPU, round-robin (the bus
    /// arbiter's fair ordering).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any coherence violation.
    pub fn run<W: Workload>(
        &mut self,
        mut workload: W,
        refs_per_cpu: u64,
    ) -> Result<Report, ProtocolError> {
        // One "event" per reference: the bus adapter is transaction-atomic,
        // so a reference is its unit of simulation work.
        let mut events: u64 = 0;
        for _ in 0..refs_per_cpu {
            for k in CacheId::all(self.config.caches) {
                events += 1;
                let op = workload.next_ref(k);
                let before = self.system.bus_cycles();
                let completion = self.system.do_ref(k, op)?;
                let after = self.system.bus_cycles();
                if !completion.was_hit {
                    // The bus serializes a whole transaction inside
                    // `do_ref`; the cycles it consumed are the reference's
                    // end-to-end latency. Write hits needing an upgrade
                    // ride the write-miss class: the atomic adapter cannot
                    // see the pre-transaction line state.
                    let class = match op.kind {
                        AccessKind::Read => TxnClass::ReadMiss,
                        AccessKind::Write => TxnClass::WriteMiss,
                    };
                    self.metrics.record_latency(class, after - before);
                }
                if self.tracer.enabled() {
                    self.tracer.record(SimEvent::new(
                        after,
                        ActorId::Cache(k),
                        op.addr.block,
                        format!(
                            "{op} ({})",
                            if completion.was_hit { "hit" } else { "bus txn" }
                        ),
                    ));
                }
            }
        }
        let stats = self.system.stats();
        let obs = self.metrics.summary(&stats.caches);
        let cycles = self.system.bus_cycles();
        self.tracer.flush();
        Ok(Report {
            protocol: self.config.protocol,
            stats,
            cycles,
            events,
            obs: Some(obs),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::AddressMap;
    use twobit_workload::{SharingModel, SharingParams};

    fn bus_config(protocol: ProtocolKind) -> SystemConfig {
        let mut cfg = SystemConfig::with_defaults(4).with_protocol(protocol);
        cfg.address_map = AddressMap::interleaved(1);
        cfg
    }

    #[test]
    fn both_bus_protocols_run() {
        for protocol in [ProtocolKind::WriteOnce, ProtocolKind::Illinois] {
            let workload = SharingModel::new(SharingParams::moderate(), 4, 3).unwrap();
            let mut sim = BusSim::build(bus_config(protocol)).unwrap();
            let report = sim.run(workload, 500).unwrap();
            assert_eq!(report.stats.total_references(), 2000);
            assert!(report.cycles > 0, "bus occupancy accumulates");
            assert!(
                report.commands_per_reference() > 0.0,
                "every miss is snooped"
            );
        }
    }

    #[test]
    fn directory_protocols_rejected() {
        assert!(BusSim::build(bus_config(ProtocolKind::TwoBit)).is_err());
    }
}
