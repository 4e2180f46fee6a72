//! The common experiment report.

use twobit_obs::{LatencySummary, MetricsSummary, TxnClass};
use twobit_types::{ProtocolKind, SystemStats};

/// Results of one simulated run, in the paper's units.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The protocol that ran.
    pub protocol: ProtocolKind,
    /// Full per-component statistics.
    pub stats: SystemStats,
    /// Simulated cycles elapsed.
    pub cycles: u64,
    /// Simulation events processed: event-queue pops for the
    /// discrete-event simulator, bus steps for the bus simulator. The
    /// denominator of the throughput benchmark's events/sec figure.
    pub events: u64,
    /// Observability summary: latency percentiles per transaction class,
    /// queue-depth/outstanding gauges, and the useless-command rate.
    /// `None` only for hand-built reports; both simulators populate it.
    pub obs: Option<MetricsSummary>,
}

impl Report {
    /// Commands received per cache per memory reference — the Table 4-1 /
    /// 4-2 axis.
    #[must_use]
    pub fn commands_per_reference(&self) -> f64 {
        self.stats.commands_received_per_reference()
    }

    /// Useless (non-matching) commands per reference — the pure waste the
    /// two-bit scheme trades for its small directory.
    #[must_use]
    pub fn useless_per_reference(&self) -> f64 {
        let refs = self.stats.total_references();
        if refs == 0 {
            return 0.0;
        }
        let useless: u64 = self
            .stats
            .caches
            .iter()
            .map(|c| c.useless_commands.get())
            .sum();
        useless as f64 / refs as f64
    }

    /// Stolen cache cycles per reference.
    #[must_use]
    pub fn stolen_per_reference(&self) -> f64 {
        let refs = self.stats.total_references();
        if refs == 0 {
            return 0.0;
        }
        let stolen: u64 = self
            .stats
            .caches
            .iter()
            .map(|c| c.stolen_cycles.get())
            .sum();
        stolen as f64 / refs as f64
    }

    /// Broadcasts sent per memory reference.
    #[must_use]
    pub fn broadcasts_per_reference(&self) -> f64 {
        let refs = self.stats.total_references();
        if refs == 0 {
            return 0.0;
        }
        let b: u64 = self
            .stats
            .controllers
            .iter()
            .map(|c| c.broadcasts_sent.get())
            .sum();
        b as f64 / refs as f64
    }

    /// Network deliveries per memory reference (the traffic axis of
    /// section 4.3's closing concern).
    #[must_use]
    pub fn deliveries_per_reference(&self) -> f64 {
        let refs = self.stats.total_references();
        if refs == 0 {
            return 0.0;
        }
        self.stats.network.deliveries.as_f64() / refs as f64
    }

    /// Cycles per reference (a throughput figure; lower is better).
    #[must_use]
    pub fn cycles_per_reference(&self) -> f64 {
        let refs = self.stats.total_references();
        if refs == 0 {
            return 0.0;
        }
        self.cycles as f64 / (refs as f64 / self.stats.caches.len().max(1) as f64)
    }

    /// System-wide hit ratio.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        self.stats.hit_ratio()
    }

    /// The latency summary for one transaction class, when the run
    /// carried a metrics registry.
    #[must_use]
    pub fn latency(&self, class: TxnClass) -> Option<LatencySummary> {
        let obs = self.obs.as_ref()?;
        obs.latency
            .iter()
            .find(|(c, _)| *c == class)
            .map(|(_, s)| *s)
    }

    /// Peak controller conflict-queue depth observed (0 without metrics).
    #[must_use]
    pub fn peak_queue_depth(&self) -> u64 {
        self.obs.as_ref().map_or(0, |o| o.peak_queue_depth)
    }

    /// Useless fraction of delivered coherence commands (0 without
    /// metrics).
    #[must_use]
    pub fn useless_rate(&self) -> f64 {
        self.obs.as_ref().map_or(0.0, MetricsSummary::useless_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::Counter;

    fn report_with(refs_per_cache: u64, received: u64, caches: usize) -> Report {
        let mut stats = SystemStats::new(caches, 1);
        for c in &mut stats.caches {
            c.reads = Counter::from(refs_per_cache);
            c.commands_received = Counter::from(received);
            c.useless_commands = Counter::from(received / 2);
            c.stolen_cycles = Counter::from(received);
        }
        Report {
            protocol: ProtocolKind::TwoBit,
            stats,
            cycles: 1000,
            events: 0,
            obs: None,
        }
    }

    #[test]
    fn per_reference_metrics_normalize() {
        let r = report_with(100, 25, 4);
        assert!((r.commands_per_reference() - 0.25).abs() < 1e-12);
        assert!((r.useless_per_reference() - 0.12).abs() < 0.01);
        assert!((r.stolen_per_reference() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_report_gives_zeroes_not_nan() {
        let r = Report {
            protocol: ProtocolKind::FullMap,
            stats: SystemStats::new(2, 1),
            cycles: 0,
            events: 0,
            obs: None,
        };
        assert_eq!(r.commands_per_reference(), 0.0);
        assert_eq!(r.cycles_per_reference(), 0.0);
        assert_eq!(r.deliveries_per_reference(), 0.0);
        assert_eq!(r.latency(TxnClass::ReadMiss), None);
        assert_eq!(r.peak_queue_depth(), 0);
        assert_eq!(r.useless_rate(), 0.0);
    }

    #[test]
    fn cycles_per_reference_uses_per_cpu_rate() {
        let r = report_with(100, 0, 4);
        // 1000 cycles for 100 refs per cpu → 10 cycles/ref.
        assert!((r.cycles_per_reference() - 10.0).abs() < 1e-9);
    }
}
