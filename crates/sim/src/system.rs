//! The facade over both simulation backends.

use crate::bus_sim::BusSim;
use crate::directory_sim::DirectorySim;
use crate::report::Report;
use twobit_obs::{PerfReport, Tracer};
use twobit_types::{ConfigError, ProtocolError, SystemConfig};
use twobit_workload::Workload;

/// A complete simulated multiprocessor, directory- or bus-based depending
/// on [`SystemConfig::protocol`].
///
/// This is the type examples and benches use: build once, run a workload,
/// get a [`Report`] in the paper's units.
#[derive(Debug)]
pub struct System {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    Directory(Box<DirectorySim>),
    Bus(Box<BusSim>),
}

impl System {
    /// Builds the appropriate simulation for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn build(config: SystemConfig) -> Result<Self, ConfigError> {
        let inner = if config.protocol.is_bus_based() {
            Inner::Bus(Box::new(BusSim::build(config)?))
        } else {
            Inner::Directory(Box::new(DirectorySim::build(config)?))
        };
        Ok(System { inner })
    }

    /// Runs `refs_per_cpu` references per processor and returns the
    /// drained, invariant-checked report.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on coherence violations, liveness
    /// failures, or invariant breaks.
    pub fn run<W: Workload>(
        &mut self,
        workload: W,
        refs_per_cpu: u64,
    ) -> Result<Report, ProtocolError> {
        match &mut self.inner {
            Inner::Directory(sim) => sim.run(workload, refs_per_cpu),
            Inner::Bus(sim) => sim.run(workload, refs_per_cpu),
        }
    }

    /// [`System::run`]; `jobs` is ignored. A simulation is one event loop
    /// on the calling thread, and parallelism goes across runs
    /// (`twobit_core::parallel_map`). This exists because the repository
    /// benchmark (`benchmark/src/sim.rs`) calls it, until ROADMAP item
    /// 1(f) moves that call to `run`.
    ///
    /// # Errors
    ///
    /// Exactly as [`System::run`].
    pub fn run_jobs<W: Workload>(
        &mut self,
        workload: W,
        refs_per_cpu: u64,
        _jobs: usize,
    ) -> Result<Report, ProtocolError> {
        self.run(workload, refs_per_cpu)
    }

    /// Installs a trace sink on the underlying simulator (default
    /// `NullTracer`, which costs nothing).
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        match &mut self.inner {
            Inner::Directory(sim) => sim.set_tracer(tracer),
            Inner::Bus(sim) => sim.set_tracer(tracer),
        }
    }

    /// Removes and returns the installed tracer, replacing it with a
    /// `NullTracer`. Call after [`System::run`] to inspect or flush a
    /// sink you installed.
    pub fn take_tracer(&mut self) -> Box<dyn Tracer> {
        match &mut self.inner {
            Inner::Directory(sim) => sim.take_tracer(),
            Inner::Bus(sim) => sim.take_tracer(),
        }
    }

    /// Turns hot-path span profiling on or off (directory backend only;
    /// the bus adapter has no event loop to attribute). No effect unless
    /// the `perf-spans` cargo feature is enabled.
    pub fn set_profiling(&mut self, on: bool) {
        if let Inner::Directory(sim) = &mut self.inner {
            sim.set_profiling(on);
        }
    }

    /// The accumulated span report ("top handlers by self-time"). Empty
    /// for the bus backend, when profiling was never enabled, or when the
    /// `perf-spans` feature is off.
    #[must_use]
    pub fn perf_report(&self) -> PerfReport {
        match &self.inner {
            Inner::Directory(sim) => sim.perf_report(),
            Inner::Bus(_) => PerfReport::new(),
        }
    }
}

/// Convenience: build and run in one call.
///
/// # Errors
///
/// Returns the error message of either the configuration or the run.
pub fn simulate<W: Workload>(
    config: SystemConfig,
    workload: W,
    refs_per_cpu: u64,
) -> Result<Report, Box<dyn std::error::Error>> {
    let mut system = System::build(config)?;
    Ok(system.run(workload, refs_per_cpu)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::{AddressMap, ProtocolKind};
    use twobit_workload::{SharingModel, SharingParams};

    #[test]
    fn facade_routes_by_protocol() {
        let mut directory = System::build(SystemConfig::with_defaults(2)).unwrap();
        let w = SharingModel::new(SharingParams::low(), 2, 1).unwrap();
        let r = directory.run(w, 100).unwrap();
        assert_eq!(r.protocol, ProtocolKind::TwoBit);

        let mut cfg = SystemConfig::with_defaults(2).with_protocol(ProtocolKind::Illinois);
        cfg.address_map = AddressMap::interleaved(1);
        let mut bus = System::build(cfg).unwrap();
        let w = SharingModel::new(SharingParams::low(), 2, 1).unwrap();
        let r = bus.run(w, 100).unwrap();
        assert_eq!(r.protocol, ProtocolKind::Illinois);
    }

    #[test]
    fn simulate_helper_works_end_to_end() {
        let w = SharingModel::new(SharingParams::moderate(), 4, 9).unwrap();
        let r = simulate(SystemConfig::with_defaults(4), w, 200).unwrap();
        assert_eq!(r.stats.total_references(), 800);
    }
}
