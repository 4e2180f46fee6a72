//! The deterministic gate: runs every directory scheme over
//! representative workloads and records what each run simulated —
//! events, cycles, tag probes and per-class latency — as one text line
//! per case.
//!
//! Nothing in the text is a host timing, so the same tree always renders
//! the same bytes, and `tests/golden.rs` demands equality with
//! `golden/gate.txt`. Wall-clock speed is recorded by the repository
//! benchmark (`benchmark/`), not here.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use twobit_obs::TxnClass;
use twobit_sim::System;
use twobit_types::{ProtocolKind, SystemConfig};
use twobit_workload::{SharingModel, SharingParams};

/// Processors per simulated system.
pub const CACHES: usize = 8;
/// References per processor per case.
pub const REFS_PER_CPU: u64 = 500;
/// Workload seed.
pub const SEED: u64 = 42;

/// The six directory schemes the suite covers — the full section 2/3
/// design space the simulator implements (bus protocols use a different
/// timing model and are tracked by their own experiments).
#[must_use]
pub fn all_schemes() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::TwoBit,
        ProtocolKind::TwoBitTlb { entries: 16 },
        ProtocolKind::FullMap,
        ProtocolKind::FullMapLocal,
        ProtocolKind::ClassicalWriteThrough,
        ProtocolKind::StaticSoftware,
    ]
}

/// The representative workloads: the paper's three sharing cases plus a
/// Zipf-skewed variant (hot shared blocks, the directory's worst case).
#[must_use]
pub fn all_workloads() -> Vec<(String, SharingParams)> {
    let zipf = SharingParams {
        shared_zipf_s: Some(1.2),
        ..SharingParams::moderate()
    };
    vec![
        ("low".to_string(), SharingParams::low()),
        ("moderate".to_string(), SharingParams::moderate()),
        ("high".to_string(), SharingParams::high()),
        ("zipf".to_string(), zipf),
    ]
}

/// What one case simulated.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// `<scheme>/<workload>`.
    pub label: String,
    /// Memory references simulated (all processors).
    pub refs: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Simulated cycles elapsed.
    pub cycles: u64,
    /// Cache tag-store probes performed (hot-path op count).
    pub tag_probes: u64,
    /// Simulated latency per transaction class that completed at least
    /// once: `[count, p50, p99]`, from the run's histogram registry.
    pub latency: BTreeMap<String, [u64; 3]>,
}

/// The whole sweep: one entry per case.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// Results in scheme-major, workload-minor order.
    pub cases: Vec<BenchCase>,
}

/// Runs every scheme of [`all_schemes`] over every workload of
/// [`all_workloads`] at [`CACHES`], [`REFS_PER_CPU`] and [`SEED`], one
/// case at a time on the calling thread.
///
/// # Panics
///
/// Panics if a case fails to build or run — every configuration the
/// suite generates is valid, so a failure is a simulator bug.
#[must_use]
pub fn run_suite() -> BenchDoc {
    let workloads = all_workloads();
    let cases = all_schemes()
        .into_iter()
        .flat_map(|scheme| {
            workloads
                .iter()
                .map(move |(name, params)| run_case(scheme, name, *params))
        })
        .collect();
    BenchDoc { cases }
}

fn run_case(scheme: ProtocolKind, workload_name: &str, params: SharingParams) -> BenchCase {
    let config = SystemConfig::with_defaults(CACHES).with_protocol(scheme);
    let workload = SharingModel::new(params, CACHES, SEED)
        .unwrap_or_else(|e| panic!("workload {workload_name}: {e}"));
    let mut system =
        System::build(config).unwrap_or_else(|e| panic!("build {}: {e}", scheme.name()));
    let report = system
        .run(workload, REFS_PER_CPU)
        .unwrap_or_else(|e| panic!("run {}/{workload_name}: {e}", scheme.name()));
    let latency = TxnClass::ALL
        .iter()
        .filter_map(|&class| {
            let lat = report.latency(class)?;
            (lat.count > 0).then(|| (class.to_string(), [lat.count, lat.p50, lat.p99]))
        })
        .collect();
    BenchCase {
        label: format!("{}/{workload_name}", scheme.name()),
        refs: report.stats.total_references(),
        events: report.events,
        cycles: report.cycles,
        tag_probes: report.stats.caches.iter().map(|c| c.tag_probes.get()).sum(),
        latency,
    }
}

impl BenchDoc {
    /// Renders one line per case: its label, its counts, then
    /// `<class>=<count>/<p50>/<p99>` for each completed latency class in
    /// name order.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for case in &self.cases {
            let _ = write!(
                out,
                "{} refs={} events={} cycles={} tag_probes={}",
                case.label, case.refs, case.events, case.cycles, case.tag_probes,
            );
            for (class, [count, p50, p99]) in &case.latency {
                let _ = write!(out, " {class}={count}/{p50}/{p99}");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_grid_is_six_schemes_by_four_workloads() {
        assert_eq!(all_schemes().len(), 6);
        let workloads = all_workloads();
        assert_eq!(workloads.len(), 4);
        let zipf = &workloads[3];
        assert_eq!(zipf.0, "zipf");
        assert!(zipf.1.shared_zipf_s.is_some());
    }

    #[test]
    fn render_mentions_every_case() {
        let table = run_suite().render();
        let labels: Vec<&str> = table
            .lines()
            .map(|line| line.split(' ').next().unwrap_or_default())
            .collect();
        assert_eq!(labels.len(), 24, "{table}");
        assert_eq!(labels[0], "two-bit/low", "{table}");
        assert_eq!(labels[23], "static-sw/zipf", "{table}");
        for line in table.lines() {
            assert!(line.contains(" refs=4000 "), "{line}");
            assert!(line.contains(" read-miss="), "{line}");
        }
    }
}
