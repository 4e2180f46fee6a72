//! The deterministic record behind the `bench_throughput` binary: runs
//! every directory scheme over representative workloads and records what
//! each run simulated — events, cycles, tag probes and per-class latency
//! — as a `BENCH_*.json` document (schema in EXPERIMENTS.md).
//!
//! Nothing in the document is a host timing, so the same config always
//! writes the same document, and [`mod@crate::compare`] can demand
//! equality with the checked-in baseline. Wall-clock speed is recorded by
//! the repository benchmark (`benchmark/`), not here.

use std::collections::BTreeMap;

use twobit_obs::json::{self, num_u64, obj, Json, Value};
use twobit_obs::TxnClass;
use twobit_sim::System;
use twobit_types::{ProtocolKind, SystemConfig};
use twobit_workload::{SharingModel, SharingParams};

/// Identifies the document format; bumped on breaking schema changes.
pub const SCHEMA: &str = "twobit-bench/v2";

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

/// Suite configuration, embedded in the emitted document so a baseline
/// records exactly how it was produced.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Processors per simulated system.
    pub caches: usize,
    /// References per processor per case.
    pub refs_per_cpu: u64,
    /// Workload seed.
    pub seed: u64,
    /// Schemes to run (default [`all_schemes`]).
    pub schemes: Vec<ProtocolKind>,
    /// Labelled workloads to run (default [`all_workloads`]).
    pub workloads: Vec<(String, SharingParams)>,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            caches: 8,
            refs_per_cpu: 2_000,
            seed: 42,
            schemes: all_schemes(),
            workloads: all_workloads(),
        }
    }
}

/// What one case simulated.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// `<scheme>/<workload>`, the stable join key for comparisons.
    pub label: String,
    /// Scheme name ([`ProtocolKind::name`]).
    pub protocol: String,
    /// Workload label.
    pub workload: String,
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

/// A complete benchmark document: config + one entry per case.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// The configuration that produced it.
    pub config: BenchConfig,
    /// Results in scheme-major, workload-minor order.
    pub cases: Vec<BenchCase>,
}

/// Runs the full suite, one case at a time on the calling thread.
///
/// # Panics
///
/// Panics if a case fails to build or run — every configuration the
/// suite generates is valid, so a failure is a simulator bug.
#[must_use]
pub fn run_suite(cfg: &BenchConfig) -> BenchDoc {
    let cases = cfg
        .schemes
        .iter()
        .flat_map(|&scheme| {
            cfg.workloads
                .iter()
                .map(move |(name, params)| run_case(cfg, scheme, name, *params))
        })
        .collect();
    BenchDoc {
        config: cfg.clone(),
        cases,
    }
}

fn run_case(
    cfg: &BenchConfig,
    scheme: ProtocolKind,
    workload_name: &str,
    params: SharingParams,
) -> BenchCase {
    let config = SystemConfig::with_defaults(cfg.caches).with_protocol(scheme);
    let workload = SharingModel::new(params, cfg.caches, cfg.seed)
        .unwrap_or_else(|e| panic!("workload {workload_name}: {e}"));
    let mut system =
        System::build(config).unwrap_or_else(|e| panic!("build {}: {e}", scheme.name()));
    let report = system
        .run(workload, cfg.refs_per_cpu)
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
        protocol: scheme.name().to_string(),
        workload: workload_name.to_string(),
        refs: report.stats.total_references(),
        events: report.events,
        cycles: report.cycles,
        tag_probes: report.stats.caches.iter().map(|c| c.tag_probes.get()).sum(),
        latency,
    }
}

impl BenchDoc {
    /// Serializes to the documented `BENCH_*.json` schema, pretty-printed
    /// (baselines are checked in; humans read the diffs).
    #[must_use]
    pub fn to_json(&self) -> String {
        let config = obj([
            ("caches", num_u64(self.config.caches as u64)),
            ("refs_per_cpu", num_u64(self.config.refs_per_cpu)),
            ("seed", num_u64(self.config.seed)),
        ]);
        let cases = self
            .cases
            .iter()
            .map(|case| {
                let latency = case
                    .latency
                    .iter()
                    .map(|(class, [count, p50, p99])| {
                        let entry = obj([
                            ("count", num_u64(*count)),
                            ("p50", num_u64(*p50)),
                            ("p99", num_u64(*p99)),
                        ]);
                        (class.clone(), entry)
                    })
                    .collect();
                obj([
                    ("label", Json::Str(case.label.clone())),
                    ("protocol", Json::Str(case.protocol.clone())),
                    ("workload", Json::Str(case.workload.clone())),
                    ("refs", num_u64(case.refs)),
                    ("events", num_u64(case.events)),
                    ("cycles", num_u64(case.cycles)),
                    ("tag_probes", num_u64(case.tag_probes)),
                    ("latency", Json::Obj(latency)),
                ])
            })
            .collect();
        obj([
            ("schema", Json::Str(SCHEMA.to_string())),
            ("config", config),
            ("cases", Json::Arr(cases)),
        ])
        .to_json_pretty()
    }

    /// Parses a document produced by [`BenchDoc::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field, or the
    /// schema when it is not [`SCHEMA`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let schema = doc.req_str("schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
        }
        let config_json = doc.member("config")?;
        let config = BenchConfig {
            caches: config_json.field("caches")?,
            refs_per_cpu: config_json.field("refs_per_cpu")?,
            seed: config_json.field("seed")?,
            schemes: Vec::new(),
            workloads: Vec::new(),
        };
        let cases = doc
            .array("cases")?
            .map(parse_case)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchDoc { config, cases })
    }

    /// The case with the given label, if present.
    #[must_use]
    pub fn case(&self, label: &str) -> Option<&BenchCase> {
        self.cases.iter().find(|c| c.label == label)
    }

    /// Renders the human-readable summary table, one line per case.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<26} {:>10} {:>10} {:>10} {:>12}\n",
            "case", "refs", "events", "cycles", "tag_probes"
        );
        for case in &self.cases {
            out.push_str(&format!(
                "{:<26} {:>10} {:>10} {:>10} {:>12}\n",
                case.label, case.refs, case.events, case.cycles, case.tag_probes,
            ));
        }
        out
    }
}

fn parse_case(json: &Json) -> Result<BenchCase, String> {
    let latency = json
        .member("latency")?
        .as_object()
        .ok_or("field \"latency\": not an object")?
        .iter()
        .map(|(class, entry)| {
            let stats = [
                entry.field("count")?,
                entry.field("p50")?,
                entry.field("p99")?,
            ];
            Ok((class.clone(), stats))
        })
        .collect::<Result<_, String>>()?;
    Ok(BenchCase {
        label: json.field("label")?,
        protocol: json.field("protocol")?,
        workload: json.field("workload")?,
        refs: json.field("refs")?,
        events: json.field("events")?,
        cycles: json.field("cycles")?,
        tag_probes: json.field("tag_probes")?,
        latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> BenchConfig {
        BenchConfig {
            caches: 2,
            refs_per_cpu: 60,
            seed: 7,
            schemes: vec![ProtocolKind::TwoBit, ProtocolKind::FullMap],
            workloads: vec![("moderate".to_string(), SharingParams::moderate())],
        }
    }

    #[test]
    fn suite_covers_the_grid_and_roundtrips() {
        let doc = run_suite(&small_config());
        assert_eq!(doc.cases.len(), 2);
        assert_eq!(doc.cases[0].label, "two-bit/moderate");
        assert_eq!(doc.cases[1].label, "full-map/moderate");
        for case in &doc.cases {
            assert_eq!(case.refs, 120, "{}", case.label);
            assert!(case.events > 0 && case.cycles > 0);
            assert!(case.tag_probes > 0, "probes counted");
            assert!(!case.latency.is_empty(), "histograms populated");
        }
        let text = doc.to_json();
        let parsed = BenchDoc::from_json(&text).unwrap();
        assert_eq!(parsed.cases.len(), doc.cases.len());
        for (a, b) in parsed.cases.iter().zip(&doc.cases) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.refs, b.refs);
            assert_eq!(a.events, b.events);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.tag_probes, b.tag_probes);
            assert_eq!(a.latency, b.latency);
        }
        assert_eq!(parsed.config.refs_per_cpu, 60);
        assert_eq!(parsed.config.seed, 7);
        assert_eq!(parsed.to_json(), text, "no field is lost on a round trip");
        assert_eq!(
            run_suite(&small_config()).to_json(),
            text,
            "a document holds no host timing"
        );
    }

    #[test]
    fn default_grid_is_six_schemes_by_four_workloads() {
        let cfg = BenchConfig::default();
        assert_eq!(cfg.schemes.len(), 6);
        assert_eq!(cfg.workloads.len(), 4);
        let zipf = &cfg.workloads[3];
        assert_eq!(zipf.0, "zipf");
        assert!(zipf.1.shared_zipf_s.is_some());
    }

    #[test]
    fn the_committed_baseline_still_parses() {
        let text = include_str!("../../../BENCH_baseline.json");
        let doc = BenchDoc::from_json(text).unwrap();
        assert_eq!(doc.cases.len(), 24);
        assert_eq!(doc.config.refs_per_cpu, 500);
        assert!(doc.case("two-bit/high").is_some_and(|c| c.events > 0));
        assert_eq!(doc.to_json(), text, "the baseline is what to_json writes");
    }

    #[test]
    fn render_mentions_every_case() {
        let doc = run_suite(&small_config());
        let table = doc.render();
        assert!(table.contains("two-bit/moderate"), "{table}");
        assert!(table.contains("full-map/moderate"), "{table}");
        assert!(table.contains("cycles"), "{table}");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        for schema in ["other/v9", "twobit-bench/v1"] {
            let text = format!(r#"{{"schema": "{schema}", "config": {{}}, "cases": []}}"#);
            let err = BenchDoc::from_json(&text).unwrap_err();
            assert!(err.contains("unsupported schema"), "{err}");
        }
    }
}
