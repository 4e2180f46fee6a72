//! The throughput benchmark suite behind the `bench_throughput` binary:
//! runs every directory scheme over representative workloads, measures
//! host-side simulation throughput (refs/sec, events/sec), and serializes
//! the results as a `BENCH_*.json` document (schema in EXPERIMENTS.md).
//!
//! The suite exists so the engine's performance is *tracked*: a
//! checked-in baseline document plus [`mod@crate::compare`] give CI a
//! regression gate, and the `perf-spans` feature adds a "top handlers by
//! self-time" attribution table per case.

use std::time::Instant;

use twobit_core::parallel_map;
use twobit_obs::json::{self, num_u64, obj, Json, Value};
use twobit_obs::{SpanStat, TxnClass};
use twobit_sim::System;
use twobit_types::{ProtocolKind, SystemConfig};
use twobit_workload::{SharingModel, SharingParams};

/// Identifies the document format; bumped on breaking schema changes.
pub const SCHEMA: &str = "twobit-bench/v1";

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

/// Suite configuration, embedded verbatim in the emitted document so a
/// baseline records exactly how it was produced.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Processors per simulated system.
    pub caches: usize,
    /// References per processor per case.
    pub refs_per_cpu: u64,
    /// Workload seed (fixed: the suite is deterministic in simulated
    /// work; only wall-clock figures vary between runs).
    pub seed: u64,
    /// Whether span profiling was requested (only effective when built
    /// with the `perf-spans` feature).
    pub profile: bool,
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
            profile: false,
            schemes: all_schemes(),
            workloads: all_workloads(),
        }
    }
}

/// Hooks into a counting global allocator, passed by the binary when
/// built with the `counting-alloc` feature. The peak is process-wide,
/// which is exact because cases run sequentially on one thread.
#[derive(Debug, Clone, Copy)]
pub struct AllocHooks {
    /// Resets the peak-tracking watermark to the current usage.
    pub reset: fn(),
    /// The peak bytes allocated since the last reset.
    pub peak_bytes: fn() -> u64,
}

/// One case's measurements.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// `<scheme>/<workload>`, the stable join key for comparisons.
    pub label: String,
    /// Scheme name ([`ProtocolKind::name`]).
    pub protocol: String,
    /// Workload label.
    pub workload: String,
    /// Host wall-clock time for the run, in nanoseconds.
    pub wall_ns: u64,
    /// Memory references simulated (all processors).
    pub refs: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Simulated cycles elapsed.
    pub cycles: u64,
    /// Cache tag-store probes performed (hot-path op count).
    pub tag_probes: u64,
    /// Per-transaction-class simulated latency: `(class, count, p50,
    /// p99)`, from the run's histogram registry.
    pub latency: Vec<(String, u64, u64, u64)>,
    /// Span self-time attribution (empty unless profiled with the
    /// `perf-spans` feature).
    pub spans: Vec<(String, SpanStat)>,
    /// Peak bytes allocated during the run (`None` without the counting
    /// allocator).
    pub peak_alloc_bytes: Option<u64>,
}

impl BenchCase {
    /// Simulated references per host second.
    #[must_use]
    pub fn refs_per_sec(&self) -> f64 {
        per_sec(self.refs, self.wall_ns)
    }

    /// Simulation events per host second.
    #[must_use]
    pub fn events_per_sec(&self) -> f64 {
        per_sec(self.events, self.wall_ns)
    }
}

fn per_sec(count: u64, wall_ns: u64) -> f64 {
    if wall_ns == 0 {
        return 0.0;
    }
    count as f64 / (wall_ns as f64 / 1e9)
}

/// A complete benchmark document: config + one entry per case.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// The configuration that produced it.
    pub config: BenchConfig,
    /// Results in scheme-major, workload-minor order.
    pub cases: Vec<BenchCase>,
}

/// Runs the full suite. Deterministic in simulated work: the same config
/// yields identical `refs`/`events`/`cycles`/`tag_probes` whatever the
/// wall-clock noise.
///
/// # Panics
///
/// Panics if a case fails to build or run — every configuration the
/// suite generates is valid, so a failure is a simulator bug.
#[must_use]
pub fn run_suite(cfg: &BenchConfig, alloc: Option<AllocHooks>) -> BenchDoc {
    let grid: Vec<(ProtocolKind, String, SharingParams)> = cfg
        .schemes
        .iter()
        .flat_map(|&scheme| {
            cfg.workloads
                .iter()
                .map(move |(name, params)| (scheme, name.clone(), *params))
        })
        .collect();
    // One case at a time, so per-case wall clock is never polluted by
    // sibling cases.
    let cases = parallel_map(grid, 1, |(scheme, workload_name, params)| {
        run_case(cfg, scheme, &workload_name, params, alloc)
    });
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
    alloc: Option<AllocHooks>,
) -> BenchCase {
    let config = SystemConfig::with_defaults(cfg.caches).with_protocol(scheme);
    let workload = SharingModel::new(params, cfg.caches, cfg.seed)
        .unwrap_or_else(|e| panic!("workload {workload_name}: {e}"));
    let mut system =
        System::build(config).unwrap_or_else(|e| panic!("build {}: {e}", scheme.name()));
    system.set_profiling(cfg.profile);
    if let Some(hooks) = alloc {
        (hooks.reset)();
    }
    let start = Instant::now();
    let report = system
        .run(workload, cfg.refs_per_cpu)
        .unwrap_or_else(|e| panic!("run {}/{workload_name}: {e}", scheme.name()));
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let peak_alloc_bytes = alloc.map(|hooks| (hooks.peak_bytes)());

    // Sorted by class name to match the canonical (BTreeMap-keyed) JSON
    // object order, so in-memory and reparsed documents compare equal.
    let mut latency: Vec<_> = TxnClass::ALL
        .iter()
        .filter_map(|&class| {
            let lat = report.latency(class)?;
            (lat.count > 0).then(|| (class.to_string(), lat.count, lat.p50, lat.p99))
        })
        .collect();
    latency.sort();
    let spans = system
        .perf_report()
        .by_self_time()
        .into_iter()
        .map(|(name, stat)| (name.to_string(), stat))
        .collect();
    BenchCase {
        label: format!("{}/{workload_name}", scheme.name()),
        protocol: scheme.name().to_string(),
        workload: workload_name.to_string(),
        wall_ns,
        refs: report.stats.total_references(),
        events: report.events,
        cycles: report.cycles,
        tag_probes: report.stats.caches.iter().map(|c| c.tag_probes.get()).sum(),
        latency,
        spans,
        peak_alloc_bytes,
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
            ("profile", Json::Bool(self.config.profile)),
        ]);
        let cases = self
            .cases
            .iter()
            .map(|case| {
                let latency = Json::Obj(
                    case.latency
                        .iter()
                        .map(|(class, count, p50, p99)| {
                            (
                                class.clone(),
                                obj([
                                    ("count", num_u64(*count)),
                                    ("p50", num_u64(*p50)),
                                    ("p99", num_u64(*p99)),
                                ]),
                            )
                        })
                        .collect(),
                );
                let spans = Json::Arr(
                    case.spans
                        .iter()
                        .map(|(name, stat)| {
                            obj([
                                ("name", Json::Str(name.clone())),
                                ("count", num_u64(stat.count)),
                                ("total_ns", num_u64(stat.total_ns)),
                                ("self_ns", num_u64(stat.self_ns)),
                            ])
                        })
                        .collect(),
                );
                let mut case_obj = vec![
                    ("label", Json::Str(case.label.clone())),
                    ("protocol", Json::Str(case.protocol.clone())),
                    ("workload", Json::Str(case.workload.clone())),
                    ("wall_ns", num_u64(case.wall_ns)),
                    ("refs", num_u64(case.refs)),
                    ("events", num_u64(case.events)),
                    ("cycles", num_u64(case.cycles)),
                    ("tag_probes", num_u64(case.tag_probes)),
                    ("refs_per_sec", Json::Num(case.refs_per_sec())),
                    ("events_per_sec", Json::Num(case.events_per_sec())),
                    ("latency", latency),
                    ("spans", spans),
                ];
                if let Some(peak) = case.peak_alloc_bytes {
                    case_obj.push(("peak_alloc_bytes", num_u64(peak)));
                }
                obj(case_obj)
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
    /// The stored `refs_per_sec`/`events_per_sec` fields are derived and
    /// ignored on input; rates are always recomputed from `refs`,
    /// `events`, and `wall_ns`. So is `config.jobs`, which documents
    /// written before the simulator became one event loop carry.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed field.
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
            profile: config_json.opt_field("profile")?.unwrap_or(false),
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

    /// Renders the human-readable summary table, one line per case, plus
    /// a per-protocol span attribution table when profiling produced one.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<26} {:>10} {:>10} {:>12} {:>12} {:>10}\n",
            "case", "refs", "events", "refs/sec", "events/sec", "wall(ms)"
        ));
        for case in &self.cases {
            out.push_str(&format!(
                "{:<26} {:>10} {:>10} {:>12.0} {:>12.0} {:>10.1}\n",
                case.label,
                case.refs,
                case.events,
                case.refs_per_sec(),
                case.events_per_sec(),
                case.wall_ns as f64 / 1e6,
            ));
        }
        for case in &self.cases {
            if case.spans.is_empty() {
                continue;
            }
            let mut report = twobit_obs::PerfReport::new();
            for (name, stat) in &case.spans {
                // PerfReport keys are &'static str; the leak is bounded by
                // the fixed span vocabulary and render runs once per
                // process, so interning would be overkill.
                report.add(Box::leak(name.clone().into_boxed_str()), *stat);
            }
            out.push_str(&format!("\n{} — top handlers by self-time:\n", case.label));
            out.push_str(&report.render_top(12));
        }
        out
    }
}

fn parse_case(json: &Json) -> Result<BenchCase, String> {
    let latency = json
        .get("latency")
        .and_then(Json::as_object)
        .into_iter()
        .flatten()
        .map(|(class, entry)| {
            Ok((
                class.clone(),
                entry.field("count")?,
                entry.field("p50")?,
                entry.field("p99")?,
            ))
        })
        .collect::<Result<_, String>>()?;
    let spans = json
        .get("spans")
        .and_then(Json::as_array)
        .into_iter()
        .flatten()
        .map(|entry| {
            Ok((
                entry.field("name")?,
                SpanStat {
                    count: entry.field("count")?,
                    total_ns: entry.field("total_ns")?,
                    self_ns: entry.field("self_ns")?,
                },
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(BenchCase {
        label: json.field("label")?,
        protocol: json.field("protocol")?,
        workload: json.field("workload")?,
        wall_ns: json.field("wall_ns")?,
        refs: json.field("refs")?,
        events: json.field("events")?,
        cycles: json.field("cycles")?,
        tag_probes: json.opt_field("tag_probes")?.unwrap_or(0),
        latency,
        spans,
        peak_alloc_bytes: json.opt_field("peak_alloc_bytes")?,
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
            ..BenchConfig::default()
        }
    }

    #[test]
    fn suite_covers_the_grid_and_roundtrips() {
        let doc = run_suite(&small_config(), None);
        assert_eq!(doc.cases.len(), 2);
        assert_eq!(doc.cases[0].label, "two-bit/moderate");
        assert_eq!(doc.cases[1].label, "full-map/moderate");
        for case in &doc.cases {
            assert_eq!(case.refs, 120, "{}", case.label);
            assert!(case.events > 0 && case.cycles > 0 && case.wall_ns > 0);
            assert!(case.refs_per_sec() > 0.0);
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
            assert_eq!(a.wall_ns, b.wall_ns);
        }
        assert_eq!(parsed.config.refs_per_cpu, 60);
        assert_eq!(parsed.config.seed, 7);
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
    }

    #[test]
    fn render_mentions_every_case() {
        let doc = run_suite(&small_config(), None);
        let table = doc.render();
        assert!(table.contains("two-bit/moderate"), "{table}");
        assert!(table.contains("refs/sec"), "{table}");
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let text = r#"{"schema": "other/v9", "config": {}, "cases": []}"#;
        let err = BenchDoc::from_json(text).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
    }

    #[cfg(feature = "perf-spans")]
    #[test]
    fn profiled_suite_attributes_event_handlers() {
        let mut cfg = small_config();
        cfg.profile = true;
        let doc = run_suite(&cfg, None);
        let case = &doc.cases[0];
        assert!(!case.spans.is_empty(), "profiling must produce spans");
        let names: Vec<&str> = case.spans.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"event.deliver_module"), "{names:?}");
        assert!(names.contains(&"engine.pop"), "{names:?}");
        let rendered = doc.render();
        assert!(rendered.contains("top handlers by self-time"), "{rendered}");
    }
}
