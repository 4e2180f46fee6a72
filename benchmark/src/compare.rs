//! `benchmark compare A.json B.json`: one row per (metric, workload) of
//! two `--out` documents, judged against the bounds `BENCHMARK.json`
//! fixes.

use std::collections::BTreeMap;
use std::path::Path;

use twobit_obs::json::{parse, Json};

use crate::outcome::SCHEMA;
use crate::spec::{self, Better};
use crate::stats::Measured;

/// How B's median stands against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than A by more than the bound.
    Ok,
    /// Worse by more than the bound, and the repetitions do not explain it.
    Regressed,
    /// Worse by more than the bound, but the spread between repetitions
    /// exceeds the bound and the two runs' quartile ranges overlap.
    Unresolved,
    /// No bound is fixed for this metric and the medians are identical.
    Same,
    /// No bound is fixed for this metric and the medians differ.
    Differs,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Differs => "differs",
        }
    }
}

/// Judges `b` against `a` for a metric that improves `better`-wards and
/// may worsen by `bound` of A's median.
pub fn verdict(a: &Measured, b: &Measured, better: Better, bound: Option<f64>) -> Verdict {
    let Some(bound) = bound else {
        return if a.value == b.value {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    };
    let worse_by = match better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    if worse_by <= bound * a.value.abs() {
        return Verdict::Ok;
    }
    let overlap = a.q1 <= b.q3 && b.q1 <= a.q3;
    if a.spread().max(b.spread()) > bound && overlap {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

type Metrics = BTreeMap<String, Measured>;

/// Reads an `--out` document: per workload, per metric, the measurement.
fn load(path: &Path) -> Result<BTreeMap<String, Metrics>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.req_str("schema")? != SCHEMA {
        return Err(format!("{}: not a {SCHEMA} document", path.display()));
    }
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("missing workloads")?;
    let mut out = BTreeMap::new();
    for (workload, result) in workloads {
        let metrics = result
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{workload}: missing metrics"))?;
        let mut parsed = Metrics::new();
        for (name, m) in metrics {
            parsed.insert(
                name.clone(),
                Measured {
                    value: m.req_f64("value")?,
                    q1: m.req_f64("q1")?,
                    q3: m.req_f64("q3")?,
                    n: m.req_u64("n")? as usize,
                },
            );
        }
        out.insert(workload.clone(), parsed);
    }
    Ok(out)
}

/// The end-to-end bounds `BENCHMARK.json` fixes, by metric name.
fn load_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json: missing end_to_end")?
        .iter()
        .map(|m| Ok((m.req_str("name")?.to_string(), m.req_f64("bound")?)))
        .collect()
}

/// Prints the comparison; `Ok(true)` when no row regressed.
///
/// # Errors
///
/// An unreadable or malformed document.
pub fn compare(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let bounds = load_bounds(benchmark_json)?;
    let (a, b) = (load(a)?, load(b)?);
    println!(
        "{:<22} {:<44} {:>14} {:>29} {:>14} {:>29} {:>6}  verdict",
        "workload", "metric", "A median", "A [q1, q3] n", "B median", "B [q1, q3] n", "bound"
    );
    let mut clean = true;
    let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
    for workload in spec::WORKLOADS {
        let (Some(ma), Some(mb)) = (a.get(workload), b.get(workload)) else {
            continue;
        };
        for def in spec::END_TO_END.iter().chain(spec::PER_LAYER.iter()) {
            let (Some(x), Some(y)) = (ma.get(def.name), mb.get(def.name)) else {
                continue;
            };
            let bound = bounds.get(def.name).copied();
            let v = verdict(x, y, def.better, bound);
            clean &= v != Verdict::Regressed;
            *counts.entry(v.label()).or_default() += 1;
            let exact = |m: &Measured| m.n > 1 && m.spread() == 0.0;
            let range = |m: &Measured| format!("[{:.5}, {:.5}] {}", m.q1, m.q3, m.n);
            println!(
                "{:<22} {:<44} {:>14.6} {:>29} {:>14.6} {:>29} {:>6}  {}{}",
                workload,
                def.name,
                x.value,
                range(x),
                y.value,
                range(y),
                bound.map_or("-".to_string(), |b| format!("{b}")),
                v.label(),
                // A value every repetition agreed on is exact for the
                // seed: a change inside the bound is still a change.
                if bound.is_some() && exact(x) && exact(y) && x.value != y.value {
                    " (exact value differs)"
                } else {
                    ""
                }
            );
        }
    }
    let summary: Vec<String> = counts.iter().map(|(k, n)| format!("{n} {k}")).collect();
    println!("{}", summary.join(", "));
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(q1: f64, value: f64, q3: f64) -> Measured {
        Measured {
            value,
            q1,
            q3,
            n: 7,
        }
    }

    #[test]
    fn within_bound_is_ok_in_either_direction() {
        let a = m(99.0, 100.0, 101.0);
        assert_eq!(
            verdict(&a, &m(104.0, 105.0, 106.0), Better::Lower, Some(0.08)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &m(94.0, 95.0, 96.0), Better::Higher, Some(0.08)),
            Verdict::Ok
        );
        // Better by any amount is ok.
        assert_eq!(
            verdict(&a, &m(49.0, 50.0, 51.0), Better::Lower, Some(0.0)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &m(199.0, 200.0, 201.0), Better::Higher, Some(0.0)),
            Verdict::Ok
        );
    }

    #[test]
    fn beyond_bound_with_tight_runs_is_regressed() {
        let a = m(99.0, 100.0, 101.0);
        assert_eq!(
            verdict(&a, &m(119.0, 120.0, 121.0), Better::Lower, Some(0.08)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&a, &m(79.0, 80.0, 81.0), Better::Higher, Some(0.08)),
            Verdict::Regressed
        );
        // An exact metric with bound 0 regresses on any worsening.
        let exact = Measured::exact(4.976, 7);
        assert_eq!(
            verdict(&exact, &Measured::exact(4.977, 7), Better::Lower, Some(0.0)),
            Verdict::Regressed
        );
    }

    #[test]
    fn beyond_bound_with_wide_overlapping_runs_is_unresolved() {
        let a = m(85.0, 100.0, 115.0);
        let b = m(100.0, 112.0, 130.0);
        assert_eq!(
            verdict(&a, &b, Better::Lower, Some(0.08)),
            Verdict::Unresolved
        );
        // Wide but disjoint: every run of B is worse than every run of A.
        let far = m(150.0, 170.0, 190.0);
        assert_eq!(
            verdict(&a, &far, Better::Lower, Some(0.08)),
            Verdict::Regressed
        );
    }

    #[test]
    fn unbounded_metrics_are_same_or_differ() {
        let a = Measured::exact(17.0, 1);
        assert_eq!(verdict(&a, &a, Better::Lower, None), Verdict::Same);
        assert_eq!(
            verdict(&a, &Measured::exact(18.0, 1), Better::Lower, None),
            Verdict::Differs
        );
    }
}
