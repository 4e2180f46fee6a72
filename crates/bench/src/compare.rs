//! The CI gate behind the `perf_compare` binary: a candidate `BENCH_*.json`
//! document must record exactly the simulated work of the baseline.
//!
//! Every quantity in a document is deterministic for a fixed config, so
//! each common case's events, cycles, tag probes and every latency
//! class's count, p50 and p99 are compared for equality, in both
//! directions and over the classes either side has. Any drift means the
//! *simulation itself* changed, which a performance change must never do
//! silently.

use std::collections::BTreeSet;

use crate::throughput::{BenchCase, BenchDoc};

/// One quantity compared on one case.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The case label (`<scheme>/<workload>`).
    pub label: String,
    /// The quantity compared (e.g. `cycles`, `p99[read-miss]`).
    pub metric: String,
    /// Baseline value (`None` for a latency class only the candidate has).
    pub base: Option<u64>,
    /// Candidate value (`None` for a latency class only the baseline has).
    pub new: Option<u64>,
}

impl Finding {
    /// Whether the two sides differ.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.base != self.new
    }
}

/// A full comparison: every quantity on every common case, plus the
/// cases present in the baseline but missing from the candidate (always
/// regressions).
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// All comparisons, in baseline case order.
    pub findings: Vec<Finding>,
    /// Labels in the baseline with no candidate counterpart.
    pub missing_cases: Vec<String>,
}

impl Comparison {
    /// Whether anything regressed.
    #[must_use]
    pub fn has_regressions(&self) -> bool {
        !self.missing_cases.is_empty() || self.findings.iter().any(Finding::regressed)
    }

    /// The regressed findings only.
    #[must_use]
    pub fn regressions(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.regressed()).collect()
    }

    /// Renders the comparison. `verbose` includes unchanged quantities;
    /// otherwise only regressions (and a pass line) appear.
    #[must_use]
    pub fn render(&self, verbose: bool) -> String {
        let show = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        let mut out = String::new();
        for label in &self.missing_cases {
            out.push_str(&format!(
                "REGRESSION {label}: case missing from candidate\n"
            ));
        }
        for f in &self.findings {
            if !f.regressed() && !verbose {
                continue;
            }
            let tag = if f.regressed() { "REGRESSION" } else { "ok" };
            out.push_str(&format!(
                "{tag:<10} {:<26} {:<24} {:>10} -> {:>10}\n",
                f.label,
                f.metric,
                show(f.base),
                show(f.new),
            ));
        }
        if !self.has_regressions() {
            out.push_str(&format!(
                "no regressions across {} comparisons\n",
                self.findings.len()
            ));
        }
        out
    }
}

/// Compares `new` against the `base`line.
///
/// Cases are joined by label; candidate-only cases are ignored (adding a
/// scheme is not a regression), baseline-only cases are fatal.
///
/// # Errors
///
/// Returns a message when the two documents were produced with different
/// `caches`, `refs_per_cpu` or `seed`: they simulated different work, so
/// there is nothing to compare.
pub fn compare(base: &BenchDoc, new: &BenchDoc) -> Result<Comparison, String> {
    let (b, n) = (&base.config, &new.config);
    if (b.caches, b.refs_per_cpu, b.seed) != (n.caches, n.refs_per_cpu, n.seed) {
        return Err(format!(
            "config skew: baseline caches={} refs_per_cpu={} seed={}, \
             candidate caches={} refs_per_cpu={} seed={}",
            b.caches, b.refs_per_cpu, b.seed, n.caches, n.refs_per_cpu, n.seed,
        ));
    }
    let mut out = Comparison::default();
    for base_case in &base.cases {
        match new.case(&base_case.label) {
            Some(new_case) => compare_case(base_case, new_case, &mut out.findings),
            None => out.missing_cases.push(base_case.label.clone()),
        }
    }
    Ok(out)
}

fn compare_case(base: &BenchCase, new: &BenchCase, out: &mut Vec<Finding>) {
    let mut push = |metric: String, base_value, new_value| {
        out.push(Finding {
            label: base.label.clone(),
            metric,
            base: base_value,
            new: new_value,
        });
    };
    push("events".into(), Some(base.events), Some(new.events));
    push("cycles".into(), Some(base.cycles), Some(new.cycles));
    push(
        "tag_probes".into(),
        Some(base.tag_probes),
        Some(new.tag_probes),
    );
    let classes: BTreeSet<&String> = base.latency.keys().chain(new.latency.keys()).collect();
    for class in classes {
        let (b, n) = (base.latency.get(class), new.latency.get(class));
        for (i, stat) in ["count", "p50", "p99"].into_iter().enumerate() {
            push(format!("{stat}[{class}]"), b.map(|l| l[i]), n.map(|l| l[i]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::BenchConfig;

    fn case(label: &str) -> BenchCase {
        BenchCase {
            label: label.to_string(),
            protocol: label.split('/').next().unwrap().to_string(),
            workload: "w".to_string(),
            refs: 10_000,
            events: 50_000,
            cycles: 99_000,
            tag_probes: 123_456,
            latency: [("read-miss".to_string(), [400, 32, 96])].into(),
        }
    }

    fn doc(cases: Vec<BenchCase>) -> BenchDoc {
        BenchDoc {
            config: BenchConfig::default(),
            cases,
        }
    }

    fn regressed_metrics(base: &BenchDoc, new: &BenchDoc) -> Vec<String> {
        let cmp = compare(base, new).unwrap();
        cmp.regressions().iter().map(|f| f.metric.clone()).collect()
    }

    #[test]
    fn identical_documents_pass() {
        let base = doc(vec![case("two-bit/low")]);
        let cmp = compare(&base, &base.clone()).unwrap();
        assert!(!cmp.has_regressions(), "{}", cmp.render(true));
        assert_eq!(cmp.findings.len(), 6, "3 counts + count/p50/p99 of 1 class");
        assert!(cmp.render(false).contains("no regressions across 6"));
    }

    #[test]
    fn latency_rise_is_zero_tolerance_by_default() {
        let base = doc(vec![case("two-bit/low")]);
        let mut worse = base.clone();
        worse.cases[0].latency.get_mut("read-miss").unwrap()[2] = 128; // p99: 96 → 128
        assert_eq!(regressed_metrics(&base, &worse), ["p99[read-miss]"]);
    }

    #[test]
    fn one_latency_count_changed_is_flagged() {
        let base = doc(vec![case("two-bit/low")]);
        let mut drifted = base.clone();
        drifted.cases[0].latency.get_mut("read-miss").unwrap()[0] = 401;
        assert_eq!(regressed_metrics(&base, &drifted), ["count[read-miss]"]);
    }

    #[test]
    fn an_extra_latency_class_in_the_candidate_is_flagged() {
        let base = doc(vec![case("two-bit/low")]);
        let mut extra = base.clone();
        extra.cases[0]
            .latency
            .insert("write-miss".to_string(), [1, 32, 32]);
        assert_eq!(
            regressed_metrics(&base, &extra),
            ["count[write-miss]", "p50[write-miss]", "p99[write-miss]"]
        );
        // And the other way round: a class the candidate lost.
        assert_eq!(regressed_metrics(&extra, &base).len(), 3);
        let cmp = compare(&base, &extra).unwrap();
        assert!(cmp.render(false).contains("-> "), "{}", cmp.render(false));
    }

    #[test]
    fn event_count_drift_is_flagged_both_directions() {
        let base = doc(vec![case("two-bit/low")]);
        for events in [49_000, 51_000] {
            let mut drifted = base.clone();
            drifted.cases[0].events = events;
            assert_eq!(regressed_metrics(&base, &drifted), ["events"]);
        }
    }

    #[test]
    fn one_cycle_of_drift_is_fatal() {
        let base = doc(vec![case("two-bit/low")]);
        let mut drifted = base.clone();
        drifted.cases[0].cycles += 1;
        assert_eq!(regressed_metrics(&base, &drifted), ["cycles"]);
        let cmp = compare(&base, &drifted).unwrap();
        assert!(cmp.render(false).starts_with("REGRESSION"));
    }

    #[test]
    fn config_skew_is_an_error() {
        let base = doc(vec![case("two-bit/low")]);
        for skew in [
            |c: &mut BenchConfig| c.caches += 1,
            |c: &mut BenchConfig| c.refs_per_cpu += 1,
            |c: &mut BenchConfig| c.seed += 1,
        ] {
            let mut other = base.clone();
            skew(&mut other.config);
            let err = compare(&base, &other).unwrap_err();
            assert!(err.contains("config skew"), "{err}");
        }
    }

    #[test]
    fn missing_case_is_fatal_extra_case_is_not() {
        let base = doc(vec![case("two-bit/low"), case("full-map/low")]);
        let new = doc(vec![case("two-bit/low"), case("static-sw/low")]);
        let cmp = compare(&base, &new).unwrap();
        assert_eq!(cmp.missing_cases, vec!["full-map/low".to_string()]);
        assert!(cmp.has_regressions());
        assert!(cmp.render(false).contains("case missing"));
    }
}
