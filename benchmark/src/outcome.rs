//! What one workload's run reports: the operation tally, the metrics,
//! and their two renderings — the one-line result the contract fixes and
//! the fuller document `benchmark compare` reads.

use twobit_obs::json::{num_u64, obj, Json};

use crate::spec;
use crate::stats::Measured;

/// Identifies the `--out` document format.
pub const SCHEMA: &str = "twobit-benchmark/v1";

/// The result of one workload's run.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    /// Operations the timed repetitions asked for.
    pub attempted: u64,
    /// Operations that did not complete correctly: a reference not
    /// completed, a protocol or oracle error, a run `Err`, an op in a
    /// non-linearizable block, or a repetition that differs from the
    /// first.
    pub failed: u64,
    /// Why operations failed, one line each.
    pub notes: Vec<String>,
    pub metrics: Vec<(&'static str, Measured)>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Counts `n` failed operations and records why.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        self.notes.push(format!("{} ({n} operations)", why.into()));
    }

    /// Failed ÷ attempted operations.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`spec`]'s tables or is recorded twice.
    pub fn put(&mut self, name: &'static str, m: Measured) {
        assert!(spec::metric(name).is_some(), "unknown metric {name}");
        assert!(
            self.metrics.iter().all(|(n, _)| *n != name),
            "metric {name} recorded twice"
        );
        self.metrics.push((name, m));
    }

    /// Records 0 for every metric of `table` not yet recorded: the
    /// workload never entered that layer.
    pub fn fill_zero(&mut self, table: &[spec::MetricDef]) {
        for def in table {
            if self.metrics.iter().all(|(n, _)| *n != def.name) {
                self.metrics.push((def.name, Measured::exact(0.0, 1)));
            }
        }
    }

    /// 0 when every operation completed correctly, 1 otherwise.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }

    fn json(&self, detail: bool) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let unit = spec::metric(name).expect("checked by put").unit;
                let mut fields = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(unit.to_string())),
                ];
                if detail {
                    fields.push(("q1", Json::Num(m.q1)));
                    fields.push(("q3", Json::Num(m.q3)));
                    fields.push(("n", num_u64(m.n as u64)));
                }
                ((*name).to_string(), obj(fields))
            })
            .collect();
        obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", num_u64(self.attempted)),
            ("failed", num_u64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics`, each metric a `value` and a `unit`.
    pub fn result_line(&self) -> String {
        self.json(false).to_json()
    }

    /// The same with each metric's quartiles and sample count.
    pub fn detail(&self) -> Json {
        self.json(true)
    }

    /// Prints every metric by name with its unit, quartiles and `n`.
    pub fn print(&self) {
        for (name, m) in &self.metrics {
            let unit = spec::metric(name).expect("checked by put").unit;
            let spread = if m.n > 1 {
                format!("  [q1 {:.6}, q3 {:.6}, n={}]", m.q1, m.q3, m.n)
            } else {
                String::new()
            };
            println!(
                "{:<22} {:<44} {:>16.6} {unit:<7}{spread}",
                self.workload, name, m.value
            );
        }
        for note in &self.notes {
            println!("{:<22} FAILED: {note}", self.workload);
        }
        println!(
            "{:<22} attempted {} failed {} ({})",
            self.workload,
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "INCORRECT"
            }
        );
    }
}

/// The `--out` document: one [`Outcome::detail`] per workload.
pub fn document(seed: u64, seconds: f64, trace: bool, workloads: Vec<(String, Json)>) -> Json {
    obj([
        ("schema", Json::Str(SCHEMA.to_string())),
        ("seed", num_u64(seed)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("workloads", Json::Obj(workloads.into_iter().collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_obs::json::parse;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new("sim_private");
        o.attempted = 10;
        o.put("setup_s", Measured::of(&[0.25, 0.5, 0.75]));
        let doc = parse(&o.result_line()).unwrap();
        let keys: Vec<&String> = doc.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        let keys: Vec<&String> = m.as_object().unwrap().keys().collect();
        assert_eq!(keys, ["unit", "value"]);
        assert_eq!(m.req_f64("value").unwrap(), 0.5);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(o.exit_code(), 0);
        let d = o.detail();
        let m = d.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.req_u64("n").unwrap(), 3);
    }

    #[test]
    fn any_failed_operation_makes_the_run_incorrect() {
        let mut o = Outcome::new("dist_tcp");
        o.attempted = 6000;
        o.fail(1, "one reference never completed");
        assert!(!o.correct());
        assert_ne!(o.exit_code(), 0);
        assert!(o.failed_share() > 0.0);
        assert!(o.result_line().contains("\"correct\":false"));
    }

    #[test]
    fn fill_zero_completes_the_table_without_overwriting() {
        let mut o = Outcome::new("sim_shared");
        o.put("cache.hit_ratio", Measured::exact(0.85, 1));
        o.fill_zero(&spec::PER_LAYER);
        assert_eq!(o.metrics.len(), spec::PER_LAYER.len());
        assert_eq!(o.metrics[0].1.value, 0.85);
    }
}
