//! The benchmark's own spans: one around every call it makes into a
//! layer of the program, kept in memory and written out when the traced
//! run ends. Spans inside the program are `twobit_obs::Profiler`'s (the
//! simulator) or a later issue (the distributed service).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use twobit_obs::json::{num_u64, obj, Json};

#[derive(Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// A handle to an open span; close it with [`SpanLog::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The in-memory span record of one workload's traced run. When built
/// with `enabled = false` (the untraced run) every call is a no-op.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(workload: &'static str, enabled: bool) -> Self {
        SpanLog {
            enabled,
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Times `f` under a span named `name`, returning its result and its
    /// duration in seconds (measured whether or not the log is enabled).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.end(id);
        (out, secs)
    }

    /// Per span name: entries, total and self nanoseconds (self = the
    /// span minus the part its children cover), in first-entry order.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(child);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// Writes one JSON line per span: name, start, end, parent, workload.
    ///
    /// # Errors
    ///
    /// The I/O error of creating the directory or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let line = obj([
                ("id", num_u64(id as u64)),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", num_u64(s.start_ns)),
                ("end_ns", num_u64(s.end_ns)),
                ("parent", s.parent.map_or(Json::Null, |p| num_u64(p as u64))),
                ("workload", Json::Str(self.workload.to_string())),
            ]);
            writeln!(out, "{}", line.to_json())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut log = SpanLog::new("w", true);
        let outer = log.begin("outer");
        let ((), inner_secs) = log.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        log.time("inner", || ());
        log.end(outer);
        assert!(inner_secs >= 0.002);
        let rows = log.self_times();
        let (_, outer_n, outer_total, outer_self) = rows[0];
        let (name, inner_n, inner_total, inner_self) = rows[1];
        assert_eq!((outer_n, name, inner_n), (1, "inner", 2));
        assert_eq!(inner_total, inner_self);
        assert_eq!(outer_self, outer_total - inner_total);
    }

    #[test]
    fn disabled_log_records_nothing_but_still_times() {
        let mut log = SpanLog::new("w", false);
        let (v, secs) = log.time("x", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(log.self_times().is_empty());
    }
}
