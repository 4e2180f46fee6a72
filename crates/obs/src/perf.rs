//! Hot-path span timers: hierarchical, monotonic-clock, and compiled to
//! no-ops unless the `perf-spans` feature is on.
//!
//! The simulator's inner loop is too hot for unconditional timing — a
//! `clock_gettime` pair per event would dominate the very dispatch cost
//! being measured. So the [`Profiler`] has two gates:
//!
//! * **compile-time**: without the `perf-spans` cargo feature the whole
//!   type is a zero-sized struct and every method an empty `#[inline]`
//!   function, so instrumented call sites cost literally nothing (a
//!   `size_of` test in this module holds that claim to account);
//! * **run-time**: with the feature on, a disabled profiler pays one
//!   branch per span — the repository benchmark's `trace` build
//!   (`benchmark/`, which turns the feature on) enables it only for the
//!   runs whose spans it reports.
//!
//! Spans nest: `begin("deliver.module")` … `begin("ctrl.queue.drain")` …
//! `end(…)` … `end(…)` attributes the inner drain time to the drain span
//! and *subtracts it* from the outer handler, so [`PerfReport`] can rank
//! handlers by **self time** — time spent in the handler's own code, the
//! quantity that says where an optimization PR should aim.

/// Accumulated timing for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Total wall nanoseconds inside the span, children included.
    pub total_ns: u64,
    /// Nanoseconds net of child spans — the span's own work.
    pub self_ns: u64,
}

impl SpanStat {
    /// Folds another accumulation of the same span into this one.
    pub fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.self_ns = self.self_ns.saturating_add(other.self_ns);
    }
}

/// A profiler's output: per-span totals, in first-entry order.
///
/// Exists (and is identical) whether or not `perf-spans` is compiled in;
/// a no-op profiler just always reports an empty one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PerfReport {
    spans: Vec<(&'static str, SpanStat)>,
}

impl PerfReport {
    /// An empty report.
    #[must_use]
    pub fn new() -> Self {
        PerfReport::default()
    }

    /// `true` when no span was ever recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans in first-entry order.
    #[must_use]
    pub fn spans(&self) -> &[(&'static str, SpanStat)] {
        &self.spans
    }

    /// The stat for one span name, if recorded.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<SpanStat> {
        self.spans.iter().find(|(n, _)| *n == name).map(|(_, s)| *s)
    }

    /// Adds one span's accumulation (merging when the name exists).
    pub fn add(&mut self, name: &'static str, stat: SpanStat) {
        match self.spans.iter_mut().find(|(n, _)| *n == name) {
            Some((_, mine)) => mine.merge(&stat),
            None => self.spans.push((name, stat)),
        }
    }
}

#[cfg(feature = "perf-spans")]
mod imp {
    use super::{PerfReport, SpanStat};
    use std::time::Instant;

    #[derive(Debug, Clone)]
    struct Frame {
        name: &'static str,
        start: Instant,
        child_ns: u64,
    }

    /// The span timer. See the module docs for the two gates; this is
    /// the `perf-spans` build, which actually reads the monotonic clock.
    #[derive(Debug, Clone, Default)]
    pub struct Profiler {
        on: bool,
        stack: Vec<Frame>,
        stats: Vec<(&'static str, SpanStat)>,
    }

    impl Profiler {
        /// A profiler that records nothing until
        /// [`set_enabled`](Profiler::set_enabled).
        #[must_use]
        pub fn disabled() -> Self {
            Profiler::default()
        }

        /// A recording profiler.
        #[must_use]
        pub fn enabled() -> Self {
            Profiler {
                on: true,
                stack: Vec::with_capacity(8),
                stats: Vec::new(),
            }
        }

        /// Whether spans are being recorded.
        #[must_use]
        pub fn is_enabled(&self) -> bool {
            self.on
        }

        /// Turns recording on or off. Only flip this between runs: spans
        /// open at the flip are abandoned.
        pub fn set_enabled(&mut self, on: bool) {
            self.on = on;
            self.stack.clear();
        }

        /// Opens a span. Every `begin` must be matched by an
        /// [`end`](Profiler::end) with the same name, properly nested.
        #[inline]
        pub fn begin(&mut self, name: &'static str) {
            if !self.on {
                return;
            }
            self.stack.push(Frame {
                name,
                start: Instant::now(),
                child_ns: 0,
            });
        }

        /// Closes the innermost span. `name` is checked in debug builds;
        /// release builds attribute to whatever frame is actually open,
        /// so a mismatch skews data rather than aborting a run.
        #[inline]
        pub fn end(&mut self, name: &'static str) {
            if !self.on {
                return;
            }
            let Some(frame) = self.stack.pop() else {
                debug_assert!(false, "end({name}) with no open span");
                return;
            };
            debug_assert_eq!(frame.name, name, "mismatched span end");
            let total = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let this = SpanStat {
                count: 1,
                total_ns: total,
                self_ns: total.saturating_sub(frame.child_ns),
            };
            if let Some(parent) = self.stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(total);
            }
            match self.stats.iter_mut().find(|(n, _)| *n == frame.name) {
                Some((_, s)) => s.merge(&this),
                None => self.stats.push((frame.name, this)),
            }
        }

        /// The accumulated report.
        #[must_use]
        pub fn report(&self) -> PerfReport {
            let mut out = PerfReport::new();
            for (name, stat) in &self.stats {
                out.add(name, *stat);
            }
            out
        }

        /// Clears accumulated spans (recording state unchanged).
        pub fn reset(&mut self) {
            self.stack.clear();
            self.stats.clear();
        }
    }
}

#[cfg(not(feature = "perf-spans"))]
mod imp {
    use super::PerfReport;

    /// The span timer. This is the default build, without the
    /// `perf-spans` feature: a zero-sized type whose methods are empty
    /// inline functions, so instrumented hot paths compile exactly as if
    /// the calls were not there.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Profiler;

    impl Profiler {
        /// A no-op profiler.
        #[must_use]
        pub fn disabled() -> Self {
            Profiler
        }

        /// Also a no-op profiler: enabling requires the `perf-spans`
        /// feature at compile time.
        #[must_use]
        pub fn enabled() -> Self {
            Profiler
        }

        /// Always `false` in this build.
        #[must_use]
        pub fn is_enabled(&self) -> bool {
            false
        }

        /// No-op.
        pub fn set_enabled(&mut self, _on: bool) {}

        /// No-op.
        #[inline(always)]
        pub fn begin(&mut self, _name: &'static str) {}

        /// No-op.
        #[inline(always)]
        pub fn end(&mut self, _name: &'static str) {}

        /// Always empty.
        #[must_use]
        pub fn report(&self) -> PerfReport {
            PerfReport::new()
        }

        /// No-op.
        pub fn reset(&mut self) {}
    }
}

pub use imp::Profiler;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_merges_and_ranks() {
        let mut r = PerfReport::new();
        r.add(
            "a",
            SpanStat {
                count: 2,
                total_ns: 100,
                self_ns: 60,
            },
        );
        r.add(
            "b",
            SpanStat {
                count: 1,
                total_ns: 90,
                self_ns: 90,
            },
        );
        r.add(
            "a",
            SpanStat {
                count: 1,
                total_ns: 50,
                self_ns: 40,
            },
        );
        assert_eq!(r.get("a").unwrap().count, 3);
        assert_eq!(r.get("a").unwrap().self_ns, 100);
    }

    #[cfg(not(feature = "perf-spans"))]
    #[test]
    fn compiled_out_profiler_is_zero_sized_and_silent() {
        // The no-op claim held structurally: without the feature there is
        // nothing to pay for.
        assert_eq!(std::mem::size_of::<Profiler>(), 0);
        let mut p = Profiler::enabled();
        p.begin("x");
        p.end("x");
        assert!(!p.is_enabled());
        assert!(p.report().is_empty());
    }

    #[cfg(feature = "perf-spans")]
    #[test]
    fn spans_nest_and_attribute_self_time() {
        let mut p = Profiler::enabled();
        p.begin("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.end("inner");
        p.end("outer");
        let r = p.report();
        let outer = r.get("outer").unwrap();
        let inner = r.get("inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(inner.total_ns > 0);
        assert!(
            outer.total_ns >= inner.total_ns,
            "outer contains inner's time"
        );
        assert_eq!(
            outer.self_ns,
            outer.total_ns - inner.total_ns,
            "inner time is subtracted from outer's self time"
        );
        // Total self time across the tree equals the outermost total.
        assert_eq!(outer.self_ns + inner.self_ns, outer.total_ns);
    }

    #[cfg(feature = "perf-spans")]
    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        p.begin("x");
        p.end("x");
        assert!(p.report().is_empty());
        p.set_enabled(true);
        p.begin("x");
        p.end("x");
        assert_eq!(p.report().get("x").unwrap().count, 1);
        p.reset();
        assert!(p.report().is_empty());
    }

    #[cfg(feature = "perf-spans")]
    #[test]
    fn sibling_spans_accumulate_under_one_name() {
        let mut p = Profiler::enabled();
        for _ in 0..3 {
            p.begin("tick");
            p.end("tick");
        }
        assert_eq!(p.report().get("tick").unwrap().count, 3);
    }
}
