//! The metrics registry: latency histograms per transaction class,
//! sampled gauges, and per-cache useless-command counters.
//!
//! The useless-command counters deliberately mirror the legacy
//! [`twobit_types::CacheStats::useless_commands`] counters; the sim
//! crate's differential tests assert the two accountings agree exactly,
//! so a drift between the observability layer and the paper-facing
//! statistics is caught immediately.

use std::fmt;
use twobit_types::{CacheId, CacheStats};

/// The transaction classes whose end-to-end latency is tracked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnClass {
    /// A read miss: `REQUEST(k, a, read)` through data grant.
    ReadMiss,
    /// A write miss: `REQUEST(k, a, write)` through exclusive grant.
    WriteMiss,
    /// A write hit on an unmodified line: `MREQUEST` through `MGRANTED`
    /// (section 3.2.4).
    WriteHitUnmod,
    /// A replacement: `EJECT` (plus write-back `put` when dirty).
    Replacement,
}

impl TxnClass {
    /// All classes, in display order.
    pub const ALL: [TxnClass; 4] = [
        TxnClass::ReadMiss,
        TxnClass::WriteMiss,
        TxnClass::WriteHitUnmod,
        TxnClass::Replacement,
    ];

    /// Dense index for array storage.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            TxnClass::ReadMiss => 0,
            TxnClass::WriteMiss => 1,
            TxnClass::WriteHitUnmod => 2,
            TxnClass::Replacement => 3,
        }
    }
}

impl fmt::Display for TxnClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TxnClass::ReadMiss => "read-miss",
            TxnClass::WriteMiss => "write-miss",
            TxnClass::WriteHitUnmod => "write-hit-unmod",
            TxnClass::Replacement => "replacement",
        })
    }
}

/// Upper bounds (inclusive) of the fixed histogram buckets, in cycles.
/// Power-of-two spaced: latencies in this simulator are small integer
/// cycle counts, so sub-cycle resolution would be noise.
pub const BUCKET_BOUNDS: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

/// A fixed-bucket latency histogram.
///
/// Bucket `i` counts values `v` with `BUCKET_BOUNDS[i-1] < v <=
/// BUCKET_BOUNDS[i]` (bucket 0: `v <= 1`); one overflow bucket catches
/// everything above the last bound. Exact min/max/sum are kept alongside,
/// so means are exact and only percentiles are bucket-quantized.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKET_BOUNDS.len() + 1],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let idx = BUCKET_BOUNDS.partition_point(|&b| b < v);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        if self.count == 1 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest recorded value (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts (last entry is the overflow bucket).
    #[must_use]
    pub fn buckets(&self) -> &[u64; BUCKET_BOUNDS.len() + 1] {
        &self.counts
    }

    /// Bucket-quantized percentile: the upper bound of the first bucket
    /// whose cumulative count reaches `p` (in `[0, 1]`) of the total. The
    /// extremes are exact, consistent with [`Histogram::min`] and
    /// [`Histogram::max`]: `p <= 0` reports the recorded minimum and
    /// `p >= 1` the recorded maximum. Returns 0 when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if p <= 0.0 {
            return self.min;
        }
        if p >= 1.0 {
            return self.max;
        }
        let target = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i < BUCKET_BOUNDS.len() {
                    BUCKET_BOUNDS[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

/// A gauge sampled on a fixed cadence, with an exact (cadence-independent)
/// peak.
///
/// Every [`observe`](Gauge::observe) updates the peak; the time-series
/// accounting (sample count, sum for the mean) only advances when at
/// least `cadence` cycles have passed since the last accepted sample, so
/// a hot loop observing every cycle does not swamp the series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gauge {
    cadence: u64,
    last_sample: Option<u64>,
    peak: u64,
    sum: u128,
    samples: u64,
    current: u64,
}

impl Gauge {
    /// A gauge sampling every `cadence` cycles (0 = sample every
    /// observation).
    #[must_use]
    pub fn new(cadence: u64) -> Self {
        Gauge {
            cadence,
            last_sample: None,
            peak: 0,
            sum: 0,
            samples: 0,
            current: 0,
        }
    }

    /// Observes the gauge value `v` at cycle `t`.
    pub fn observe(&mut self, t: u64, v: u64) {
        self.current = v;
        self.peak = self.peak.max(v);
        let due = match self.last_sample {
            None => true,
            Some(last) => t >= last.saturating_add(self.cadence),
        };
        if due {
            self.last_sample = Some(t);
            self.sum += u128::from(v);
            self.samples += 1;
        }
    }

    /// The most recently observed value.
    #[must_use]
    pub fn current(&self) -> u64 {
        self.current
    }

    /// The exact all-time peak.
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Number of cadence-accepted samples.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Mean over cadence-accepted samples (0 when none).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

/// Percentile summary of one latency class, for reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Transactions completed.
    pub count: u64,
    /// Exact mean latency in cycles.
    pub mean: f64,
    /// Bucket-quantized median.
    pub p50: u64,
    /// Bucket-quantized 90th percentile.
    pub p90: u64,
    /// Bucket-quantized 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

/// Whole-registry summary, for reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSummary {
    /// Per-class latency summaries, indexed like [`TxnClass::ALL`].
    pub latency: Vec<(TxnClass, LatencySummary)>,
    /// Peak controller queue depth observed.
    pub peak_queue_depth: u64,
    /// Peak simultaneously outstanding transactions.
    pub peak_outstanding: u64,
    /// Mean outstanding transactions over the sampled series.
    pub mean_outstanding: f64,
    /// Total commands delivered to caches.
    pub commands_delivered: u64,
    /// Of those, the useless ones (no copy found).
    pub useless_commands: u64,
}

impl MetricsSummary {
    /// Useless fraction of delivered commands (0 when none delivered).
    #[must_use]
    pub fn useless_rate(&self) -> f64 {
        if self.commands_delivered == 0 {
            0.0
        } else {
            self.useless_commands as f64 / self.commands_delivered as f64
        }
    }
}

/// Statistics from one model-checking search, recorded via
/// [`Metrics::record_search`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SearchStats {
    /// States expanded (enabled-action fan-out or leaf check).
    pub states_expanded: u64,
    /// Distinct canonical states discovered (root included).
    pub distinct_states: u64,
    /// Successor arrivals pruned because the state was already known.
    pub dedup_hits: u64,
    /// Deepest search layer expanded.
    pub max_depth: u64,
    /// Wall-clock search time in seconds.
    pub elapsed_secs: f64,
}

impl SearchStats {
    /// Fraction of successor arrivals the visited-set pruned: `hits /
    /// (hits + rediscoverable arrivals)`. 0 when nothing arrived.
    #[must_use]
    pub fn dedup_hit_rate(&self) -> f64 {
        // Every distinct state except the root arrived as a successor once.
        let arrivals = self.dedup_hits + self.distinct_states.saturating_sub(1);
        if arrivals == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / arrivals as f64
        }
    }

    /// Expansion throughput in states per second (0 when no time elapsed).
    #[must_use]
    pub fn states_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.states_expanded as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }
}

/// The metrics registry threaded through a simulation.
#[derive(Debug, Clone)]
pub struct Metrics {
    latency: [Histogram; TxnClass::ALL.len()],
    /// Controller pending-conflict queue depth (system-wide), observed
    /// whenever it changes.
    pub queue_depth: Gauge,
    /// Simultaneously outstanding (started, unfinished) transactions
    /// (system-wide), observed whenever the count changes.
    pub outstanding: Gauge,
    /// Model-checking frontier size, observed once per search depth (the
    /// "time" axis is the depth, so every layer is sampled).
    pub frontier: Gauge,
    useless_per_cache: Vec<u64>,
    commands_per_cache: Vec<u64>,
    search: SearchStats,
}

impl Metrics {
    /// A registry for `n_caches` caches, sampling gauges every `cadence`
    /// cycles.
    #[must_use]
    pub fn new(n_caches: usize, cadence: u64) -> Self {
        Metrics {
            latency: Default::default(),
            queue_depth: Gauge::new(cadence),
            outstanding: Gauge::new(cadence),
            frontier: Gauge::new(0),
            useless_per_cache: vec![0; n_caches],
            commands_per_cache: vec![0; n_caches],
            search: SearchStats::default(),
        }
    }

    /// Records the counters from a finished model-checking search.
    pub fn record_search(&mut self, stats: SearchStats) {
        self.search = stats;
    }

    /// The most recently recorded search statistics.
    #[must_use]
    pub fn search(&self) -> SearchStats {
        self.search
    }

    /// Records a completed transaction of `class` taking `cycles`.
    pub fn record_latency(&mut self, class: TxnClass, cycles: u64) {
        self.latency[class.index()].record(cycles);
    }

    /// The latency histogram for `class`.
    #[must_use]
    pub fn latency(&self, class: TxnClass) -> &Histogram {
        &self.latency[class.index()]
    }

    /// Records one coherence command delivered to `cache`, useless or not.
    pub fn record_command(&mut self, cache: CacheId, useless: bool) {
        self.commands_per_cache[cache.index()] += 1;
        if useless {
            self.useless_per_cache[cache.index()] += 1;
        }
    }

    /// Overwrites one cache's command totals from an external accounting.
    ///
    /// For adapters (like the atomic bus sim) whose per-command stream is
    /// internal to another crate: seeding from its final counters keeps
    /// [`Metrics::summary`] and [`Metrics::reconcile_useless`] exact even
    /// though the commands were not individually observed here.
    pub fn seed_cache_totals(&mut self, cache: CacheId, commands: u64, useless: u64) {
        self.commands_per_cache[cache.index()] = commands;
        self.useless_per_cache[cache.index()] = useless;
    }

    /// Useless commands recorded for one cache.
    #[must_use]
    pub fn useless_for(&self, cache: CacheId) -> u64 {
        self.useless_per_cache[cache.index()]
    }

    /// Commands recorded for one cache.
    #[must_use]
    pub fn commands_for(&self, cache: CacheId) -> u64 {
        self.commands_per_cache[cache.index()]
    }

    /// Total useless commands across all caches.
    #[must_use]
    pub fn useless_total(&self) -> u64 {
        self.useless_per_cache.iter().sum()
    }

    /// Total delivered commands across all caches.
    #[must_use]
    pub fn commands_total(&self) -> u64 {
        self.commands_per_cache.iter().sum()
    }

    /// Checks this registry's per-cache command accounting against the
    /// legacy per-cache [`CacheStats`], returning the first discrepancy as
    /// `Err((cache index, metrics useless, stats useless))`.
    ///
    /// The two paths count the same physical quantity through entirely
    /// separate code, so equality here is a strong end-to-end check.
    ///
    /// # Errors
    ///
    /// The first cache whose counters disagree.
    pub fn reconcile_useless(&self, caches: &[CacheStats]) -> Result<(), (usize, u64, u64)> {
        for (i, stats) in caches.iter().enumerate() {
            let mine = self.useless_per_cache.get(i).copied().unwrap_or(0);
            let theirs = stats.useless_commands.get();
            if mine != theirs {
                return Err((i, mine, theirs));
            }
        }
        Ok(())
    }

    /// Summarizes the registry for a report.
    #[must_use]
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            latency: TxnClass::ALL
                .into_iter()
                .map(|c| {
                    let h = self.latency(c);
                    (
                        c,
                        LatencySummary {
                            count: h.count(),
                            mean: h.mean(),
                            p50: h.percentile(0.50),
                            p90: h.percentile(0.90),
                            p99: h.percentile(0.99),
                            max: h.max(),
                        },
                    )
                })
                .collect(),
            peak_queue_depth: self.queue_depth.peak(),
            peak_outstanding: self.outstanding.peak(),
            mean_outstanding: self.outstanding.mean(),
            commands_delivered: self.commands_total(),
            useless_commands: self.useless_total(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        let mut h = Histogram::new();
        // Each bound lands in its own bucket; bound+1 lands in the next.
        for &b in &BUCKET_BOUNDS {
            h.record(b);
        }
        for (i, &c) in h.buckets()[..BUCKET_BOUNDS.len()].iter().enumerate() {
            assert_eq!(c, 1, "bound {} should fill bucket {i}", BUCKET_BOUNDS[i]);
        }
        assert_eq!(h.buckets()[BUCKET_BOUNDS.len()], 0);
        let mut h2 = Histogram::new();
        h2.record(BUCKET_BOUNDS[0] + 1);
        assert_eq!(h2.buckets()[1], 1, "bound+1 spills into the next bucket");
        h2.record(*BUCKET_BOUNDS.last().unwrap() + 1);
        assert_eq!(
            h2.buckets()[BUCKET_BOUNDS.len()],
            1,
            "overflow bucket catches the tail"
        );
    }

    #[test]
    fn histogram_zero_goes_to_first_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_stats_exact() {
        let mut h = Histogram::new();
        for v in [3, 9, 27, 81] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 120);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 81);
        assert!((h.mean() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_percentiles_quantize_up() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(3); // bucket with bound 4
        }
        h.record(3000); // past the last bound -> overflow bucket
        assert_eq!(h.percentile(0.50), 4);
        assert_eq!(h.percentile(0.99), 4);
        assert_eq!(h.percentile(1.0), 3000, "overflow bucket reports exact max");
        assert_eq!(Histogram::new().percentile(0.5), 0, "empty histogram");
    }

    #[test]
    fn percentile_extremes_match_min_and_max() {
        let mut h = Histogram::new();
        for v in [3, 9, 27, 3000] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), h.min(), "p0 is the recorded minimum");
        assert_eq!(h.percentile(0.0), 3);
        assert_eq!(h.percentile(1.0), h.max(), "p100 is the recorded maximum");
        assert_eq!(h.percentile(-0.5), 3, "below-range clamps to min");
        assert_eq!(h.percentile(1.5), 3000, "above-range clamps to max");
        assert_eq!(Histogram::new().percentile(0.0), 0, "empty histogram");
    }

    #[test]
    fn search_stats_rates() {
        let s = SearchStats {
            states_expanded: 100,
            distinct_states: 26,
            dedup_hits: 75,
            max_depth: 12,
            elapsed_secs: 2.0,
        };
        assert!((s.dedup_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.states_per_sec() - 50.0).abs() < 1e-12);
        let empty = SearchStats::default();
        assert_eq!(empty.dedup_hit_rate(), 0.0);
        assert_eq!(empty.states_per_sec(), 0.0);
    }

    #[test]
    fn gauge_peak_is_exact_despite_cadence() {
        let mut g = Gauge::new(100);
        g.observe(0, 1);
        g.observe(10, 50); // between samples: peak still updates
        g.observe(100, 2);
        assert_eq!(g.peak(), 50);
        assert_eq!(g.samples(), 2, "only t=0 and t=100 accepted");
        assert!((g.mean() - 1.5).abs() < 1e-12);
        assert_eq!(g.current(), 2);
    }

    #[test]
    fn gauge_zero_cadence_samples_everything() {
        let mut g = Gauge::new(0);
        for t in 0..10 {
            g.observe(t, t);
        }
        assert_eq!(g.samples(), 10);
    }

    #[test]
    fn metrics_reconcile_detects_drift() {
        let mut m = Metrics::new(2, 10);
        let mut stats = vec![CacheStats::default(), CacheStats::default()];
        m.record_command(CacheId::new(0), true);
        m.record_command(CacheId::new(1), false);
        stats[0].useless_commands.inc();
        assert_eq!(m.reconcile_useless(&stats), Ok(()));
        stats[1].useless_commands.inc();
        assert_eq!(m.reconcile_useless(&stats), Err((1, 0, 1)));
    }

    #[test]
    fn summary_reports_rates() {
        let mut m = Metrics::new(1, 1);
        m.record_command(CacheId::new(0), true);
        m.record_command(CacheId::new(0), false);
        m.record_latency(TxnClass::ReadMiss, 7);
        m.queue_depth.observe(0, 3);
        let s = m.summary();
        assert!((s.useless_rate() - 0.5).abs() < 1e-12);
        assert_eq!(s.peak_queue_depth, 3);
        let (class, lat) = s.latency[0];
        assert_eq!(class, TxnClass::ReadMiss);
        assert_eq!(lat.count, 1);
        assert_eq!(lat.max, 7);
    }
}
