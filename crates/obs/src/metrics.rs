//! The metrics registry: latency histograms per transaction class and
//! sampled gauges. Command counts are the caches' own ([`CacheStats`]),
//! which a summary reads.

use std::fmt;
use twobit_types::CacheStats;

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
}

impl Metrics {
    /// A registry sampling gauges every `cadence` cycles.
    #[must_use]
    pub fn new(cadence: u64) -> Self {
        Metrics {
            latency: Default::default(),
            queue_depth: Gauge::new(cadence),
            outstanding: Gauge::new(cadence),
        }
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

    /// Summarizes the registry for a report, with the command totals of
    /// the run's `caches`.
    #[must_use]
    pub fn summary(&self, caches: &[CacheStats]) -> MetricsSummary {
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
            commands_delivered: caches.iter().map(|c| c.commands_received.get()).sum(),
            useless_commands: caches.iter().map(|c| c.useless_commands.get()).sum(),
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
    fn summary_reports_rates() {
        let mut m = Metrics::new(1);
        let stats = CacheStats {
            commands_received: 2.into(),
            useless_commands: 1.into(),
            ..CacheStats::default()
        };
        m.record_latency(TxnClass::ReadMiss, 7);
        m.queue_depth.observe(0, 3);
        let s = m.summary(&[stats]);
        assert!((s.useless_rate() - 0.5).abs() < 1e-12);
        assert_eq!(s.peak_queue_depth, 3);
        let (class, lat) = s.latency[0];
        assert_eq!(class, TxnClass::ReadMiss);
        assert_eq!(lat.count, 1);
        assert_eq!(lat.max, 7);
    }
}
