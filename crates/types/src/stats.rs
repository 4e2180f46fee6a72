//! Statistics containers.
//!
//! The paper's evaluation currency is *commands received per cache per
//! memory reference* (Tables 4-1 and 4-2) and *stolen cache cycles*; the
//! counters here are organized so those quantities fall out directly.
//! All containers are passive data with public fields, [`Default`]-zeroed,
//! and mergeable so parallel sweep drivers can combine shards.

use std::fmt;
use std::ops::AddAssign;

/// A saturating event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Adds `n` events.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// The current count.
    #[must_use]
    pub fn get(self) -> u64 {
        self.0
    }

    /// The count as a float, for rate computations.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl AddAssign for Counter {
    fn add_assign(&mut self, rhs: Counter) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl From<u64> for Counter {
    fn from(n: u64) -> Counter {
        Counter(n)
    }
}

/// Classification of protocol commands for per-class accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandClass {
    /// `REQUEST` (miss).
    Request,
    /// `MREQUEST` (modify permission).
    MRequest,
    /// `EJECT` (replacement notice).
    Eject,
    /// `put` data transfer toward memory.
    PutData,
    /// `get` data transfer toward a cache.
    GetData,
    /// `BROADINV` broadcast invalidate.
    BroadInv,
    /// `BROADQUERY` broadcast owner query.
    BroadQuery,
    /// `MGRANTED` permission reply.
    MGranted,
    /// Targeted invalidate (full map / translation-buffer hit).
    Inv,
    /// Targeted purge (full map / translation-buffer hit).
    Purge,
    /// Write-through store (classical and static schemes).
    WriteThrough,
    /// Uncached direct read (static scheme).
    DirectRead,
}

impl CommandClass {
    /// All classes, for table headers.
    pub const ALL: [CommandClass; 12] = [
        CommandClass::Request,
        CommandClass::MRequest,
        CommandClass::Eject,
        CommandClass::PutData,
        CommandClass::GetData,
        CommandClass::BroadInv,
        CommandClass::BroadQuery,
        CommandClass::MGranted,
        CommandClass::Inv,
        CommandClass::Purge,
        CommandClass::WriteThrough,
        CommandClass::DirectRead,
    ];
}

impl fmt::Display for CommandClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CommandClass::Request => "REQUEST",
            CommandClass::MRequest => "MREQUEST",
            CommandClass::Eject => "EJECT",
            CommandClass::PutData => "put",
            CommandClass::GetData => "get",
            CommandClass::BroadInv => "BROADINV",
            CommandClass::BroadQuery => "BROADQUERY",
            CommandClass::MGranted => "MGRANTED",
            CommandClass::Inv => "INV",
            CommandClass::Purge => "PURGE",
            CommandClass::WriteThrough => "WRITETHRU",
            CommandClass::DirectRead => "DIRECTREAD",
        })
    }
}

/// Per-cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Loads issued by the attached processor.
    pub reads: Counter,
    /// Stores issued by the attached processor.
    pub writes: Counter,
    /// Loads satisfied locally.
    pub read_hits: Counter,
    /// Stores that hit a line already Dirty (no directory trip).
    pub write_hits_dirty: Counter,
    /// Stores that hit a Clean line and required `MREQUEST`
    /// (section 3.2.4).
    pub write_hits_clean: Counter,
    /// Loads that missed.
    pub read_misses: Counter,
    /// Stores that missed.
    pub write_misses: Counter,
    /// Clean lines replaced (advisory `EJECT`).
    pub evictions_clean: Counter,
    /// Dirty lines replaced (write-back `EJECT` + `put`).
    pub evictions_dirty: Counter,
    /// Coherence commands delivered to this cache (broadcast or targeted),
    /// excluding data grants and `MGRANTED` replies to its own requests.
    pub commands_received: Counter,
    /// Delivered commands that found no copy of the block — the pure
    /// overhead the two-bit scheme pays for not knowing owners.
    pub useless_commands: Counter,
    /// Delivered commands that matched a cached block and changed its
    /// state (invalidations and downgrades actually performed).
    pub effective_commands: Counter,
    /// Cache cycles lost to servicing received commands. With the
    /// duplicate-directory enhancement only matching commands cost cycles.
    pub stolen_cycles: Counter,
    /// Times this cache supplied a dirty block in answer to a query/purge.
    pub blocks_supplied: Counter,
    /// Lines lost to remote invalidation (later misses on these are
    /// coherence misses).
    pub invalidated_lines: Counter,
    /// Invalidation commands absorbed by the BIAS memory without a
    /// directory search (section 2.3's filter).
    pub bias_filtered: Counter,
    /// Tag-store probes (set searches) the cache performed, reads
    /// included — the raw hot-path op count behind every hit, miss, and
    /// snooped command. Filled from the tag store at report time.
    pub tag_probes: Counter,
}

impl CacheStats {
    /// Total references issued by the attached processor.
    #[must_use]
    pub fn references(&self) -> u64 {
        self.reads.get() + self.writes.get()
    }

    /// Total hits (loads plus both kinds of store hit).
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.read_hits.get() + self.write_hits_dirty.get() + self.write_hits_clean.get()
    }

    /// Total misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.read_misses.get() + self.write_misses.get()
    }

    /// Hit ratio over all references; 0 when no references were issued.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let refs = self.references();
        if refs == 0 {
            0.0
        } else {
            self.hits() as f64 / refs as f64
        }
    }

    /// Commands received per reference — the unit of Tables 4-1/4-2.
    #[must_use]
    pub fn commands_per_reference(&self) -> f64 {
        let refs = self.references();
        if refs == 0 {
            0.0
        } else {
            self.commands_received.as_f64() / refs as f64
        }
    }

    /// Merges another cache's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.read_hits += other.read_hits;
        self.write_hits_dirty += other.write_hits_dirty;
        self.write_hits_clean += other.write_hits_clean;
        self.read_misses += other.read_misses;
        self.write_misses += other.write_misses;
        self.evictions_clean += other.evictions_clean;
        self.evictions_dirty += other.evictions_dirty;
        self.commands_received += other.commands_received;
        self.useless_commands += other.useless_commands;
        self.effective_commands += other.effective_commands;
        self.stolen_cycles += other.stolen_cycles;
        self.blocks_supplied += other.blocks_supplied;
        self.invalidated_lines += other.invalidated_lines;
        self.bias_filtered += other.bias_filtered;
        self.tag_probes += other.tag_probes;
    }
}

/// Per-memory-controller statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ControllerStats {
    /// `REQUEST`s served.
    pub requests: Counter,
    /// `MREQUEST`s served.
    pub mrequests: Counter,
    /// `EJECT`s absorbed.
    pub ejects: Counter,
    /// Broadcast commands sent (`BROADINV` + `BROADQUERY`), counted once
    /// per broadcast, not per delivery.
    pub broadcasts_sent: Counter,
    /// Targeted commands sent (`INV`, `PURGE`, grants, `MGRANTED`).
    pub unicasts_sent: Counter,
    /// Total per-cache command deliveries generated (a broadcast in an
    /// `n`-cache system generates `n-1` deliveries).
    pub deliveries: Counter,
    /// Block reads from the attached memory module.
    pub memory_reads: Counter,
    /// Block writes (write-backs) into the attached memory module.
    pub memory_writes: Counter,
    /// Translation-buffer hits (two-bit+tlb only).
    pub tlb_hits: Counter,
    /// Translation-buffer misses (two-bit+tlb only).
    pub tlb_misses: Counter,
    /// Requests that found their block locked by an in-flight transaction
    /// and had to queue (section 3.2.5).
    pub conflicts_queued: Counter,
    /// High-water mark of the pending-request queue.
    pub queue_peak: Counter,
}

impl ControllerStats {
    /// Translation-buffer hit ratio; 0 when the buffer was never consulted.
    #[must_use]
    pub fn tlb_hit_ratio(&self) -> f64 {
        let total = self.tlb_hits.get() + self.tlb_misses.get();
        if total == 0 {
            0.0
        } else {
            self.tlb_hits.as_f64() / total as f64
        }
    }

    /// Merges another controller's counters into this one
    /// (`queue_peak` takes the max, everything else sums).
    pub fn merge(&mut self, other: &ControllerStats) {
        self.requests += other.requests;
        self.mrequests += other.mrequests;
        self.ejects += other.ejects;
        self.broadcasts_sent += other.broadcasts_sent;
        self.unicasts_sent += other.unicasts_sent;
        self.deliveries += other.deliveries;
        self.memory_reads += other.memory_reads;
        self.memory_writes += other.memory_writes;
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
        self.conflicts_queued += other.conflicts_queued;
        self.queue_peak = Counter::from(self.queue_peak.get().max(other.queue_peak.get()));
    }
}

/// Interconnection-network statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkStats {
    /// Control commands injected (a broadcast counts once).
    pub command_messages: Counter,
    /// Block data transfers injected (`put` + `get`).
    pub data_messages: Counter,
    /// Total point deliveries, counting a broadcast's fan-out once per
    /// recipient — the paper's concern about "the effect of the broadcasts
    /// on traffic in the interconnection network".
    pub deliveries: Counter,
    /// Cycles any message spent queued waiting for a busy port.
    pub queueing_cycles: Counter,
}

impl NetworkStats {
    /// Merges another network's counters into this one.
    pub fn merge(&mut self, other: &NetworkStats) {
        self.command_messages += other.command_messages;
        self.data_messages += other.data_messages;
        self.deliveries += other.deliveries;
        self.queueing_cycles += other.queueing_cycles;
    }
}

/// Whole-system statistics: one entry per cache and per controller, plus
/// network totals and the simulated-cycle count.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SystemStats {
    /// Per-cache counters, indexed by [`crate::CacheId::index`].
    pub caches: Vec<CacheStats>,
    /// Per-controller counters, indexed by [`crate::ModuleId::index`].
    pub controllers: Vec<ControllerStats>,
    /// Network totals.
    pub network: NetworkStats,
    /// Simulated cycles elapsed (0 for functional executions).
    pub cycles: u64,
}

impl SystemStats {
    /// A zeroed container for `caches` caches and `modules` controllers.
    #[must_use]
    pub fn new(caches: usize, modules: usize) -> Self {
        SystemStats {
            caches: vec![CacheStats::default(); caches],
            controllers: vec![ControllerStats::default(); modules],
            network: NetworkStats::default(),
            cycles: 0,
        }
    }

    /// Total references issued system-wide.
    #[must_use]
    pub fn total_references(&self) -> u64 {
        self.caches.iter().map(CacheStats::references).sum()
    }

    /// Aggregate of all per-cache counters.
    #[must_use]
    pub fn cache_totals(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.caches {
            total.merge(c);
        }
        total
    }

    /// Aggregate of all per-controller counters.
    #[must_use]
    pub fn controller_totals(&self) -> ControllerStats {
        let mut total = ControllerStats::default();
        for c in &self.controllers {
            total.merge(c);
        }
        total
    }

    /// Mean coherence commands received per cache per memory reference —
    /// directly comparable to the paper's `(n-1)·T_SUM` and `(n-1)·T_R`.
    ///
    /// Each cache's figure is (commands it received) / (references it
    /// issued); with symmetric caches the system-wide mean is total
    /// commands received over total references.
    #[must_use]
    pub fn commands_received_per_reference(&self) -> f64 {
        let total_refs = self.total_references();
        if total_refs == 0 {
            return 0.0;
        }
        let received: u64 = self.caches.iter().map(|c| c.commands_received.get()).sum();
        received as f64 / total_refs as f64
    }

    /// System-wide hit ratio.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let totals = self.cache_totals();
        totals.hit_ratio()
    }

    /// Merges another run's statistics (same shape) into this one.
    ///
    /// # Panics
    ///
    /// Panics if the two containers have different shapes.
    pub fn merge(&mut self, other: &SystemStats) {
        assert_eq!(
            self.caches.len(),
            other.caches.len(),
            "mismatched cache counts"
        );
        assert_eq!(
            self.controllers.len(),
            other.controllers.len(),
            "mismatched module counts"
        );
        for (mine, theirs) in self.caches.iter_mut().zip(&other.caches) {
            mine.merge(theirs);
        }
        for (mine, theirs) in self.controllers.iter_mut().zip(&other.controllers) {
            mine.merge(theirs);
        }
        self.network.merge(&other.network);
        self.cycles += other.cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut d = Counter::from(1);
        d += c;
        assert_eq!(d.get(), 6);
    }

    #[test]
    fn counter_saturates() {
        let mut c = Counter::from(u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.add(100);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn cache_stats_ratios() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_ratio(), 0.0, "empty stats give 0, not NaN");
        s.reads.add(80);
        s.writes.add(20);
        s.read_hits.add(70);
        s.write_hits_dirty.add(10);
        s.write_hits_clean.add(5);
        s.read_misses.add(10);
        s.write_misses.add(5);
        assert_eq!(s.references(), 100);
        assert_eq!(s.hits(), 85);
        assert_eq!(s.misses(), 15);
        assert!((s.hit_ratio() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn commands_per_reference_normalizes() {
        let mut s = CacheStats::default();
        s.reads.add(50);
        s.writes.add(50);
        s.commands_received.add(25);
        assert!((s.commands_per_reference() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_cache_stats() {
        let mut a = CacheStats::default();
        a.reads.add(10);
        a.stolen_cycles.add(3);
        let mut b = CacheStats::default();
        b.reads.add(5);
        b.stolen_cycles.add(4);
        a.merge(&b);
        assert_eq!(a.reads.get(), 15);
        assert_eq!(a.stolen_cycles.get(), 7);
    }

    #[test]
    fn controller_merge_takes_queue_peak_max() {
        let mut a = ControllerStats {
            queue_peak: Counter::from(3),
            ..Default::default()
        };
        a.requests.add(1);
        let mut b = ControllerStats {
            queue_peak: Counter::from(7),
            ..Default::default()
        };
        b.requests.add(2);
        a.merge(&b);
        assert_eq!(a.queue_peak.get(), 7);
        assert_eq!(a.requests.get(), 3);
    }

    #[test]
    fn tlb_hit_ratio_handles_unused_buffer() {
        let mut c = ControllerStats::default();
        assert_eq!(c.tlb_hit_ratio(), 0.0);
        c.tlb_hits.add(9);
        c.tlb_misses.add(1);
        assert!((c.tlb_hit_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn system_stats_shape_and_totals() {
        let mut s = SystemStats::new(4, 2);
        assert_eq!(s.caches.len(), 4);
        assert_eq!(s.controllers.len(), 2);
        for c in &mut s.caches {
            c.reads.add(100);
            c.commands_received.add(10);
        }
        assert_eq!(s.total_references(), 400);
        // Each cache received 10 commands over its own 100 references.
        assert!((s.commands_received_per_reference() - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mismatched cache counts")]
    fn system_merge_rejects_shape_mismatch() {
        let mut a = SystemStats::new(2, 1);
        let b = SystemStats::new(3, 1);
        a.merge(&b);
    }

    #[test]
    fn system_merge_sums_everything() {
        let mut a = SystemStats::new(1, 1);
        a.cycles = 10;
        a.network.deliveries.add(5);
        let mut b = SystemStats::new(1, 1);
        b.cycles = 20;
        b.network.deliveries.add(7);
        a.merge(&b);
        assert_eq!(a.cycles, 30);
        assert_eq!(a.network.deliveries.get(), 12);
    }

    #[test]
    fn command_class_display_and_all() {
        assert_eq!(CommandClass::ALL.len(), 12);
        assert_eq!(CommandClass::BroadQuery.to_string(), "BROADQUERY");
    }
}
