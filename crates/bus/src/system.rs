//! A whole snooping-bus multiprocessor, executed transaction-atomically.

use crate::state::SnoopState;
use std::collections::HashMap;
use twobit_cache::Cache;
use twobit_interconnect::{MessageSize, Network as _, SharedBus};
use twobit_types::{
    AccessKind, BlockAddr, CacheId, CacheOrg, CacheStats, ConfigError, Counter, MemRef,
    ProtocolError, SystemStats, Version,
};

/// Which snooping protocol a [`BusSystem`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusProtocolKind {
    /// Goodman's write-once (section 2.5's first example).
    WriteOnce,
    /// Papamarcos & Patel's Illinois protocol (MESI).
    Illinois,
}

impl BusProtocolKind {
    /// Short stable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BusProtocolKind::WriteOnce => "write-once",
            BusProtocolKind::Illinois => "illinois",
        }
    }
}

impl std::fmt::Display for BusProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Bus-level statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusStats {
    /// Bus transactions issued (each snooped by all other caches).
    pub transactions: Counter,
    /// Block transfers supplied cache-to-cache (not from memory).
    pub cache_to_cache: Counter,
    /// Blocks written back to memory over the bus.
    pub writebacks: Counter,
    /// Single-word write-throughs (write-once first writes).
    pub word_writes: Counter,
    /// Invalidation-only transactions (Illinois upgrades).
    pub invalidations: Counter,
}

/// A retired bus reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The retired reference.
    pub op: MemRef,
    /// The version observed (loads) / written (stores).
    pub observed: Version,
    /// Whether the reference needed no bus transaction.
    pub was_hit: bool,
}

/// A snooping-bus multiprocessor: `n` caches, one memory behind one bus.
///
/// References execute atomically — the bus serializes all coherence
/// activity by construction, so an untimed executor is exact for command
/// counts while [`SharedBus`] accumulates occupancy for timing estimates.
#[derive(Debug)]
pub struct BusSystem {
    protocol: BusProtocolKind,
    caches: Vec<Cache<SnoopState>>,
    cache_stats: Vec<CacheStats>,
    memory: HashMap<BlockAddr, Version>,
    bus: SharedBus,
    bus_stats: BusStats,
    oracle: HashMap<BlockAddr, Version>,
    next_version: u64,
    now: u64,
    references: u64,
}

impl BusSystem {
    /// Builds a system of `n` caches with the given organization.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `n` is zero.
    pub fn new(protocol: BusProtocolKind, n: usize, org: CacheOrg) -> Result<Self, ConfigError> {
        if n == 0 {
            return Err(ConfigError::new("a bus system needs at least one cache"));
        }
        Ok(BusSystem {
            protocol,
            caches: (0..n).map(|_| Cache::new(org)).collect(),
            cache_stats: vec![CacheStats::default(); n],
            memory: HashMap::new(),
            // Occupancies: 2 cycles for an address/command phase, 6 for a
            // block transfer — the usual early-80s ratios.
            bus: SharedBus::new(2, 6),
            bus_stats: BusStats::default(),
            oracle: HashMap::new(),
            next_version: 0,
            now: 0,
            references: 0,
        })
    }

    /// The protocol in use.
    #[must_use]
    pub fn protocol(&self) -> BusProtocolKind {
        self.protocol
    }

    /// Bus statistics.
    #[must_use]
    pub fn bus_stats(&self) -> &BusStats {
        &self.bus_stats
    }

    /// Total bus-busy cycles accumulated.
    #[must_use]
    pub fn bus_cycles(&self) -> u64 {
        self.bus.next_free()
    }

    /// Per-cache and aggregate statistics in the common format.
    #[must_use]
    pub fn stats(&self) -> SystemStats {
        let mut stats = SystemStats::new(self.caches.len(), 1);
        stats.caches.clone_from_slice(&self.cache_stats);
        stats.network.merge(self.bus.stats());
        // Each bus transaction is delivered to every other cache (the
        // snoop) plus the memory controller.
        let n = self.caches.len() as u64;
        stats
            .network
            .deliveries
            .add(self.bus_stats.transactions.get() * n);
        stats
            .network
            .command_messages
            .add(self.bus_stats.transactions.get());
        stats
            .network
            .data_messages
            .add(self.bus_stats.cache_to_cache.get() + self.bus_stats.writebacks.get());
        stats.cycles = self.bus_cycles();
        stats
    }

    /// Total references executed.
    #[must_use]
    pub fn references(&self) -> u64 {
        self.references
    }

    fn mem_read(&self, a: BlockAddr) -> Version {
        self.memory
            .get(&a)
            .copied()
            .unwrap_or_else(Version::initial)
    }

    fn fresh_version(&mut self) -> Version {
        self.next_version += 1;
        Version::new(self.next_version)
    }

    /// Every other cache snoops a transaction for block `a`; counts the
    /// snoop in the shared `commands_received` currency (the defining
    /// cost of bus schemes: *every* transaction is everyone's business).
    fn snoop_count(&mut self, a: BlockAddr, issuer: CacheId) {
        for i in 0..self.caches.len() {
            if i == issuer.index() {
                continue;
            }
            self.cache_stats[i].commands_received.inc();
            if self.caches[i].contains(a) {
                self.cache_stats[i].effective_commands.inc();
                self.cache_stats[i].stolen_cycles.inc();
            } else {
                self.cache_stats[i].useless_commands.inc();
                self.cache_stats[i].stolen_cycles.inc();
            }
        }
    }

    /// Bus read observed: the dirty owner (if any) supplies and reacts.
    /// Returns the freshest version and whether it came cache-to-cache.
    fn snoop_read(&mut self, a: BlockAddr, issuer: CacheId, for_write: bool) -> (Version, bool) {
        let mut version = self.mem_read(a);
        let mut from_cache = false;
        for i in 0..self.caches.len() {
            if i == issuer.index() {
                continue;
            }
            let state = self.caches[i].state_of(a);
            match state {
                SnoopState::Dirty => {
                    // Owner supplies; memory is updated in the same
                    // transaction (both protocols write back on supply).
                    version = self.caches[i].version_of(a).expect("valid line");
                    self.memory.insert(a, version);
                    from_cache = true;
                    self.cache_stats[i].blocks_supplied.inc();
                    if for_write {
                        self.caches[i].invalidate(a);
                        self.cache_stats[i].invalidated_lines.inc();
                    } else {
                        self.caches[i].set_state(a, SnoopState::Shared);
                    }
                }
                SnoopState::Reserved | SnoopState::Exclusive => {
                    if for_write {
                        self.caches[i].invalidate(a);
                        self.cache_stats[i].invalidated_lines.inc();
                    } else {
                        // Memory is current for both states; on Illinois
                        // the holder also supplies cache-to-cache.
                        if self.protocol == BusProtocolKind::Illinois {
                            from_cache = true;
                            self.cache_stats[i].blocks_supplied.inc();
                        }
                        self.caches[i].set_state(a, SnoopState::Shared);
                    }
                }
                SnoopState::Shared => {
                    if for_write {
                        self.caches[i].invalidate(a);
                        self.cache_stats[i].invalidated_lines.inc();
                    } else if self.protocol == BusProtocolKind::Illinois && !from_cache {
                        // Some shared holder supplies (Illinois priority:
                        // cache-to-cache whenever a copy exists).
                        from_cache = true;
                        self.cache_stats[i].blocks_supplied.inc();
                    }
                }
                SnoopState::Invalid => {}
            }
        }
        (version, from_cache)
    }

    /// Observed invalidation (write-once first write / Illinois upgrade).
    fn snoop_invalidate(&mut self, a: BlockAddr, issuer: CacheId) {
        for i in 0..self.caches.len() {
            if i == issuer.index() {
                continue;
            }
            if self.caches[i].contains(a) {
                self.caches[i].invalidate(a);
                self.cache_stats[i].invalidated_lines.inc();
            }
        }
    }

    /// Evicts the victim (if any) a fill of `a` would need; dirty victims
    /// write back over the bus.
    fn make_room(&mut self, k: CacheId, a: BlockAddr) {
        let Some(victim) = self.caches[k.index()].peek_victim(a) else {
            return;
        };
        let (va, vstate, vversion) = (victim.addr, victim.state, victim.version);
        self.caches[k.index()].invalidate(va);
        if vstate == SnoopState::Dirty {
            self.cache_stats[k.index()].evictions_dirty.inc();
            self.memory.insert(va, vversion);
            self.now = self.bus.acquire(MessageSize::Data, self.now);
            self.bus_stats.writebacks.inc();
            self.bus_stats.transactions.inc();
            self.snoop_count(va, k);
        } else {
            self.cache_stats[k.index()].evictions_clean.inc();
        }
    }

    /// `true` if any cache other than `k` holds `a` — the "shared line"
    /// wire every snooping bus provides.
    fn shared_line(&self, a: BlockAddr, k: CacheId) -> bool {
        self.caches
            .iter()
            .enumerate()
            .any(|(i, c)| i != k.index() && c.contains(a))
    }

    /// Executes one reference by cache `k`, atomically.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::StaleRead`] if the protocol let a load
    /// observe anything but the latest write — a protocol bug.
    pub fn do_ref(&mut self, k: CacheId, op: MemRef) -> Result<Completion, ProtocolError> {
        let a = op.addr.block;
        let state = self.caches[k.index()].state_of(a);
        let completion = match op.kind {
            AccessKind::Read => {
                self.cache_stats[k.index()].reads.inc();
                if state != SnoopState::Invalid {
                    self.caches[k.index()].touch(a);
                    self.cache_stats[k.index()].read_hits.inc();
                    let observed = self.caches[k.index()].version_of(a).expect("valid line");
                    Completion {
                        op,
                        observed,
                        was_hit: true,
                    }
                } else {
                    self.cache_stats[k.index()].read_misses.inc();
                    self.make_room(k, a);
                    self.now = self.bus.acquire(MessageSize::Data, self.now);
                    self.bus_stats.transactions.inc();
                    self.snoop_count(a, k);
                    let shared_before = self.shared_line(a, k);
                    let (version, from_cache) = self.snoop_read(a, k, false);
                    if from_cache {
                        self.bus_stats.cache_to_cache.inc();
                    }
                    let fill = match self.protocol {
                        BusProtocolKind::Illinois if !shared_before => SnoopState::Exclusive,
                        _ => SnoopState::Shared,
                    };
                    self.caches[k.index()].insert(a, fill, version);
                    Completion {
                        op,
                        observed: version,
                        was_hit: false,
                    }
                }
            }
            AccessKind::Write => {
                self.cache_stats[k.index()].writes.inc();
                let version = self.fresh_version();
                match (self.protocol, state) {
                    // Silent upgrades.
                    (_, SnoopState::Dirty)
                    | (BusProtocolKind::WriteOnce, SnoopState::Reserved)
                    | (BusProtocolKind::Illinois, SnoopState::Exclusive) => {
                        self.caches[k.index()].touch(a);
                        self.caches[k.index()].set_state(a, SnoopState::Dirty);
                        self.caches[k.index()].set_version(a, version);
                        self.cache_stats[k.index()].write_hits_dirty.inc();
                        Completion {
                            op,
                            observed: version,
                            was_hit: true,
                        }
                    }
                    // Write hit on a shared clean line.
                    (BusProtocolKind::WriteOnce, SnoopState::Shared) => {
                        // Write-once: write the word through to memory and
                        // invalidate other copies; line becomes Reserved.
                        self.cache_stats[k.index()].write_hits_clean.inc();
                        self.now = self.bus.acquire(MessageSize::Command, self.now);
                        self.bus_stats.transactions.inc();
                        self.bus_stats.word_writes.inc();
                        self.snoop_count(a, k);
                        self.snoop_invalidate(a, k);
                        self.memory.insert(a, version);
                        self.caches[k.index()].touch(a);
                        self.caches[k.index()].set_state(a, SnoopState::Reserved);
                        self.caches[k.index()].set_version(a, version);
                        Completion {
                            op,
                            observed: version,
                            was_hit: true,
                        }
                    }
                    (BusProtocolKind::Illinois, SnoopState::Shared) => {
                        // Upgrade: invalidation-only transaction.
                        self.cache_stats[k.index()].write_hits_clean.inc();
                        self.now = self.bus.acquire(MessageSize::Command, self.now);
                        self.bus_stats.transactions.inc();
                        self.bus_stats.invalidations.inc();
                        self.snoop_count(a, k);
                        self.snoop_invalidate(a, k);
                        self.caches[k.index()].touch(a);
                        self.caches[k.index()].set_state(a, SnoopState::Dirty);
                        self.caches[k.index()].set_version(a, version);
                        Completion {
                            op,
                            observed: version,
                            was_hit: true,
                        }
                    }
                    // Write misses.
                    (BusProtocolKind::WriteOnce, SnoopState::Invalid) => {
                        // Goodman: a read transaction fetches the block,
                        // then the first write goes through — two bus
                        // transactions.
                        self.cache_stats[k.index()].write_misses.inc();
                        self.make_room(k, a);
                        self.now = self.bus.acquire(MessageSize::Data, self.now);
                        self.bus_stats.transactions.inc();
                        self.snoop_count(a, k);
                        let (_, from_cache) = self.snoop_read(a, k, false);
                        if from_cache {
                            self.bus_stats.cache_to_cache.inc();
                        }
                        // The write-once word write.
                        self.now = self.bus.acquire(MessageSize::Command, self.now);
                        self.bus_stats.transactions.inc();
                        self.bus_stats.word_writes.inc();
                        self.snoop_count(a, k);
                        self.snoop_invalidate(a, k);
                        self.memory.insert(a, version);
                        self.caches[k.index()].insert(a, SnoopState::Reserved, version);
                        Completion {
                            op,
                            observed: version,
                            was_hit: false,
                        }
                    }
                    (BusProtocolKind::Illinois, SnoopState::Invalid) => {
                        // Read-for-ownership: one transaction.
                        self.cache_stats[k.index()].write_misses.inc();
                        self.make_room(k, a);
                        self.now = self.bus.acquire(MessageSize::Data, self.now);
                        self.bus_stats.transactions.inc();
                        self.snoop_count(a, k);
                        let (_, from_cache) = self.snoop_read(a, k, true);
                        if from_cache {
                            self.bus_stats.cache_to_cache.inc();
                        }
                        self.caches[k.index()].insert(a, SnoopState::Dirty, version);
                        Completion {
                            op,
                            observed: version,
                            was_hit: false,
                        }
                    }
                    (p, s) => unreachable!("unhandled write ({p}, {s})"),
                }
            }
        };

        // Oracle bookkeeping.
        match op.kind {
            AccessKind::Read => {
                let expected = self
                    .oracle
                    .get(&a)
                    .copied()
                    .unwrap_or_else(Version::initial);
                if completion.observed != expected {
                    return Err(ProtocolError::StaleRead {
                        a,
                        reader: k,
                        observed: completion.observed.raw(),
                        expected: expected.raw(),
                    });
                }
            }
            AccessKind::Write => {
                self.oracle.insert(a, completion.observed);
            }
        }
        self.references += 1;
        self.check_swmr(a)?;
        Ok(completion)
    }

    /// SWMR plus protocol-specific sole-copy invariants for block `a`.
    fn check_swmr(&self, a: BlockAddr) -> Result<(), ProtocolError> {
        let mut dirty: Option<CacheId> = None;
        let mut valid = 0usize;
        let mut sole_states = 0usize;
        for (i, cache) in self.caches.iter().enumerate() {
            let s = cache.state_of(a);
            if s != SnoopState::Invalid {
                valid += 1;
            }
            if matches!(
                s,
                SnoopState::Dirty | SnoopState::Reserved | SnoopState::Exclusive
            ) {
                sole_states += 1;
            }
            if s == SnoopState::Dirty {
                if let Some(first) = dirty {
                    return Err(ProtocolError::DuplicateOwner {
                        a,
                        first,
                        second: CacheId::new(i),
                    });
                }
                dirty = Some(CacheId::new(i));
            }
        }
        if (dirty.is_some() || sole_states > 0)
            && (sole_states > 1 || (dirty.is_some() && valid > 1))
        {
            return Err(ProtocolError::DirectoryInconsistent {
                a,
                detail: format!("{valid} valid copies with {sole_states} sole-copy states"),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::WordAddr;

    fn sys(p: BusProtocolKind, n: usize) -> BusSystem {
        BusSystem::new(p, n, CacheOrg::new(4, 2, 4).unwrap()).unwrap()
    }

    fn rd(b: u64) -> MemRef {
        MemRef::read(WordAddr::new(b, 0))
    }

    fn wr(b: u64) -> MemRef {
        MemRef::write(WordAddr::new(b, 0))
    }

    fn cid(n: usize) -> CacheId {
        CacheId::new(n)
    }

    const BOTH: [BusProtocolKind; 2] = [BusProtocolKind::WriteOnce, BusProtocolKind::Illinois];

    #[test]
    fn read_after_remote_write_sees_fresh_data() {
        for p in BOTH {
            let mut s = sys(p, 4);
            for round in 1..=10u64 {
                s.do_ref(cid(0), wr(5)).unwrap();
                let c = s.do_ref(cid(1), rd(5)).unwrap();
                assert!(c.observed.raw() >= round, "{p}");
            }
        }
    }

    #[test]
    fn write_once_first_write_goes_through_to_memory() {
        let mut s = sys(BusProtocolKind::WriteOnce, 2);
        s.do_ref(cid(0), rd(1)).unwrap();
        s.do_ref(cid(0), wr(1)).unwrap(); // first write: through
        assert_eq!(s.bus_stats().word_writes.get(), 1);
        // Memory is current: remote read needs no cache supply.
        let before = s.bus_stats().cache_to_cache.get();
        s.do_ref(cid(1), rd(1)).unwrap();
        assert_eq!(s.bus_stats().cache_to_cache.get(), before);
    }

    #[test]
    fn write_once_second_write_is_silent() {
        let mut s = sys(BusProtocolKind::WriteOnce, 2);
        s.do_ref(cid(0), rd(1)).unwrap();
        s.do_ref(cid(0), wr(1)).unwrap(); // → Reserved
        let txns = s.bus_stats().transactions.get();
        s.do_ref(cid(0), wr(1)).unwrap(); // → Dirty, no bus
        assert_eq!(
            s.bus_stats().transactions.get(),
            txns,
            "second write stays local"
        );
    }

    #[test]
    fn illinois_first_read_fills_exclusive_and_upgrades_silently() {
        let mut s = sys(BusProtocolKind::Illinois, 2);
        s.do_ref(cid(0), rd(1)).unwrap();
        let txns = s.bus_stats().transactions.get();
        s.do_ref(cid(0), wr(1)).unwrap();
        assert_eq!(
            s.bus_stats().transactions.get(),
            txns,
            "E → M without the bus"
        );
    }

    #[test]
    fn illinois_shared_read_fills_shared_and_upgrade_costs_a_transaction() {
        let mut s = sys(BusProtocolKind::Illinois, 2);
        s.do_ref(cid(0), rd(1)).unwrap();
        s.do_ref(cid(1), rd(1)).unwrap(); // C1 fills Shared (C0 had a copy)
        let invs = s.bus_stats().invalidations.get();
        s.do_ref(cid(1), wr(1)).unwrap();
        assert_eq!(s.bus_stats().invalidations.get(), invs + 1);
        // C0's copy is gone.
        let c = s.do_ref(cid(0), rd(1)).unwrap();
        assert!(!c.was_hit);
    }

    #[test]
    fn illinois_supplies_cache_to_cache() {
        let mut s = sys(BusProtocolKind::Illinois, 2);
        s.do_ref(cid(0), rd(1)).unwrap(); // exclusive at C0
        s.do_ref(cid(1), rd(1)).unwrap(); // supplied by C0
        assert_eq!(s.bus_stats().cache_to_cache.get(), 1);
    }

    #[test]
    fn dirty_owner_supplies_and_downgrades() {
        for p in BOTH {
            let mut s = sys(p, 2);
            s.do_ref(cid(0), wr(1)).unwrap();
            s.do_ref(cid(0), wr(1)).unwrap(); // ensure Dirty in write-once too
            let c = s.do_ref(cid(1), rd(1)).unwrap();
            assert_eq!(c.observed.raw(), 2, "{p}: freshest data supplied");
            assert!(s.bus_stats().cache_to_cache.get() >= 1, "{p}");
        }
    }

    #[test]
    fn every_transaction_is_snooped_by_all_others() {
        // The section 2.5 cost: misses broadcast on the bus even with no
        // sharing at all.
        for p in BOTH {
            let mut s = sys(p, 8);
            s.do_ref(cid(0), rd(1)).unwrap(); // one transaction
            let stats = s.stats();
            let received: u64 = stats.caches.iter().map(|c| c.commands_received.get()).sum();
            assert_eq!(received, 7, "{p}: n-1 snoops for a lone miss");
        }
    }

    #[test]
    fn dirty_evictions_write_back_over_the_bus() {
        for p in BOTH {
            // Direct-mapped single set: blocks 0 and 4 collide.
            let mut s = BusSystem::new(p, 2, CacheOrg::new(4, 1, 4).unwrap()).unwrap();
            s.do_ref(cid(0), wr(0)).unwrap();
            s.do_ref(cid(0), wr(0)).unwrap(); // Dirty in both protocols
            s.do_ref(cid(0), rd(4)).unwrap(); // evicts dirty block 0
            assert_eq!(s.bus_stats().writebacks.get(), 1, "{p}");
            // The data survives.
            let c = s.do_ref(cid(1), rd(0)).unwrap();
            assert_eq!(c.observed.raw(), 2, "{p}");
        }
    }

    #[test]
    fn write_once_write_miss_takes_two_transactions() {
        let mut s = sys(BusProtocolKind::WriteOnce, 2);
        s.do_ref(cid(0), wr(9)).unwrap();
        assert_eq!(s.bus_stats().transactions.get(), 2, "read + write-through");
        let mut s = sys(BusProtocolKind::Illinois, 2);
        s.do_ref(cid(0), wr(9)).unwrap();
        assert_eq!(s.bus_stats().transactions.get(), 1, "read-for-ownership");
    }

    #[test]
    fn ping_pong_write_sharing_is_coherent() {
        for p in BOTH {
            let mut s = sys(p, 4);
            for i in 0..40u64 {
                s.do_ref(cid((i % 4) as usize), wr(3)).unwrap();
            }
            let c = s.do_ref(cid(0), rd(3)).unwrap();
            assert_eq!(c.observed.raw(), 40, "{p}");
        }
    }

    #[test]
    fn bus_cycles_accumulate() {
        let mut s = sys(BusProtocolKind::Illinois, 2);
        assert_eq!(s.bus_cycles(), 0);
        s.do_ref(cid(0), rd(1)).unwrap();
        assert!(s.bus_cycles() >= 6, "a block transfer occupies the bus");
    }

    #[test]
    fn rejects_empty_system() {
        assert!(BusSystem::new(
            BusProtocolKind::Illinois,
            0,
            CacheOrg::new(4, 1, 4).unwrap()
        )
        .is_err());
    }
}
