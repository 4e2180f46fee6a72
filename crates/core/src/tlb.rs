//! The translation-buffer enhancement of section 4.4: a bounded
//! owner-identity cache in front of the two-bit map.
//!
//! "A second and more promising approach involves adding to each memory
//! controller a translation buffer or cache memory in which to store the
//! identities of caches which own copies of blocks from that module. In
//! those cases where a broadcast is needed in the unmodified two-bit
//! scheme, the controller would first determine if the identity of the
//! owner (or owners) is present in the translation buffer. If so,
//! selective message handling can be performed just as with the n+1 bit
//! approach; if not, a broadcast must be used."
//!
//! # Exactness discipline
//!
//! A buffered owner set is only usable if it is *exact*: a stale subset
//! would let a copy survive an invalidation. Entries are therefore created
//! or overwritten **only at moments when the true holder set is fully
//! known** — a grant out of `Absent` (holders = {k}), the completion of an
//! invalidation sweep (holders = {k}), a `Present1` upgrade (sole holder =
//! requester), or a query resolution (holders = {owner?, requester}) — and
//! are *extended* only when an entry already exists. A read-miss grant
//! under `Present1`/`Present*` with no buffered entry leaves the block
//! untracked (the pre-existing holders are unknown), and capacity eviction
//! simply forgets a block, degrading it to broadcast service. Ejects
//! remove the ejector, keeping entries exact.

use crate::directory::{DirSend, DirStep, DirectoryProtocol, OpenKind, SendCost};
use crate::memory::MemoryImage;
use crate::owner_set::OwnerSet;
use crate::transitions::{ActionKind, Delivery, TransitionTable};
use crate::two_bit::TwoBitDirectory;
use std::collections::HashMap;
use std::sync::OnceLock;
use twobit_obs::json::{obj, Json, ToJson};
use twobit_types::{
    BlockAddr, CacheId, Fingerprinter, GlobalState, MemoryToCache, Version, WritebackKind,
};

/// A bounded LRU buffer of exact owner sets.
#[derive(Debug, Clone)]
pub struct TranslationBuffer {
    entries: HashMap<BlockAddr, (OwnerSet, u64)>,
    capacity: usize,
    width: usize,
    clock: u64,
}

impl TranslationBuffer {
    /// A buffer of `capacity` block entries for a system of `width` caches.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `width` is zero.
    #[must_use]
    pub fn new(capacity: usize, width: usize) -> Self {
        assert!(capacity > 0, "a zero-entry buffer is plain two-bit");
        assert!(width > 0, "owner sets need at least one cache");
        TranslationBuffer {
            entries: HashMap::new(),
            capacity,
            width,
            clock: 0,
        }
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reads `a`'s entry without refreshing its LRU position.
    #[must_use]
    pub fn peek(&self, a: BlockAddr) -> Option<&OwnerSet> {
        self.entries.get(&a).map(|(owners, _)| owners)
    }

    /// Looks up the exact owner set of `a`, refreshing its LRU position.
    pub fn lookup(&mut self, a: BlockAddr) -> Option<OwnerSet> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&a).map(|(owners, stamp)| {
            *stamp = clock;
            owners.clone()
        })
    }

    /// Records an exactly-known owner set for `a`, evicting the LRU entry
    /// if at capacity.
    pub fn record(&mut self, a: BlockAddr, owners: OwnerSet) {
        self.clock += 1;
        if !self.entries.contains_key(&a) && self.entries.len() >= self.capacity {
            if let Some((&victim, _)) = self
                .entries
                .iter()
                .min_by_key(|(addr, (_, stamp))| (*stamp, addr.number()))
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(a, (owners, self.clock));
    }

    /// Adds `k` to `a`'s entry if (and only if) one exists — extending
    /// exact knowledge, never inventing it.
    pub fn extend_if_tracked(&mut self, a: BlockAddr, k: CacheId) {
        if let Some((owners, _)) = self.entries.get_mut(&a) {
            owners.insert(k);
        }
    }

    /// Removes `k` from `a`'s entry if one exists.
    pub fn remove_owner(&mut self, a: BlockAddr, k: CacheId) {
        if let Some((owners, _)) = self.entries.get_mut(&a) {
            owners.remove(k);
        }
    }

    fn exact_singleton(&self, k: CacheId) -> OwnerSet {
        OwnerSet::singleton(self.width, k)
    }
}

/// The two-bit directory augmented with a translation buffer.
///
/// Delegates all global-state bookkeeping to an inner [`TwoBitDirectory`]
/// (the 2-bit map is unchanged; the buffer is a pure accelerator) and
/// rewrites would-be broadcasts into targeted sends on buffer hits.
#[derive(Debug, Clone)]
pub struct TwoBitTlbDirectory {
    inner: TwoBitDirectory,
    tlb: TranslationBuffer,
    hits: u64,
    misses: u64,
}

impl TwoBitTlbDirectory {
    /// A two-bit directory with a `capacity`-entry translation buffer for
    /// a system of `width` caches.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `width` is zero.
    #[must_use]
    pub fn new(capacity: usize, width: usize) -> Self {
        TwoBitTlbDirectory {
            inner: TwoBitDirectory::new(),
            tlb: TranslationBuffer::new(capacity, width),
            hits: 0,
            misses: 0,
        }
    }

    /// Translation-buffer hits so far (broadcasts avoided).
    #[must_use]
    pub fn tlb_hits(&self) -> u64 {
        self.hits
    }

    /// Translation-buffer misses so far (broadcasts forced).
    #[must_use]
    pub fn tlb_misses(&self) -> u64 {
        self.misses
    }

    /// Rebuilds a directory+buffer from a
    /// [`DirectoryProtocol::save_state`] checkpoint document.
    pub(crate) fn restore_json(j: &Json) -> Result<Self, String> {
        let capacity: usize = j.field("capacity")?;
        let width: usize = j.field("width")?;
        if capacity == 0 || width == 0 {
            return Err("zero TLB capacity or width in checkpoint".into());
        }
        let mut d = TwoBitTlbDirectory::new(capacity, width);
        d.inner = TwoBitDirectory::restore_json(j.member("inner")?)?;
        d.hits = j.field("hits")?;
        d.misses = j.field("misses")?;
        d.tlb.clock = j.field("clock")?;
        for e in j.array("entries")? {
            if d.tlb.entries.len() >= capacity {
                return Err("TLB checkpoint exceeds its own capacity".into());
            }
            let owners: OwnerSet = e.field("o")?;
            if owners.capacity() != width {
                return Err("TLB owner set width mismatch".into());
            }
            d.tlb
                .entries
                .insert(e.field("a")?, (owners, e.field("stamp")?));
        }
        Ok(d)
    }

    /// Rewrites each broadcast in `step` into targeted commands when the
    /// buffer knows the exact owners; counts hits/misses per broadcast.
    fn rewrite_broadcasts(&mut self, a: BlockAddr, step: DirStep) -> DirStep {
        let mut out = DirStep {
            sends: Vec::new(),
            ..step
        };
        for send in step.sends {
            match send {
                DirSend::Broadcast { cmd, exclude, cost } => match self.tlb.lookup(a) {
                    Some(owners) => {
                        self.hits += 1;
                        out.sends
                            .extend(Self::targeted(cmd, &owners, exclude, cost));
                    }
                    None => {
                        self.misses += 1;
                        out.sends.push(DirSend::Broadcast { cmd, exclude, cost });
                    }
                },
                unicast => out.sends.push(unicast),
            }
        }
        out
    }

    /// The targeted equivalents of a broadcast, given exact owners.
    fn targeted(
        cmd: MemoryToCache,
        owners: &OwnerSet,
        exclude: CacheId,
        cost: SendCost,
    ) -> Vec<DirSend> {
        owners
            .iter()
            .filter(|&i| i != exclude)
            .map(|to| {
                let cmd = match cmd {
                    MemoryToCache::BroadInv { a, .. } => MemoryToCache::Inv { a, to },
                    MemoryToCache::BroadQuery { a, rw } => MemoryToCache::Purge { a, to, rw },
                    other => other,
                };
                DirSend::Unicast { to, cmd, cost }
            })
            .collect()
    }

    /// Updates the buffer after a completed `open`, at the exact-knowledge
    /// points described in the module docs.
    fn update_after_open(&mut self, k: CacheId, a: BlockAddr, kind: OpenKind, granted: bool) {
        match kind {
            OpenKind::ReadMiss => match self.inner.global_state(a) {
                // Grant out of Absent set the state to Present1: sole
                // holder is the requester — exact.
                GlobalState::Present1 => self.tlb.record(a, self.tlb.exact_singleton(k)),
                // Joining existing readers: extend only if tracked.
                GlobalState::PresentStar => self.tlb.extend_if_tracked(a, k),
                // A *completed* read miss always lands in Present1 or
                // Present*; these arms are unreachable but spelled out
                // (no wildcards on protocol state enums).
                GlobalState::Absent | GlobalState::PresentM => {}
            },
            OpenKind::WriteMiss => {
                // A completed write miss ends with holders = {k}, whether
                // the path was Absent or an invalidation sweep.
                if self.inner.global_state(a) == GlobalState::PresentM {
                    self.tlb.record(a, self.tlb.exact_singleton(k));
                }
            }
            OpenKind::Modify(_) => {
                if granted {
                    self.tlb.record(a, self.tlb.exact_singleton(k));
                }
            }
            OpenKind::WriteThrough(_) | OpenKind::DirectRead => {}
        }
    }
}

impl DirectoryProtocol for TwoBitTlbDirectory {
    fn clone_box(&self) -> Box<dyn DirectoryProtocol> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_tag(2); // scheme discriminant
        self.inner.fingerprint(fp);
        // TLB entries sorted by block, with the absolute LRU stamps
        // reduced to ranks: victim selection is `min (stamp, block)` and
        // fresh stamps always exceed existing ones, so only the stamp
        // *order* is future-relevant. The clock and the hit/miss tallies
        // are pure observability and excluded.
        let mut entries: Vec<(u64, u64, &OwnerSet)> = self
            .tlb
            .entries
            .iter()
            .map(|(a, (owners, stamp))| (*stamp, a.number(), owners))
            .collect();
        entries.sort_unstable_by_key(|&(stamp, a, _)| (stamp, a));
        let ranks: Vec<(u64, u64, &OwnerSet)> = entries
            .into_iter()
            .enumerate()
            .map(|(rank, (_, a, owners))| (a, rank as u64, owners))
            .collect();
        let mut by_block = ranks;
        by_block.sort_unstable_by_key(|&(a, _, _)| a);
        fp.write_usize(by_block.len());
        for (a, rank, owners) in by_block {
            fp.write_u64(a);
            fp.write_u64(rank);
            fp.write_usize(owners.len());
            for k in owners.iter() {
                fp.write_usize(k.index());
            }
        }
    }

    fn name(&self) -> &'static str {
        "two-bit+tlb"
    }

    fn save_state(&self) -> Json {
        // The `entries` HashMap has no stable order — sort by block
        // number so a given state always writes one canonical document.
        let mut entries: Vec<_> = self.tlb.entries.iter().collect();
        entries.sort_by_key(|(a, _)| a.number());
        obj([
            ("capacity", self.tlb.capacity.json()),
            ("width", self.tlb.width.json()),
            ("clock", self.tlb.clock.json()),
            (
                "entries",
                entries
                    .into_iter()
                    .map(|(a, (owners, stamp))| {
                        obj([
                            ("a", a.json()),
                            ("o", owners.json()),
                            ("stamp", stamp.json()),
                        ])
                    })
                    .collect(),
            ),
            ("inner", self.inner.save_state()),
            ("hits", self.hits.json()),
            ("misses", self.misses.json()),
        ])
    }

    fn open(&mut self, k: CacheId, a: BlockAddr, kind: OpenKind, mem: &MemoryImage) -> DirStep {
        let step = self.inner.open(k, a, kind, mem);
        let completes = step.completes;
        let granted = step.sends.iter().any(|s| {
            matches!(
                s,
                DirSend::Unicast {
                    cmd: MemoryToCache::MGranted { granted: true, .. },
                    ..
                } | DirSend::Unicast {
                    cmd: MemoryToCache::GetData { .. },
                    ..
                }
            )
        });
        let step = self.rewrite_broadcasts(a, step);
        if completes {
            self.update_after_open(k, a, kind, granted);
        }
        step
    }

    fn supply(
        &mut self,
        a: BlockAddr,
        from: CacheId,
        version: Version,
        retains: bool,
        mem: &MemoryImage,
    ) -> DirStep {
        let step = self.inner.supply(a, from, version, retains, mem);
        // Query resolved: the holder set is fully known again.
        let requester = step.sends.iter().find_map(|s| match s {
            DirSend::Unicast {
                cmd: MemoryToCache::GetData { k, .. },
                ..
            } => Some(*k),
            _ => None,
        });
        if let Some(k) = requester {
            let mut owners = self.tlb.exact_singleton(k);
            if retains && self.inner.global_state(a) == GlobalState::PresentStar {
                owners.insert(from);
            }
            self.tlb.record(a, owners);
        }
        step
    }

    fn eject_satisfies_wait(&self, a: BlockAddr, k: CacheId, wb: WritebackKind) -> bool {
        self.inner.eject_satisfies_wait(a, k, wb)
    }

    fn eject_clean(&mut self, k: CacheId, a: BlockAddr) {
        self.inner.eject_clean(k, a);
        self.tlb.remove_owner(a, k);
    }

    fn eject_dirty(&mut self, k: CacheId, a: BlockAddr, version: Version) -> DirStep {
        self.tlb.remove_owner(a, k);
        self.inner.eject_dirty(k, a, version)
    }

    fn awaiting(&self, a: BlockAddr) -> bool {
        self.inner.awaiting(a)
    }

    fn global_state(&self, a: BlockAddr) -> GlobalState {
        self.inner.global_state(a)
    }

    fn holders(&self, _a: BlockAddr) -> Option<OwnerSet> {
        None // knowledge is partial; invariants go through check_consistency
    }

    fn tlb_counters(&self) -> Option<(u64, u64)> {
        Some((self.hits, self.misses))
    }

    fn transition_table(&self) -> Option<&'static TransitionTable> {
        Some(table())
    }

    fn check_consistency(
        &self,
        a: BlockAddr,
        clean: &OwnerSet,
        dirty: &OwnerSet,
    ) -> Result<(), String> {
        self.inner.check_consistency(a, clean, dirty)?;
        // A resident buffer entry must be exact.
        match self.tlb.peek(a) {
            Some(owners) => {
                let mut actual = OwnerSet::new(owners.capacity());
                for id in clean.iter().chain(dirty.iter()) {
                    actual.insert(id);
                }
                if *owners == actual {
                    Ok(())
                } else {
                    Err(format!(
                        "buffered owners {owners} but actual holders {actual}"
                    ))
                }
            }
            None => Ok(()),
        }
    }
}

/// The translation-buffer scheme's table: the two-bit relation
/// ([`crate::two_bit::table`], the one statement — rule provenance points
/// there) with every non-initiator command's delivery relaxed to
/// [`Delivery::Either`] — targeted on a buffer hit, broadcast on a miss.
/// The buffer is a pure traffic accelerator, so the events, guards,
/// global-state skeleton and ordering guarantees are the two-bit ones;
/// the lint's analyses still check this table on its own.
pub(crate) fn table() -> &'static TransitionTable {
    static TABLE: OnceLock<TransitionTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = crate::two_bit::table().clone();
        table.scheme = "two-bit+tlb";
        for action in table.rules.iter_mut().flat_map(|r| &mut r.actions) {
            if let ActionKind::Invalidate { delivery } | ActionKind::Recall { delivery } = action {
                *delivery = Delivery::Either;
            }
        }
        table
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    fn cid(n: usize) -> CacheId {
        CacheId::new(n)
    }

    fn has_broadcast(step: &DirStep) -> bool {
        step.sends
            .iter()
            .any(|s| matches!(s, DirSend::Broadcast { .. }))
    }

    fn unicast_targets(step: &DirStep) -> Vec<CacheId> {
        step.sends
            .iter()
            .filter_map(|s| match s {
                DirSend::Unicast {
                    cmd: MemoryToCache::Inv { to, .. },
                    ..
                }
                | DirSend::Unicast {
                    cmd: MemoryToCache::Purge { to, .. },
                    ..
                } => Some(*to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn buffer_lru_eviction() {
        let mut t = TranslationBuffer::new(2, 4);
        t.record(blk(1), OwnerSet::singleton(4, cid(0)));
        t.record(blk(2), OwnerSet::singleton(4, cid(1)));
        t.lookup(blk(1)); // refresh 1
        t.record(blk(3), OwnerSet::singleton(4, cid(2))); // evicts 2
        assert!(t.lookup(blk(1)).is_some());
        assert!(t.lookup(blk(2)).is_none());
        assert!(t.lookup(blk(3)).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn extend_never_invents_entries() {
        let mut t = TranslationBuffer::new(2, 4);
        t.extend_if_tracked(blk(9), cid(0));
        assert!(t.is_empty());
        t.record(blk(9), OwnerSet::new(4));
        t.extend_if_tracked(blk(9), cid(3));
        assert!(t.lookup(blk(9)).unwrap().contains(cid(3)));
    }

    #[test]
    fn tracked_write_miss_sends_targeted_invalidates() {
        let mut d = TwoBitTlbDirectory::new(8, 4);
        let mem = MemoryImage::new();
        let a = blk(1);
        // C0 reads from Absent: exact entry {C0} created.
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        // C1 joins: entry extends to {C0, C1}.
        d.open(cid(1), a, OpenKind::ReadMiss, &mem);
        // C2 write-misses: both copies invalidated *by name*.
        let s = d.open(cid(2), a, OpenKind::WriteMiss, &mem);
        assert!(!has_broadcast(&s), "buffer hit replaces the broadcast");
        let mut targets = unicast_targets(&s);
        targets.sort();
        assert_eq!(targets, vec![cid(0), cid(1)]);
        assert_eq!(d.tlb_hits(), 1);
        assert_eq!(d.tlb_misses(), 0);
    }

    #[test]
    fn untracked_block_falls_back_to_broadcast() {
        let mut d = TwoBitTlbDirectory::new(1, 4);
        let mem = MemoryImage::new();
        // Fill the 1-entry buffer with block 1, then touch block 2 so
        // block 2's writers find no entry... block 2's first read (Absent)
        // records it, evicting block 1.
        d.open(cid(0), blk(1), OpenKind::ReadMiss, &mem);
        d.open(cid(0), blk(2), OpenKind::ReadMiss, &mem);
        // Writing block 1 (Present1, entry evicted): broadcast.
        let s = d.open(cid(1), blk(1), OpenKind::WriteMiss, &mem);
        assert!(has_broadcast(&s));
        assert_eq!(d.tlb_misses(), 1);
    }

    #[test]
    fn query_on_tracked_modified_block_is_targeted() {
        let mut d = TwoBitTlbDirectory::new(8, 4);
        let mem = MemoryImage::new();
        let a = blk(3);
        d.open(cid(0), a, OpenKind::WriteMiss, &mem); // entry {C0}, PresentM
        let s = d.open(cid(1), a, OpenKind::ReadMiss, &mem);
        assert!(!has_broadcast(&s));
        assert_eq!(
            unicast_targets(&s),
            vec![cid(0)],
            "purge goes straight to the owner"
        );
        // Resolution re-records exact owners {C0, C1}.
        d.supply(a, cid(0), Version::new(2), true, &mem);
        let s = d.open(cid(2), a, OpenKind::WriteMiss, &mem);
        let mut targets = unicast_targets(&s);
        targets.sort();
        assert_eq!(targets, vec![cid(0), cid(1)]);
    }

    #[test]
    fn present1_upgrade_records_exact_entry() {
        let mut d = TwoBitTlbDirectory::new(8, 4);
        let mem = MemoryImage::new();
        let a = blk(4);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        d.open(cid(0), a, OpenKind::Modify(mem.read(a)), &mem); // Present1 → PresentM, entry {C0}
        let s = d.open(cid(1), a, OpenKind::ReadMiss, &mem);
        assert_eq!(unicast_targets(&s), vec![cid(0)]);
        assert_eq!(d.tlb_hits(), 1);
    }

    #[test]
    fn clean_eject_keeps_entry_exact() {
        let mut d = TwoBitTlbDirectory::new(8, 4);
        let mem = MemoryImage::new();
        let a = blk(5);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        d.open(cid(1), a, OpenKind::ReadMiss, &mem); // entry {C0, C1}
        d.eject_clean(cid(0), a);
        let s = d.open(cid(2), a, OpenKind::WriteMiss, &mem);
        assert_eq!(
            unicast_targets(&s),
            vec![cid(1)],
            "ejector no longer targeted"
        );
    }

    #[test]
    fn infinite_buffer_behaves_like_full_map_traffic() {
        // With capacity ≥ working set and all entries created from Absent,
        // every coherence action is targeted: zero broadcasts.
        let mut d = TwoBitTlbDirectory::new(1024, 8);
        let mem = MemoryImage::new();
        for b in 0..16u64 {
            d.open(cid((b % 8) as usize), blk(b), OpenKind::ReadMiss, &mem);
            let s = d.open(
                cid(((b + 1) % 8) as usize),
                blk(b),
                OpenKind::WriteMiss,
                &mem,
            );
            assert!(!has_broadcast(&s), "block {b} should be tracked");
        }
        assert_eq!(d.tlb_misses(), 0);
        assert_eq!(d.tlb_hits(), 16);
    }

    #[test]
    fn global_state_matches_plain_two_bit() {
        let mut d = TwoBitTlbDirectory::new(4, 4);
        let mem = MemoryImage::new();
        let a = blk(6);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        assert_eq!(d.global_state(a), GlobalState::Present1);
        d.open(cid(1), a, OpenKind::ReadMiss, &mem);
        assert_eq!(d.global_state(a), GlobalState::PresentStar);
    }
}
