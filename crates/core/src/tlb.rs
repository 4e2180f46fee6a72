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

use crate::blockmap::FixedHashMap;
use crate::owner_set::OwnerSet;
use crate::transitions::{ActionKind, Delivery, Program};
use std::sync::OnceLock;
use twobit_obs::json::{Json, Sink, ToJson, Value};
use twobit_types::{BlockAddr, CacheId, Fingerprinter};

/// A bounded LRU buffer of exact owner sets.
#[derive(Debug, Clone)]
pub struct TranslationBuffer {
    entries: FixedHashMap<BlockAddr, (OwnerSet, u64)>,
    capacity: usize,
    width: usize,
    clock: u64,
    hits: u64,
    misses: u64,
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
            entries: FixedHashMap::default(),
            capacity,
            width,
            clock: 0,
            hits: 0,
            misses: 0,
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

    /// Looks up the exact owner set of `a` on behalf of a would-be
    /// broadcast, refreshing its LRU position and counting the hit
    /// (broadcast avoided) or miss (broadcast forced).
    pub fn lookup(&mut self, a: BlockAddr) -> Option<&OwnerSet> {
        self.clock += 1;
        match self.entries.get_mut(&a) {
            Some((owners, stamp)) => {
                self.hits += 1;
                *stamp = self.clock;
                Some(owners)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// (hits, misses) of [`TranslationBuffer::lookup`] so far.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
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

    /// The design-time width of the owner sets.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Feeds the future-relevant state into `fp`: entries sorted by
    /// block, with the absolute LRU stamps reduced to ranks — victim
    /// selection is `min (stamp, block)` and fresh stamps always exceed
    /// existing ones, so only the stamp *order* matters. The clock and
    /// the hit/miss tallies are pure observability and excluded.
    pub(crate) fn fingerprint(&self, fp: &mut Fingerprinter) {
        let mut by_age: Vec<(u64, u64)> = self
            .entries
            .iter()
            .map(|(a, (_, stamp))| (*stamp, a.number()))
            .collect();
        by_age.sort_unstable();
        let mut by_block: Vec<(u64, usize)> = by_age
            .into_iter()
            .enumerate()
            .map(|(rank, (_, a))| (a, rank))
            .collect();
        by_block.sort_unstable();
        fp.write_usize(by_block.len());
        for (a, rank) in by_block {
            let (owners, _) = &self.entries[&BlockAddr::new(a)];
            fp.write_u64(a);
            fp.write_usize(rank);
            fp.write_usize(owners.len());
            for k in owners.iter() {
                fp.write_usize(k.index());
            }
        }
    }

    /// Rebuilds a buffer of this one's capacity and width from its
    /// checkpoint document.
    pub(crate) fn restored(&self, j: &Json) -> Result<Self, String> {
        if j.field::<usize>("capacity")? != self.capacity
            || j.field::<usize>("width")? != self.width
        {
            return Err("translation-buffer capacity or width mismatch".into());
        }
        let mut buffer = TranslationBuffer {
            clock: j.field("clock")?,
            hits: j.field("hits")?,
            misses: j.field("misses")?,
            ..TranslationBuffer::new(self.capacity, self.width)
        };
        for e in j.array("entries")? {
            if buffer.entries.len() >= self.capacity {
                return Err("translation-buffer checkpoint exceeds its own capacity".into());
            }
            let owners: OwnerSet = e.field("o")?;
            if owners.capacity() != self.width {
                return Err("translation-buffer owner set width mismatch".into());
            }
            buffer
                .entries
                .insert(e.field("a")?, (owners, e.field("stamp")?));
        }
        Ok(buffer)
    }
}

/// `{capacity, width, clock, entries: [{a, o, stamp}], hits, misses}`,
/// entries sorted by block number so a given state always writes one
/// canonical document.
impl ToJson for TranslationBuffer {
    fn emit<S: Sink>(&self, out: &mut S) {
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort_by_key(|(a, _)| a.number());
        out.object(|o| {
            o.member("capacity", &self.capacity);
            o.member("width", &self.width);
            o.member("clock", &self.clock);
            o.key("entries");
            o.array(|list| {
                for (a, (owners, stamp)) in entries {
                    list.object(|e| {
                        e.member("a", a);
                        e.member("o", owners);
                        e.member("stamp", stamp);
                    });
                }
            });
            o.member("hits", &self.hits);
            o.member("misses", &self.misses);
        });
    }
}

/// The translation-buffer scheme: the two-bit relation
/// ([`crate::two_bit::program`], the one statement — rule provenance
/// points there) with every non-initiator command's delivery relaxed to
/// [`Delivery::Either`] — targeted on a buffer hit, broadcast on a miss.
/// The buffer is a pure traffic accelerator, so the events, guards,
/// global-state skeleton and ordering guarantees are the two-bit ones;
/// the lint's analyses still check this table on its own.
pub(crate) fn program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        let mut table = crate::two_bit::program().table().clone();
        table.scheme = "two-bit+tlb";
        for action in table.rules.iter_mut().flat_map(|r| &mut r.actions) {
            if let ActionKind::Invalidate { delivery } | ActionKind::Recall { delivery } = action {
                *delivery = Delivery::Either;
            }
        }
        Program::compile(table).expect("the shipped two-bit+tlb table compiles")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::testing::Stepped;
    use crate::directory::{DirSend, Directory, OpenKind};
    use crate::memory::MemoryImage;
    use twobit_types::{GlobalState, MemoryToCache, Version};

    fn two_bit_tlb(capacity: usize, width: usize) -> Directory {
        Directory::new(program(), width, capacity)
    }

    fn tlb_hits(d: &Directory) -> u64 {
        d.tlb_counters().expect("buffered identities").0
    }

    fn tlb_misses(d: &Directory) -> u64 {
        d.tlb_counters().expect("buffered identities").1
    }

    fn blk(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    fn cid(n: usize) -> CacheId {
        CacheId::new(n)
    }

    fn has_broadcast(step: &Stepped) -> bool {
        step.sends
            .iter()
            .any(|s| matches!(s, DirSend::Broadcast { .. }))
    }

    fn unicast_targets(step: &Stepped) -> Vec<CacheId> {
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
        let mut d = two_bit_tlb(8, 4);
        let mem = MemoryImage::new();
        let a = blk(1);
        // C0 reads from Absent: exact entry {C0} created.
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        // C1 joins: entry extends to {C0, C1}.
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
        // C2 write-misses: both copies invalidated *by name*.
        let s = d.open_step(cid(2), a, OpenKind::WriteMiss, &mem).unwrap();
        assert!(!has_broadcast(&s), "buffer hit replaces the broadcast");
        let mut targets = unicast_targets(&s);
        targets.sort();
        assert_eq!(targets, vec![cid(0), cid(1)]);
        assert_eq!(tlb_hits(&d), 1);
        assert_eq!(tlb_misses(&d), 0);
    }

    #[test]
    fn untracked_block_falls_back_to_broadcast() {
        let mut d = two_bit_tlb(1, 4);
        let mem = MemoryImage::new();
        // Fill the 1-entry buffer with block 1, then touch block 2 so
        // block 2's writers find no entry... block 2's first read (Absent)
        // records it, evicting block 1.
        d.open_step(cid(0), blk(1), OpenKind::ReadMiss, &mem)
            .unwrap();
        d.open_step(cid(0), blk(2), OpenKind::ReadMiss, &mem)
            .unwrap();
        // Writing block 1 (Present1, entry evicted): broadcast.
        let s = d
            .open_step(cid(1), blk(1), OpenKind::WriteMiss, &mem)
            .unwrap();
        assert!(has_broadcast(&s));
        assert_eq!(tlb_misses(&d), 1);
    }

    #[test]
    fn query_on_tracked_modified_block_is_targeted() {
        let mut d = two_bit_tlb(8, 4);
        let mem = MemoryImage::new();
        let a = blk(3);
        d.open_step(cid(0), a, OpenKind::WriteMiss, &mem).unwrap(); // entry {C0}, PresentM
        let s = d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
        assert!(!has_broadcast(&s));
        assert_eq!(
            unicast_targets(&s),
            vec![cid(0)],
            "purge goes straight to the owner"
        );
        // Resolution re-records exact owners {C0, C1}.
        d.supply_step(a, cid(0), Version::new(2), true).unwrap();
        let s = d.open_step(cid(2), a, OpenKind::WriteMiss, &mem).unwrap();
        let mut targets = unicast_targets(&s);
        targets.sort();
        assert_eq!(targets, vec![cid(0), cid(1)]);
    }

    #[test]
    fn present1_upgrade_records_exact_entry() {
        let mut d = two_bit_tlb(8, 4);
        let mem = MemoryImage::new();
        let a = blk(4);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        d.open_step(cid(0), a, OpenKind::Modify(mem.read(a)), &mem)
            .unwrap(); // Present1 → PresentM, entry {C0}
        let s = d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
        assert_eq!(unicast_targets(&s), vec![cid(0)]);
        assert_eq!(tlb_hits(&d), 1);
    }

    #[test]
    fn clean_eject_keeps_entry_exact() {
        let mut d = two_bit_tlb(8, 4);
        let mem = MemoryImage::new();
        let a = blk(5);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap(); // entry {C0, C1}
        d.eject_clean(cid(0), a).unwrap();
        let s = d.open_step(cid(2), a, OpenKind::WriteMiss, &mem).unwrap();
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
        let mut d = two_bit_tlb(1024, 8);
        let mem = MemoryImage::new();
        for b in 0..16u64 {
            d.open_step(cid((b % 8) as usize), blk(b), OpenKind::ReadMiss, &mem)
                .unwrap();
            let s = d
                .open_step(
                    cid(((b + 1) % 8) as usize),
                    blk(b),
                    OpenKind::WriteMiss,
                    &mem,
                )
                .unwrap();
            assert!(!has_broadcast(&s), "block {b} should be tracked");
        }
        assert_eq!(tlb_misses(&d), 0);
        assert_eq!(tlb_hits(&d), 16);
    }

    #[test]
    fn global_state_matches_plain_two_bit() {
        let mut d = two_bit_tlb(4, 4);
        let mem = MemoryImage::new();
        let a = blk(6);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        assert_eq!(d.global_state(a), GlobalState::Present1);
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
        assert_eq!(d.global_state(a), GlobalState::PresentStar);
    }
}
