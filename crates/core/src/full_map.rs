//! The full distributed map (section 2.4.2, Censier–Feautrier): `n+1` bits
//! per block — a presence bit per cache plus a modified bit. The directory
//! always knows exactly who holds what, so every coherence command is
//! targeted (`INV`, `PURGE`); this is the baseline the paper measures the
//! two-bit scheme's extra broadcasts against.

use crate::directory::{
    grant_forwarded, grant_from_memory, mgranted, DirSend, DirStep, DirectoryProtocol, OpenKind,
    SendCost,
};
use crate::memory::MemoryImage;
use crate::owner_set::OwnerSet;
use crate::transitions::{
    ActionKind, Cond, Delivery, EventKind, EventSpec, OrderGuarantee, StateSet, TransitionTable,
};
use crate::two_bit::Waiting;
use std::collections::HashMap;
use std::sync::OnceLock;
use twobit_obs::json::{obj, Json, ToJson};
use twobit_types::{
    AccessKind, BlockAddr, CacheId, Fingerprinter, GlobalState, MemoryToCache, Version,
    WritebackKind,
};

/// One block's full-map entry: presence vector plus modified bit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    owners: OwnerSet,
    modified: bool,
}

/// The full-map (n+1 bit) directory of one memory module.
#[derive(Debug, Clone)]
pub struct FullMapDirectory {
    /// Design-time width of the presence vector — the expansibility limit
    /// the paper criticizes ("any expansion must be envisioned at the
    /// design stage of the memory controllers").
    width: usize,
    entries: HashMap<BlockAddr, Entry>,
    waiting: HashMap<BlockAddr, Waiting>,
}

impl FullMapDirectory {
    /// An empty directory with a presence vector of `width` caches.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "presence vector needs at least one bit");
        FullMapDirectory {
            width,
            entries: HashMap::new(),
            waiting: HashMap::new(),
        }
    }

    /// The presence-vector width this directory was built for.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    fn entry(&mut self, a: BlockAddr) -> &mut Entry {
        let width = self.width;
        self.entries.entry(a).or_insert_with(|| Entry {
            owners: OwnerSet::new(width),
            modified: false,
        })
    }

    fn view(&self, a: BlockAddr) -> (usize, bool, Option<CacheId>) {
        match self.entries.get(&a) {
            Some(e) => (e.owners.len(), e.modified, e.owners.sole_member()),
            None => (0, false, None),
        }
    }

    fn inv(a: BlockAddr, to: CacheId) -> DirSend {
        DirSend::Unicast {
            to,
            cmd: MemoryToCache::Inv { a, to },
            cost: SendCost::Command,
        }
    }

    fn purge(a: BlockAddr, to: CacheId, rw: AccessKind) -> DirSend {
        DirSend::Unicast {
            to,
            cmd: MemoryToCache::Purge { a, to, rw },
            cost: SendCost::Command,
        }
    }

    /// Rebuilds a directory from a [`DirectoryProtocol::save_state`]
    /// checkpoint document.
    pub(crate) fn restore_json(j: &Json) -> Result<Self, String> {
        let width: usize = j.field("width")?;
        if width == 0 {
            return Err("zero presence-vector width in checkpoint".into());
        }
        let mut d = FullMapDirectory::new(width);
        for e in j.array("entries")? {
            let owners: OwnerSet = e.field("o")?;
            if owners.capacity() != width {
                return Err("presence vector width mismatch".into());
            }
            d.entries.insert(
                e.field("a")?,
                Entry {
                    owners,
                    modified: e.field("m")?,
                },
            );
        }
        d.waiting = crate::snapshot::waiting_from(j.member("waiting")?)?;
        Ok(d)
    }
}

impl DirectoryProtocol for FullMapDirectory {
    fn clone_box(&self) -> Box<dyn DirectoryProtocol> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_tag(3); // scheme discriminant
                         // Entries are encoded raw (no empty-entry normalization): an
                         // empty presence vector left behind by ejects is still distinct
                         // directory state, and encoding it as-is can only cost dedup
                         // power, never soundness.
        let mut entries: Vec<(u64, &Entry)> =
            self.entries.iter().map(|(a, e)| (a.number(), e)).collect();
        entries.sort_unstable_by_key(|&(a, _)| a);
        fp.write_usize(entries.len());
        for (a, e) in entries {
            fp.write_u64(a);
            fp.write_bool(e.modified);
            fp.write_usize(e.owners.len());
            for k in e.owners.iter() {
                fp.write_usize(k.index());
            }
        }
        let mut waiting: Vec<(u64, usize, bool)> = self
            .waiting
            .iter()
            .map(|(a, w)| (a.number(), w.k.index(), w.write))
            .collect();
        waiting.sort_unstable();
        fp.write_usize(waiting.len());
        for (a, k, write) in waiting {
            fp.write_u64(a);
            fp.write_usize(k);
            fp.write_bool(write);
        }
    }

    fn name(&self) -> &'static str {
        "full-map"
    }

    fn save_state(&self) -> Json {
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort_by_key(|(a, _)| a.number());
        obj([
            ("width", self.width.json()),
            (
                "entries",
                entries
                    .into_iter()
                    .map(|(a, e)| {
                        obj([
                            ("a", a.json()),
                            ("o", e.owners.json()),
                            ("m", e.modified.json()),
                        ])
                    })
                    .collect(),
            ),
            ("waiting", crate::snapshot::waiting_json(&self.waiting)),
        ])
    }

    fn open(&mut self, k: CacheId, a: BlockAddr, kind: OpenKind, mem: &MemoryImage) -> DirStep {
        debug_assert!(!self.waiting.contains_key(&a), "open on a waiting block");
        let (count, modified, sole) = self.view(a);
        match kind {
            OpenKind::ReadMiss => {
                if modified {
                    let owner = sole.expect("modified entry must have exactly one owner");
                    self.waiting.insert(a, Waiting { k, write: false });
                    DirStep::awaiting(vec![Self::purge(a, owner, AccessKind::Read)])
                } else {
                    self.entry(a).owners.insert(k);
                    DirStep::done().with_send(grant_from_memory(k, a, mem, false))
                }
            }
            OpenKind::WriteMiss => {
                if modified {
                    let owner = sole.expect("modified entry must have exactly one owner");
                    self.waiting.insert(a, Waiting { k, write: true });
                    DirStep::awaiting(vec![Self::purge(a, owner, AccessKind::Write)])
                } else {
                    let mut step = DirStep::done();
                    if count > 0 {
                        let targets: Vec<CacheId> =
                            self.entries[&a].owners.iter().filter(|&i| i != k).collect();
                        for i in targets {
                            step = step.with_send(Self::inv(a, i));
                        }
                    }
                    let e = self.entry(a);
                    e.owners.clear();
                    e.owners.insert(k);
                    e.modified = true;
                    step.with_send(grant_from_memory(k, a, mem, true))
                }
            }
            OpenKind::Modify(_) => {
                let holds = self.entries.get(&a).is_some_and(|e| e.owners.contains(k));
                if !holds || modified {
                    // Stale: the requester's copy was invalidated in
                    // flight. Deny; it will retry as a write miss.
                    return DirStep::done().with_send(mgranted(k, a, false));
                }
                let targets: Vec<CacheId> =
                    self.entries[&a].owners.iter().filter(|&i| i != k).collect();
                let mut step = DirStep::done();
                for i in targets {
                    step = step.with_send(Self::inv(a, i));
                }
                let e = self.entry(a);
                e.owners.clear();
                e.owners.insert(k);
                e.modified = true;
                step.with_send(mgranted(k, a, true))
            }
            OpenKind::WriteThrough(_) | OpenKind::DirectRead => {
                panic!("full-map directory serves only write-back caches (got {kind:?})")
            }
        }
    }

    fn supply(
        &mut self,
        a: BlockAddr,
        from: CacheId,
        version: Version,
        retains: bool,
        _mem: &MemoryImage,
    ) -> DirStep {
        let waiting = self
            .waiting
            .remove(&a)
            .expect("supply without a waiting transaction");
        let e = self.entry(a);
        e.owners.clear();
        if retains && !waiting.write {
            e.owners.insert(from);
        }
        e.owners.insert(waiting.k);
        e.modified = waiting.write;
        DirStep::done()
            .with_memory_write(a, version)
            .with_send(grant_forwarded(waiting.k, a, version, waiting.write))
    }

    fn eject_satisfies_wait(&self, a: BlockAddr, k: CacheId, wb: WritebackKind) -> bool {
        // Only a *dirty* eject from the very cache the purge targeted can
        // stand in for the purge response.
        wb == WritebackKind::Dirty
            && self.waiting.contains_key(&a)
            && self
                .entries
                .get(&a)
                .is_some_and(|e| e.modified && e.owners.contains(k))
    }

    fn eject_clean(&mut self, k: CacheId, a: BlockAddr) {
        if let Some(e) = self.entries.get_mut(&a) {
            e.owners.remove(k);
            if e.owners.is_empty() {
                self.entries.remove(&a);
            }
        }
    }

    fn eject_dirty(&mut self, k: CacheId, a: BlockAddr, version: Version) -> DirStep {
        if let Some(e) = self.entries.get_mut(&a) {
            e.owners.remove(k);
            e.modified = false;
            if e.owners.is_empty() {
                self.entries.remove(&a);
            }
        }
        DirStep::done().with_memory_write(a, version)
    }

    fn awaiting(&self, a: BlockAddr) -> bool {
        self.waiting.contains_key(&a)
    }

    fn global_state(&self, a: BlockAddr) -> GlobalState {
        match self.view(a) {
            (0, _, _) => GlobalState::Absent,
            (_, true, _) => GlobalState::PresentM,
            (1, false, _) => GlobalState::Present1,
            (_, false, _) => GlobalState::PresentStar,
        }
    }

    fn holders(&self, a: BlockAddr) -> Option<OwnerSet> {
        Some(
            self.entries
                .get(&a)
                .map_or_else(|| OwnerSet::new(self.width), |e| e.owners.clone()),
        )
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
        let (_, modified, _) = self.view(a);
        let recorded = self.holders(a).expect("full map always has a holder view");
        let mut actual = OwnerSet::new(self.width);
        for id in clean.iter().chain(dirty.iter()) {
            actual.insert(id);
        }
        if recorded != actual {
            return Err(format!(
                "presence vector {recorded} but actual holders {actual}"
            ));
        }
        if modified != (dirty.len() == 1) || dirty.len() > 1 {
            return Err(format!(
                "modified bit {modified} inconsistent with {} dirty copies",
                dirty.len()
            ));
        }
        if modified && !clean.is_empty() {
            return Err("modified block also has clean copies".to_string());
        }
        Ok(())
    }
}

/// The full-map transition table. Identities are always known, so every
/// non-initiator command is [`Delivery::Targeted`]; successor sets are
/// wider than two-bit's in places (a read miss may rejoin a holder whose
/// eject notice is in flight, a clean eject may or may not empty the
/// vector) because the presence vector, not a 2-bit code, is the state.
pub(crate) fn table() -> &'static TransitionTable {
    static TABLE: OnceLock<TransitionTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        use ActionKind as A;
        use EventKind as E;
        use GlobalState as G;
        let targeted = Delivery::Targeted;
        TransitionTable {
            scheme: "full-map",
            tracks_state: true,
            events: vec![
                EventSpec::new(E::ReadMiss, StateSet::ALL, &[]),
                EventSpec::new(E::WriteMiss, StateSet::ALL, &[]),
                EventSpec::new(E::Modify, StateSet::ALL, &[Cond::Fresh]),
                EventSpec::new(
                    E::Supply,
                    StateSet::only(G::PresentM),
                    &[Cond::WaitWrite, Cond::Retains],
                ),
                EventSpec::new(E::EjectClean, StateSet::ALL, &[]),
                EventSpec::new(E::EjectDirty, StateSet::only(G::PresentM), &[]),
            ],
            rules: vec![
                crate::rule!("read-miss-absent", E::ReadMiss, StateSet::only(G::Absent))
                    .action(A::Grant { exclusive: false })
                    .to(StateSet::only(G::Present1)),
                crate::rule!("read-miss-shared", E::ReadMiss, StateSet::SHARED)
                    .action(A::Grant { exclusive: false })
                    .to(StateSet::SHARED),
                crate::rule!(
                    "read-miss-modified",
                    E::ReadMiss,
                    StateSet::only(G::PresentM)
                )
                .action(A::Recall { delivery: targeted })
                .awaits(),
                crate::rule!("write-miss-absent", E::WriteMiss, StateSet::only(G::Absent))
                    .action(A::Grant { exclusive: true })
                    .to(StateSet::only(G::PresentM)),
                crate::rule!("write-miss-shared", E::WriteMiss, StateSet::SHARED)
                    .action(A::Invalidate { delivery: targeted })
                    .action(A::Grant { exclusive: true })
                    .to(StateSet::only(G::PresentM))
                    .guarded_by(OrderGuarantee::AckBarrier),
                crate::rule!(
                    "write-miss-modified",
                    E::WriteMiss,
                    StateSet::only(G::PresentM)
                )
                .action(A::Recall { delivery: targeted })
                .awaits(),
                crate::rule!("modify-fresh", E::Modify, StateSet::SHARED)
                    .requires(Cond::Fresh, true)
                    .action(A::Invalidate { delivery: targeted })
                    .action(A::ModifyGrant { granted: true })
                    .to(StateSet::only(G::PresentM))
                    .guarded_by(OrderGuarantee::AckBarrier),
                crate::rule!(
                    "modify-stale-state",
                    E::Modify,
                    StateSet::of(&[G::Absent, G::PresentM])
                )
                .action(A::ModifyGrant { granted: false }),
                crate::rule!("modify-stale-copy", E::Modify, StateSet::SHARED)
                    .requires(Cond::Fresh, false)
                    .action(A::ModifyGrant { granted: false }),
                crate::rule!("supply-write", E::Supply, StateSet::only(G::PresentM))
                    .requires(Cond::WaitWrite, true)
                    .action(A::WriteMemory)
                    .action(A::Grant { exclusive: true })
                    .to(StateSet::only(G::PresentM)),
                crate::rule!(
                    "supply-read-retained",
                    E::Supply,
                    StateSet::only(G::PresentM)
                )
                .requires(Cond::WaitWrite, false)
                .requires(Cond::Retains, true)
                .action(A::WriteMemory)
                .action(A::Grant { exclusive: false })
                .to(StateSet::only(G::PresentStar)),
                crate::rule!(
                    "supply-read-departed",
                    E::Supply,
                    StateSet::only(G::PresentM)
                )
                .requires(Cond::WaitWrite, false)
                .requires(Cond::Retains, false)
                .action(A::WriteMemory)
                .action(A::Grant { exclusive: false })
                .to(StateSet::only(G::Present1)),
                crate::rule!(
                    "eject-clean-absent",
                    E::EjectClean,
                    StateSet::only(G::Absent)
                ),
                crate::rule!(
                    "eject-clean-present1",
                    E::EjectClean,
                    StateSet::only(G::Present1)
                )
                .to(StateSet::of(&[G::Absent, G::Present1])),
                crate::rule!(
                    "eject-clean-pstar",
                    E::EjectClean,
                    StateSet::only(G::PresentStar)
                )
                .to(StateSet::SHARED),
                crate::rule!(
                    "eject-clean-modified",
                    E::EjectClean,
                    StateSet::only(G::PresentM)
                ),
                crate::rule!("eject-dirty", E::EjectDirty, StateSet::only(G::PresentM))
                    .action(A::WriteMemory)
                    .to(StateSet::only(G::Absent)),
            ],
        }
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

    fn unicast_invs(step: &DirStep) -> Vec<CacheId> {
        step.sends
            .iter()
            .filter_map(|s| match s {
                DirSend::Unicast {
                    cmd: MemoryToCache::Inv { to, .. },
                    ..
                } => Some(*to),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn read_misses_accumulate_owners() {
        let mut d = FullMapDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(1);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        d.open(cid(2), a, OpenKind::ReadMiss, &mem);
        let holders = d.holders(a).unwrap();
        assert!(holders.contains(cid(0)) && holders.contains(cid(2)));
        assert_eq!(d.global_state(a), GlobalState::PresentStar);
    }

    #[test]
    fn write_miss_invalidates_exactly_the_holders() {
        let mut d = FullMapDirectory::new(8);
        let mem = MemoryImage::new();
        let a = blk(2);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        d.open(cid(1), a, OpenKind::ReadMiss, &mem);
        d.open(cid(5), a, OpenKind::ReadMiss, &mem);

        let s = d.open(cid(7), a, OpenKind::WriteMiss, &mem);
        assert!(s.completes);
        let mut invs = unicast_invs(&s);
        invs.sort();
        assert_eq!(
            invs,
            vec![cid(0), cid(1), cid(5)],
            "no broadcast, no extras"
        );
        assert_eq!(d.global_state(a), GlobalState::PresentM);
        assert_eq!(d.holders(a).unwrap().sole_member(), Some(cid(7)));
    }

    #[test]
    fn read_miss_on_modified_purges_the_known_owner() {
        let mut d = FullMapDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(3);
        d.open(cid(1), a, OpenKind::WriteMiss, &mem);
        let s = d.open(cid(2), a, OpenKind::ReadMiss, &mem);
        assert!(!s.completes);
        assert_eq!(
            s.sends.len(),
            1,
            "exactly one targeted purge — the full map's advantage"
        );
        match &s.sends[0] {
            DirSend::Unicast {
                to,
                cmd: MemoryToCache::Purge { rw, .. },
                ..
            } => {
                assert_eq!(*to, cid(1));
                assert_eq!(*rw, AccessKind::Read);
            }
            other => panic!("expected PURGE, got {other:?}"),
        }
        let s = d.supply(a, cid(1), Version::new(4), true, &mem);
        assert!(s.completes);
        let holders = d.holders(a).unwrap();
        assert!(holders.contains(cid(1)) && holders.contains(cid(2)));
        assert_eq!(d.global_state(a), GlobalState::PresentStar);
    }

    #[test]
    fn supply_without_retention_drops_the_old_owner() {
        let mut d = FullMapDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(4);
        d.open(cid(1), a, OpenKind::WriteMiss, &mem);
        d.open(cid(2), a, OpenKind::WriteMiss, &mem);
        let s = d.supply(a, cid(1), Version::new(6), false, &mem);
        assert_eq!(s.write_memory, Some((a, Version::new(6))));
        assert_eq!(d.holders(a).unwrap().sole_member(), Some(cid(2)));
        assert_eq!(d.global_state(a), GlobalState::PresentM);
    }

    #[test]
    fn modify_grants_and_invalidates_other_holders_only() {
        let mut d = FullMapDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(5);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        d.open(cid(1), a, OpenKind::ReadMiss, &mem);
        let s = d.open(cid(0), a, OpenKind::Modify(mem.read(a)), &mem);
        assert_eq!(unicast_invs(&s), vec![cid(1)]);
        assert_eq!(d.global_state(a), GlobalState::PresentM);
    }

    #[test]
    fn modify_from_sole_holder_sends_nothing_extra() {
        let mut d = FullMapDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(6);
        d.open(cid(3), a, OpenKind::ReadMiss, &mem);
        let s = d.open(cid(3), a, OpenKind::Modify(mem.read(a)), &mem);
        assert_eq!(s.sends.len(), 1, "just the MGRANTED");
    }

    #[test]
    fn stale_modify_denied() {
        let mut d = FullMapDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(7);
        // C1 never fetched the block: its MREQUEST is stale by definition.
        let s = d.open(cid(1), a, OpenKind::Modify(mem.read(a)), &mem);
        match &s.sends[0] {
            DirSend::Unicast {
                cmd: MemoryToCache::MGranted { granted, .. },
                ..
            } => {
                assert!(!granted);
            }
            other => panic!("expected denial, got {other:?}"),
        }
    }

    #[test]
    fn ejects_keep_the_map_exact() {
        let mut d = FullMapDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(8);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        d.open(cid(1), a, OpenKind::ReadMiss, &mem);
        d.eject_clean(cid(0), a);
        assert_eq!(d.holders(a).unwrap().sole_member(), Some(cid(1)));
        assert_eq!(d.global_state(a), GlobalState::Present1);
        d.eject_clean(cid(1), a);
        assert_eq!(d.global_state(a), GlobalState::Absent);
    }

    #[test]
    fn dirty_eject_writes_back() {
        let mut d = FullMapDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(9);
        d.open(cid(2), a, OpenKind::WriteMiss, &mem);
        let s = d.eject_dirty(cid(2), a, Version::new(11));
        assert_eq!(s.write_memory, Some((a, Version::new(11))));
        assert_eq!(d.global_state(a), GlobalState::Absent);
    }

    #[test]
    fn eject_satisfies_wait_only_for_the_purged_owner() {
        let mut d = FullMapDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(10);
        d.open(cid(0), a, OpenKind::WriteMiss, &mem);
        d.open(cid(1), a, OpenKind::ReadMiss, &mem); // purge to C0 pending
        assert!(d.eject_satisfies_wait(a, cid(0), WritebackKind::Dirty));
        assert!(!d.eject_satisfies_wait(a, cid(2), WritebackKind::Dirty));
        assert!(!d.eject_satisfies_wait(a, cid(0), WritebackKind::Clean));
    }

    #[test]
    fn consistency_requires_exact_presence() {
        let mut d = FullMapDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(11);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        let clean = OwnerSet::singleton(4, cid(0));
        let none = OwnerSet::new(4);
        assert!(d.check_consistency(a, &clean, &none).is_ok());
        // A copy the map does not know about is an error (unlike two-bit,
        // where Present* admits anything clean).
        let extra: OwnerSet = [cid(0), cid(1)].into_iter().collect();
        assert!(d.check_consistency(a, &extra, &none).is_err());
    }
}
