//! The full map with added local state (section 2.4.3, Yen–Fu): the
//! directory still keeps an exact presence vector, but a block cached by
//! exactly one cache in clean state may be held *Exclusive* there, letting
//! that cache upgrade to Dirty without a directory transaction.
//!
//! The price — the "additional synchronization problems (not fully
//! resolved in [10])" the paper mentions — is that the directory can no
//! longer tell whether an exclusively held block is clean or silently
//! modified. We resolve it the way later directory protocols did: the
//! directory tracks `ExclusiveOrModified(i)` and *always* recalls
//! (`PURGE`s) cache `i` before serving another requester, accepting the
//! data whether it turns out clean or dirty.

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

/// Directory knowledge about one block.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Entry {
    /// Cached read-only by the recorded owners.
    Shared(OwnerSet),
    /// Held by exactly one cache which may have silently modified it.
    ExclusiveOrModified(CacheId),
}

/// The Yen–Fu full-map-with-local-state directory of one memory module.
#[derive(Debug, Clone)]
pub struct FullMapLocalDirectory {
    width: usize,
    entries: HashMap<BlockAddr, Entry>,
    waiting: HashMap<BlockAddr, Waiting>,
}

impl FullMapLocalDirectory {
    /// An empty directory with a presence vector of `width` caches.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "presence vector needs at least one bit");
        FullMapLocalDirectory {
            width,
            entries: HashMap::new(),
            waiting: HashMap::new(),
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
        let mut d = FullMapLocalDirectory::new(width);
        for e in j.array("entries")? {
            let entry = match e.opt_field::<OwnerSet>("o")? {
                Some(owners) if owners.capacity() != width => {
                    return Err("presence vector width mismatch".into());
                }
                Some(owners) => Entry::Shared(owners),
                None => Entry::ExclusiveOrModified(e.field("x")?),
            };
            d.entries.insert(e.field("a")?, entry);
        }
        d.waiting = crate::snapshot::waiting_from(j.member("waiting")?)?;
        Ok(d)
    }
}

impl DirectoryProtocol for FullMapLocalDirectory {
    fn clone_box(&self) -> Box<dyn DirectoryProtocol> {
        Box::new(self.clone())
    }

    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_tag(4); // scheme discriminant
                         // `Shared(∅)` is *not* equivalent to an absent entry here (an
                         // absent entry grants Exclusive to a sole reader, an empty shared
                         // set does not), so entries are encoded exactly as stored.
        let mut entries: Vec<(u64, &Entry)> =
            self.entries.iter().map(|(a, e)| (a.number(), e)).collect();
        entries.sort_unstable_by_key(|&(a, _)| a);
        fp.write_usize(entries.len());
        for (a, e) in entries {
            fp.write_u64(a);
            match e {
                Entry::Shared(owners) => {
                    fp.write_tag(0);
                    fp.write_usize(owners.len());
                    for k in owners.iter() {
                        fp.write_usize(k.index());
                    }
                }
                Entry::ExclusiveOrModified(k) => {
                    fp.write_tag(1);
                    fp.write_usize(k.index());
                }
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
        "full-map+local"
    }

    fn save_state(&self) -> Json {
        // A shared entry carries `"o"` (the owner set); an
        // exclusive/modified entry carries `"x"` (the sole holder). The
        // decoder keys on which field is present.
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort_by_key(|(a, _)| a.number());
        obj([
            ("width", self.width.json()),
            (
                "entries",
                entries
                    .into_iter()
                    .map(|(a, e)| {
                        let a = ("a", a.json());
                        match e {
                            Entry::Shared(owners) => obj([a, ("o", owners.json())]),
                            Entry::ExclusiveOrModified(k) => obj([a, ("x", k.json())]),
                        }
                    })
                    .collect(),
            ),
            ("waiting", crate::snapshot::waiting_json(&self.waiting)),
        ])
    }

    fn open(&mut self, k: CacheId, a: BlockAddr, kind: OpenKind, mem: &MemoryImage) -> DirStep {
        debug_assert!(!self.waiting.contains_key(&a), "open on a waiting block");
        match kind {
            OpenKind::ReadMiss => match self.entries.get(&a) {
                None => {
                    // Sole reader: grant Exclusive — the whole point of the
                    // added local state.
                    self.entries.insert(a, Entry::ExclusiveOrModified(k));
                    DirStep::done().with_send(grant_from_memory(k, a, mem, true))
                }
                Some(Entry::Shared(_)) => {
                    if let Some(Entry::Shared(owners)) = self.entries.get_mut(&a) {
                        owners.insert(k);
                    }
                    DirStep::done().with_send(grant_from_memory(k, a, mem, false))
                }
                Some(&Entry::ExclusiveOrModified(i)) => {
                    self.waiting.insert(a, Waiting { k, write: false });
                    DirStep::awaiting(vec![Self::purge(a, i, AccessKind::Read)])
                }
            },
            OpenKind::WriteMiss => match self.entries.get(&a) {
                None => {
                    self.entries.insert(a, Entry::ExclusiveOrModified(k));
                    DirStep::done().with_send(grant_from_memory(k, a, mem, true))
                }
                Some(Entry::Shared(owners)) => {
                    let targets: Vec<CacheId> = owners.iter().filter(|&i| i != k).collect();
                    let mut step = DirStep::done();
                    for i in targets {
                        step = step.with_send(Self::inv(a, i));
                    }
                    self.entries.insert(a, Entry::ExclusiveOrModified(k));
                    step.with_send(grant_from_memory(k, a, mem, true))
                }
                Some(&Entry::ExclusiveOrModified(i)) => {
                    self.waiting.insert(a, Waiting { k, write: true });
                    DirStep::awaiting(vec![Self::purge(a, i, AccessKind::Write)])
                }
            },
            OpenKind::Modify(_) => match self.entries.get(&a) {
                Some(Entry::Shared(owners)) if owners.contains(k) => {
                    let targets: Vec<CacheId> = owners.iter().filter(|&i| i != k).collect();
                    let mut step = DirStep::done();
                    for i in targets {
                        step = step.with_send(Self::inv(a, i));
                    }
                    self.entries.insert(a, Entry::ExclusiveOrModified(k));
                    step.with_send(mgranted(k, a, true))
                }
                // Exclusive holders never send MREQUEST; anything else is
                // a stale request whose copy was invalidated in flight.
                None | Some(Entry::Shared(_) | Entry::ExclusiveOrModified(_)) => {
                    DirStep::done().with_send(mgranted(k, a, false))
                }
            },
            OpenKind::WriteThrough(_) | OpenKind::DirectRead => {
                panic!("full-map+local directory serves only write-back caches (got {kind:?})")
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
        if waiting.write {
            self.entries
                .insert(a, Entry::ExclusiveOrModified(waiting.k));
        } else {
            let mut owners = OwnerSet::new(self.width);
            if retains {
                owners.insert(from);
            }
            owners.insert(waiting.k);
            // If the old owner is gone, the requester is a sole clean
            // holder — but it was granted a *shared* fill, so record
            // Shared rather than Exclusive (the grant already went out).
            self.entries.insert(a, Entry::Shared(owners));
        }
        DirStep::done()
            .with_memory_write(a, version)
            .with_send(grant_forwarded(waiting.k, a, version, waiting.write))
    }

    fn eject_satisfies_wait(&self, a: BlockAddr, k: CacheId, _wb: WritebackKind) -> bool {
        // Both clean and dirty ejects from the recalled exclusive holder
        // satisfy the recall: an Exclusive line may be replaced while still
        // clean, in which case memory already has the data.
        self.waiting.contains_key(&a)
            && matches!(self.entries.get(&a), Some(&Entry::ExclusiveOrModified(i)) if i == k)
    }

    fn eject_clean(&mut self, k: CacheId, a: BlockAddr) {
        match self.entries.get_mut(&a) {
            Some(Entry::Shared(owners)) => {
                owners.remove(k);
                if owners.is_empty() {
                    self.entries.remove(&a);
                }
            }
            Some(&mut Entry::ExclusiveOrModified(i)) if i == k => {
                self.entries.remove(&a);
            }
            // A clean eject from a non-holder is stale information.
            None | Some(&mut Entry::ExclusiveOrModified(_)) => {}
        }
    }

    fn eject_dirty(&mut self, k: CacheId, a: BlockAddr, version: Version) -> DirStep {
        if matches!(self.entries.get(&a), Some(&Entry::ExclusiveOrModified(i)) if i == k) {
            self.entries.remove(&a);
        }
        DirStep::done().with_memory_write(a, version)
    }

    fn awaiting(&self, a: BlockAddr) -> bool {
        self.waiting.contains_key(&a)
    }

    fn global_state(&self, a: BlockAddr) -> GlobalState {
        match self.entries.get(&a) {
            None => GlobalState::Absent,
            Some(Entry::Shared(owners)) if owners.len() == 1 => GlobalState::Present1,
            Some(Entry::Shared(_)) => GlobalState::PresentStar,
            // Conservatively "modified": the holder may have dirtied it.
            Some(Entry::ExclusiveOrModified(_)) => GlobalState::PresentM,
        }
    }

    fn holders(&self, a: BlockAddr) -> Option<OwnerSet> {
        Some(match self.entries.get(&a) {
            None => OwnerSet::new(self.width),
            Some(Entry::Shared(owners)) => owners.clone(),
            Some(&Entry::ExclusiveOrModified(i)) => OwnerSet::singleton(self.width, i),
        })
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
        let recorded = self.holders(a).expect("always has a holder view");
        let mut actual = OwnerSet::new(self.width);
        for id in clean.iter().chain(dirty.iter()) {
            actual.insert(id);
        }
        if recorded != actual {
            return Err(format!(
                "presence vector {recorded} but actual holders {actual}"
            ));
        }
        match self.entries.get(&a) {
            Some(Entry::Shared(_)) if !dirty.is_empty() => {
                Err("directory says Shared but a dirty copy exists".to_string())
            }
            Some(&Entry::ExclusiveOrModified(i)) => {
                // The holder may be clean (Exclusive) or dirty (Modified);
                // either way it must be exactly cache i, alone.
                let sole_clean = clean.sole_member() == Some(i) && dirty.is_empty();
                let sole_dirty = dirty.sole_member() == Some(i) && clean.is_empty();
                if sole_clean || sole_dirty {
                    Ok(())
                } else {
                    Err(format!("exclusive-or-modified at {i} but holders are clean {clean} / dirty {dirty}"))
                }
            }
            None | Some(Entry::Shared(_)) => {
                if dirty.is_empty() {
                    Ok(())
                } else {
                    Err("dirty copy exists outside an exclusive entry".to_string())
                }
            }
        }
    }
}

/// The Yen–Fu table. It differs from the plain full map in exactly one
/// rule: a read miss on an absent block grants an *exclusive* fill
/// (`read-miss-absent` lands in `PresentM`, the conservative
/// maybe-modified rendering of `ExclusiveOrModified`), which is the
/// scheme's entire point — the sole reader can later upgrade without a
/// directory transaction. Everything reaching other caches stays
/// [`Delivery::Targeted`].
pub(crate) fn table() -> &'static TransitionTable {
    static TABLE: OnceLock<TransitionTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        use ActionKind as A;
        use EventKind as E;
        use GlobalState as G;
        let targeted = Delivery::Targeted;
        TransitionTable {
            scheme: "full-map+local",
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
                    .action(A::Grant { exclusive: true })
                    .to(StateSet::only(G::PresentM)),
                crate::rule!("read-miss-shared", E::ReadMiss, StateSet::SHARED)
                    .action(A::Grant { exclusive: false })
                    .to(StateSet::SHARED),
                crate::rule!(
                    "read-miss-exclusive",
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
                    "write-miss-exclusive",
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
                    "eject-clean-exclusive",
                    E::EjectClean,
                    StateSet::only(G::PresentM)
                )
                .to(StateSet::of(&[G::Absent, G::PresentM])),
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

    #[test]
    fn first_read_grants_exclusive() {
        let mut d = FullMapLocalDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(1);
        let s = d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        match &s.sends[0] {
            DirSend::Unicast {
                cmd: MemoryToCache::GetData { exclusive, .. },
                ..
            } => {
                assert!(*exclusive, "sole reader gets an exclusive fill");
            }
            other => panic!("expected grant, got {other:?}"),
        }
        assert_eq!(
            d.global_state(a),
            GlobalState::PresentM,
            "conservatively maybe-modified"
        );
    }

    #[test]
    fn second_reader_triggers_recall_and_sharing() {
        let mut d = FullMapLocalDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(2);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        let s = d.open(cid(1), a, OpenKind::ReadMiss, &mem);
        assert!(
            !s.completes,
            "must recall the exclusive holder — it may be dirty"
        );
        match &s.sends[0] {
            DirSend::Unicast {
                to,
                cmd: MemoryToCache::Purge { rw, .. },
                ..
            } => {
                assert_eq!(*to, cid(0));
                assert_eq!(*rw, AccessKind::Read);
            }
            other => panic!("expected PURGE, got {other:?}"),
        }
        let s = d.supply(a, cid(0), Version::new(3), true, &mem);
        assert!(s.completes);
        let holders = d.holders(a).unwrap();
        assert!(holders.contains(cid(0)) && holders.contains(cid(1)));
        assert_eq!(d.global_state(a), GlobalState::PresentStar);
    }

    #[test]
    fn modify_from_shared_holder_invalidates_others() {
        let mut d = FullMapLocalDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(3);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        d.open(cid(1), a, OpenKind::ReadMiss, &mem);
        d.supply(a, cid(0), Version::initial(), true, &mem);
        let s = d.open(cid(1), a, OpenKind::Modify(mem.read(a)), &mem);
        let invs: Vec<CacheId> = s
            .sends
            .iter()
            .filter_map(|snd| match snd {
                DirSend::Unicast {
                    cmd: MemoryToCache::Inv { to, .. },
                    ..
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(invs, vec![cid(0)]);
        assert_eq!(d.global_state(a), GlobalState::PresentM);
    }

    #[test]
    fn clean_eject_of_exclusive_clears_entry() {
        let mut d = FullMapLocalDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(4);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        d.eject_clean(cid(0), a);
        assert_eq!(d.global_state(a), GlobalState::Absent);
    }

    #[test]
    fn clean_eject_from_recalled_holder_satisfies_wait() {
        let mut d = FullMapLocalDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(5);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem); // exclusive at C0
        d.open(cid(1), a, OpenKind::ReadMiss, &mem); // recall in flight
        assert!(d.eject_satisfies_wait(a, cid(0), WritebackKind::Clean));
        assert!(!d.eject_satisfies_wait(a, cid(1), WritebackKind::Clean));
        // The racing clean eject supplies memory's (current) data.
        let s = d.supply(a, cid(0), mem.read(a), false, &mem);
        assert!(s.completes);
        assert_eq!(d.global_state(a), GlobalState::Present1);
    }

    #[test]
    fn write_miss_on_exclusive_recalls_with_write_intent() {
        let mut d = FullMapLocalDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(6);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem);
        let s = d.open(cid(1), a, OpenKind::WriteMiss, &mem);
        match &s.sends[0] {
            DirSend::Unicast {
                cmd: MemoryToCache::Purge { rw, .. },
                ..
            } => {
                assert_eq!(*rw, AccessKind::Write);
            }
            other => panic!("expected PURGE(write), got {other:?}"),
        }
        let s = d.supply(a, cid(0), Version::new(7), false, &mem);
        assert_eq!(s.write_memory, Some((a, Version::new(7))));
        assert_eq!(d.holders(a).unwrap().sole_member(), Some(cid(1)));
    }

    #[test]
    fn stale_modify_denied() {
        let mut d = FullMapLocalDirectory::new(4);
        let mem = MemoryImage::new();
        let s = d.open(cid(2), blk(7), OpenKind::Modify(mem.read(blk(7))), &mem);
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
    fn consistency_accepts_silently_dirtied_exclusive() {
        let mut d = FullMapLocalDirectory::new(4);
        let mem = MemoryImage::new();
        let a = blk(8);
        d.open(cid(0), a, OpenKind::ReadMiss, &mem); // ExclusiveOrModified(C0)
        let none = OwnerSet::new(4);
        let c0 = OwnerSet::singleton(4, cid(0));
        // Clean at C0: fine. Dirty at C0 (silent upgrade): also fine.
        assert!(d.check_consistency(a, &c0, &none).is_ok());
        assert!(d.check_consistency(a, &none, &c0).is_ok());
        // Dirty at someone else: violation.
        let c1 = OwnerSet::singleton(4, cid(1));
        assert!(d.check_consistency(a, &none, &c1).is_err());
    }
}
