//! The full map with added local state (section 2.4.3, Yen–Fu): the
//! directory still keeps an exact presence vector, but a block cached by
//! exactly one cache in clean state may be held *Exclusive* there, letting
//! that cache upgrade to Dirty without a directory transaction.
//!
//! The price — the "additional synchronization problems (not fully
//! resolved in [10])" the paper mentions — is that the directory can no
//! longer tell whether an exclusively held block is clean or silently
//! modified. We resolve it the way later directory protocols did: the
//! directory records such a block as `PresentM` held by cache `i`
//! ("exclusive or modified") and *always* recalls (`PURGE`s) cache `i`
//! before serving another requester, accepting the data whether it turns
//! out clean or dirty.

use crate::transitions::{ActionKind, EventKind, Program, StateSet};
use std::sync::OnceLock;
use twobit_types::GlobalState;

/// The Yen–Fu scheme: the full-map relation
/// ([`crate::full_map::program`], the one statement — unedited rules keep
/// their provenance there) with two rules changed. A read miss on an
/// absent block grants an *exclusive* fill and lands in `PresentM`, the
/// conservative maybe-modified rendering of "held by exactly one cache
/// which may have silently modified it" — the scheme's entire point: the
/// sole reader can later upgrade without a directory transaction. And
/// because that holder may still be clean, its clean eject frees the
/// block (and, racing a recall, answers it: memory is current). The
/// three rules that fire on such a block are named for what it is.
pub(crate) fn program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        use GlobalState as G;
        let mut table = crate::full_map::program().table().clone();
        table.scheme = "full-map+local";
        let edits = [
            crate::rule!(
                "read-miss-absent",
                EventKind::ReadMiss,
                StateSet::only(G::Absent)
            )
            .action(ActionKind::Grant { exclusive: true })
            .to(StateSet::only(G::PresentM)),
            crate::rule!(
                "eject-clean-modified",
                EventKind::EjectClean,
                StateSet::only(G::PresentM)
            )
            .to(StateSet::of(&[G::Absent, G::PresentM])),
        ];
        for edit in edits {
            let stated = table.rule_mut(edit.name).expect("the full map states it");
            *stated = edit;
        }
        for (modified, exclusive) in [
            ("read-miss-modified", "read-miss-exclusive"),
            ("write-miss-modified", "write-miss-exclusive"),
            ("eject-clean-modified", "eject-clean-exclusive"),
        ] {
            table
                .rule_mut(modified)
                .expect("the full map states it")
                .name = exclusive;
        }
        Program::compile(table).expect("the shipped full-map+local table compiles")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{DirSend, Directory, OpenKind};
    use crate::memory::MemoryImage;
    use crate::owner_set::OwnerSet;
    use twobit_types::{AccessKind, BlockAddr, CacheId, MemoryToCache, Version, WritebackKind};

    fn full_map_local(width: usize) -> Directory {
        Directory::new(program(), width, 0)
    }

    fn blk(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    fn cid(n: usize) -> CacheId {
        CacheId::new(n)
    }

    #[test]
    fn first_read_grants_exclusive() {
        let mut d = full_map_local(4);
        let mem = MemoryImage::new();
        let a = blk(1);
        let s = d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
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
        let mut d = full_map_local(4);
        let mem = MemoryImage::new();
        let a = blk(2);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        let s = d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
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
        let s = d.supply_step(a, cid(0), Version::new(3), true).unwrap();
        assert!(s.completes);
        let holders = d.holders(a).unwrap();
        assert!(holders.contains(cid(0)) && holders.contains(cid(1)));
        assert_eq!(d.global_state(a), GlobalState::PresentStar);
    }

    #[test]
    fn modify_from_shared_holder_invalidates_others() {
        let mut d = full_map_local(4);
        let mem = MemoryImage::new();
        let a = blk(3);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
        d.supply_step(a, cid(0), Version::initial(), true).unwrap();
        let s = d
            .open_step(cid(1), a, OpenKind::Modify(mem.read(a)), &mem)
            .unwrap();
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
        let mut d = full_map_local(4);
        let mem = MemoryImage::new();
        let a = blk(4);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        d.eject_clean(cid(0), a).unwrap();
        assert_eq!(d.global_state(a), GlobalState::Absent);
    }

    #[test]
    fn clean_eject_from_recalled_holder_satisfies_wait() {
        let mut d = full_map_local(4);
        let mem = MemoryImage::new();
        let a = blk(5);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap(); // exclusive at C0
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap(); // recall in flight
        assert!(d.eject_satisfies_wait(a, cid(0), WritebackKind::Clean));
        assert!(!d.eject_satisfies_wait(a, cid(1), WritebackKind::Clean));
        // The racing clean eject supplies memory's (current) data.
        let s = d.supply_step(a, cid(0), mem.read(a), false).unwrap();
        assert!(s.completes);
        assert_eq!(d.global_state(a), GlobalState::Present1);
    }

    #[test]
    fn write_miss_on_exclusive_recalls_with_write_intent() {
        let mut d = full_map_local(4);
        let mem = MemoryImage::new();
        let a = blk(6);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        let s = d.open_step(cid(1), a, OpenKind::WriteMiss, &mem).unwrap();
        match &s.sends[0] {
            DirSend::Unicast {
                cmd: MemoryToCache::Purge { rw, .. },
                ..
            } => {
                assert_eq!(*rw, AccessKind::Write);
            }
            other => panic!("expected PURGE(write), got {other:?}"),
        }
        let s = d.supply_step(a, cid(0), Version::new(7), false).unwrap();
        assert_eq!(s.write_memory, Some((a, Version::new(7))));
        assert_eq!(d.holders(a).unwrap().sole_member(), Some(cid(1)));
    }

    #[test]
    fn stale_modify_denied() {
        let mut d = full_map_local(4);
        let mem = MemoryImage::new();
        let s = d
            .open_step(cid(2), blk(7), OpenKind::Modify(mem.read(blk(7))), &mem)
            .unwrap();
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
        let mut d = full_map_local(4);
        let mem = MemoryImage::new();
        let a = blk(8);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap(); // exclusive-or-modified at C0
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
