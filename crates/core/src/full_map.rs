//! The full distributed map (section 2.4.2, Censier–Feautrier): `n+1` bits
//! per block — a presence bit per cache plus a modified bit. The directory
//! always knows exactly who holds what, so every coherence command is
//! targeted (`INV`, `PURGE`); this is the baseline the paper measures the
//! two-bit scheme's extra broadcasts against.

use crate::transitions::{
    ActionKind, Cond, Delivery, EventKind, EventSpec, OrderGuarantee, Program, StateSet,
    TransitionTable,
};
use std::sync::OnceLock;
use twobit_types::GlobalState;

/// The full-map scheme. Identities are always known, so every
/// non-initiator command is [`Delivery::Targeted`] — which is what makes
/// the directory keep a presence vector per block; successor sets are
/// wider than two-bit's in places (a read miss may rejoin a holder whose
/// eject notice is in flight, a clean eject may or may not empty the
/// vector), and there the directory reads the successor off the vector.
pub(crate) fn program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        use ActionKind as A;
        use EventKind as E;
        use GlobalState as G;
        let targeted = Delivery::Targeted;
        let table = TransitionTable {
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
        };
        Program::compile(table).expect("the shipped full-map table compiles")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::testing::Stepped;
    use crate::directory::{DirSend, Directory, OpenKind};
    use crate::memory::MemoryImage;
    use crate::owner_set::OwnerSet;
    use twobit_types::{AccessKind, BlockAddr, CacheId, MemoryToCache, Version, WritebackKind};

    fn full_map(width: usize) -> Directory {
        Directory::new(program(), width, 0)
    }

    fn blk(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    fn cid(n: usize) -> CacheId {
        CacheId::new(n)
    }

    fn unicast_invs(step: &Stepped) -> Vec<CacheId> {
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
        let mut d = full_map(4);
        let mem = MemoryImage::new();
        let a = blk(1);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        d.open_step(cid(2), a, OpenKind::ReadMiss, &mem).unwrap();
        let holders = d.holders(a).unwrap();
        assert!(holders.contains(cid(0)) && holders.contains(cid(2)));
        assert_eq!(d.global_state(a), GlobalState::PresentStar);
    }

    #[test]
    fn write_miss_invalidates_exactly_the_holders() {
        let mut d = full_map(8);
        let mem = MemoryImage::new();
        let a = blk(2);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
        d.open_step(cid(5), a, OpenKind::ReadMiss, &mem).unwrap();

        let s = d.open_step(cid(7), a, OpenKind::WriteMiss, &mem).unwrap();
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
        let mut d = full_map(4);
        let mem = MemoryImage::new();
        let a = blk(3);
        d.open_step(cid(1), a, OpenKind::WriteMiss, &mem).unwrap();
        let s = d.open_step(cid(2), a, OpenKind::ReadMiss, &mem).unwrap();
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
        let s = d.supply_step(a, cid(1), Version::new(4), true).unwrap();
        assert!(s.completes);
        let holders = d.holders(a).unwrap();
        assert!(holders.contains(cid(1)) && holders.contains(cid(2)));
        assert_eq!(d.global_state(a), GlobalState::PresentStar);
    }

    #[test]
    fn supply_without_retention_drops_the_old_owner() {
        let mut d = full_map(4);
        let mem = MemoryImage::new();
        let a = blk(4);
        d.open_step(cid(1), a, OpenKind::WriteMiss, &mem).unwrap();
        d.open_step(cid(2), a, OpenKind::WriteMiss, &mem).unwrap();
        let s = d.supply_step(a, cid(1), Version::new(6), false).unwrap();
        assert_eq!(s.write_memory, Some((a, Version::new(6))));
        assert_eq!(d.holders(a).unwrap().sole_member(), Some(cid(2)));
        assert_eq!(d.global_state(a), GlobalState::PresentM);
    }

    #[test]
    fn modify_grants_and_invalidates_other_holders_only() {
        let mut d = full_map(4);
        let mem = MemoryImage::new();
        let a = blk(5);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
        let s = d
            .open_step(cid(0), a, OpenKind::Modify(mem.read(a)), &mem)
            .unwrap();
        assert_eq!(unicast_invs(&s), vec![cid(1)]);
        assert_eq!(d.global_state(a), GlobalState::PresentM);
    }

    #[test]
    fn modify_from_sole_holder_sends_nothing_extra() {
        let mut d = full_map(4);
        let mem = MemoryImage::new();
        let a = blk(6);
        d.open_step(cid(3), a, OpenKind::ReadMiss, &mem).unwrap();
        let s = d
            .open_step(cid(3), a, OpenKind::Modify(mem.read(a)), &mem)
            .unwrap();
        assert_eq!(s.sends.len(), 1, "just the MGRANTED");
    }

    #[test]
    fn stale_modify_denied() {
        let mut d = full_map(4);
        let mem = MemoryImage::new();
        let a = blk(7);
        // C1 never fetched the block: its MREQUEST is stale by definition.
        let s = d
            .open_step(cid(1), a, OpenKind::Modify(mem.read(a)), &mem)
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
    fn ejects_keep_the_map_exact() {
        let mut d = full_map(4);
        let mem = MemoryImage::new();
        let a = blk(8);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
        d.eject_clean(cid(0), a).unwrap();
        assert_eq!(d.holders(a).unwrap().sole_member(), Some(cid(1)));
        assert_eq!(d.global_state(a), GlobalState::Present1);
        d.eject_clean(cid(1), a).unwrap();
        assert_eq!(d.global_state(a), GlobalState::Absent);
    }

    #[test]
    fn dirty_eject_writes_back() {
        let mut d = full_map(4);
        let mem = MemoryImage::new();
        let a = blk(9);
        d.open_step(cid(2), a, OpenKind::WriteMiss, &mem).unwrap();
        let s = d.eject_dirty_step(cid(2), a, Version::new(11)).unwrap();
        assert_eq!(s.write_memory, Some((a, Version::new(11))));
        assert_eq!(d.global_state(a), GlobalState::Absent);
    }

    #[test]
    fn eject_satisfies_wait_only_for_the_purged_owner() {
        let mut d = full_map(4);
        let mem = MemoryImage::new();
        let a = blk(10);
        d.open_step(cid(0), a, OpenKind::WriteMiss, &mem).unwrap();
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap(); // purge to C0 pending
        assert!(d.eject_satisfies_wait(a, cid(0), WritebackKind::Dirty));
        assert!(!d.eject_satisfies_wait(a, cid(2), WritebackKind::Dirty));
        assert!(!d.eject_satisfies_wait(a, cid(0), WritebackKind::Clean));
    }

    #[test]
    fn consistency_requires_exact_presence() {
        let mut d = full_map(4);
        let mem = MemoryImage::new();
        let a = blk(11);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        let clean = OwnerSet::singleton(4, cid(0));
        let none = OwnerSet::new(4);
        assert!(d.check_consistency(a, &clean, &none).is_ok());
        // A copy the map does not know about is an error (unlike two-bit,
        // where Present* admits anything clean).
        let extra: OwnerSet = [cid(0), cid(1)].into_iter().collect();
        assert!(d.check_consistency(a, &extra, &none).is_err());
    }
}
