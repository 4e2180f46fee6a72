//! The two-bit directory scheme — the paper's contribution (section 3).
//!
//! Each block owned by the module carries exactly two bits encoding
//! `Absent` / `Present1` / `Present*` / `PresentM`. The directory never
//! knows *which* caches hold copies, so any command that must reach a
//! non-initiating cache is broadcast (`BROADINV`, `BROADQUERY`); the
//! protocol's entire cost model is the stream of broadcasts this forces.
//!
//! The protocol cases of sections 3.2.1–3.2.5, which the table below
//! states rule by rule and the [`Directory`](crate::Directory) executes:
//!
//! | event | state | actions |
//! |-------|-------|---------|
//! | read miss | Absent | `get`, → Present1 |
//! | read miss | Present1 / Present\* | `get`, → Present\* |
//! | read miss | PresentM | `BROADQUERY(read)`; on supply: write-back, `get`, → Present\* (owner keeps a clean copy)¹ |
//! | write miss | Absent | `get`, → PresentM |
//! | write miss | Present1 / Present\* | `BROADINV(a,k)`, `get`, → PresentM |
//! | write miss | PresentM | `BROADQUERY(write)`; on supply: write-back, `get`, → PresentM |
//! | MREQUEST | Present1 | `MGRANTED(true)`, → PresentM |
//! | MREQUEST | Present\* | `BROADINV(a,k)`, `MGRANTED(true)`, → PresentM |
//! | MREQUEST | PresentM / Absent | `MGRANTED(false)` (stale request; the requester's copy was invalidated in flight — section 3.2.5) |
//! | clean eject | Present1 | → Absent (the optimization the paper notes makes keeping Present1 worthwhile) |
//! | dirty eject | any | write-back, → Absent |
//!
//! ¹ The paper's read-miss case 2 prints `SETSTATE(a,"Present!")`, an
//! OCR-ambiguous token. Since the responding owner "will also reset the
//! modified bit" — i.e. *keeps* a clean copy — two clean copies exist and
//! the only sound successor state is `Present*`. When the data instead
//! arrives via a racing write-back (the owner ejected the block), only the
//! requester holds a copy and the state becomes `Present1`.

use crate::transitions::{
    ActionKind, Cond, Delivery, EventKind, EventSpec, OrderGuarantee, Program, StateSet,
    TransitionTable,
};
use std::sync::OnceLock;
use twobit_types::GlobalState;

/// The two-bit scheme: the module-docs table (sections 3.2.1–3.2.5) as
/// the guarded-action rules the directory runs and the linter reads.
/// Every non-initiator command is a [`Delivery::Broadcast`]: the
/// directory keeps no identities, which is the scheme's economy and the
/// property the broadcast-necessity lint checks.
pub(crate) fn program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        use ActionKind as A;
        use EventKind as E;
        use GlobalState as G;
        let broadcast = Delivery::Broadcast;
        let table = TransitionTable {
            scheme: "two-bit",
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
                    .to(StateSet::only(G::PresentStar)),
                crate::rule!(
                    "read-miss-modified",
                    E::ReadMiss,
                    StateSet::only(G::PresentM)
                )
                .action(A::Recall {
                    delivery: broadcast,
                })
                .awaits(),
                crate::rule!("write-miss-absent", E::WriteMiss, StateSet::only(G::Absent))
                    .action(A::Grant { exclusive: true })
                    .to(StateSet::only(G::PresentM)),
                crate::rule!("write-miss-shared", E::WriteMiss, StateSet::SHARED)
                    .action(A::Invalidate {
                        delivery: broadcast,
                    })
                    .action(A::Grant { exclusive: true })
                    .to(StateSet::only(G::PresentM))
                    .guarded_by(OrderGuarantee::AckBarrier),
                crate::rule!(
                    "write-miss-modified",
                    E::WriteMiss,
                    StateSet::only(G::PresentM)
                )
                .action(A::Recall {
                    delivery: broadcast,
                })
                .awaits(),
                crate::rule!(
                    "modify-fresh-present1",
                    E::Modify,
                    StateSet::only(G::Present1)
                )
                .requires(Cond::Fresh, true)
                .action(A::ModifyGrant { granted: true })
                .to(StateSet::only(G::PresentM)),
                crate::rule!(
                    "modify-fresh-shared",
                    E::Modify,
                    StateSet::only(G::PresentStar)
                )
                .requires(Cond::Fresh, true)
                .action(A::Invalidate {
                    delivery: broadcast,
                })
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
                    "eject-clean-present1",
                    E::EjectClean,
                    StateSet::only(G::Present1)
                )
                .to(StateSet::only(G::Absent)),
                crate::rule!(
                    "eject-clean-ignored",
                    E::EjectClean,
                    StateSet::of(&[G::Absent, G::PresentStar, G::PresentM])
                ),
                crate::rule!("eject-dirty", E::EjectDirty, StateSet::only(G::PresentM))
                    .action(A::WriteMemory)
                    .to(StateSet::only(G::Absent)),
            ],
        };
        Program::compile(table).expect("the shipped two-bit table compiles")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::testing::Stepped;
    use crate::directory::{DirSend, Directory, OpenKind, SendCost};
    use crate::memory::MemoryImage;
    use crate::owner_set::OwnerSet;
    use twobit_types::{
        AccessKind, BlockAddr, CacheId, MemoryToCache, ProtocolError, Version, WritebackKind,
    };

    fn two_bit() -> Directory {
        Directory::new(program(), 4, 0)
    }

    fn blk(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    fn cid(n: usize) -> CacheId {
        CacheId::new(n)
    }

    fn grants_to(step: &Stepped) -> Vec<CacheId> {
        step.sends
            .iter()
            .filter_map(|s| match s {
                DirSend::Unicast {
                    cmd: MemoryToCache::GetData { k, .. },
                    ..
                } => Some(*k),
                _ => None,
            })
            .collect()
    }

    fn has_broadcast(step: &Stepped) -> bool {
        step.sends
            .iter()
            .any(|s| matches!(s, DirSend::Broadcast { .. }))
    }

    #[test]
    fn read_miss_progression_absent_to_present_star() {
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let a = blk(1);

        let s = d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        assert!(s.completes && !has_broadcast(&s));
        assert_eq!(grants_to(&s), vec![cid(0)]);
        assert_eq!(d.global_state(a), GlobalState::Present1);

        let s = d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
        assert!(s.completes && !has_broadcast(&s));
        assert_eq!(d.global_state(a), GlobalState::PresentStar);

        let s = d.open_step(cid(2), a, OpenKind::ReadMiss, &mem).unwrap();
        assert!(s.completes);
        assert_eq!(
            d.global_state(a),
            GlobalState::PresentStar,
            "Present* is absorbing for reads"
        );
    }

    #[test]
    fn read_miss_on_modified_broadcasts_query_and_waits() {
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let a = blk(2);
        d.open_step(cid(0), a, OpenKind::WriteMiss, &mem).unwrap();
        assert_eq!(d.global_state(a), GlobalState::PresentM);

        let s = d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
        assert!(!s.completes);
        assert!(d.awaiting(a));
        match &s.sends[0] {
            DirSend::Broadcast {
                cmd: MemoryToCache::BroadQuery { rw, .. },
                exclude,
                ..
            } => {
                assert_eq!(*rw, AccessKind::Read);
                assert_eq!(
                    *exclude,
                    cid(1),
                    "requester is never delivered its own broadcast"
                );
            }
            other => panic!("expected BROADQUERY, got {other:?}"),
        }

        // Owner supplies, keeping a clean copy.
        let s = d.supply_step(a, cid(0), Version::new(5), true).unwrap();
        assert!(s.completes);
        assert_eq!(
            s.write_memory,
            Some((a, Version::new(5))),
            "write-back to memory"
        );
        assert_eq!(grants_to(&s), vec![cid(1)]);
        assert_eq!(
            d.global_state(a),
            GlobalState::PresentStar,
            "two clean copies now exist"
        );
        assert!(!d.awaiting(a));
    }

    #[test]
    fn read_miss_supply_via_racing_writeback_yields_present1() {
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let a = blk(3);
        d.open_step(cid(0), a, OpenKind::WriteMiss, &mem).unwrap();
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
        assert!(d.eject_satisfies_wait(a, cid(0), WritebackKind::Dirty));
        assert!(!d.eject_satisfies_wait(a, cid(0), WritebackKind::Clean));
        let s = d.supply_step(a, cid(0), Version::new(9), false).unwrap();
        assert!(s.completes);
        assert_eq!(
            d.global_state(a),
            GlobalState::Present1,
            "only the requester holds a copy"
        );
    }

    #[test]
    fn write_miss_on_shared_broadcasts_invalidate() {
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let a = blk(4);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap(); // Present*

        let s = d.open_step(cid(2), a, OpenKind::WriteMiss, &mem).unwrap();
        assert!(s.completes, "invalidation needs no response");
        match &s.sends[0] {
            DirSend::Broadcast {
                cmd: MemoryToCache::BroadInv { exclude, .. },
                ..
            } => {
                assert_eq!(*exclude, cid(2));
            }
            other => panic!("expected BROADINV, got {other:?}"),
        }
        assert_eq!(grants_to(&s), vec![cid(2)]);
        assert_eq!(d.global_state(a), GlobalState::PresentM);
    }

    #[test]
    fn write_miss_on_present1_also_broadcasts() {
        // Present1 knows the copy count but not its identity, so the
        // invalidation must still be broadcast — the n-2 overhead of the
        // paper's write-miss case 2.
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let a = blk(5);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap(); // Present1
        let s = d.open_step(cid(1), a, OpenKind::WriteMiss, &mem).unwrap();
        assert!(has_broadcast(&s));
        assert_eq!(d.global_state(a), GlobalState::PresentM);
    }

    #[test]
    fn write_miss_on_modified_queries_then_grants_exclusive() {
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let a = blk(6);
        d.open_step(cid(0), a, OpenKind::WriteMiss, &mem).unwrap();
        let s = d.open_step(cid(1), a, OpenKind::WriteMiss, &mem).unwrap();
        assert!(!s.completes);
        match &s.sends[0] {
            DirSend::Broadcast {
                cmd: MemoryToCache::BroadQuery { rw, .. },
                ..
            } => {
                assert_eq!(*rw, AccessKind::Write);
            }
            other => panic!("expected BROADQUERY(write), got {other:?}"),
        }
        let s = d.supply_step(a, cid(0), Version::new(2), false).unwrap();
        match &s.sends[0] {
            DirSend::Unicast {
                cmd:
                    MemoryToCache::GetData {
                        exclusive, version, ..
                    },
                cost,
                ..
            } => {
                assert!(exclusive);
                assert_eq!(*version, Version::new(2));
                assert_eq!(*cost, SendCost::DataForwarded);
            }
            other => panic!("expected exclusive grant, got {other:?}"),
        }
        assert_eq!(d.global_state(a), GlobalState::PresentM);
    }

    #[test]
    fn mrequest_on_present1_grants_without_broadcast() {
        // "This justifies keeping the encoding of Present1" (3.2.4 case 1).
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let a = blk(7);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        let s = d
            .open_step(cid(0), a, OpenKind::Modify(mem.read(a)), &mem)
            .unwrap();
        assert!(!has_broadcast(&s));
        match &s.sends[0] {
            DirSend::Unicast {
                cmd: MemoryToCache::MGranted { granted, .. },
                ..
            } => {
                assert!(granted);
            }
            other => panic!("expected MGRANTED, got {other:?}"),
        }
        assert_eq!(d.global_state(a), GlobalState::PresentM);
    }

    #[test]
    fn mrequest_on_present_star_broadcasts_then_grants() {
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let a = blk(8);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap(); // Present*
        let s = d
            .open_step(cid(0), a, OpenKind::Modify(mem.read(a)), &mem)
            .unwrap();
        assert!(has_broadcast(&s));
        assert!(s.completes);
        assert_eq!(d.global_state(a), GlobalState::PresentM);
    }

    #[test]
    fn stale_mrequest_is_denied() {
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let a = blk(9);
        d.open_step(cid(0), a, OpenKind::WriteMiss, &mem).unwrap(); // PresentM at C0
        let s = d
            .open_step(cid(1), a, OpenKind::Modify(mem.read(a)), &mem)
            .unwrap();
        match &s.sends[0] {
            DirSend::Unicast {
                cmd: MemoryToCache::MGranted { granted, k, .. },
                ..
            } => {
                assert!(!granted);
                assert_eq!(*k, cid(1));
            }
            other => panic!("expected MGRANTED(false), got {other:?}"),
        }
        assert_eq!(
            d.global_state(a),
            GlobalState::PresentM,
            "state untouched by stale request"
        );
    }

    #[test]
    fn clean_eject_shrinks_only_present1() {
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let a = blk(10);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap(); // Present1
        d.eject_clean(cid(0), a).unwrap();
        assert_eq!(d.global_state(a), GlobalState::Absent);

        // Present* never shrinks on clean ejects (identities unknown).
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap();
        d.open_step(cid(1), a, OpenKind::ReadMiss, &mem).unwrap();
        d.eject_clean(cid(0), a).unwrap();
        d.eject_clean(cid(1), a).unwrap();
        assert_eq!(
            d.global_state(a),
            GlobalState::PresentStar,
            "Present* admits zero copies; only a later write miss resets it"
        );
    }

    #[test]
    fn dirty_eject_writes_back_and_clears() {
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let a = blk(11);
        d.open_step(cid(0), a, OpenKind::WriteMiss, &mem).unwrap();
        let s = d.eject_dirty_step(cid(0), a, Version::new(3)).unwrap();
        assert_eq!(s.write_memory, Some((a, Version::new(3))));
        assert_eq!(d.global_state(a), GlobalState::Absent);
    }

    #[test]
    fn consistency_check_uses_admits() {
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let a = blk(12);
        d.open_step(cid(0), a, OpenKind::ReadMiss, &mem).unwrap(); // Present1
        let one = OwnerSet::singleton(4, cid(0));
        let none = OwnerSet::new(4);
        assert!(d.check_consistency(a, &one, &none).is_ok());
        let two: OwnerSet = [cid(0), cid(1)].into_iter().collect();
        assert!(d.check_consistency(a, &two, &none).is_err());
    }

    #[test]
    fn write_through_is_a_typed_error() {
        let mut d = two_bit();
        let mem = MemoryImage::new();
        let err = d
            .open_step(
                cid(0),
                blk(0),
                OpenKind::WriteThrough(Version::new(1)),
                &mem,
            )
            .unwrap_err();
        assert!(matches!(err, ProtocolError::UnexpectedCommand { .. }));
        assert!(
            err.to_string()
                .contains("two-bit: the table declares no write-through in Absent"),
            "{err}"
        );
        assert_eq!(d.fired(), 0, "nothing ran");
    }

    #[test]
    #[should_panic(expected = "supply without a waiting transaction")]
    fn unsolicited_supply_panics() {
        let mut d = two_bit();
        d.supply_step(blk(0), cid(0), Version::new(1), true)
            .unwrap();
    }
}
