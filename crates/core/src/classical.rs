//! The section 2.2–2.3 comparator schemes, which keep **no** directory
//! state (their tables track none, and the directory reports a constant
//! `Present*`):
//!
//! * [`classical_program`] — the "classical" solution (section 2.3):
//!   write-through caches; every store updates memory and is broadcast to
//!   all other caches for invalidation. Simple, software-compatible, and
//!   exactly as unscalable as the paper says. Memory is always current, so
//!   loads always fill from it and replacement is silent.
//! * [`null_program`] — the memory side of the static software scheme
//!   (section 2.2): sharable-writeable blocks are never cached (the cache
//!   agent sends `DIRECTREAD`/`WRITETHRU` for them), private blocks are
//!   write-back cached with no coherence traffic at all.

use crate::transitions::{
    ActionKind, Delivery, EventKind, EventSpec, OrderGuarantee, Program, StateSet, TransitionTable,
};
use std::sync::OnceLock;
use twobit_types::GlobalState;

/// The classical write-through scheme. It keeps no directory state
/// (`tracks_state = false`; the constant reported state is `Present*`),
/// so the relation is two rules — fills from memory, and the per-store
/// memory-update-plus-invalidate-broadcast that defines the scheme
/// ("each cache broadcasts to all other caches the address of the block
/// being modified"). Replacement is silent — a write-through cache tells
/// nobody when it drops a line, so the table declares no eject at all —
/// and no rule grants write permission, which is how the consistency
/// check knows no dirty copy may exist.
pub(crate) fn classical_program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        use ActionKind as A;
        use EventKind as E;
        let here = StateSet::only(GlobalState::PresentStar);
        let table = TransitionTable {
            scheme: "classical-wt",
            tracks_state: false,
            events: vec![
                EventSpec::new(E::ReadMiss, here, &[]),
                EventSpec::new(E::WriteThrough, here, &[]),
            ],
            rules: vec![
                crate::rule!("read-miss", E::ReadMiss, here).action(A::Grant { exclusive: false }),
                // The write-through acknowledgment the distributed
                // deployment synthesizes for this rule is held behind the
                // inv-ack gate, ordering the invalidation broadcast before
                // the store's completion.
                crate::rule!("write-through", E::WriteThrough, here)
                    .action(A::WriteMemory)
                    .action(A::Invalidate {
                        delivery: Delivery::Broadcast,
                    })
                    .guarded_by(OrderGuarantee::AckBarrier),
            ],
        };
        Program::compile(table).expect("the shipped classical-wt table compiles")
    })
}

/// The static software scheme: plain memory service with no coherence
/// traffic whatsoever — the broadcast-necessity analysis verifies the
/// *absence* of invalidates and recalls here. Private-block misses are
/// plain fills (write misses exclusively: nobody else will care) and
/// private dirty blocks write back normally (clean ones leave silently:
/// there is no directory state to maintain); public blocks are served
/// straight from memory, never cached — "the public data is always
/// up-to-date in main memory".
pub(crate) fn null_program() -> &'static Program {
    static PROGRAM: OnceLock<Program> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        use ActionKind as A;
        use EventKind as E;
        let here = StateSet::only(GlobalState::PresentStar);
        let table = TransitionTable {
            scheme: "static-sw",
            tracks_state: false,
            events: vec![
                EventSpec::new(E::ReadMiss, here, &[]),
                EventSpec::new(E::WriteMiss, here, &[]),
                EventSpec::new(E::DirectRead, here, &[]),
                EventSpec::new(E::WriteThrough, here, &[]),
                EventSpec::new(E::EjectDirty, here, &[]),
            ],
            rules: vec![
                crate::rule!("read-miss", E::ReadMiss, here).action(A::Grant { exclusive: false }),
                crate::rule!("write-miss", E::WriteMiss, here).action(A::Grant { exclusive: true }),
                crate::rule!("direct-read", E::DirectRead, here)
                    .action(A::Grant { exclusive: false }),
                crate::rule!("write-through", E::WriteThrough, here).action(A::WriteMemory),
                crate::rule!("eject-dirty", E::EjectDirty, here).action(A::WriteMemory),
            ],
        };
        Program::compile(table).expect("the shipped static-sw table compiles")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{DirSend, Directory, OpenKind};
    use crate::memory::MemoryImage;
    use crate::owner_set::OwnerSet;
    use twobit_types::{BlockAddr, CacheId, MemoryToCache, Version};

    fn classical() -> Directory {
        Directory::new(classical_program(), 4, 0)
    }

    fn null() -> Directory {
        Directory::new(null_program(), 4, 0)
    }

    fn blk(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    fn cid(n: usize) -> CacheId {
        CacheId::new(n)
    }

    #[test]
    fn classical_write_broadcasts_and_updates_memory() {
        let mut d = classical();
        let mem = MemoryImage::new();
        let s = d
            .open_step(
                cid(0),
                blk(1),
                OpenKind::WriteThrough(Version::new(4)),
                &mem,
            )
            .unwrap();
        assert!(s.completes);
        assert_eq!(s.write_memory, Some((blk(1), Version::new(4))));
        match &s.sends[0] {
            DirSend::Broadcast {
                cmd: MemoryToCache::BroadInv { exclude, .. },
                ..
            } => {
                assert_eq!(*exclude, cid(0));
            }
            other => panic!("expected broadcast invalidate, got {other:?}"),
        }
    }

    #[test]
    fn classical_read_miss_served_from_memory() {
        let mut d = classical();
        let mut mem = MemoryImage::new();
        mem.write(blk(2), Version::new(9));
        let s = d
            .open_step(cid(1), blk(2), OpenKind::ReadMiss, &mem)
            .unwrap();
        match &s.sends[0] {
            DirSend::Unicast {
                cmd:
                    MemoryToCache::GetData {
                        version, exclusive, ..
                    },
                ..
            } => {
                assert_eq!(*version, Version::new(9));
                assert!(!exclusive);
            }
            other => panic!("expected grant, got {other:?}"),
        }
    }

    #[test]
    fn classical_rejects_write_miss() {
        let mut d = classical();
        let mem = MemoryImage::new();
        let err = d
            .open_step(cid(0), blk(1), OpenKind::WriteMiss, &mem)
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("classical-wt: the table declares no write-miss"),
            "{err}"
        );
    }

    #[test]
    fn classical_consistency_forbids_dirty_copies() {
        let d = classical();
        let none = OwnerSet::new(4);
        let one = OwnerSet::singleton(4, cid(0));
        assert!(d.check_consistency(blk(0), &one, &none).is_ok());
        assert!(d.check_consistency(blk(0), &none, &one).is_err());
    }

    #[test]
    fn null_directory_serves_private_and_public_paths() {
        let mut d = null();
        let mem = MemoryImage::new();
        let s = d
            .open_step(cid(0), blk(1), OpenKind::WriteMiss, &mem)
            .unwrap();
        match &s.sends[0] {
            DirSend::Unicast {
                cmd: MemoryToCache::GetData { exclusive, .. },
                ..
            } => {
                assert!(*exclusive);
            }
            other => panic!("expected exclusive grant, got {other:?}"),
        }
        let s = d
            .open_step(cid(0), blk(2), OpenKind::DirectRead, &mem)
            .unwrap();
        assert_eq!(s.sends.len(), 1);
        let s = d
            .open_step(
                cid(0),
                blk(2),
                OpenKind::WriteThrough(Version::new(3)),
                &mem,
            )
            .unwrap();
        assert_eq!(s.write_memory, Some((blk(2), Version::new(3))));
        assert!(
            s.sends.is_empty(),
            "no coherence traffic in the static scheme"
        );
    }

    #[test]
    fn null_directory_absorbs_private_writebacks() {
        let mut d = null();
        let s = d.eject_dirty_step(cid(0), blk(7), Version::new(2)).unwrap();
        assert_eq!(s.write_memory, Some((blk(7), Version::new(2))));
    }
}
