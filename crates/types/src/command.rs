//! The protocol command set of Table 3-1, plus the targeted commands the
//! full-map comparators need.
//!
//! The paper is unusually careful to separate the three loci of control —
//! processor–cache (`P_k`–`C_k`), cache–memory-controller (`C_k`–`K_j`),
//! and the data transfers on the interconnection network — and we keep
//! that separation in the type system:
//!
//! * [`ProcessorCmd`] — what a processor asks of its own cache
//!   (`LOAD`, `STORE`);
//! * [`CacheReply`] — what the cache answers (`VALIDHIT`);
//! * [`CacheToMemory`] — commands a cache sends a memory controller
//!   (`REQUEST`, `MREQUEST`, `EJECT`, and the `put` data transfer);
//! * [`MemoryToCache`] — commands a controller sends caches (`BROADINV`,
//!   `BROADQUERY`, `MGRANTED`, the `get` data transfer, and — for the
//!   full-map schemes only — targeted `INV`/`PURGE`);
//! * [`DataTransfer`] — the italicized data movements of Table 3-1, used
//!   for tracing and traffic accounting.
//!
//! `SETSTATE(a, st)` is internal to a controller (it updates the global
//! map) and is represented as a directory action in `twobit-core`, not as
//! a network command.

use crate::access::{AccessKind, WritebackKind};
use crate::addr::{BlockAddr, WordAddr};
use crate::ids::CacheId;
use crate::stats::CommandClass;
use std::fmt;

/// A processor request to its private cache: `LOAD(a,d)` or `STORE(a,d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessorCmd {
    /// `LOAD(a,d)`.
    Load(WordAddr),
    /// `STORE(a,d)`.
    Store(WordAddr),
}

impl ProcessorCmd {
    /// The word addressed by this command.
    #[must_use]
    pub fn addr(self) -> WordAddr {
        match self {
            ProcessorCmd::Load(a) | ProcessorCmd::Store(a) => a,
        }
    }

    /// Read/write classification.
    #[must_use]
    pub fn kind(self) -> AccessKind {
        match self {
            ProcessorCmd::Load(_) => AccessKind::Read,
            ProcessorCmd::Store(_) => AccessKind::Write,
        }
    }
}

impl fmt::Display for ProcessorCmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessorCmd::Load(a) => write!(f, "LOAD({a})"),
            ProcessorCmd::Store(a) => write!(f, "STORE({a})"),
        }
    }
}

/// The cache's acknowledgment of a processor command:
/// `VALIDHIT(a, h-or-m, b_k)`.
///
/// `hit == false` initiates the replacement protocol of section 3.2.1 for
/// the line at `way` before the miss can be serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheReply {
    /// The block addressed.
    pub a: BlockAddr,
    /// Whether the access hit (and could be satisfied locally).
    pub hit: bool,
    /// The paper's `b_k`: the cache position of the block (on a hit) or of
    /// the victim chosen for replacement (on a miss).
    pub way: u32,
}

impl fmt::Display for CacheReply {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VALIDHIT({}, {}, b={})",
            self.a,
            if self.hit { "hit" } else { "miss" },
            self.way
        )
    }
}

/// Commands sent from a cache `C_k` to a memory controller `K_j`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheToMemory {
    /// `REQUEST(k, a, rw)` — a miss on block `a`, read or write.
    Request {
        /// The requesting cache `k`.
        k: CacheId,
        /// The missed block `a`.
        a: BlockAddr,
        /// Read miss or write miss.
        rw: AccessKind,
    },
    /// `MREQUEST(k, a)` — write hit on a previously unmodified block:
    /// permission to modify is requested (section 3.2.4).
    ///
    /// Carries the requester's copy `version` so a controller without
    /// owner identities (the two-bit scheme) can detect a *stale*
    /// request — one whose copy an in-flight `BROADINV` has already
    /// invalidated. A clean copy's version always equals memory's unless
    /// it is stale, so `version == memory` is exactly "the requester
    /// still holds a current copy". This closes the crossing-window race
    /// the paper's section 3.2.5 leaves unresolved ("synchronization
    /// problems have not been completely resolved"); see DESIGN.md.
    MRequest {
        /// The requesting cache `k`.
        k: CacheId,
        /// The block to be modified.
        a: BlockAddr,
        /// The version of the requester's clean copy.
        version: crate::version::Version,
    },
    /// `EJECT(k, olda, wb)` — block `olda` is being replaced. A dirty eject
    /// is followed by a [`CacheToMemory::PutData`] carrying the block.
    Eject {
        /// The ejecting cache `k`.
        k: CacheId,
        /// The replaced block `olda`.
        olda: BlockAddr,
        /// Clean (advisory) or dirty (write-back follows).
        wb: WritebackKind,
    },
    /// The `put(b, a)` data transfer: a cache supplies block data to the
    /// controller, either as the write-back half of a dirty eject or in
    /// response to a `BROADQUERY`/`PURGE`.
    PutData {
        /// The supplying cache.
        from: CacheId,
        /// The block supplied.
        a: BlockAddr,
        /// Version tag of the data (the workspace-wide data-as-version
        /// model; see [`crate::version::Version`]).
        version: crate::version::Version,
    },
    /// A write sent straight to memory. Used by the classical
    /// write-through scheme of section 2.3 (every store updates memory and
    /// triggers a broadcast invalidation) and for stores to non-cached
    /// public blocks in the static software scheme of section 2.2.
    WriteThrough {
        /// The writing cache.
        k: CacheId,
        /// The block written.
        a: BlockAddr,
        /// The new data version.
        version: crate::version::Version,
    },
    /// A read served straight from memory without caching — loads of
    /// public blocks in the static software scheme ("on a cache miss to a
    /// public block, no loading in the cache takes place", section 2.2).
    DirectRead {
        /// The reading cache.
        k: CacheId,
        /// The block read.
        a: BlockAddr,
    },
}

impl CacheToMemory {
    /// The block this command concerns.
    #[must_use]
    pub fn block(self) -> BlockAddr {
        match self {
            CacheToMemory::Request { a, .. }
            | CacheToMemory::MRequest { a, .. }
            | CacheToMemory::PutData { a, .. }
            | CacheToMemory::WriteThrough { a, .. }
            | CacheToMemory::DirectRead { a, .. } => a,
            CacheToMemory::Eject { olda, .. } => olda,
        }
    }

    /// The cache that sent this command.
    #[must_use]
    pub fn sender(self) -> CacheId {
        match self {
            CacheToMemory::Request { k, .. }
            | CacheToMemory::MRequest { k, .. }
            | CacheToMemory::Eject { k, .. }
            | CacheToMemory::WriteThrough { k, .. }
            | CacheToMemory::DirectRead { k, .. } => k,
            CacheToMemory::PutData { from, .. } => from,
        }
    }

    /// The [`CommandClass`] of this command, for statistics and tracing.
    #[must_use]
    pub fn class(self) -> CommandClass {
        match self {
            CacheToMemory::Request { .. } => CommandClass::Request,
            CacheToMemory::MRequest { .. } => CommandClass::MRequest,
            CacheToMemory::Eject { .. } => CommandClass::Eject,
            CacheToMemory::PutData { .. } => CommandClass::PutData,
            CacheToMemory::WriteThrough { .. } => CommandClass::WriteThrough,
            CacheToMemory::DirectRead { .. } => CommandClass::DirectRead,
        }
    }
}

impl fmt::Display for CacheToMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheToMemory::Request { k, a, rw } => write!(f, "REQUEST({k}, {a}, {rw})"),
            CacheToMemory::MRequest { k, a, version } => {
                write!(f, "MREQUEST({k}, {a}, v{})", version.raw())
            }
            CacheToMemory::Eject { k, olda, wb } => write!(f, "EJECT({k}, {olda}, {wb})"),
            CacheToMemory::PutData { from, a, version } => {
                write!(f, "put({from}, {a}, v{})", version.raw())
            }
            CacheToMemory::WriteThrough { k, a, version } => {
                write!(f, "WRITETHRU({k}, {a}, v{})", version.raw())
            }
            CacheToMemory::DirectRead { k, a } => write!(f, "DIRECTREAD({k}, {a})"),
        }
    }
}

/// Commands sent from a memory controller `K_j` to caches.
///
/// The first four are the paper's two-bit commands; [`MemoryToCache::Inv`]
/// and [`MemoryToCache::Purge`] are the *targeted* equivalents that the
/// full-map schemes (sections 2.4.2–2.4.3) and the translation-buffer
/// enhancement (section 4.4) can send because they know the owners'
/// identities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryToCache {
    /// The `get(k, a)` data transfer: block data granted to cache `k`.
    GetData {
        /// The destination cache.
        k: CacheId,
        /// The block granted.
        a: BlockAddr,
        /// Version tag of the data.
        version: crate::version::Version,
        /// Whether write permission accompanies the data (write-miss grant).
        exclusive: bool,
    },
    /// `BROADINV(a, k)` — broadcast: every cache except `k` invalidates its
    /// copy of `a` if it has one. The paper stresses why the exclusion
    /// parameter is mandatory: "If it were not there cache k would
    /// invalidate the block it wants to modify!" (section 3.2.4).
    BroadInv {
        /// The block to invalidate.
        a: BlockAddr,
        /// The initiating cache, which must *not* invalidate.
        exclude: CacheId,
    },
    /// `BROADQUERY(a, rw)` — broadcast: the (unknown) owner of modified
    /// block `a` must supply the data with a `put`; on `rw == Read` it
    /// downgrades to clean, on `rw == Write` it invalidates
    /// (sections 3.2.2 case 2 and 3.2.3 case 3).
    BroadQuery {
        /// The block queried.
        a: BlockAddr,
        /// Whether the triggering miss was a read or a write.
        rw: AccessKind,
    },
    /// `MGRANTED(k, y-or-n)` — reply to `MREQUEST`: permission to modify
    /// granted or denied. A denial is only ever observed as the
    /// `BROADINV`-acts-as-`MGRANTED(false)` scenario of section 3.2.5, but
    /// the explicit negative form is kept for controllers that serialize.
    MGranted {
        /// The cache whose `MREQUEST` is being answered.
        k: CacheId,
        /// The block concerned.
        a: BlockAddr,
        /// Whether modification may proceed.
        granted: bool,
    },
    /// Targeted invalidate (full-map schemes / translation-buffer hit):
    /// only cache `to` processes it.
    Inv {
        /// The block to invalidate.
        a: BlockAddr,
        /// The single recipient.
        to: CacheId,
    },
    /// Targeted purge (full-map schemes / translation-buffer hit): cache
    /// `to` must supply the data for modified block `a`, then downgrade
    /// (`rw == Read`) or invalidate (`rw == Write`).
    Purge {
        /// The block to purge.
        a: BlockAddr,
        /// The single recipient — the known owner.
        to: CacheId,
        /// Downgrade (read) or invalidate (write).
        rw: AccessKind,
    },
}

impl MemoryToCache {
    /// The block this command concerns.
    #[must_use]
    pub fn block(self) -> BlockAddr {
        match self {
            MemoryToCache::GetData { a, .. }
            | MemoryToCache::BroadInv { a, .. }
            | MemoryToCache::BroadQuery { a, .. }
            | MemoryToCache::MGranted { a, .. }
            | MemoryToCache::Inv { a, .. }
            | MemoryToCache::Purge { a, .. } => a,
        }
    }

    /// The [`CommandClass`] of this command, for statistics and tracing.
    #[must_use]
    pub fn class(self) -> CommandClass {
        match self {
            MemoryToCache::GetData { .. } => CommandClass::GetData,
            MemoryToCache::BroadInv { .. } => CommandClass::BroadInv,
            MemoryToCache::BroadQuery { .. } => CommandClass::BroadQuery,
            MemoryToCache::MGranted { .. } => CommandClass::MGranted,
            MemoryToCache::Inv { .. } => CommandClass::Inv,
            MemoryToCache::Purge { .. } => CommandClass::Purge,
        }
    }
}

impl fmt::Display for MemoryToCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryToCache::GetData {
                k,
                a,
                version,
                exclusive,
            } => {
                write!(
                    f,
                    "get({k}, {a}, v{}{})",
                    version.raw(),
                    if *exclusive { ", excl" } else { "" }
                )
            }
            MemoryToCache::BroadInv { a, exclude } => write!(f, "BROADINV({a}, excl {exclude})"),
            MemoryToCache::BroadQuery { a, rw } => write!(f, "BROADQUERY({a}, {rw})"),
            MemoryToCache::MGranted { k, a, granted } => {
                write!(
                    f,
                    "MGRANTED({k}, {a}, {})",
                    if *granted { "yes" } else { "no" }
                )
            }
            MemoryToCache::Inv { a, to } => write!(f, "INV({a} -> {to})"),
            MemoryToCache::Purge { a, to, rw } => write!(f, "PURGE({a} -> {to}, {rw})"),
        }
    }
}

/// The italicized data movements of Table 3-1, for tracing and traffic
/// accounting. Control commands are one network "command" each; data
/// transfers move a whole block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataTransfer {
    /// `ld(a, b_k)` — cache supplies a word to its processor.
    Ld,
    /// `st(a, b_k)` — processor stores a word into its cache.
    St,
    /// `setmod(b_k)` — the cache sets the modified bit of line `b_k`.
    SetMod,
    /// `put(b, a)` — a block moves from a cache to a memory controller.
    Put,
    /// `get(k, a)` — a block moves from a memory controller to cache `k`.
    Get,
}

impl fmt::Display for DataTransfer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DataTransfer::Ld => "ld",
            DataTransfer::St => "st",
            DataTransfer::SetMod => "setmod",
            DataTransfer::Put => "put",
            DataTransfer::Get => "get",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Version;

    fn blk(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    #[test]
    fn processor_cmd_accessors() {
        let l = ProcessorCmd::Load(WordAddr::new(4, 1));
        let s = ProcessorCmd::Store(WordAddr::new(4, 1));
        assert_eq!(l.kind(), AccessKind::Read);
        assert_eq!(s.kind(), AccessKind::Write);
        assert_eq!(l.addr(), s.addr());
    }

    #[test]
    fn cache_to_memory_block_and_sender() {
        let k = CacheId::new(2);
        let cmds = [
            CacheToMemory::Request {
                k,
                a: blk(9),
                rw: AccessKind::Read,
            },
            CacheToMemory::MRequest {
                k,
                a: blk(9),
                version: Version::initial(),
            },
            CacheToMemory::Eject {
                k,
                olda: blk(9),
                wb: WritebackKind::Dirty,
            },
            CacheToMemory::PutData {
                from: k,
                a: blk(9),
                version: Version::initial(),
            },
        ];
        for c in cmds {
            assert_eq!(c.block(), blk(9), "{c}");
            assert_eq!(c.sender(), k, "{c}");
        }
    }

    #[test]
    fn displays_follow_table_3_1_spelling() {
        let k = CacheId::new(0);
        assert_eq!(
            CacheToMemory::Request {
                k,
                a: blk(16),
                rw: AccessKind::Read
            }
            .to_string(),
            "REQUEST(C0, blk:0x10, read)"
        );
        assert_eq!(
            MemoryToCache::BroadInv {
                a: blk(16),
                exclude: k
            }
            .to_string(),
            "BROADINV(blk:0x10, excl C0)"
        );
        assert_eq!(
            ProcessorCmd::Store(WordAddr::new(16, 2)).to_string(),
            "STORE(blk:0x10+2)"
        );
        assert_eq!(DataTransfer::SetMod.to_string(), "setmod");
    }

    #[test]
    fn command_classes_cover_both_directions() {
        let k = CacheId::new(0);
        assert_eq!(
            CacheToMemory::Request {
                k,
                a: blk(1),
                rw: AccessKind::Read
            }
            .class(),
            CommandClass::Request
        );
        assert_eq!(
            CacheToMemory::PutData {
                from: k,
                a: blk(1),
                version: Version::initial()
            }
            .class(),
            CommandClass::PutData
        );
        assert_eq!(
            MemoryToCache::BroadInv {
                a: blk(1),
                exclude: k
            }
            .class(),
            CommandClass::BroadInv
        );
        assert_eq!(
            MemoryToCache::GetData {
                k,
                a: blk(1),
                version: Version::initial(),
                exclusive: true
            }
            .class(),
            CommandClass::GetData
        );
    }

    #[test]
    fn cache_reply_display_shows_hit_or_miss() {
        let hit = CacheReply {
            a: blk(5),
            hit: true,
            way: 1,
        };
        let miss = CacheReply {
            a: blk(5),
            hit: false,
            way: 0,
        };
        assert!(hit.to_string().contains("hit"));
        assert!(miss.to_string().contains("miss"));
    }
}
