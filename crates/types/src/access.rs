//! Memory-access vocabulary: read/write kinds and reference records.

use crate::addr::WordAddr;
use std::fmt;

/// Whether an access (or a request carrying one) reads or writes.
///
/// This is the paper's `rw` parameter on `REQUEST(k,a,rw)` and
/// `BROADQUERY(a,rw)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load (`LOAD(a,d)`).
    Read,
    /// A store (`STORE(a,d)`).
    Write,
}

impl AccessKind {
    /// `true` for [`AccessKind::Write`].
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }

    /// `true` for [`AccessKind::Read`].
    #[must_use]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        })
    }
}

/// The disposition of a replaced block, carried by `EJECT(k, olda, wb)`.
///
/// Section 3.2.1 distinguishes ejecting a clean block (global state may
/// shrink from `Present1` to `Absent`; no data moves) from ejecting a dirty
/// block (data must be written back).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WritebackKind {
    /// The ejected block was valid and unmodified; the paper's
    /// `EJECT(k,olda,"read")`. Purely advisory — may be dropped without
    /// violating correctness (section 3.2.1 note), at the cost of extra
    /// broadcasts later.
    Clean,
    /// The ejected block was valid and modified; the paper's
    /// `EJECT(k,olda,"write")`, followed by a `put` of the data.
    Dirty,
}

impl fmt::Display for WritebackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            WritebackKind::Clean => "clean",
            WritebackKind::Dirty => "dirty",
        })
    }
}

/// One memory reference issued by a processor: the unit of workload.
///
/// ```
/// use twobit_types::{AccessKind, MemRef, WordAddr};
/// let r = MemRef::read(WordAddr::new(0x10, 2));
/// assert!(r.kind.is_read());
/// assert_eq!(r.addr.block.number(), 0x10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// The word addressed.
    pub addr: WordAddr,
    /// Load or store.
    pub kind: AccessKind,
}

impl MemRef {
    /// A load of `addr`.
    #[must_use]
    pub fn read(addr: WordAddr) -> Self {
        MemRef {
            addr,
            kind: AccessKind::Read,
        }
    }

    /// A store to `addr`.
    #[must_use]
    pub fn write(addr: WordAddr) -> Self {
        MemRef {
            addr,
            kind: AccessKind::Write,
        }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_predicates_are_exclusive() {
        assert!(AccessKind::Read.is_read() && !AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write() && !AccessKind::Write.is_read());
    }

    #[test]
    fn mem_ref_constructors_set_kind() {
        let w = WordAddr::new(7, 0);
        assert_eq!(MemRef::read(w).kind, AccessKind::Read);
        assert_eq!(MemRef::write(w).kind, AccessKind::Write);
    }

    #[test]
    fn displays_are_stable() {
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(WritebackKind::Dirty.to_string(), "dirty");
        assert_eq!(
            MemRef::write(WordAddr::new(1, 2)).to_string(),
            "write blk:0x1+2"
        );
    }
}
