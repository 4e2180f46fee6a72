//! Local line states for the snooping protocols.

use std::fmt;
use twobit_cache::LineMeta;

/// The union of the write-once and Illinois local state machines.
///
/// | state | write-once meaning | Illinois meaning |
/// |-------|--------------------|------------------|
/// | `Invalid` | invalid | invalid |
/// | `Shared` | "Valid": clean, possibly shared | Shared: clean, possibly shared |
/// | `Exclusive` | — (unused) | Exclusive: clean, sole copy |
/// | `Reserved` | written exactly once; memory current; sole copy | — (unused) |
/// | `Dirty` | modified ≥ twice; sole valid copy | Modified: sole valid copy |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SnoopState {
    /// Invalid.
    #[default]
    Invalid,
    /// Clean, possibly shared (write-once "Valid" / Illinois "Shared").
    Shared,
    /// Clean and guaranteed sole copy (Illinois only).
    Exclusive,
    /// Written exactly once, write-through kept memory current
    /// (write-once only). Sole copy; no write-back needed on eviction.
    Reserved,
    /// Modified; the only valid copy in the system.
    Dirty,
}

impl SnoopState {
    /// Whether a store may proceed without a bus transaction.
    #[must_use]
    pub fn writable_silently(self) -> bool {
        matches!(
            self,
            SnoopState::Exclusive | SnoopState::Reserved | SnoopState::Dirty
        )
    }
}

impl LineMeta for SnoopState {
    fn invalid() -> Self {
        SnoopState::Invalid
    }

    fn is_valid(self) -> bool {
        !matches!(self, SnoopState::Invalid)
    }

    fn is_dirty(self) -> bool {
        matches!(self, SnoopState::Dirty)
    }
}

impl fmt::Display for SnoopState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SnoopState::Invalid => "I",
            SnoopState::Shared => "S",
            SnoopState::Exclusive => "E",
            SnoopState::Reserved => "R",
            SnoopState::Dirty => "D",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_writability() {
        assert!(!SnoopState::Invalid.writable_silently());
        assert!(!SnoopState::Shared.writable_silently());
        assert!(SnoopState::Exclusive.writable_silently());
        assert!(SnoopState::Reserved.writable_silently());
        assert!(SnoopState::Dirty.writable_silently());
    }

    #[test]
    fn line_meta_semantics() {
        assert_eq!(<SnoopState as LineMeta>::invalid(), SnoopState::Invalid);
        assert!(LineMeta::is_valid(SnoopState::Reserved));
        assert!(
            !LineMeta::is_dirty(SnoopState::Reserved),
            "Reserved evicts without write-back"
        );
        assert!(LineMeta::is_dirty(SnoopState::Dirty));
    }
}
