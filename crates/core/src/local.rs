//! Local (per-cache-line) states used by the directory protocols.
//!
//! The paper's caches keep a valid bit and a modified bit (three
//! meaningful states). The Yen–Fu extension of section 2.4.3 adds a fourth
//! local state — "the only copy of an unmodified block" — so writes to
//! unshared blocks can proceed without consulting the global map. One enum
//! covers both: protocols that don't use [`LocalState::Exclusive`] simply
//! never produce it.

use std::fmt;
use twobit_cache::LineMeta;
use twobit_types::LineState;

/// Local state of a line under a directory protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocalState {
    /// Valid bit off.
    #[default]
    Invalid,
    /// Valid, unmodified, possibly cached elsewhere too (the plain "valid
    /// + not modified" of the two-bit and full-map schemes).
    Shared,
    /// Valid, unmodified, and guaranteed to be the only cached copy — the
    /// added local state of section 2.4.3. A write may upgrade this to
    /// [`LocalState::Dirty`] without a directory transaction.
    Exclusive,
    /// Valid and modified: the only up-to-date copy.
    Dirty,
}

impl LocalState {
    /// Whether a processor may write this line without a directory
    /// transaction.
    #[must_use]
    pub fn writable_silently(self) -> bool {
        matches!(self, LocalState::Exclusive | LocalState::Dirty)
    }

    /// Projects onto the paper's two-bit local encoding (valid/modified):
    /// `Exclusive` is just a valid unmodified line as far as those bits go.
    #[must_use]
    pub fn as_line_state(self) -> LineState {
        match self {
            LocalState::Invalid => LineState::Invalid,
            LocalState::Shared | LocalState::Exclusive => LineState::Clean,
            LocalState::Dirty => LineState::Dirty,
        }
    }
}

impl LineMeta for LocalState {
    fn invalid() -> Self {
        LocalState::Invalid
    }

    fn is_valid(self) -> bool {
        !matches!(self, LocalState::Invalid)
    }

    fn is_dirty(self) -> bool {
        matches!(self, LocalState::Dirty)
    }
}

impl fmt::Display for LocalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LocalState::Invalid => "I",
            LocalState::Shared => "S",
            LocalState::Exclusive => "E",
            LocalState::Dirty => "D",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_write_permission() {
        assert!(!LocalState::Invalid.writable_silently());
        assert!(!LocalState::Shared.writable_silently());
        assert!(LocalState::Exclusive.writable_silently());
        assert!(LocalState::Dirty.writable_silently());
    }

    #[test]
    fn projection_to_valid_modified_bits() {
        assert_eq!(LocalState::Invalid.as_line_state(), LineState::Invalid);
        assert_eq!(LocalState::Shared.as_line_state(), LineState::Clean);
        assert_eq!(LocalState::Exclusive.as_line_state(), LineState::Clean);
        assert_eq!(LocalState::Dirty.as_line_state(), LineState::Dirty);
    }

    #[test]
    fn line_meta_impl() {
        assert_eq!(<LocalState as LineMeta>::invalid(), LocalState::Invalid);
        assert!(LineMeta::is_valid(LocalState::Exclusive));
        assert!(!LineMeta::is_dirty(LocalState::Exclusive));
        assert!(LineMeta::is_dirty(LocalState::Dirty));
    }
}
