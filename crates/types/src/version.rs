//! The data-as-version model used throughout the workspace.
//!
//! Simulating actual block contents would add bulk without adding
//! information: for coherence checking all that matters is *which write* a
//! read observes. Every block's data is therefore modeled as a
//! monotonically increasing [`Version`]: each store to a block produces a
//! fresh version, and the coherence invariant of section 1 ("a read access
//! to any block always returns the most recently written value of that
//! block") becomes "a read observes the latest version".

use std::fmt;

/// A version tag standing in for a block's data contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(u64);

impl Version {
    /// The version of a block that has never been written (its initial
    /// memory image).
    #[must_use]
    pub fn initial() -> Self {
        Version(0)
    }

    /// Creates a version from a raw counter.
    #[must_use]
    pub fn new(raw: u64) -> Self {
        Version(raw)
    }

    /// The raw counter value.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The version produced by one more store.
    #[must_use]
    pub fn bump(self) -> Self {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_is_zero_and_default() {
        assert_eq!(Version::initial().raw(), 0);
        assert_eq!(Version::default(), Version::initial());
    }

    #[test]
    fn bump_is_strictly_increasing() {
        let v = Version::initial();
        assert!(v.bump() > v);
        assert_eq!(v.bump().bump().raw(), 2);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Version::new(7).to_string(), "v7");
    }
}
