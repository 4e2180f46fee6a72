//! Protocol states: the two-bit global states of section 3.1 and the local
//! (per-cache-line) valid/modified states.

use std::fmt;

/// The four global states of the two-bit directory scheme (section 3.1).
///
/// "Since there are exactly four possible states for a block, we can encode
/// the information in two bits." The encoding chosen by [`bits`] /
/// [`from_bits`] is arbitrary but stable.
///
/// Note the deliberate anomaly the paper calls out: [`Present1`] is
/// *subsumed* by [`PresentStar`] ("Present\*" means "present in **0 or
/// more** caches in read-only mode"). Keeping the finer `Present1` state is
/// purely an optimization: it lets a lone reader upgrade to modified
/// without a broadcast (`MGRANTED(k,true)`, section 3.2.4 case 1) and lets
/// a lone clean eject transition back to `Absent` (section 3.2.1 note).
///
/// ```
/// use twobit_types::GlobalState;
/// for s in GlobalState::ALL {
///     assert_eq!(GlobalState::from_bits(s.bits()), Some(s));
/// }
/// ```
///
/// [`bits`]: GlobalState::bits
/// [`from_bits`]: GlobalState::from_bits
/// [`Present1`]: GlobalState::Present1
/// [`PresentStar`]: GlobalState::PresentStar
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GlobalState {
    /// Not present in any cache.
    #[default]
    Absent,
    /// Present in exactly one cache, in read-only mode.
    Present1,
    /// Present in **zero or more** caches, in read-only mode (the
    /// conservative state: the directory may not know copies have been
    /// silently replaced).
    PresentStar,
    /// Present in exactly one cache, modified (main memory is stale).
    PresentM,
}

impl GlobalState {
    /// All four states, in encoding order.
    pub const ALL: [GlobalState; 4] = [
        GlobalState::Absent,
        GlobalState::Present1,
        GlobalState::PresentStar,
        GlobalState::PresentM,
    ];

    /// The two-bit encoding of this state.
    #[must_use]
    pub fn bits(self) -> u8 {
        match self {
            GlobalState::Absent => 0b00,
            GlobalState::Present1 => 0b01,
            GlobalState::PresentStar => 0b10,
            GlobalState::PresentM => 0b11,
        }
    }

    /// Decodes a two-bit encoding; `None` if `bits > 0b11`.
    #[must_use]
    pub fn from_bits(bits: u8) -> Option<Self> {
        match bits {
            0b00 => Some(GlobalState::Absent),
            0b01 => Some(GlobalState::Present1),
            0b10 => Some(GlobalState::PresentStar),
            0b11 => Some(GlobalState::PresentM),
            _ => None,
        }
    }

    /// Whether `actual_copies` clean copies and `actual_dirty` dirty copies
    /// are *consistent* with this (possibly conservative) directory state.
    ///
    /// This is the conservatism invariant of DESIGN.md: the two-bit map
    /// never under-approximates the set of holders.
    #[must_use]
    pub fn admits(self, actual_clean: usize, actual_dirty: usize) -> bool {
        match self {
            GlobalState::Absent => actual_clean == 0 && actual_dirty == 0,
            GlobalState::Present1 => actual_clean <= 1 && actual_dirty == 0,
            GlobalState::PresentStar => actual_dirty == 0,
            GlobalState::PresentM => actual_clean == 0 && actual_dirty == 1,
        }
    }
}

impl fmt::Display for GlobalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GlobalState::Absent => "Absent",
            GlobalState::Present1 => "Present1",
            GlobalState::PresentStar => "Present*",
            GlobalState::PresentM => "PresentM",
        })
    }
}

/// Local state of a cache line: the valid and modified bits every cache
/// keeps per block ("each cache keeps its usual local information, that is,
/// a valid bit and a modified bit for each block", section 2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LineState {
    /// Valid bit off.
    #[default]
    Invalid,
    /// Valid bit on, modified bit off: a read-only copy, consistent with
    /// main memory.
    Clean,
    /// Valid and modified: the only up-to-date copy in the system.
    Dirty,
}

impl LineState {
    /// The valid bit.
    #[must_use]
    pub fn is_valid(self) -> bool {
        !matches!(self, LineState::Invalid)
    }

    /// The modified bit.
    #[must_use]
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::Dirty)
    }

    /// Constructs the state from explicit valid/modified bits.
    ///
    /// An invalid-but-modified combination is meaningless; `modified` is
    /// ignored when `valid` is false, matching hardware where the modified
    /// bit of an invalid line is don't-care.
    #[must_use]
    pub fn from_bits(valid: bool, modified: bool) -> Self {
        match (valid, modified) {
            (false, _) => LineState::Invalid,
            (true, false) => LineState::Clean,
            (true, true) => LineState::Dirty,
        }
    }
}

impl fmt::Display for LineState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LineState::Invalid => "Invalid",
            LineState::Clean => "Clean",
            LineState::Dirty => "Dirty",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_state_bits_roundtrip() {
        for s in GlobalState::ALL {
            assert_eq!(GlobalState::from_bits(s.bits()), Some(s));
        }
        assert_eq!(GlobalState::from_bits(4), None);
        assert_eq!(GlobalState::from_bits(255), None);
    }

    #[test]
    fn encoding_fits_two_bits() {
        for s in GlobalState::ALL {
            assert!(s.bits() <= 0b11, "state {s} does not fit in two bits");
        }
    }

    #[test]
    fn default_states_are_empty() {
        assert_eq!(GlobalState::default(), GlobalState::Absent);
        assert_eq!(LineState::default(), LineState::Invalid);
    }

    #[test]
    fn admits_encodes_conservatism() {
        // Absent admits nothing.
        assert!(GlobalState::Absent.admits(0, 0));
        assert!(!GlobalState::Absent.admits(1, 0));
        // Present1 admits zero or one clean copy (a silent eject may have
        // happened? no — Present1 transitions to Absent on eject, but the
        // eject message may be in flight, so zero copies is admissible).
        assert!(GlobalState::Present1.admits(0, 0));
        assert!(GlobalState::Present1.admits(1, 0));
        assert!(!GlobalState::Present1.admits(2, 0));
        assert!(!GlobalState::Present1.admits(0, 1));
        // Present* is the catch-all for any number of clean copies.
        assert!(GlobalState::PresentStar.admits(0, 0));
        assert!(GlobalState::PresentStar.admits(17, 0));
        assert!(!GlobalState::PresentStar.admits(0, 1));
        // PresentM requires exactly one dirty copy and no clean ones.
        assert!(GlobalState::PresentM.admits(0, 1));
        assert!(!GlobalState::PresentM.admits(1, 1));
        assert!(!GlobalState::PresentM.admits(0, 0));
        assert!(!GlobalState::PresentM.admits(0, 2));
    }

    #[test]
    fn line_state_bit_semantics() {
        assert_eq!(LineState::from_bits(false, false), LineState::Invalid);
        assert_eq!(LineState::from_bits(false, true), LineState::Invalid);
        assert_eq!(LineState::from_bits(true, false), LineState::Clean);
        assert_eq!(LineState::from_bits(true, true), LineState::Dirty);
        assert!(LineState::Dirty.is_valid() && LineState::Dirty.is_dirty());
        assert!(LineState::Clean.is_valid() && !LineState::Clean.is_dirty());
        assert!(!LineState::Invalid.is_valid());
    }

    #[test]
    fn displays_match_paper_names() {
        assert_eq!(GlobalState::PresentStar.to_string(), "Present*");
        assert_eq!(GlobalState::PresentM.to_string(), "PresentM");
        assert_eq!(LineState::Dirty.to_string(), "Dirty");
    }
}
