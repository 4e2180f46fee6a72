//! Identities of the hardware loci of control in Figure 3-1.
//!
//! The paper's system consists of `n` processor–cache pairs
//! (`P_k`–`C_k`, identified here by [`CacheId`]) and `m`
//! controller–memory-storage modules (`K_j`–`M_j`, identified by
//! [`ModuleId`]), connected by an interconnection network. [`TxnId`]
//! identifies an in-flight controller transaction (the paper's
//! "multiprogrammed controller" processes several block requests
//! simultaneously; each gets a transaction id).

use std::fmt;

/// Identity of a processor–cache pair (the paper's index `k` or `i`).
///
/// The id doubles as an index into per-cache arrays in the simulator, so it
/// is a dense small integer.
///
/// ```
/// use twobit_types::CacheId;
/// let k = CacheId::new(5);
/// assert_eq!(k.index(), 5);
/// assert_eq!(k.to_string(), "C5");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheId(u16);

impl CacheId {
    /// Creates a cache id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 16 bits (systems of interest in the
    /// paper have at most 64 caches).
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(
            index <= u16::MAX as usize,
            "cache index out of range: {index}"
        );
        CacheId(index as u16)
    }

    /// The dense index of this cache, for array addressing.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over the ids of all caches in a system of `n` caches.
    ///
    /// ```
    /// use twobit_types::CacheId;
    /// let ids: Vec<_> = CacheId::all(3).collect();
    /// assert_eq!(ids, vec![CacheId::new(0), CacheId::new(1), CacheId::new(2)]);
    /// ```
    pub fn all(n: usize) -> impl Iterator<Item = CacheId> {
        (0..n).map(CacheId::new)
    }
}

impl fmt::Display for CacheId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_tagged::<10>(f, "C", self.0.into())
    }
}

impl From<CacheId> for usize {
    fn from(id: CacheId) -> usize {
        id.index()
    }
}

/// Identity of a controller–memory module pair (the paper's `K_j`–`M_j`).
///
/// Each module's controller owns the directory entries ("bit map") for
/// exactly the blocks stored in that module, as in the distributed full map
/// of section 2.4.2 and the two-bit map of section 3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModuleId(u16);

impl ModuleId {
    /// Creates a module id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in 16 bits.
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(
            index <= u16::MAX as usize,
            "module index out of range: {index}"
        );
        ModuleId(index as u16)
    }

    /// The dense index of this module, for array addressing.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Iterates over the ids of all modules in a system of `m` modules.
    pub fn all(m: usize) -> impl Iterator<Item = ModuleId> {
        (0..m).map(ModuleId::new)
    }
}

impl fmt::Display for ModuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_tagged::<10>(f, "M", self.0.into())
    }
}

impl From<ModuleId> for usize {
    fn from(id: ModuleId) -> usize {
        id.index()
    }
}

/// Identity of an in-flight memory-controller transaction.
///
/// Section 3.2.5 requires the controller to "treat commands related to a
/// given block only one at a time" while possibly multiprogramming across
/// blocks; a transaction id names one such activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(u64);

impl TxnId {
    /// Creates a transaction id from a raw counter value.
    #[must_use]
    pub fn new(raw: u64) -> Self {
        TxnId(raw)
    }

    /// The raw counter value.
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The next transaction id after this one.
    #[must_use]
    pub fn next(self) -> Self {
        TxnId(self.0 + 1)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_tagged::<10>(f, "txn", self.0)
    }
}

/// Writes `tag` and then `n` in base `RADIX` (lowercase digits) as one
/// `write_str` from a stack buffer: the `Display` of an id or address is
/// on every trace line, and a nested `write!` would take it through
/// `fmt`'s argument machinery and integer padding.
pub(crate) fn write_tagged<const RADIX: u64>(
    f: &mut fmt::Formatter<'_>,
    tag: &str,
    mut n: u64,
) -> fmt::Result {
    // The longest tag here is `blk:0x`; a `u64` has at most 20 digits.
    let mut buf = [0u8; 32];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b"0123456789abcdef"[(n % RADIX) as usize];
        n /= RADIX;
        if n == 0 {
            break;
        }
    }
    at -= tag.len();
    buf[at..at + tag.len()].copy_from_slice(tag.as_bytes());
    f.write_str(std::str::from_utf8(&buf[at..]).expect("a tag and ASCII digits"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_id_roundtrip() {
        for i in [0usize, 1, 7, 63, 65535] {
            assert_eq!(CacheId::new(i).index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "cache index out of range")]
    fn cache_id_rejects_oversized_index() {
        let _ = CacheId::new(65536);
    }

    #[test]
    fn cache_id_ordering_matches_index_ordering() {
        assert!(CacheId::new(1) < CacheId::new(2));
        assert!(CacheId::new(0) < CacheId::new(65535));
    }

    #[test]
    fn module_id_roundtrip_and_display() {
        let m = ModuleId::new(9);
        assert_eq!(m.index(), 9);
        assert_eq!(m.to_string(), "M9");
    }

    #[test]
    fn all_enumerates_dense_ids() {
        assert_eq!(CacheId::all(0).count(), 0);
        assert_eq!(CacheId::all(64).count(), 64);
        assert_eq!(ModuleId::all(4).last(), Some(ModuleId::new(3)));
    }

    #[test]
    fn txn_id_next_increments() {
        let t = TxnId::new(41);
        assert_eq!(t.next().raw(), 42);
        assert_eq!(t.to_string(), "txn41");
    }

    #[test]
    fn ids_display_their_extremes() {
        assert_eq!(CacheId::new(0).to_string(), "C0");
        assert_eq!(CacheId::new(65535).to_string(), "C65535");
        assert_eq!(ModuleId::new(10).to_string(), "M10");
        assert_eq!(TxnId::new(u64::MAX).to_string(), "txn18446744073709551615");
    }

    #[test]
    fn ids_convert_to_usize() {
        assert_eq!(usize::from(CacheId::new(3)), 3);
        assert_eq!(usize::from(ModuleId::new(2)), 2);
    }
}
