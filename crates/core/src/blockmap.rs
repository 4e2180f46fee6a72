//! A paged map keyed by [`BlockAddr`], tuned for the directory hot path.
//!
//! Directory state (`states`, `waiting`), the memory image, and the
//! controller's transaction bookkeeping are all keyed by block address,
//! and the access pattern is dominated by short runs over a small working
//! set: the same handful of contended blocks probed on every command.
//! [`BlockMap`] exploits that by storing entries in 64-slot **pages**
//! (block number's low 6 bits index the slot) held in one arena `Vec`,
//! with a `HashMap` only from page number to arena position and a
//! one-entry hint remembering the last page touched. A repeat probe of a
//! recently-used region is then a compare plus two array indexes — no
//! hashing, no per-entry allocation — while memory stays proportional to
//! the touched address-space footprint, not its span.
//!
//! Iteration ([`BlockMap::iter`]) visits entries in ascending block
//! order, which lets fingerprinting feed entries straight into the hasher
//! without collecting and sorting first.

use std::cell::Cell;
use std::collections::HashMap;
use twobit_types::BlockAddr;

const PAGE_BITS: u32 = 6;
const PAGE_LEN: usize = 1 << PAGE_BITS;
/// Sentinel page number for the empty hint; unreachable, since real page
/// numbers are block numbers shifted right by [`PAGE_BITS`].
const NO_PAGE: u64 = u64::MAX;

#[derive(Debug, Clone)]
struct Page<T> {
    no: u64,
    occupied: u32,
    slots: [Option<T>; PAGE_LEN],
}

impl<T> Page<T> {
    fn new(no: u64) -> Self {
        Page {
            no,
            occupied: 0,
            slots: std::array::from_fn(|_| None),
        }
    }
}

/// A map from [`BlockAddr`] to `T` backed by a paged arena (see the
/// module docs).
#[derive(Debug, Clone)]
pub struct BlockMap<T> {
    /// Page number → position in `pages`. Pages are never removed, so
    /// positions are stable and the `hint` below can never dangle.
    index: HashMap<u64, u32>,
    pages: Vec<Page<T>>,
    /// `(page number, arena position)` of the last page touched; a `Cell`
    /// so read-only probes can refresh it.
    hint: Cell<(u64, u32)>,
    len: usize,
}

impl<T> Default for BlockMap<T> {
    fn default() -> Self {
        BlockMap {
            index: HashMap::new(),
            pages: Vec::new(),
            hint: Cell::new((NO_PAGE, 0)),
            len: 0,
        }
    }
}

fn split(a: BlockAddr) -> (u64, usize) {
    let n = a.number();
    (n >> PAGE_BITS, (n & (PAGE_LEN as u64 - 1)) as usize)
}

impl<T> BlockMap<T> {
    /// An empty map.
    #[must_use]
    pub fn new() -> Self {
        BlockMap::default()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map holds no entries (empty pages may remain
    /// allocated for reuse; they do not count).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn page_pos(&self, pno: u64) -> Option<u32> {
        let (hno, hpos) = self.hint.get();
        if hno == pno {
            return Some(hpos);
        }
        let pos = *self.index.get(&pno)?;
        self.hint.set((pno, pos));
        Some(pos)
    }

    /// The entry for block `a`, if present.
    #[must_use]
    pub fn get(&self, a: BlockAddr) -> Option<&T> {
        // A map nothing is in (the state map of a scheme that tracks no
        // state, a waiting map between recalls) answers without hashing.
        if self.len == 0 {
            return None;
        }
        let (pno, slot) = split(a);
        let pos = self.page_pos(pno)?;
        self.pages[pos as usize].slots[slot].as_ref()
    }

    /// Mutable access to the entry for block `a`, if present.
    pub fn get_mut(&mut self, a: BlockAddr) -> Option<&mut T> {
        let (pno, slot) = split(a);
        let pos = self.page_pos(pno)?;
        self.pages[pos as usize].slots[slot].as_mut()
    }

    /// Whether block `a` has an entry.
    #[must_use]
    pub fn contains_key(&self, a: BlockAddr) -> bool {
        self.get(a).is_some()
    }

    /// Inserts an entry for block `a`, returning the previous one.
    pub fn insert(&mut self, a: BlockAddr, value: T) -> Option<T> {
        let (pno, slot) = split(a);
        let pos = match self.page_pos(pno) {
            Some(pos) => pos as usize,
            None => {
                let pos = u32::try_from(self.pages.len()).expect("fewer than 2^32 pages");
                self.index.insert(pno, pos);
                self.pages.push(Page::new(pno));
                self.hint.set((pno, pos));
                pos as usize
            }
        };
        let old = self.pages[pos].slots[slot].replace(value);
        if old.is_none() {
            self.pages[pos].occupied += 1;
            self.len += 1;
        }
        old
    }

    /// Removes block `a`'s entry, returning it. The page stays allocated
    /// for reuse.
    pub fn remove(&mut self, a: BlockAddr) -> Option<T> {
        let (pno, slot) = split(a);
        let pos = self.page_pos(pno)? as usize;
        let old = self.pages[pos].slots[slot].take();
        if old.is_some() {
            self.pages[pos].occupied -= 1;
            self.len -= 1;
        }
        old
    }

    /// Iterates over entries in ascending block order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &T)> {
        let mut order: Vec<&Page<T>> = self.pages.iter().filter(|p| p.occupied > 0).collect();
        order.sort_unstable_by_key(|p| p.no);
        order.into_iter().flat_map(|page| {
            page.slots.iter().enumerate().filter_map(move |(s, slot)| {
                slot.as_ref()
                    .map(|v| (BlockAddr::new((page.no << PAGE_BITS) | s as u64), v))
            })
        })
    }
}

impl<T: PartialEq> PartialEq for BlockMap<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|(a, v)| other.get(a) == Some(v))
    }
}

impl<T: Eq> Eq for BlockMap<T> {}

/// A set of block addresses: [`BlockMap`] with unit values.
#[derive(Debug, Clone, Default)]
pub struct BlockSet {
    map: BlockMap<()>,
}

impl BlockSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        BlockSet::default()
    }

    /// Adds `a`; `true` if it was not already present.
    pub fn insert(&mut self, a: BlockAddr) -> bool {
        self.map.insert(a, ()).is_none()
    }

    /// Removes `a`; `true` if it was present.
    pub fn remove(&mut self, a: BlockAddr) -> bool {
        self.map.remove(a).is_some()
    }

    /// Whether `a` is in the set.
    #[must_use]
    pub fn contains(&self, a: BlockAddr) -> bool {
        self.map.contains_key(a)
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over members in ascending block order.
    pub fn iter(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.map.iter().map(|(a, ())| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = BlockMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(blk(5), "a"), None);
        assert_eq!(m.insert(blk(5), "b"), Some("a"));
        assert_eq!(m.get(blk(5)), Some(&"b"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(blk(5)), Some("b"));
        assert_eq!(m.remove(blk(5)), None);
        assert!(m.is_empty());
        assert_eq!(m.get(blk(5)), None);
    }

    #[test]
    fn entries_across_pages() {
        let mut m = BlockMap::new();
        // Same slot index on three different pages, plus neighbors.
        for n in [3u64, 64 + 3, 4096 + 3, 4096 + 4] {
            m.insert(blk(n), n);
        }
        assert_eq!(m.len(), 4);
        for n in [3u64, 64 + 3, 4096 + 3, 4096 + 4] {
            assert_eq!(m.get(blk(n)), Some(&n));
        }
        assert!(!m.contains_key(blk(64 + 4)));
    }

    #[test]
    fn iter_is_in_ascending_block_order() {
        let mut m = BlockMap::new();
        for n in [900u64, 1, 70, 65, 0, 8000] {
            m.insert(blk(n), ());
        }
        let keys: Vec<u64> = m.iter().map(|(a, ())| a.number()).collect();
        assert_eq!(keys, vec![0, 1, 65, 70, 900, 8000]);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut m = BlockMap::new();
        m.insert(blk(7), 1u32);
        *m.get_mut(blk(7)).unwrap() += 41;
        assert_eq!(m.get(blk(7)), Some(&42));
        assert!(m.get_mut(blk(8)).is_none());
    }

    #[test]
    fn hint_survives_interleaved_pages() {
        let mut m = BlockMap::new();
        m.insert(blk(0), 0u64);
        m.insert(blk(1000), 1);
        // Alternate pages so the hint is wrong on every probe.
        for _ in 0..10 {
            assert_eq!(m.get(blk(0)), Some(&0));
            assert_eq!(m.get(blk(1000)), Some(&1));
        }
    }

    #[test]
    fn equality_ignores_empty_pages_and_history() {
        let mut a = BlockMap::new();
        a.insert(blk(1), 1u8);
        a.insert(blk(999), 2);
        a.remove(blk(999)); // leaves an empty page behind
        let mut b = BlockMap::new();
        b.insert(blk(1), 1u8);
        assert_eq!(a, b);
        b.insert(blk(2), 3);
        assert_ne!(a, b);
    }

    #[test]
    fn set_semantics() {
        let mut s = BlockSet::new();
        assert!(s.insert(blk(3)));
        assert!(!s.insert(blk(3)), "duplicate insert reports absence");
        assert!(s.contains(blk(3)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(blk(3)));
        assert!(!s.remove(blk(3)));
        assert!(s.is_empty());
    }
}
