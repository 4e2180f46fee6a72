//! A paged map keyed by [`BlockAddr`] — the storage behind every
//! per-block table a memory module keeps.
//!
//! The paper's directory is a table *at the block's own module*, indexed
//! by the block's position in that module (section 3): two bits per
//! resident block, whatever the system size. Directory state (`states`,
//! `waiting`, `holders`), the memory image, and the controller's
//! transaction bookkeeping are all held that way here. A [`BlockMap`]
//! is built for the interleave factor `m` of the address map its owner
//! serves ([`AddressMap::stride`](twobit_types::AddressMap::stride); 1
//! for a blocked map or no map at all), and splits a block number `n`
//! into the residue `n % m` — the module, constant for everything one
//! module owns — and the module-local slot `n / m`
//! ([`AddressMap::slot_of`](twobit_types::AddressMap::slot_of)). Entries
//! live in 64-slot **pages** held in one arena `Vec`; a page gathers 64
//! *consecutive slots of one residue*:
//!
//! ```text
//! page  p = ((n / m) >> 6) * m + n % m        slot  s = (n / m) & 63
//! n = ((p / m) << 6 | s) * m + p % m
//! ```
//!
//! That is a bijection on every `u64` block number for every `m`, so a
//! block of another residue (a misrouted command off a socket) gets an
//! entry of its own and can never alias a neighbour's — which keying by
//! the bare slot would allow — it merely lands on a page of its own. At
//! `m = 1` the page is `n >> 6` and the slot `n & 63`, the layout this
//! map had before it knew about interleaving. Measured density: 4,096
//! consecutive blocks of one module under the default 8-way interleave
//! occupy 64 pages, 64 of 64 slots each; keyed by the global block
//! number they took 512 pages with 8 of 64 slots used, i.e. a whole
//! hardware cache line per written `Version`.
//!
//! Page number → arena position is a `HashMap` with a fixed
//! multiplicative hasher ([`FixedHasher`]) behind a one-entry hint
//! remembering the last page touched. Consecutive commands at a module
//! land on different pages, so the hint misses on nearly every probe and
//! the index lookup *is* the probe: one multiply, not a SipHash of the
//! page number. A sorted page table would do without a hasher, but costs
//! a dozen unpredictable branches where this costs one probe, and the
//! translation buffer needs the hasher anyway. The hasher is not keyed:
//! a peer that can name arbitrary blocks can make page numbers collide,
//! which slows lookups of the pages *it* created and nothing else — it
//! could always make the table that large.
//!
//! Iteration ([`BlockMap::iter`]) visits entries in ascending block
//! order whatever the map holds, which lets fingerprinting and
//! checkpoints feed entries straight out without collecting and sorting
//! first.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use twobit_types::BlockAddr;

const PAGE_BITS: u32 = 6;
const PAGE_LEN: usize = 1 << PAGE_BITS;
/// Sentinel page number for the empty hint; unreachable, since a page
/// number never exceeds the number of a block on it.
const NO_PAGE: u64 = u64::MAX;

/// The hasher of every map keyed by a block or page number on the hot
/// path: one widening multiplication by the 64-bit golden ratio, the
/// high half of the product folded onto the low, so that both ends of
/// the hash — the standard table takes its bucket index from the low
/// bits and its control byte from the top seven — depend on every bit of
/// the key.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FixedHasher(u64);

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`FixedHasher`].
pub(crate) type FixedHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FixedHasher>>;

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
    /// The interleave factor `m` the keys are split by; at least 1.
    stride: u64,
    /// Page number → position in `pages`. Pages are never removed, so
    /// positions are stable and the `hint` below can never dangle.
    index: FixedHashMap<u64, u32>,
    pages: Vec<Page<T>>,
    /// `(page number, arena position)` of the last page touched; a `Cell`
    /// so read-only probes can refresh it.
    hint: Cell<(u64, u32)>,
    len: usize,
}

impl<T> Default for BlockMap<T> {
    fn default() -> Self {
        BlockMap::with_stride(1)
    }
}

impl<T> BlockMap<T> {
    /// An empty map keyed by the global block number (stride 1).
    #[must_use]
    pub fn new() -> Self {
        BlockMap::default()
    }

    /// An empty map for the tables of one module of a `stride`-way
    /// interleaved memory (see the module docs). Any block may still be
    /// a key; the module's own are the ones stored densely.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn with_stride(stride: u64) -> Self {
        assert!(stride > 0, "an address map has at least one module");
        BlockMap {
            stride,
            index: FixedHashMap::default(),
            pages: Vec::new(),
            hint: Cell::new((NO_PAGE, 0)),
            len: 0,
        }
    }

    /// The interleave factor this map's keys are split by.
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
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

    /// Block `a`'s page number and slot within the page.
    fn split(&self, a: BlockAddr) -> (u64, usize) {
        let (local, residue) = (a.number() / self.stride, a.number() % self.stride);
        (
            (local >> PAGE_BITS) * self.stride + residue,
            (local & (PAGE_LEN as u64 - 1)) as usize,
        )
    }

    /// The inverse of [`BlockMap::split`].
    fn join(&self, page: u64, slot: usize) -> BlockAddr {
        let local = ((page / self.stride) << PAGE_BITS) | slot as u64;
        BlockAddr::new(local * self.stride + page % self.stride)
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
        let (pno, slot) = self.split(a);
        let pos = self.page_pos(pno)?;
        self.pages[pos as usize].slots[slot].as_ref()
    }

    /// Mutable access to the entry for block `a`, if present.
    pub fn get_mut(&mut self, a: BlockAddr) -> Option<&mut T> {
        let (pno, slot) = self.split(a);
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
        let (pno, slot) = self.split(a);
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
        let (pno, slot) = self.split(a);
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
        // Occupied pages in ascending order, each with its `no / m`. Pages
        // that differ in it cover disjoint ascending ranges. Pages that
        // share it are the same 64 slots of different residues (only a
        // map holding blocks of several modules has any) and interleave
        // slot by slot: `from..at` walks them for the current `slot`.
        let occupied = self.pages.iter().filter(|p| p.occupied > 0);
        let mut order: Vec<(u64, &Page<T>)> = occupied.map(|p| (p.no / self.stride, p)).collect();
        order.sort_unstable_by_key(|(_, p)| p.no);
        let (mut from, mut at, mut slot) = (0, 0, 0);
        std::iter::from_fn(move || loop {
            let group = order.get(from)?.0;
            match order.get(at).filter(|(g, _)| *g == group) {
                Some((_, page)) => {
                    at += 1;
                    if let Some(v) = &page.slots[slot] {
                        return Some((self.join(page.no, slot), v));
                    }
                }
                None if slot + 1 < PAGE_LEN => (at, slot) = (from, slot + 1),
                None => (from, slot) = (at, 0),
            }
        })
    }

    /// A copy of this map keyed for `stride`-way interleaving.
    #[must_use]
    pub fn keyed_by(&self, stride: u64) -> Self
    where
        T: Clone,
    {
        let mut map = BlockMap::with_stride(stride);
        for (a, v) in self.iter() {
            map.insert(a, v.clone());
        }
        map
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

    /// An empty set stored as [`BlockMap::with_stride`] stores a map.
    #[must_use]
    pub fn with_stride(stride: u64) -> Self {
        BlockSet {
            map: BlockMap::with_stride(stride),
        }
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

    /// Every page number of `m`, in allocation order.
    fn pages<T>(m: &BlockMap<T>) -> Vec<u64> {
        m.pages.iter().map(|p| p.no).collect()
    }

    #[test]
    fn equal_slots_of_different_residues_do_not_alias() {
        let map = twobit_types::AddressMap::interleaved(8);
        let (mine, misrouted) = (blk(8 * 5 + 1), blk(8 * 5 + 2));
        assert_eq!(map.slot_of(mine), map.slot_of(misrouted));
        let mut m = BlockMap::with_stride(map.stride());
        m.insert(mine, "mine");
        assert_eq!(m.get(misrouted), None);
        m.insert(misrouted, "misrouted");
        assert_eq!(m.get(mine), Some(&"mine"));
        assert_eq!(m.remove(misrouted), Some("misrouted"));
        assert_eq!(m.get(mine), Some(&"mine"));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn stride_one_pages_by_the_global_block_number() {
        let mut m = BlockMap::new();
        assert_eq!(m.stride(), 1);
        let blocks = [0u64, 64, 4096 + 3, (1 << 32) + 70, u64::MAX];
        for n in blocks {
            m.insert(blk(n), n);
        }
        m.insert(blk(63), 63); // page 0 again
        assert_eq!(pages(&m), blocks.map(|n| n >> PAGE_BITS));
    }

    #[test]
    fn a_modules_blocks_fill_their_pages() {
        // 4,096 consecutive blocks of module 3 of 8: 64 pages keyed by
        // the module-local slot, 512 keyed by the global block number.
        let of_module_3 = (0..4096u64).map(|slot| blk(slot * 8 + 3));
        let mut dense = BlockMap::with_stride(8);
        let mut sparse = BlockMap::new();
        for a in of_module_3.clone() {
            dense.insert(a, ());
            sparse.insert(a, ());
        }
        assert_eq!(pages(&dense).len(), 64);
        assert!(dense.pages.iter().all(|p| p.occupied == PAGE_LEN as u32));
        assert_eq!(pages(&sparse).len(), 512);
        assert!(dense.iter().map(|(a, ())| a).eq(of_module_3));
        assert_eq!(dense, sparse, "the same content either way");
    }

    #[test]
    fn iter_merges_residues_into_ascending_block_order() {
        let mut m = BlockMap::with_stride(3);
        // Three residues across two page groups, inserted out of order.
        let mut blocks = [200u64, 1, 0, 192, 5, 3 * 64 + 1, 2, 191, 4];
        for n in blocks {
            m.insert(blk(n), n);
        }
        blocks.sort_unstable();
        let got: Vec<(u64, u64)> = m.iter().map(|(a, &v)| (a.number(), v)).collect();
        assert_eq!(got, blocks.map(|n| (n, n)));
        assert_eq!(m.keyed_by(1), m);
        assert!(m.keyed_by(8).iter().map(|(a, _)| a.number()).eq(blocks));
    }

    #[test]
    fn fixed_hasher_spreads_consecutive_and_aligned_keys() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let hash = |n: u64| BuildHasherDefault::<FixedHasher>::default().hash_one(n);
        // Keys that are not one `u64` go through `write`: every byte counts.
        let hash_str = |s: &str| BuildHasherDefault::<FixedHasher>::default().hash_one(s);
        assert_ne!(hash_str("ab"), hash_str("bb"));
        // The standard table indexes buckets by the low bits and tags
        // entries by the top seven: neither may be constant over page
        // numbers that are consecutive or share their low bits.
        for step in [1u64, 64, 1 << 20] {
            let low: std::collections::HashSet<u64> =
                (0..64).map(|i| hash(i * step) & 63).collect();
            let top: std::collections::HashSet<u64> =
                (0..64).map(|i| hash(i * step) >> 57).collect();
            assert!(
                low.len() > 32 && top.len() > 32,
                "step {step}: {low:?} {top:?}"
            );
        }
    }
}
