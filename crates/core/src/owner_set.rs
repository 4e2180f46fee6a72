//! A compact set of cache identities — the "vector of bits with one
//! bit/cache" of the full-map scheme (section 2.4.2).

use std::fmt;
use twobit_types::CacheId;

/// A bit set over cache ids, sized at construction (the full map's fixed
/// design-time width — exactly the expansibility limitation the paper
/// criticizes; the two-bit scheme's whole point is to avoid carrying one
/// of these per block).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OwnerSet {
    words: Vec<u64>,
    capacity: usize,
}

impl OwnerSet {
    /// An empty set able to hold ids `0..capacity`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        OwnerSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// A singleton set.
    #[must_use]
    pub fn singleton(capacity: usize, id: CacheId) -> Self {
        let mut s = OwnerSet::new(capacity);
        s.insert(id);
        s
    }

    /// Maximum id capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Adds `id`; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds the capacity — the full map physically
    /// cannot represent a cache beyond its design width.
    pub fn insert(&mut self, id: CacheId) -> bool {
        let i = id.index();
        assert!(
            i < self.capacity,
            "cache {id} exceeds map width {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let newly = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        newly
    }

    /// Removes `id`; returns whether it was present. Ids beyond capacity
    /// are trivially absent.
    pub fn remove(&mut self, id: CacheId) -> bool {
        let i = id.index();
        if i >= self.capacity {
            return false;
        }
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    #[must_use]
    pub fn contains(&self, id: CacheId) -> bool {
        let i = id.index();
        i < self.capacity && self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The sole member, if the set is a singleton.
    #[must_use]
    pub fn sole_member(&self) -> Option<CacheId> {
        if self.len() == 1 {
            self.iter().next()
        } else {
            None
        }
    }

    /// Iterates members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = CacheId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| {
                if w & (1u64 << b) != 0 {
                    Some(CacheId::new(wi * 64 + b))
                } else {
                    None
                }
            })
        })
    }
}

impl fmt::Display for OwnerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, id) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}}")
    }
}

impl Extend<CacheId> for OwnerSet {
    /// Inserts every id; panics like [`OwnerSet::insert`] beyond capacity.
    fn extend<I: IntoIterator<Item = CacheId>>(&mut self, iter: I) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl FromIterator<CacheId> for OwnerSet {
    /// Collects ids into a set sized to the largest id seen.
    fn from_iter<I: IntoIterator<Item = CacheId>>(iter: I) -> Self {
        let ids: Vec<CacheId> = iter.into_iter().collect();
        let cap = ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
        let mut s = OwnerSet::new(cap);
        s.extend(ids);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set() {
        let s = OwnerSet::new(16);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert!(!s.contains(CacheId::new(3)));
        assert_eq!(s.sole_member(), None);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = OwnerSet::new(100);
        assert!(s.insert(CacheId::new(70)));
        assert!(!s.insert(CacheId::new(70)), "double insert reports not-new");
        assert!(s.contains(CacheId::new(70)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(CacheId::new(70)));
        assert!(!s.remove(CacheId::new(70)));
        assert!(s.is_empty());
    }

    #[test]
    fn sole_member_detection() {
        let mut s = OwnerSet::new(8);
        s.insert(CacheId::new(5));
        assert_eq!(s.sole_member(), Some(CacheId::new(5)));
        s.insert(CacheId::new(2));
        assert_eq!(s.sole_member(), None);
    }

    #[test]
    fn iter_in_order_across_words() {
        let mut s = OwnerSet::new(130);
        for i in [128usize, 0, 65] {
            s.insert(CacheId::new(i));
        }
        let got: Vec<usize> = s.iter().map(CacheId::index).collect();
        assert_eq!(got, vec![0, 65, 128]);
    }

    #[test]
    #[should_panic(expected = "exceeds map width")]
    fn insert_beyond_capacity_panics() {
        let mut s = OwnerSet::new(4);
        s.insert(CacheId::new(4));
    }

    #[test]
    fn singleton_and_clear() {
        let mut s = OwnerSet::singleton(8, CacheId::new(1));
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn from_iterator_sizes_to_contents() {
        let s: OwnerSet = [CacheId::new(2), CacheId::new(9)].into_iter().collect();
        assert!(s.contains(CacheId::new(9)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.to_string(), "{C2,C9}");
    }
}
