//! A memory module's storage, in the data-as-version model.

use crate::blockmap::BlockMap;
use twobit_types::{BlockAddr, Version};

/// The block storage of one memory module (`M_j` in Figure 3-1).
///
/// Blocks never written still hold their initial image
/// ([`Version::initial`]); only written blocks occupy space. Storage is a
/// [`BlockMap`] keyed for the module's place in the address map, so the
/// blocks a module owns sit 64 to a page and the `read` on every
/// memory-sourced grant is one multiplicative hash of the page number
/// (none when it repeats the last page touched) and two array indexes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryImage {
    blocks: BlockMap<Version>,
}

impl MemoryImage {
    /// An all-initial memory image, stored by global block number.
    #[must_use]
    pub fn new() -> Self {
        MemoryImage::default()
    }

    /// This image stored for one module of a `stride`-way interleaved
    /// memory ([`BlockMap::with_stride`]); the content is the same.
    #[must_use]
    pub fn keyed_by(&self, stride: u64) -> Self {
        MemoryImage {
            blocks: self.blocks.keyed_by(stride),
        }
    }

    /// The current content (version) of block `a`.
    #[must_use]
    pub fn read(&self, a: BlockAddr) -> Version {
        self.blocks.get(a).copied().unwrap_or_else(Version::initial)
    }

    /// Overwrites block `a` (a write-back or write-through landing).
    pub fn write(&mut self, a: BlockAddr, version: Version) {
        self.blocks.insert(a, version);
    }

    /// Iterates over blocks that have ever been written, in ascending
    /// block order.
    pub fn written_blocks(&self) -> impl Iterator<Item = (BlockAddr, Version)> + '_ {
        self.blocks.iter().map(|(a, &v)| (a, v))
    }

    /// Number of blocks ever written.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` if nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_initial() {
        let m = MemoryImage::new();
        assert_eq!(m.read(BlockAddr::new(99)), Version::initial());
        assert!(m.is_empty());
    }

    #[test]
    fn write_then_read() {
        let mut m = MemoryImage::new();
        m.write(BlockAddr::new(1), Version::new(5));
        assert_eq!(m.read(BlockAddr::new(1)), Version::new(5));
        m.write(BlockAddr::new(1), Version::new(7));
        assert_eq!(m.read(BlockAddr::new(1)), Version::new(7));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn written_blocks_enumerates() {
        let mut m = MemoryImage::new();
        m.write(BlockAddr::new(1), Version::new(2));
        m.write(BlockAddr::new(3), Version::new(4));
        let got: Vec<_> = m
            .written_blocks()
            .map(|(a, v)| (a.number(), v.raw()))
            .collect();
        assert_eq!(got, vec![(1, 2), (3, 4)], "ascending block order");
    }
}
