//! Block and word addresses, and the mapping of blocks onto memory modules.
//!
//! The paper's protocols operate at block granularity: `a` is "the address
//! of the block being addressed" and `d` "the displacement within that
//! block". Main memory is organized so that "a block resides completely in
//! a single memory module" (section 2.4.2); [`AddressMap`] captures the
//! interleaving of blocks over modules so that every component agrees on
//! which controller owns which block.

use crate::ids::{write_tagged, ModuleId};
use std::fmt;

/// The address of a memory block (the paper's `a`).
///
/// Block addresses are block *numbers*, not byte addresses: the unit of
/// coherence is the block, and no protocol in the paper ever needs finer
/// granularity than [`WordAddr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(u64);

impl BlockAddr {
    /// Creates a block address from a block number.
    #[must_use]
    pub fn new(block_number: u64) -> Self {
        BlockAddr(block_number)
    }

    /// The raw block number.
    #[must_use]
    pub fn number(self) -> u64 {
        self.0
    }

    /// The word address of displacement `d` within this block.
    #[must_use]
    pub fn word(self, d: u16) -> WordAddr {
        WordAddr {
            block: self,
            offset: d,
        }
    }
}

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_tagged::<16>(f, "blk:0x", self.0)
    }
}

impl From<u64> for BlockAddr {
    fn from(n: u64) -> Self {
        BlockAddr(n)
    }
}

/// A full word address: block plus displacement (the paper's `(a, d)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WordAddr {
    /// The containing block `a`.
    pub block: BlockAddr,
    /// The displacement `d` of the addressed i-unit (word, byte) within `a`.
    pub offset: u16,
}

impl WordAddr {
    /// Creates a word address from a block number and a displacement.
    #[must_use]
    pub fn new(block_number: u64, offset: u16) -> Self {
        WordAddr {
            block: BlockAddr::new(block_number),
            offset,
        }
    }
}

impl fmt::Display for WordAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+{}", self.block, self.offset)
    }
}

/// Mapping of blocks onto memory modules.
///
/// Each memory-module controller "is responsible only for the blocks
/// pertaining to its module" (section 3.1). The map is the one piece of
/// address-decode logic every requester must share with the controllers.
///
/// Two layouts are provided:
///
/// * [`AddressMap::Interleaved`] — block `a` lives in module `a mod m`
///   (fine interleaving, spreads traffic);
/// * [`AddressMap::Blocked`] — contiguous ranges of `blocks_per_module`
///   blocks per module (coarse partitioning).
///
/// ```
/// use twobit_types::{AddressMap, BlockAddr, ModuleId};
/// let map = AddressMap::interleaved(4);
/// assert_eq!(map.module_of(BlockAddr::new(6)), ModuleId::new(2));
/// let map = AddressMap::blocked(4, 100);
/// assert_eq!(map.module_of(BlockAddr::new(250)), ModuleId::new(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressMap {
    /// Block `a` maps to module `a mod modules`.
    Interleaved {
        /// Number of memory modules `m` (must be nonzero).
        modules: u16,
    },
    /// Block `a` maps to module `a / blocks_per_module`, clamped to the last
    /// module for addresses beyond the covered range.
    Blocked {
        /// Number of memory modules `m` (must be nonzero).
        modules: u16,
        /// Capacity of each module in blocks (must be nonzero).
        blocks_per_module: u64,
    },
}

impl AddressMap {
    /// A fine-interleaved map over `modules` modules.
    ///
    /// # Panics
    ///
    /// Panics if `modules` is zero or exceeds `u16::MAX`.
    #[must_use]
    pub fn interleaved(modules: usize) -> Self {
        assert!(modules > 0, "a system needs at least one memory module");
        assert!(modules <= u16::MAX as usize, "module count out of range");
        AddressMap::Interleaved {
            modules: modules as u16,
        }
    }

    /// A coarse-partitioned map over `modules` modules of
    /// `blocks_per_module` blocks each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero or `modules` exceeds `u16::MAX`.
    #[must_use]
    pub fn blocked(modules: usize, blocks_per_module: u64) -> Self {
        assert!(modules > 0, "a system needs at least one memory module");
        assert!(modules <= u16::MAX as usize, "module count out of range");
        assert!(
            blocks_per_module > 0,
            "modules must hold at least one block"
        );
        AddressMap::Blocked {
            modules: modules as u16,
            blocks_per_module,
        }
    }

    /// Number of modules covered by this map.
    #[must_use]
    pub fn modules(self) -> usize {
        match self {
            AddressMap::Interleaved { modules } | AddressMap::Blocked { modules, .. } => {
                modules as usize
            }
        }
    }

    /// The module that owns block `a` (and hence its directory entry).
    #[must_use]
    pub fn module_of(self, a: BlockAddr) -> ModuleId {
        match self {
            AddressMap::Interleaved { modules } => {
                ModuleId::new((a.number() % modules as u64) as usize)
            }
            AddressMap::Blocked {
                modules,
                blocks_per_module,
            } => {
                let idx = (a.number() / blocks_per_module).min(modules as u64 - 1);
                ModuleId::new(idx as usize)
            }
        }
    }

    /// The interleave factor: how far apart in block numbers consecutive
    /// slots of one module lie — `modules` for an interleaved map, 1 for
    /// a blocked one, whose modules own contiguous ranges. A controller
    /// hands it to its per-block tables (`twobit_core::BlockMap`), which
    /// split a block number `n` into the residue `n % stride` and the
    /// local position `n / stride` and store the latter densely.
    #[must_use]
    pub fn stride(self) -> u64 {
        match self {
            AddressMap::Interleaved { modules } => u64::from(modules),
            AddressMap::Blocked { .. } => 1,
        }
    }

    /// The dense per-module slot of block `a` within its owning module.
    ///
    /// This is the index of `a`'s entry in its module's directory storage:
    /// under an interleaved map it is the `n / stride` that
    /// `twobit_core::BlockMap` pages by (64 consecutive slots to a page),
    /// which is what makes a module's tables cost what the module holds
    /// rather than what the whole memory spans. A blocked map's slot is an
    /// offset from the module's base, so the global block number is
    /// already dense within a module and is used as is.
    #[must_use]
    pub fn slot_of(self, a: BlockAddr) -> u64 {
        match self {
            AddressMap::Interleaved { modules } => a.number() / modules as u64,
            AddressMap::Blocked {
                modules,
                blocks_per_module,
            } => {
                let module = (a.number() / blocks_per_module).min(modules as u64 - 1);
                a.number() - module * blocks_per_module
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_addr_word_composition() {
        let a = BlockAddr::new(12);
        let w = a.word(3);
        assert_eq!(w.block, a);
        assert_eq!(w.offset, 3);
        assert_eq!(w, WordAddr::new(12, 3));
    }

    #[test]
    fn display_formats_are_nonempty_and_distinct() {
        assert_eq!(BlockAddr::new(255).to_string(), "blk:0xff");
        assert_eq!(BlockAddr::new(0).to_string(), "blk:0x0");
        assert_eq!(
            BlockAddr::new(u64::MAX).to_string(),
            format!("blk:{:#x}", u64::MAX)
        );
        assert_eq!(WordAddr::new(255, 7).to_string(), "blk:0xff+7");
    }

    #[test]
    fn interleaved_map_round_robins_blocks() {
        let map = AddressMap::interleaved(4);
        let owners: Vec<usize> = (0..8)
            .map(|n| map.module_of(BlockAddr::new(n)).index())
            .collect();
        assert_eq!(owners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn interleaved_slots_are_dense_per_module() {
        let map = AddressMap::interleaved(4);
        assert_eq!(map.slot_of(BlockAddr::new(0)), 0);
        assert_eq!(map.slot_of(BlockAddr::new(4)), 1);
        assert_eq!(map.slot_of(BlockAddr::new(9)), 2);
    }

    #[test]
    fn stride_is_what_separates_a_modules_consecutive_slots() {
        let map = AddressMap::interleaved(4);
        assert_eq!(map.stride(), 4);
        for n in 0..64 {
            let a = BlockAddr::new(n);
            assert_eq!(map.slot_of(a), n / map.stride());
            assert_eq!(map.module_of(a).index() as u64, n % map.stride());
        }
        assert_eq!(AddressMap::blocked(3, 10).stride(), 1);
    }

    #[test]
    fn blocked_map_partitions_ranges() {
        let map = AddressMap::blocked(3, 10);
        assert_eq!(map.module_of(BlockAddr::new(0)).index(), 0);
        assert_eq!(map.module_of(BlockAddr::new(9)).index(), 0);
        assert_eq!(map.module_of(BlockAddr::new(10)).index(), 1);
        assert_eq!(map.module_of(BlockAddr::new(29)).index(), 2);
        // Out-of-range addresses clamp to the last module rather than panic.
        assert_eq!(map.module_of(BlockAddr::new(1000)).index(), 2);
    }

    #[test]
    fn blocked_slots_are_offsets_within_module() {
        let map = AddressMap::blocked(3, 10);
        assert_eq!(map.slot_of(BlockAddr::new(0)), 0);
        assert_eq!(map.slot_of(BlockAddr::new(13)), 3);
        assert_eq!(map.slot_of(BlockAddr::new(29)), 9);
    }

    #[test]
    #[should_panic(expected = "at least one memory module")]
    fn interleaved_rejects_zero_modules() {
        let _ = AddressMap::interleaved(0);
    }

    #[test]
    fn modules_reports_count() {
        assert_eq!(AddressMap::interleaved(7).modules(), 7);
        assert_eq!(AddressMap::blocked(2, 5).modules(), 2);
    }
}
