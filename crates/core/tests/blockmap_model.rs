//! `BlockMap` against a model: for every stride, the same random
//! sequence of operations applied to a `BlockMap` and to a
//! `BTreeMap<u64, _>` gives the same answers, the same length, and the
//! same ascending iteration.

use proptest::prelude::*;
use std::collections::BTreeMap;
use twobit_core::BlockMap;
use twobit_types::BlockAddr;

/// Where the workloads' shared blocks start.
const SHARED_BASE: u64 = 1 << 32;
/// Module-local slots on both sides of two page boundaries.
const SLOTS: [u64; 7] = [0, 1, 63, 64, 65, 127, 128];
const STRIDES: [u64; 5] = [1, 2, 3, 8, 16];

/// One operation: which, then the address as (region, slot, residue),
/// then a value.
type Op = (u8, usize, usize, u64, u32);

/// A block number from a pool small enough that operations meet: the
/// bottom of the address space, a run of slots straddling [`SHARED_BASE`],
/// or the top of `u64`; any residue, the module's own or not.
fn block(stride: u64, region: usize, slot: usize, residue: u64) -> u64 {
    let span = 128 * stride + stride - 1;
    let base = [0, SHARED_BASE - 64 * stride, u64::MAX - span][region];
    base + SLOTS[slot] * stride + residue % stride
}

proptest! {
    #[test]
    fn block_map_agrees_with_a_btree_map(
        ops in prop::collection::vec(
            (0u8..4, 0usize..3, 0usize..SLOTS.len(), 0u64..16, any::<u32>()),
            1..300,
        ),
    ) {
        let ops: Vec<Op> = ops;
        for stride in STRIDES {
            let mut map = BlockMap::with_stride(stride);
            let mut model = BTreeMap::new();
            for &(op, region, slot, residue, value) in &ops {
                let n = block(stride, region, slot, residue);
                let a = BlockAddr::new(n);
                match op {
                    0 => prop_assert_eq!(map.insert(a, value), model.insert(n, value)),
                    1 => prop_assert_eq!(map.get(a), model.get(&n)),
                    2 => {
                        let (mut got, mut want) = (map.get_mut(a), model.get_mut(&n));
                        if let (Some(got), Some(want)) = (&mut got, &mut want) {
                            **got ^= value;
                            **want ^= value;
                        }
                        prop_assert_eq!(got, want);
                    }
                    _ => prop_assert_eq!(map.remove(a), model.remove(&n)),
                }
                prop_assert_eq!(map.len(), model.len());
                prop_assert_eq!(map.contains_key(a), model.contains_key(&n));
            }
            let got: Vec<(u64, u32)> = map.iter().map(|(a, &v)| (a.number(), v)).collect();
            let want: Vec<(u64, u32)> = model.iter().map(|(&n, &v)| (n, v)).collect();
            prop_assert_eq!(got, want, "stride {}", stride);
        }
    }
}
