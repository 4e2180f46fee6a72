//! The linearizability check runs in space linear in the history.
//!
//! One test in a binary of its own, because it measures with a counting
//! global allocator: a 20,000-operation history on ONE block — the worst
//! case, since blocks are checked independently — over four clients
//! whose operations overlap in every round, so the search has real
//! choices and dead ends. The search used to carry the whole witness in
//! every stack frame (gigabytes at this size); it must now stay within a
//! few hundred bytes per operation, and doubling the history must no
//! more than double the peak.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use twobit_dist::history::{check_history, OpRecord};
use twobit_types::AccessKind;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: delegates every operation to the system allocator; the
// counters are plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let now = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(now, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `rounds` rounds of four overlapping operations on block 0: in round
/// `r` client `r % 4` stores version `r + 1` while the others load —
/// lower-numbered clients still see the previous version, higher ones
/// already the new one. Rounds do not overlap one another.
fn history(rounds: u64) -> Vec<OpRecord> {
    let mut ops = Vec::new();
    for r in 0..rounds {
        let writer = (r % 4) as usize;
        for client in 0..4 {
            let (kind, version) = match client.cmp(&writer) {
                std::cmp::Ordering::Less => (AccessKind::Read, r),
                std::cmp::Ordering::Equal => (AccessKind::Write, r + 1),
                std::cmp::Ordering::Greater => (AccessKind::Read, r + 1),
            };
            ops.push(OpRecord {
                client,
                txn: r * 4 + client as u64,
                block: 0,
                kind,
                arrived: r * 20,
                invoked: r * 20,
                completed: r * 20 + 10,
                version,
                was_hit: false,
                retries: 0,
            });
        }
    }
    ops
}

/// `(states visited, peak bytes the check held beyond what was live
/// before it)`.
fn check(rounds: u64) -> (usize, usize) {
    let ops = history(rounds);
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let report = check_history(&ops).expect("linearizable by construction");
    assert_eq!((report.ops, report.blocks), (ops.len(), 1));
    (report.states_visited, PEAK.load(Relaxed) - before)
}

#[test]
fn a_20_000_op_single_block_history_checks_in_linear_space() {
    let (half_states, half_peak) = check(2_500);
    let (states, peak) = check(5_000);
    // The search is the same search, dead ends and all: 6.75 states per
    // round is what the frame-cloning search visited (checked against it
    // up to 1,000 rounds, where it already held 65 MB).
    assert_eq!((half_states, states), (16_875, 33_750));
    assert!(
        peak <= 20_000 * 400,
        "{peak} bytes for 20,000 operations is above 400 per operation"
    );
    assert!(
        peak <= half_peak * 2 + half_peak / 4,
        "peak grew from {half_peak} to {peak} bytes when the history doubled"
    );
}
