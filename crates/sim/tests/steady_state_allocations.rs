//! A reference allocates nothing once the system is warm — counted, not
//! timed.
//!
//! A counting global allocator (this test binary only) tells a *fresh*
//! allocation (`alloc`) from the *growth* of a buffer that already exists
//! (`realloc`), per thread. The workload is wrapped so that it reads the
//! counters on its way into the engine: the window it measures is the
//! engine's loop between two references, with the run's set-up and its
//! closing report outside it. Inside the window — 20,000 references
//! after a warm-up that filled every cache and touched every block of
//! the address space — there must be **no fresh allocation at all** on
//! the benchmark's two miss-heavy parameter sets.
//!
//! Growth — a buffer that already exists reaching a new high mark — is
//! counted apart, and there must be none either. The calendar's ring is
//! allocated whole when it is built, so what could still grow is its
//! heap of events beyond the ring, the send buffers an agent or
//! controller writes into, and a `BlockMap` taking a new page; the
//! warm-up takes each to its peak. When the calendar kept a growable
//! bucket per cycle, the same window read 3 growths on the first
//! parameter set and 0 on the second. Before per-event `Vec` returns
//! became caller-owned buffers it held 2.9 fresh allocations per
//! reference on the first (58,476 in all) and 1.1 on the second
//! (21,834).

use std::alloc::{GlobalAlloc, Layout, System as SystemAllocator};
use std::cell::Cell;

use twobit_sim::System;
use twobit_types::{CacheId, MemRef, ProtocolKind, SystemConfig};
use twobit_workload::{SharingModel, SharingParams, Workload};

thread_local! {
    static FRESH: Cell<u64> = const { Cell::new(0) };
    static GROWN: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // A thread being torn down has no counters left, and nothing to count.
    let _ = counter.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: delegates every operation to the system allocator unchanged;
// the counters are const-initialised thread-local cells without
// destructors, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&FRESH);
        unsafe { SystemAllocator.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAllocator.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&GROWN);
        unsafe { SystemAllocator.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(fresh, grown)` on this thread so far.
fn counts() -> (u64, u64) {
    (FRESH.get(), GROWN.get())
}

const CACHES: usize = 8;
/// References per processor before the window opens: enough that every
/// one of the 4,096 private blocks a processor draws from has been
/// fetched, written back and refetched many times over.
const WARM_UP: u64 = 30_000;
/// References (all processors together) inside the window.
const WINDOW: u64 = 20_000;

/// Passes references through, reading the allocation counters as the
/// `from`-th and the `to`-th go by.
struct Windowed {
    inner: SharingModel,
    calls: u64,
    from: u64,
    to: u64,
    opened: Option<(u64, u64)>,
    closed: Option<(u64, u64)>,
}

impl Workload for Windowed {
    fn next_ref(&mut self, k: CacheId) -> MemRef {
        self.calls += 1;
        if self.calls == self.from {
            self.opened = Some(counts());
        } else if self.calls == self.to {
            self.closed = Some(counts());
        }
        self.inner.next_ref(k)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// `(fresh, grown)` allocations of the engine over [`WINDOW`] references
/// of a warm 8-cache system.
fn window_of(protocol: ProtocolKind, params: SharingParams) -> (u64, u64) {
    let config = SystemConfig::with_defaults(CACHES).with_protocol(protocol);
    let mut system = System::build(config).unwrap();
    let from = WARM_UP * CACHES as u64;
    let mut workload = Windowed {
        inner: SharingModel::new(params, CACHES, 42).unwrap(),
        calls: 0,
        from,
        to: from + WINDOW,
        opened: None,
        closed: None,
    };
    let refs_per_cpu = WARM_UP + WINDOW / CACHES as u64 + 1_000;
    let report = system.run(&mut workload, refs_per_cpu).unwrap();
    assert_eq!(
        report.stats.total_references(),
        refs_per_cpu * CACHES as u64
    );
    let (opened, closed) = (workload.opened.unwrap(), workload.closed.unwrap());
    (closed.0 - opened.0, closed.1 - opened.1)
}

fn assert_steady(name: &str, (fresh, grown): (u64, u64)) {
    assert_eq!(
        fresh, 0,
        "{name}: {fresh} fresh allocations in {WINDOW} warm references"
    );
    assert_eq!(
        grown, 0,
        "{name}: {grown} buffer growths in {WINDOW} warm references"
    );
}

/// The benchmark's `sim_capacity`: two-bit, a private working set 32
/// times the cache — nearly every reference is a miss with a replacement.
#[test]
fn two_bit_capacity_misses_allocate_nothing() {
    let params = SharingParams {
        private_blocks: 4096,
        ..SharingParams::moderate()
    };
    assert_steady("sim_capacity", window_of(ProtocolKind::TwoBit, params));
}

/// The benchmark's `sim_writethrough`: every store is a memory
/// transaction, through another pair of tables.
#[test]
fn write_through_stores_allocate_nothing() {
    assert_steady(
        "sim_writethrough",
        window_of(
            ProtocolKind::ClassicalWriteThrough,
            SharingParams::moderate(),
        ),
    );
}
