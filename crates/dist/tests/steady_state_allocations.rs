//! A delivery allocates what the timeline keeps and little else —
//! counted, not timed.
//!
//! A counting global allocator (this test binary only) tells a *fresh*
//! allocation (`alloc`) from the *growth* of a buffer that already exists
//! (`realloc`), per thread. An in-process fleet runs on the calling
//! thread, so the counters see the whole run: spawning the nodes, every
//! delivery, the history check and the report.
//!
//! The timeline keeps one line per delivery and one per node trace event
//! (about 1.75 lines per delivery here), and a kept line is one
//! allocation at its exact length. Everything else a delivery writes —
//! the frame-shaped timeline line, the node's event lines, the envelopes
//! it sends, the batch it belongs to — goes through writers and buffers
//! that are kept from one delivery to the next, so what is left is
//! amortised: a buffer reaching a new high mark, the calendar and the
//! history growing. Before the node's event lines went through a held
//! writer and its outputs into buffers the driver owns, the same run
//! read 5.36 fresh allocations and 1.26 growths per delivery.

use std::alloc::{GlobalAlloc, Layout, System as SystemAllocator};
use std::cell::Cell;

use twobit_dist::driver::{run, RunConfig};

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

/// The benchmark's `dist_inproc` fleet (two-bit, four caches, two
/// modules, closed loop, fault-free), shortened to 2,000 references per
/// client.
#[test]
fn a_delivery_allocates_about_the_lines_the_timeline_keeps() {
    let mut cfg = RunConfig::quick("two-bit", 42);
    cfg.refs_per_client = 2_000;
    let before = counts();
    let report = run(&cfg).unwrap();
    let after = counts();
    let deliveries = report.deliveries as f64;
    let kept = report.timeline.len() as f64 / deliveries;
    let fresh = (after.0 - before.0) as f64 / deliveries;
    let grown = (after.1 - before.1) as f64 / deliveries;
    println!(
        "{} deliveries, {kept:.3} kept lines, {fresh:.3} fresh allocations and {grown:.3} growths per delivery",
        report.deliveries
    );
    assert!(kept < 2.0, "{kept:.3} kept lines per delivery");
    assert!(
        fresh <= 2.0,
        "{fresh:.3} fresh allocations per delivery ({kept:.3} lines kept)"
    );
    assert!(grown <= 0.1, "{grown:.3} buffer growths per delivery");
}
