//! A delivery allocates next to nothing, and the timeline holds little
//! more than its text — counted, not timed.
//!
//! A counting global allocator (this test binary only) tells a *fresh*
//! allocation (`alloc`) from the *growth* of a buffer that already exists
//! (`realloc`), and keeps the bytes requested and not yet freed, per
//! thread. An in-process fleet runs on the calling thread, so the
//! counters see the whole run: spawning the nodes, every delivery, the
//! history check and the report.
//!
//! The timeline keeps one line per delivery and one per node trace event
//! (about 1.75 lines per delivery here), written end to end into 64 KiB
//! chunks: the driver copies its own lines in from its held writer, and
//! a node writes its event lines there through its own. Everything else
//! a delivery writes — the envelopes it sends, the batch it belongs to —
//! goes into buffers kept from one delivery to the next, so what is left
//! is amortised: a new chunk, a buffer reaching a new high mark, the
//! calendar and the history growing. When every kept line was a `String`
//! of its own, the same run read 1.80 fresh allocations per delivery and
//! the timeline held 1.367 heap bytes per text byte; before the node's
//! event lines went through a held writer and its outputs into buffers
//! the driver owns, 5.36 fresh allocations and 1.26 growths.

use std::alloc::{GlobalAlloc, Layout, System as SystemAllocator};
use std::cell::Cell;
use std::hint::black_box;

use twobit_dist::driver::{run, RunConfig};
use twobit_dist::wire::{request_line, response_line, Envelope, Lines, Request, Response};
use twobit_obs::json::Reader;
use twobit_obs::{ActorId, SimEvent};
use twobit_types::{BlockAddr, CacheId, TxnId};

thread_local! {
    static FRESH: Cell<u64> = const { Cell::new(0) };
    static GROWN: Cell<u64> = const { Cell::new(0) };
    /// Bytes requested and not yet freed (what another thread frees of
    /// this one's is not seen, so only differences mean anything).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // A thread being torn down has no counters left, and nothing to count.
    let _ = counter.try_with(|count| count.set(count.get() + 1));
}

fn hold(bytes: usize, sign: i64) {
    let _ = LIVE.try_with(|live| live.set(live.get() + sign * bytes as i64));
}

// SAFETY: delegates every operation to the system allocator unchanged;
// the counters are const-initialised thread-local cells without
// destructors, so touching them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&FRESH);
        hold(layout.size(), 1);
        unsafe { SystemAllocator.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(layout.size(), -1);
        unsafe { SystemAllocator.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&GROWN);
        hold(new_size, 1);
        hold(layout.size(), -1);
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
fn a_delivery_allocates_next_to_nothing_and_the_timeline_holds_its_text() {
    let mut cfg = RunConfig::quick("two-bit", 42);
    cfg.refs_per_client = 2_000;
    let before = counts();
    let report = run(&cfg).unwrap();
    let after = counts();
    let deliveries = report.deliveries as f64;
    let kept = report.timeline.len() as f64 / deliveries;
    let fresh = (after.0 - before.0) as f64 / deliveries;
    let grown = (after.1 - before.1) as f64 / deliveries;
    // What the timeline holds is what dropping it frees.
    let text: usize = report.timeline.iter().map(|line| line.len() + 1).sum();
    let live = LIVE.get();
    drop(report.timeline);
    let held = (live - LIVE.get()) as f64 / text as f64;
    println!(
        "{} deliveries, {kept:.3} kept lines, {fresh:.3} fresh allocations and {grown:.3} growths per delivery; \
         the timeline holds {held:.3} heap bytes per byte of its {text} text bytes",
        report.deliveries
    );
    assert!(kept < 2.0, "{kept:.3} kept lines per delivery");
    assert!(
        fresh <= 0.1,
        "{fresh:.3} fresh allocations per delivery ({kept:.3} lines kept)"
    );
    // 0.011 here: a calendar that regrew a buffer per instant read 0.038.
    assert!(grown <= 0.02, "{grown:.3} buffer growths per delivery");
    assert!(held <= 1.05, "{held:.3} heap bytes per text byte");
}

/// Emptied, a [`Lines`] keeps its chunks: filling it again with as much
/// text allocates nothing.
#[test]
fn cleared_lines_refill_without_allocating() {
    let lines: Vec<String> = (0..3_000)
        .map(|i| format!("{{\"line\":{i},\"pad\":\"{}\"}}", "x".repeat(i % 97)))
        .collect();
    let mut kept = Lines::new();
    for line in &lines {
        kept.push(line);
    }
    kept.clear();
    let (fresh, grown) = counted(|| {
        for line in &lines {
            kept.push(line);
        }
    });
    assert_eq!((fresh, grown), (0, 0));
    assert_eq!(kept.iter().collect::<Vec<_>>(), lines);
}

/// The deliver frames of `codec_properties.rs`'s frozen `REQUEST_FRAMES`:
/// one per payload kind and per command variant.
const DELIVER_FRAMES: [&str; 17] = [
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"op\":{\"a\":5,\"d\":3,\"rw\":\"write\"},\"sv\":3,\"t\":\"client_req\",\"txn\":7},\"src\":\"L1\"},\"now\":100,\"replay\":true,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C0\",\"payload\":{\"op\":{\"a\":8589934592,\"d\":0,\"rw\":\"read\"},\"sv\":null,\"t\":\"client_req\",\"txn\":8},\"src\":\"L0\"},\"now\":101,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"L1\",\"payload\":{\"hit\":false,\"observed\":3,\"t\":\"client_resp\",\"txn\":7},\"src\":\"C1\"},\"now\":102,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M1\",\"payload\":{\"barrier\":4,\"t\":\"inv_ack\"},\"src\":\"C2\"},\"now\":103,\"replay\":true,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C0\",\"payload\":{\"sv\":8,\"t\":\"wt_ack\"},\"src\":\"M1\"},\"now\":104,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"rw\":\"write\",\"t\":\"REQUEST\"},\"t\":\"to_mem\"},\"src\":\"C3\"},\"now\":105,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"MREQUEST\",\"v\":7},\"t\":\"to_mem\"},\"src\":\"C3\"},\"now\":106,\"replay\":true,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"EJECT\",\"wb\":\"dirty\"},\"t\":\"to_mem\"},\"src\":\"C3\"},\"now\":107,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"PUT\",\"v\":7},\"t\":\"to_mem\"},\"src\":\"C3\"},\"now\":108,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"WRITETHRU\",\"v\":7},\"t\":\"to_mem\"},\"src\":\"C3\"},\"now\":109,\"replay\":true,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"DIRECTREAD\"},\"t\":\"to_mem\"},\"src\":\"C3\"},\"now\":110,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"ack\":40,\"cmd\":{\"a\":1099511627776,\"k\":1,\"t\":\"GET\",\"v\":9,\"x\":true},\"t\":\"to_cache\"},\"src\":\"M13\"},\"now\":111,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"ack\":null,\"cmd\":{\"a\":1099511627776,\"k\":1,\"t\":\"BROADINV\"},\"t\":\"to_cache\"},\"src\":\"M13\"},\"now\":112,\"replay\":true,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"ack\":42,\"cmd\":{\"a\":1099511627776,\"rw\":\"read\",\"t\":\"BROADQUERY\"},\"t\":\"to_cache\"},\"src\":\"M13\"},\"now\":113,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"ack\":null,\"cmd\":{\"a\":1099511627776,\"k\":1,\"t\":\"MGRANTED\",\"y\":false},\"t\":\"to_cache\"},\"src\":\"M13\"},\"now\":114,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"ack\":44,\"cmd\":{\"a\":1099511627776,\"k\":1,\"t\":\"INV\"},\"t\":\"to_cache\"},\"src\":\"M13\"},\"now\":115,\"replay\":true,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"ack\":null,\"cmd\":{\"a\":1099511627776,\"k\":1,\"rw\":\"write\",\"t\":\"PURGE\"},\"t\":\"to_cache\"},\"src\":\"M13\"},\"now\":116,\"replay\":false,\"t\":\"deliver\"}",
];

/// `(fresh, grown)` allocations while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, u64) {
    let before = counts();
    black_box(f());
    let after = counts();
    (after.0 - before.0, after.1 - before.1)
}

/// A frame decodes into what the decoded value owns and nothing more:
/// the reader's tape is kept from frame to frame and a string without
/// escapes is read in place. A deliver request owns nothing, so it
/// allocates nothing; a `deliver_ok` reply owns its outputs `Vec`, its
/// events `Vec` and one `String` per event. Parsed into a tree first,
/// the 17 requests took 367 allocations and the largest reply here 280
/// and 18 growths (a `BTreeMap` node and a `String` per key, a `String`
/// per string value).
#[test]
fn a_held_reader_decodes_a_frame_into_what_it_owns() {
    let mut reader = Reader::default();
    let envelopes: Vec<Envelope> = DELIVER_FRAMES
        .iter()
        .map(|frame| {
            let request: Request = reader.read(frame).unwrap();
            assert_eq!(
                request_line(&request),
                *frame,
                "the frozen frame reads back"
            );
            match request {
                Request::Deliver { env, .. } => env,
                other => panic!("{other:?}"),
            }
        })
        .collect();
    let (fresh, grown) = counted(|| {
        for frame in DELIVER_FRAMES {
            black_box(reader.read::<Request>(frame).unwrap());
        }
    });
    println!(
        "{} deliver requests: {fresh} fresh allocations, {grown} growths",
        DELIVER_FRAMES.len()
    );
    assert_eq!((fresh, grown), (0, 0));

    let events: Vec<String> = (0..3)
        .map(|i| {
            let k = ActorId::Cache(CacheId::new(i));
            SimEvent::new(
                100 + i as u64,
                k,
                BlockAddr::new(5),
                format!("deliver GET(C{i}, blk:0x5, v3) \"x\""),
            )
            .txn(TxnId::new(7))
            .to_jsonl()
        })
        .collect();
    for (outputs, with_events) in [(0, 0), (1, 0), (0, 1), (3, 2), (17, 3)] {
        let reply = response_line(&Response::DeliverOk {
            outputs: envelopes[..outputs].to_vec(),
            events: events[..with_events].to_vec(),
        });
        // The first read of a reply this long grows the tape.
        reader.read::<Response>(&reply).unwrap();
        let (fresh, grown) = counted(|| reader.read::<Response>(&reply).unwrap());
        println!("deliver_ok with {outputs} outputs and {with_events} events: {fresh} fresh allocations, {grown} growths");
        assert!(
            fresh + grown <= 2 + with_events as u64,
            "{outputs} outputs, {with_events} events: {fresh} + {grown}"
        );
    }
}
