//! The event loop's scheduler: a bucketed calendar queue.
//!
//! A directory simulation's pending-event horizon is tiny — wire
//! latencies, memory service, and think time are all small integers — so
//! almost every push lands within a few cycles of the current time. A
//! comparison-based heap pays `O(log n)` pointer-chasing for what is
//! really array indexing. [`Calendar`] instead keeps a ring of
//! [`NEAR_HORIZON`] one-cycle buckets (slot = `time & 63`) with a `u64`
//! occupancy bitmask, so "next non-empty cycle" is one rotate plus
//! `trailing_zeros`, and falls back to a small binary heap only for the
//! rare event scheduled beyond the horizon (a liveness-budget sentinel,
//! say). Far events migrate into the ring as the base time advances.
//!
//! Within a bucket (one cycle), events are kept sorted by descending
//! canonical [`EventKey`] and popped from the back, so the queue pops in
//! exactly the canonical total order the deterministic engine requires —
//! including events pushed *at the current cycle* mid-processing (a
//! zero-think-time issue reschedule), which binary-insert into the
//! already-sorted bucket.

use crate::engine::{Event, EventKey};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Width of the near ring in cycles. One `u64` occupancy word.
const NEAR_HORIZON: u64 = 64;

#[derive(Debug)]
struct FarEntry {
    key: EventKey,
    seq: u64,
    event: Event,
}

impl PartialEq for FarEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}

impl Eq for FarEntry {}

impl Ord for FarEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

impl PartialOrd for FarEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A calendar queue ordered by canonical [`EventKey`]s (see the module
/// docs): pops in sorted-key order, with O(1) near-horizon scheduling.
#[derive(Debug)]
pub(crate) struct Calendar {
    /// All events before `base` have been popped; the near ring covers
    /// `[base, base + NEAR_HORIZON)`.
    base: u64,
    /// `near[t & 63]` holds the events at cycle `t`, sorted by
    /// *descending* key (pop takes from the back).
    near: Vec<Vec<(EventKey, Event)>>,
    /// Bit `s` set iff `near[s]` is non-empty.
    occupied: u64,
    /// Events at or beyond `base + NEAR_HORIZON`.
    far: BinaryHeap<FarEntry>,
    seq: u64,
    len: usize,
}

impl Calendar {
    pub(crate) fn new(start: u64) -> Self {
        Calendar {
            base: start,
            near: (0..NEAR_HORIZON).map(|_| Vec::new()).collect(),
            occupied: 0,
            far: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `event` at `time`, which must not precede the last
    /// popped event's cycle.
    pub(crate) fn push(&mut self, time: u64, event: Event) {
        debug_assert!(
            time >= self.base,
            "push at {time} before base {}",
            self.base
        );
        let key = event.key(time);
        self.len += 1;
        if time < self.base + NEAR_HORIZON {
            let slot = (time & (NEAR_HORIZON - 1)) as usize;
            let bucket = &mut self.near[slot];
            // Descending order: first position whose key is not greater.
            let pos = bucket.partition_point(|(k, _)| *k > key);
            bucket.insert(pos, (key, event));
            self.occupied |= 1 << slot;
        } else {
            self.seq += 1;
            self.far.push(FarEntry {
                key,
                seq: self.seq,
                event,
            });
        }
    }

    /// Pops the earliest event, advancing the base time to it.
    pub(crate) fn pop(&mut self) -> Option<(u64, Event)> {
        loop {
            self.migrate();
            if let Some(t) = self.next_near_time() {
                self.base = t;
                let slot = (t & (NEAR_HORIZON - 1)) as usize;
                let bucket = &mut self.near[slot];
                let (key, event) = bucket.pop().expect("occupied bit says non-empty");
                debug_assert!(
                    bucket.last().is_none_or(|(next, _)| *next != key),
                    "duplicate canonical key {key:?} — the uniqueness argument is broken"
                );
                if bucket.is_empty() {
                    self.occupied &= !(1 << slot);
                }
                self.len -= 1;
                return Some((key.time, event));
            }
            // Near ring exhausted: jump the base to the far frontier.
            self.base = self.far.peek()?.key.time;
        }
    }

    /// The earliest cycle with a non-empty near bucket. Each bucket holds
    /// exactly one cycle's events (the ring only ever covers a
    /// [`NEAR_HORIZON`]-cycle span), so slot offset from `base` *is* the
    /// time offset.
    fn next_near_time(&self) -> Option<u64> {
        if self.occupied == 0 {
            return None;
        }
        let rot = self
            .occupied
            .rotate_right((self.base & (NEAR_HORIZON - 1)) as u32);
        Some(self.base + u64::from(rot.trailing_zeros()))
    }

    /// Moves far events that now fall inside the near ring.
    fn migrate(&mut self) {
        while let Some(f) = self.far.peek() {
            if f.key.time >= self.base + NEAR_HORIZON {
                break;
            }
            let f = self.far.pop().expect("just peeked");
            let slot = (f.key.time & (NEAR_HORIZON - 1)) as usize;
            let bucket = &mut self.near[slot];
            let pos = bucket.partition_point(|(k, _)| *k > f.key);
            bucket.insert(pos, (f.key, f.event));
            self.occupied |= 1 << slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::{BlockAddr, CacheId, CacheToMemory, ModuleId, WritebackKind};

    fn issue(n: usize) -> Event {
        Event::ProcessorIssue {
            cpu: CacheId::new(n),
        }
    }

    fn deliver_module(n: usize) -> Event {
        Event::DeliverToModule {
            module: ModuleId::new(n),
            cmd: CacheToMemory::Eject {
                k: CacheId::new(0),
                olda: BlockAddr::new(1),
                wb: WritebackKind::Clean,
            },
        }
    }

    #[test]
    fn pops_in_canonical_key_order() {
        // A scrambled schedule must pop in sorted-key order exactly,
        // including same-cycle class/actor ordering and times far beyond
        // the near horizon.
        let mut schedule: Vec<(u64, Event)> = vec![
            (5, issue(1)),
            (5, deliver_module(0)),
            (5, issue(0)),
            (1, issue(2)),
            (500, deliver_module(1)),
            (70, issue(3)),
            (5, deliver_module(2)),
            (1000, issue(4)),
        ];
        let mut calendar = Calendar::new(0);
        for (t, e) in &schedule {
            calendar.push(*t, e.clone());
        }
        schedule.sort_by_key(|(t, e)| e.key(*t));
        for want in schedule {
            assert_eq!(calendar.pop(), Some(want));
        }
        assert!(calendar.pop().is_none());
        assert!(calendar.is_empty());
    }

    #[test]
    fn same_cycle_push_mid_pop_sorts_canonically() {
        // Pop the issue at t=9, then push a module delivery at t=9: the
        // delivery (lower class rank) must still come out next.
        let mut q = Calendar::new(0);
        q.push(9, issue(0));
        q.push(9, issue(1));
        assert_eq!(q.pop().unwrap().1, issue(0));
        q.push(9, deliver_module(0));
        assert_eq!(q.pop().unwrap().1, deliver_module(0));
        assert_eq!(q.pop().unwrap().1, issue(1));
    }

    #[test]
    fn far_events_migrate_through_multiple_horizons() {
        let mut q = Calendar::new(0);
        for i in 0..10u64 {
            q.push(i * 200, issue(0));
        }
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, (0..10).map(|i| i * 200).collect::<Vec<_>>());
    }

    #[test]
    fn ring_slots_never_mix_cycles() {
        // 0 and 64 share slot 0 but are 1 horizon apart: 64 goes to far,
        // then migrates after 0 pops.
        let mut q = Calendar::new(0);
        q.push(0, issue(0));
        q.push(64, issue(1));
        q.push(63, issue(2));
        assert_eq!(q.pop().map(|(t, _)| t), Some(0));
        assert_eq!(q.pop().map(|(t, _)| t), Some(63));
        assert_eq!(q.pop().map(|(t, _)| t), Some(64));
        assert!(q.pop().is_none());
    }
}
