//! The event loop's scheduler: a calendar queue that never sorts.
//!
//! A directory simulation's pending-event horizon is tiny — wire
//! latencies, memory service, and think time are all small integers — so
//! almost every push lands within a few cycles of the current time.
//! [`Calendar`] keeps a ring of [`NEAR_HORIZON`] one-cycle slots (slot =
//! `time & 63`) with a `u64` occupancy word, so "next non-empty cycle" is
//! one rotate plus `trailing_zeros`, and falls back to a small binary heap
//! only for the rare event scheduled beyond the horizon (a long port
//! queue, say). Far events migrate into the ring as the base time
//! advances.
//!
//! Within a cycle, events pop by *rank*, the canonical order stated once
//! in [`Calendar::rank`]: with `m` modules and `n` caches, module
//! deliveries rank `[0, m)`, cache deliveries `[m, m + n)` and processor
//! issues `[m + n, m + 2n)`. Every slot has one occupancy bit and one
//! cell per rank, all allocated when the calendar is built: push sets a
//! bit and writes a cell, pop takes the earliest slot's lowest set bit.
//! Nothing is compared, moved or allocated to order events, and an event
//! pushed *at the current cycle* mid-processing (a zero-think-time issue
//! reschedule) still pops in canonical order.
//!
//! A cell holds the index of the event's entry in a pool, not the event.
//! The ring has `64 × ranks` cells, but far fewer events are pending at
//! once, and the pool hands out its most recently freed entry first, so
//! the events in use stay in a few cache lines wherever the ring's
//! occupied cells lie. Events held in the cells themselves would take
//! 48 KB at 8 caches, a whole L1 data cache on common x86 cores, and a
//! 16-byte-aligned buffer of them puts every event across two cache
//! lines whenever the allocator places it at 16 mod 32 — so the speed of
//! a run would depend on the heap's history. Pool entries are aligned to
//! their 32 bytes.
//!
//! A `(time, rank)` pair is unique among pending events (DESIGN.md §8),
//! so a push onto a set bit — which would overwrite a cell and lose an
//! event — is an engine bug, and so is a push before the last popped
//! cycle (it would land in the ring 64 cycles late). Both panic in every
//! build.

use crate::engine::Event;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use twobit_types::CacheId;

/// Width of the near ring in cycles. One `u64` occupancy word.
const NEAR_HORIZON: u64 = 64;

/// One pooled event, aligned so that it never straddles two cache lines.
#[derive(Debug, Clone, Copy)]
#[repr(align(32))]
struct Entry(Event);

/// An event at or beyond the near ring, ordered by `(time, rank)` alone.
#[derive(Debug)]
struct FarEntry {
    time: u64,
    rank: usize,
    event: Event,
}

impl PartialEq for FarEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for FarEntry {}

impl Ord for FarEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.time, other.rank).cmp(&(self.time, self.rank))
    }
}

impl PartialOrd for FarEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A calendar queue that pops the minimum `(time, rank)` (see the module
/// docs), with O(1) near-horizon scheduling.
#[derive(Debug)]
pub(crate) struct Calendar {
    /// All events before `base` have been popped; the near ring covers
    /// `[base, base + NEAR_HORIZON)`.
    base: u64,
    modules: usize,
    /// First processor-issue rank: `modules + caches`.
    issues: usize,
    /// Ranks per slot: `modules + 2 * caches`.
    ranks: usize,
    /// Occupancy words per slot: `⌈ranks / 64⌉`.
    words: usize,
    /// Bit `r % 64` of `bits[slot * words + r / 64]` is set iff rank `r`
    /// has an event at the slot's cycle.
    bits: Vec<u64>,
    /// Rank `r`'s event at a slot is `pool[cells[slot * ranks + r]]`.
    cells: Vec<u32>,
    /// One entry per cell, so the pool never runs out.
    pool: Vec<Entry>,
    /// The `pool` entries not in use, the most recently freed last.
    free: Vec<u32>,
    /// Bit `s` set iff slot `s` has a set bit.
    occupied: u64,
    /// Events at or beyond `base + NEAR_HORIZON`.
    far: BinaryHeap<FarEntry>,
}

impl Calendar {
    /// An empty calendar at cycle `start` for `caches` caches and
    /// `modules` memory modules: everything it will hold is allocated
    /// here.
    pub(crate) fn new(start: u64, caches: usize, modules: usize) -> Self {
        let ranks = modules + 2 * caches;
        let words = ranks.div_ceil(64);
        let cells = NEAR_HORIZON as usize * ranks;
        let entries = u32::try_from(cells).expect("a pool entry's index fits a u32");
        let filler = Entry(Event::ProcessorIssue {
            cpu: CacheId::new(0),
        });
        Calendar {
            base: start,
            modules,
            issues: modules + caches,
            ranks,
            words,
            bits: vec![0; NEAR_HORIZON as usize * words],
            cells: vec![0; cells],
            pool: vec![filler; cells],
            free: (0..entries).rev().collect(),
            occupied: 0,
            far: BinaryHeap::new(),
        }
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.occupied == 0 && self.far.is_empty()
    }

    /// The canonical order of events within one cycle: module deliveries,
    /// then cache deliveries, then processor issues, each by actor index.
    /// Deliveries rank before issues so that an issue rescheduled *at the
    /// current cycle* still pops after the event that caused it —
    /// processing order then equals canonical order, which the engine's
    /// determinism argument relies on.
    fn rank(&self, event: &Event) -> usize {
        match event {
            Event::DeliverToModule { module, .. } => module.index(),
            Event::DeliverToCache { cache, .. } => self.modules + cache.index(),
            Event::ProcessorIssue { cpu } => self.issues + cpu.index(),
        }
    }

    /// Schedules `event` at `time`.
    ///
    /// # Panics
    ///
    /// If `time` precedes the last popped event's cycle, or if an event of
    /// the same rank is already pending at `time`.
    pub(crate) fn push(&mut self, time: u64, event: Event) {
        assert!(
            time >= self.base,
            "push at cycle {time} before the last popped cycle {}",
            self.base
        );
        let rank = self.rank(&event);
        if time < self.base + NEAR_HORIZON {
            self.place(time, rank, event);
        } else {
            self.far.push(FarEntry { time, rank, event });
        }
    }

    /// Writes `event` into the ring's cell for `(time, rank)`.
    fn place(&mut self, time: u64, rank: usize, event: Event) {
        let slot = (time & (NEAR_HORIZON - 1)) as usize;
        let word = &mut self.bits[slot * self.words + rank / 64];
        let bit = 1 << (rank % 64);
        assert!(
            *word & bit == 0,
            "two events of rank {rank} at cycle {time}: the uniqueness argument is broken"
        );
        *word |= bit;
        let entry = self.free.pop().expect("the pool has an entry per cell");
        self.pool[entry as usize] = Entry(event);
        self.cells[slot * self.ranks + rank] = entry;
        self.occupied |= 1 << slot;
    }

    /// Pops the earliest event, advancing the base time to it.
    pub(crate) fn pop(&mut self) -> Option<(u64, Event)> {
        loop {
            self.migrate();
            if self.occupied != 0 {
                // Each slot holds exactly one cycle's events (the ring
                // only ever covers a NEAR_HORIZON-cycle span), so slot
                // offset from `base` *is* the time offset.
                let rot = self
                    .occupied
                    .rotate_right((self.base & (NEAR_HORIZON - 1)) as u32);
                let time = self.base + u64::from(rot.trailing_zeros());
                self.base = time;
                let slot = (time & (NEAR_HORIZON - 1)) as usize;
                let words = &mut self.bits[slot * self.words..(slot + 1) * self.words];
                let w = words
                    .iter()
                    .position(|&word| word != 0)
                    .expect("an occupied slot has a set bit");
                let rank = w * 64 + words[w].trailing_zeros() as usize;
                words[w] &= words[w] - 1;
                if words[w..].iter().all(|&word| word == 0) {
                    self.occupied &= !(1 << slot);
                }
                let entry = self.cells[slot * self.ranks + rank];
                self.free.push(entry);
                return Some((time, self.pool[entry as usize].0));
            }
            // Near ring exhausted: jump the base to the far frontier.
            self.base = self.far.peek()?.time;
        }
    }

    /// Moves far events that now fall inside the near ring.
    fn migrate(&mut self) {
        while self
            .far
            .peek()
            .is_some_and(|f| f.time < self.base + NEAR_HORIZON)
        {
            let f = self.far.pop().expect("just peeked");
            self.place(f.time, f.rank, f.event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use twobit_types::{BlockAddr, CacheToMemory, MemoryToCache, ModuleId, WritebackKind};

    fn issue(n: usize) -> Event {
        Event::ProcessorIssue {
            cpu: CacheId::new(n),
        }
    }

    fn deliver_cache(n: usize) -> Event {
        Event::DeliverToCache {
            cache: CacheId::new(n),
            msg: MemoryToCache::BroadInv {
                a: BlockAddr::new(1),
                exclude: CacheId::new(0),
            },
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
        // A scrambled schedule must pop in (time, rank) order exactly,
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
        let mut calendar = Calendar::new(0, 5, 3);
        for &(t, e) in &schedule {
            calendar.push(t, e);
        }
        schedule.sort_by_key(|&(t, e)| (t, calendar.rank(&e)));
        for want in schedule {
            assert_eq!(calendar.pop(), Some(want));
        }
        assert!(calendar.pop().is_none());
        assert!(calendar.is_empty());
    }

    #[test]
    fn same_cycle_push_mid_pop_sorts_canonically() {
        // Pop the issue at t=9, then push a module delivery at t=9: the
        // delivery (lower rank) must still come out next.
        let mut q = Calendar::new(0, 2, 1);
        q.push(9, issue(0));
        q.push(9, issue(1));
        assert_eq!(q.pop().unwrap().1, issue(0));
        q.push(9, deliver_module(0));
        assert_eq!(q.pop().unwrap().1, deliver_module(0));
        assert_eq!(q.pop().unwrap().1, issue(1));
    }

    #[test]
    fn far_events_migrate_through_multiple_horizons() {
        let mut q = Calendar::new(0, 1, 1);
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
        let mut q = Calendar::new(0, 3, 1);
        q.push(0, issue(0));
        q.push(64, issue(1));
        q.push(63, issue(2));
        assert_eq!(q.pop().map(|(t, _)| t), Some(0));
        assert_eq!(q.pop().map(|(t, _)| t), Some(63));
        assert_eq!(q.pop().map(|(t, _)| t), Some(64));
        assert!(q.pop().is_none());
    }

    #[test]
    #[should_panic(expected = "two events of rank 4 at cycle 7")]
    fn a_duplicate_time_and_rank_is_refused() {
        let mut q = Calendar::new(0, 2, 2);
        q.push(7, issue(0));
        q.push(7, issue(0));
    }

    #[test]
    #[should_panic(expected = "push at cycle 4 before the last popped cycle 5")]
    fn a_push_before_the_last_popped_cycle_is_refused() {
        let mut q = Calendar::new(0, 1, 1);
        q.push(5, issue(0));
        assert_eq!(q.pop(), Some((5, issue(0))));
        q.push(4, deliver_module(0));
    }

    /// One step of a random interleaving: push at `delay` cycles after
    /// the last popped cycle (0 is the current cycle) for a rank drawn
    /// from `rank_seed`, or pop.
    #[derive(Debug, Clone)]
    enum Step {
        Push { delay: u64, rank_seed: usize },
        Pop,
    }

    /// Pops 40 % of the time; pushes within 4 cycles (the current cycle
    /// included) 30 %, within about one horizon 20 %, and up to six
    /// horizons out 10 %.
    fn step() -> impl Strategy<Value = Step> {
        (0u8..10, 0u64..400, any::<usize>()).prop_map(|(kind, delay, rank_seed)| match kind {
            0..=3 => Step::Pop,
            4..=6 => Step::Push {
                delay: delay % 4,
                rank_seed,
            },
            7..=8 => Step::Push {
                delay: delay % 70,
                rank_seed,
            },
            _ => Step::Push { delay, rank_seed },
        })
    }

    /// The event of `rank` in a calendar of `modules` and `caches`.
    fn event_of_rank(modules: usize, caches: usize, rank: usize) -> Event {
        if rank < modules {
            deliver_module(rank)
        } else if rank < modules + caches {
            deliver_cache(rank - modules)
        } else {
            issue(rank - modules - caches)
        }
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Every pop equals the minimum `(time, rank)` of a model that
        /// sorts, over pushes at the current cycle between pops and times
        /// that migrate across several horizons.
        #[test]
        fn pops_match_a_sorted_model(
            // (modules, caches) for 3, 24 (the benchmark's), 96 and 130
            // ranks: one to three occupancy words.
            shape in 0usize..4,
            steps in prop::collection::vec(step(), 1..400),
        ) {
            let (modules, caches) = [(1, 1), (8, 8), (32, 32), (2, 64)][shape];
            let ranks = modules + 2 * caches;
            let mut q = Calendar::new(0, caches, modules);
            let mut model: BTreeMap<(u64, usize), Event> = BTreeMap::new();
            let mut now = 0;
            for step in steps {
                match step {
                    Step::Push { delay, rank_seed } => {
                        let time = now + delay;
                        let rank = rank_seed % ranks;
                        if model.contains_key(&(time, rank)) {
                            continue;
                        }
                        let event = event_of_rank(modules, caches, rank);
                        prop_assert_eq!(q.rank(&event), rank);
                        model.insert((time, rank), event);
                        q.push(time, event);
                    }
                    Step::Pop => {
                        let want = model.pop_first().map(|((t, _), e)| (t, e));
                        prop_assert_eq!(q.pop(), want);
                        if let Some((t, _)) = want {
                            now = t;
                        }
                    }
                }
            }
            while let Some(((t, _), e)) = model.pop_first() {
                prop_assert_eq!(q.pop(), Some((t, e)));
            }
            prop_assert!(q.pop().is_none());
            prop_assert!(q.is_empty());
        }
    }
}
