//! The driver's calendar: events pop in `(time, seq)` order, `seq` being
//! push order, and nothing is compared to keep that order.
//!
//! Nearly every event the driver schedules lands a few instants ahead: a
//! hop is the link delay plus jitter, a client edge one instant.
//! [`Calendar`] keeps a ring of [`RING`] one-instant slots (slot =
//! `time & 63`) with a `u64` occupancy word, so "next non-empty instant"
//! is one rotate plus `trailing_zeros`. Each slot is a FIFO: within an
//! instant, events pop in the order they were pushed, which is `seq`
//! order. So a FIFO per instant is the `(time, seq)` order of a heap
//! without its comparisons (Brown's calendar queue, CACM 1988, without
//! its sort), and an instant holds any number of events.
//!
//! An event at or beyond `base + RING` — a client timeout, a checkpoint
//! tick, a restart, a message a partition holds — waits in a small heap
//! ordered by `(time, far push order)`, and moves into its slot as soon as
//! the base time brings that slot into the ring. That happens inside
//! [`pop`](Calendar::pop), the moment the base advances, and so before any
//! push straight to that instant can happen: such a push needs
//! `time < base + RING`, and the base only grows. The far events of an
//! instant therefore enter its FIFO first, in their push order, and they
//! were pushed before every event pushed straight to it.
//!
//! Events live in one pool and are linked into their slot's FIFO by
//! index; a popped entry goes onto a free list threaded through the pool.
//! The pool grows to the most events ever pending at once and then
//! allocates nothing.
//!
//! [`peek`](Calendar::peek) reads the current instant only and never
//! advances time: an event pushed at the current instant after a `peek`
//! still pops at it. A push before the current instant would land a ring
//! revolution late, and panics in every build.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Width of the ring in instants. One `u64` occupancy word.
const RING: u64 = 64;

/// No entry: the end of a FIFO or of the free list.
const NIL: u32 = u32::MAX;

/// One pooled event and the entry after it in its FIFO (or on the free
/// list, when `value` is `None`).
#[derive(Debug)]
struct Entry<T> {
    value: Option<T>,
    next: u32,
}

/// The first and last pool entries of one instant's events.
#[derive(Debug, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

/// A calendar queue that pops the earliest instant's events in push
/// order (see the module docs).
#[derive(Debug)]
pub(crate) struct Calendar<T> {
    /// The current instant: every event before it has been popped, and
    /// the ring covers `[base, base + RING)`.
    base: u64,
    /// Bit `s` set iff slot `s`'s FIFO is not empty.
    occupied: u64,
    slots: [Fifo; RING as usize],
    pool: Vec<Entry<T>>,
    /// Head of the free list through `pool`.
    free: u32,
    /// Events at or beyond the ring: `(time, far push order, entry)`.
    far: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// Far pushes so far.
    far_pushes: u64,
}

impl<T> Calendar<T> {
    /// An empty calendar at instant 0.
    pub(crate) fn new() -> Self {
        Calendar {
            base: 0,
            occupied: 0,
            slots: [Fifo {
                head: NIL,
                tail: NIL,
            }; RING as usize],
            pool: Vec::new(),
            free: NIL,
            far: BinaryHeap::new(),
            far_pushes: 0,
        }
    }

    /// Schedules `value` at `time`, after every event already scheduled
    /// at `time`.
    ///
    /// # Panics
    ///
    /// If `time` precedes the current instant.
    pub(crate) fn push(&mut self, time: u64, value: T) {
        assert!(
            time >= self.base,
            "push at instant {time} before the current instant {}",
            self.base
        );
        let entry = self.alloc(value);
        if time < self.base + RING {
            self.link(time, entry);
        } else {
            self.far.push(Reverse((time, self.far_pushes, entry)));
            self.far_pushes += 1;
        }
    }

    /// The event the next [`pop`](Self::pop) returns, if it is at the
    /// current instant. Never advances time.
    pub(crate) fn peek(&self) -> Option<&T> {
        let slot = (self.base % RING) as usize;
        if self.occupied & (1 << slot) == 0 {
            return None;
        }
        self.pool[self.slots[slot].head as usize].value.as_ref()
    }

    /// Pops the earliest event, advancing the current instant to it.
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        if self.occupied == 0 {
            // The ring is empty: jump to the far frontier.
            let &Reverse((time, _, _)) = self.far.peek()?;
            self.advance(time);
        } else {
            // Each slot holds one instant's events (the ring spans RING
            // instants), so a slot's offset from `base` is its time's.
            let rot = self.occupied.rotate_right((self.base % RING) as u32);
            let time = self.base + u64::from(rot.trailing_zeros());
            if time != self.base {
                self.advance(time);
            }
        }
        let slot = (self.base % RING) as usize;
        let entry = self.slots[slot].head;
        let e = &mut self.pool[entry as usize];
        self.slots[slot].head = e.next;
        if e.next == NIL {
            self.occupied &= !(1 << slot);
        }
        let value = e.value.take().expect("a linked entry holds an event");
        e.next = self.free;
        self.free = entry;
        Some((self.base, value))
    }

    /// Moves the current instant to `time` and the far events the ring
    /// now covers into their slots, earliest `(time, push order)` first.
    fn advance(&mut self, time: u64) {
        self.base = time;
        while let Some(&Reverse((t, _, entry))) = self.far.peek() {
            if t >= time + RING {
                break;
            }
            self.far.pop();
            self.link(t, entry);
        }
    }

    /// Appends pool entry `entry` to the FIFO of instant `time`.
    fn link(&mut self, time: u64, entry: u32) {
        let slot = (time % RING) as usize;
        let fifo = &mut self.slots[slot];
        if self.occupied & (1 << slot) == 0 {
            fifo.head = entry;
            self.occupied |= 1 << slot;
        } else {
            self.pool[fifo.tail as usize].next = entry;
        }
        fifo.tail = entry;
    }

    /// A pool entry holding `value`, linked to nothing: the most recently
    /// freed one, or a new one.
    fn alloc(&mut self, value: T) -> u32 {
        let filled = Entry {
            value: Some(value),
            next: NIL,
        };
        if self.free == NIL {
            let entry = u32::try_from(self.pool.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("fewer than 2^32 - 1 pending events");
            self.pool.push(filled);
            entry
        } else {
            let entry = self.free;
            self.free = std::mem::replace(&mut self.pool[entry as usize], filled).next;
            entry
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn an_instant_pops_in_push_order() {
        let mut q = Calendar::new();
        for (t, v) in [
            (5, 'a'),
            (2, 'b'),
            (5, 'c'),
            (500, 'd'),
            (2, 'e'),
            (500, 'f'),
        ] {
            q.push(t, v);
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            [
                (2, 'b'),
                (2, 'e'),
                (5, 'a'),
                (5, 'c'),
                (500, 'd'),
                (500, 'f')
            ]
        );
    }

    #[test]
    fn far_events_enter_their_instant_before_direct_pushes() {
        // `x` waits in the far heap for instant 100; once the base reaches
        // 40, a push to 100 goes straight into the ring, and must still
        // pop after `x`.
        let mut q = Calendar::new();
        q.push(100, 'x');
        q.push(40, 'a');
        assert_eq!(q.pop(), Some((40, 'a')));
        q.push(100, 'y');
        q.push(100 + RING, 'z');
        assert_eq!(q.pop(), Some((100, 'x')));
        assert_eq!(q.pop(), Some((100, 'y')));
        assert_eq!(q.pop(), Some((100 + RING, 'z')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ring_slots_never_mix_instants() {
        // 0 and 64 share slot 0 a ring apart: 64 waits in the far heap.
        let mut q = Calendar::new();
        q.push(0, 0);
        q.push(64, 64);
        q.push(63, 63);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, [0, 63, 64]);
    }

    #[test]
    fn a_peek_never_moves_time() {
        let mut q = Calendar::new();
        q.push(3, 'a');
        assert_eq!(q.peek(), None, "nothing at instant 0");
        assert_eq!(q.pop(), Some((3, 'a')));
        q.push(9, 'b');
        assert_eq!(q.peek(), None, "nothing at instant 3");
        // Still at instant 3: a push there pops before `b`.
        q.push(3, 'c');
        assert_eq!(q.peek(), Some(&'c'));
        assert_eq!(q.pop(), Some((3, 'c')));
        assert_eq!(q.pop(), Some((9, 'b')));
    }

    #[test]
    #[should_panic(expected = "push at instant 4 before the current instant 5")]
    fn a_push_before_the_current_instant_is_refused() {
        let mut q = Calendar::new();
        q.push(5, ());
        assert_eq!(q.pop(), Some((5, ())));
        q.push(4, ());
    }

    #[test]
    fn popped_entries_are_reused() {
        let mut q = Calendar::new();
        for round in 0..100u64 {
            for k in 0..8 {
                q.push(round * 200 + k, k);
            }
            while q.pop().is_some() {}
        }
        assert_eq!(q.pool.len(), 8);
    }

    /// One step of a random interleaving: push at `delay` instants after
    /// the current one (0 is the current instant), pop, or peek.
    #[derive(Debug, Clone)]
    enum Step {
        Push(u64),
        Pop,
        Peek,
    }

    /// Pops 35 % of the time and peeks 10 %; pushes at the current
    /// instant 15 %, within a few instants 20 %, within about a ring 10 %
    /// and up to six rings out 10 %.
    fn step() -> impl Strategy<Value = Step> {
        (0u8..20, 0u64..400).prop_map(|(kind, delay)| match kind {
            0..=6 => Step::Pop,
            7..=8 => Step::Peek,
            9..=11 => Step::Push(0),
            12..=15 => Step::Push(delay % 5),
            16..=17 => Step::Push(delay % 70),
            _ => Step::Push(delay),
        })
    }

    proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(256))]

        /// Every pop equals the minimum `(time, seq)` of a model that
        /// sorts, and every peek its minimum if that is at the current
        /// instant, over pushes at the current instant between pops and
        /// times that migrate across several rings.
        #[test]
        fn pops_match_a_sorted_model(steps in prop::collection::vec(step(), 1..400)) {
            let mut q = Calendar::new();
            let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
            let mut now = 0;
            let mut seq = 0;
            for step in steps {
                match step {
                    Step::Push(delay) => {
                        model.insert((now + delay, seq), seq);
                        q.push(now + delay, seq);
                        seq += 1;
                    }
                    Step::Pop => {
                        let want = model.pop_first().map(|((t, _), v)| (t, v));
                        prop_assert_eq!(q.pop(), want);
                        if let Some((t, _)) = want {
                            now = t;
                        }
                    }
                    Step::Peek => {
                        let want = model
                            .first_key_value()
                            .filter(|((t, _), _)| *t == now)
                            .map(|(_, v)| v);
                        prop_assert_eq!(q.peek(), want);
                    }
                }
            }
            while let Some(((t, _), v)) = model.pop_first() {
                prop_assert_eq!(q.pop(), Some((t, v)));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
