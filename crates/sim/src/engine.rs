//! The event queue: a deterministic discrete-event scheduler.
//!
//! Events are ordered by a *canonical key* — `(time, class rank, actor
//! index)` — rather than by insertion order. Canonical keys are what make
//! the sharded engine (see [`crate::sharded`]) bit-for-bit deterministic
//! for any worker count: two engines that schedule the same set of events
//! process them in the same order no matter which thread (or which
//! insertion sequence) produced them. The key is unique per event in a
//! directory simulation because
//!
//! * at most one `ProcessorIssue` per cpu is pending at a time (a cpu
//!   reschedules itself only when a reference retires), and
//! * the crossbar's per-destination port occupancy of one cycle gives
//!   every `DeliverToCache`/`DeliverToModule` for one destination a
//!   strictly distinct arrival time.
//!
//! A monotone sequence number is kept as a defensive final tiebreak (and
//! asserted unused in debug builds).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use twobit_types::{CacheId, CacheToMemory, MemoryToCache, ModuleId};

/// A simulation event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Processor `cpu` attempts to issue its next reference.
    ProcessorIssue {
        /// The issuing processor–cache pair.
        cpu: CacheId,
    },
    /// A network message arrives at a cache.
    DeliverToCache {
        /// Recipient.
        cache: CacheId,
        /// The command.
        msg: MemoryToCache,
    },
    /// A network message arrives at a memory-module controller.
    DeliverToModule {
        /// Recipient.
        module: ModuleId,
        /// The command.
        cmd: CacheToMemory,
    },
}

impl Event {
    /// The event-class rank of the canonical ordering. Deliveries rank
    /// before issues so that an issue rescheduled *at the current cycle*
    /// (a zero-latency hit/think configuration) still sorts after the
    /// event that caused it — processing order then equals key order,
    /// which the sharded engine's parity argument relies on.
    #[must_use]
    pub fn class_rank(&self) -> u8 {
        match self {
            Event::DeliverToModule { .. } => 0,
            Event::DeliverToCache { .. } => 1,
            Event::ProcessorIssue { .. } => 2,
        }
    }

    /// The dense index of the actor the event targets.
    #[must_use]
    pub fn actor_index(&self) -> u32 {
        let i = match self {
            Event::ProcessorIssue { cpu } => cpu.index(),
            Event::DeliverToCache { cache, .. } => cache.index(),
            Event::DeliverToModule { module, .. } => module.index(),
        };
        i as u32
    }

    /// The canonical scheduling key of this event at `time`.
    #[must_use]
    pub fn key(&self, time: u64) -> EventKey {
        EventKey {
            time,
            class: self.class_rank(),
            actor: self.actor_index(),
        }
    }
}

/// The canonical total order on scheduled events: time, then event-class
/// rank, then actor index. Unique per event (see the module docs), hence
/// independent of insertion order — the property the sharded engine's
/// determinism rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Simulated cycle.
    pub time: u64,
    /// Event-class rank ([`Event::class_rank`]).
    pub class: u8,
    /// Dense actor index ([`Event::actor_index`]).
    pub actor: u32,
}

#[derive(Debug)]
struct Scheduled {
    key: EventKey,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first. The
        // canonical key decides; seq is a defensive tiebreak that the
        // uniqueness argument says never fires.
        (other.key, other.seq).cmp(&(self.key, self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic event queue ordered by canonical [`EventKey`]s.
/// Together with the network's per-destination FIFO this gives the
/// protocols the ordering guarantees they rely on, independently of the
/// order events were pushed.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` at `time`.
    // `#[inline]` (here and on `pop`): the legacy loop's callers sit in
    // other codegen units, and an out-of-line heap call per event costs
    // it ~10 %.
    #[inline]
    pub fn push(&mut self, time: u64, event: Event) {
        self.seq += 1;
        self.heap.push(Scheduled {
            key: event.key(time),
            seq: self.seq,
            event,
        });
    }

    /// Pops the earliest event, with its time.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        let popped = self.heap.pop()?;
        debug_assert!(
            self.heap.peek().is_none_or(|next| next.key != popped.key),
            "duplicate canonical key {:?} — the uniqueness argument is broken",
            popped.key
        );
        Some((popped.key.time, popped.event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(n: usize) -> Event {
        Event::ProcessorIssue {
            cpu: CacheId::new(n),
        }
    }

    fn deliver_cache(n: usize) -> Event {
        Event::DeliverToCache {
            cache: CacheId::new(n),
            msg: MemoryToCache::BroadInv {
                a: twobit_types::BlockAddr::new(1),
                exclude: CacheId::new(0),
            },
        }
    }

    fn deliver_module(n: usize) -> Event {
        Event::DeliverToModule {
            module: ModuleId::new(n),
            cmd: CacheToMemory::Eject {
                k: CacheId::new(0),
                olda: twobit_types::BlockAddr::new(1),
                wb: twobit_types::WritebackKind::Clean,
            },
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5, issue(0));
        q.push(1, issue(1));
        q.push(3, issue(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn equal_times_pop_in_canonical_order() {
        // Insertion order is scrambled on purpose: the canonical
        // (class, actor) key, not the push sequence, decides — module
        // deliveries first, then cache deliveries, then issues, each by
        // ascending actor index.
        let mut q = EventQueue::new();
        q.push(7, issue(1));
        q.push(7, deliver_cache(2));
        q.push(7, issue(0));
        q.push(7, deliver_module(1));
        q.push(7, deliver_cache(0));
        q.push(7, deliver_module(0));
        let order: Vec<(u8, u32)> =
            std::iter::from_fn(|| q.pop().map(|(_, e)| (e.class_rank(), e.actor_index())))
                .collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 1)]);
    }

    #[test]
    fn canonical_key_orders_before_insertion_seq() {
        let mut q = EventQueue::new();
        q.push(7, issue(4));
        q.push(7, issue(0));
        let first = q.pop().unwrap().1;
        assert_eq!(first.actor_index(), 0, "actor index outranks push order");
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, issue(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
