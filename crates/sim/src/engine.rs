//! Simulation events and their canonical order.
//!
//! Events are ordered by a *canonical key* — `(time, class rank, actor
//! index)` — rather than by insertion order. Canonical keys are what make
//! the engine (see [`crate::sharded`]) bit-for-bit deterministic for any
//! shard or worker count: the same set of events is processed in the same
//! order no matter which thread (or which insertion sequence) produced
//! them. The key is unique per event in a directory simulation because
//!
//! * at most one `ProcessorIssue` per cpu is pending at a time (a cpu
//!   reschedules itself only when a reference retires), and
//! * the crossbar's per-destination port occupancy of one cycle gives
//!   every `DeliverToCache`/`DeliverToModule` for one destination a
//!   strictly distinct arrival time.
//!
//! The calendar queue ([`crate::calendar`]) asserts that uniqueness in
//! debug builds.

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
    /// which the engine's determinism argument relies on.
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
/// independent of insertion order — the property the engine's determinism
/// rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Simulated cycle.
    pub time: u64,
    /// Event-class rank ([`Event::class_rank`]).
    pub class: u8,
    /// Dense actor index ([`Event::actor_index`]).
    pub actor: u32,
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
    fn time_outranks_class_and_actor() {
        assert!(issue(9).key(1) < deliver_module(0).key(2));
    }

    #[test]
    fn equal_times_order_by_class_then_actor() {
        // Module deliveries first, then cache deliveries, then issues,
        // each by ascending actor index.
        let mut events = [
            issue(1),
            deliver_cache(2),
            issue(0),
            deliver_module(1),
            deliver_cache(0),
            deliver_module(0),
        ];
        events.sort_by_key(|e| e.key(7));
        let order: Vec<(u8, u32)> = events
            .iter()
            .map(|e| (e.class_rank(), e.actor_index()))
            .collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 1)]);
    }
}
