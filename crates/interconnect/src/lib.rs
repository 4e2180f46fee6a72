//! Interconnection-network models for the Figure 3-1 topology.
//!
//! The paper's system connects `n` processor–cache pairs to `m`
//! controller–memory modules through an unspecified "interconnection
//! network"; its section 4 worries specifically about "the effect of the
//! broadcasts on traffic in the interconnection network". Two models
//! capture the ends of the design space:
//!
//! * [`Crossbar`] — point-to-point paths with per-destination-port
//!   contention: messages to different destinations never interfere, but
//!   a broadcast occupies *every* cache's input port — making the
//!   two-bit scheme's broadcast amplification directly visible in
//!   queueing-cycle statistics.
//! * [`SharedBus`] — a single serializing resource (used by the
//!   section 2.5 snooping protocols in `twobit-bus`, and available for
//!   directory schemes for comparison).
//!
//! Both models guarantee per-destination FIFO delivery (a message sent
//! earlier to the same recipient is delivered no later), which the
//! directory protocols in `twobit-core` rely on for their race
//! resolutions (e.g. `BROADINV` before a stale `MGRANTED`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod poll;
pub mod transport;

use twobit_obs::{ActorId, Profiler, SimEvent, Tracer};
use twobit_types::{BlockAddr, CacheId, ModuleId, NetworkStats};

/// A network endpoint: a cache or a memory-module controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// A processor–cache pair `C_k`.
    Cache(CacheId),
    /// A controller–memory module `K_j`–`M_j`.
    Module(ModuleId),
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeId::Cache(c) => write!(f, "{c}"),
            NodeId::Module(m) => write!(f, "{m}"),
        }
    }
}

/// What a message carries, for latency selection: control commands are
/// short; block transfers (`put`/`get`) are long.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageSize {
    /// A control command.
    Command,
    /// A block data transfer.
    Data,
}

impl std::fmt::Display for MessageSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MessageSize::Command => "cmd",
            MessageSize::Data => "data",
        })
    }
}

/// A timing model of the interconnection network.
///
/// `schedule` is called once per point delivery (the simulator expands a
/// broadcast into one call per recipient); it returns the cycle at which
/// the message arrives at `dst`, accounting for contention, and updates
/// traffic statistics.
pub trait Network {
    /// Schedules a delivery injected at cycle `now`; returns arrival time.
    fn schedule(&mut self, src: NodeId, dst: NodeId, size: MessageSize, now: u64) -> u64;

    /// Records one *logical* message injection (a broadcast counts once),
    /// for the `command_messages`/`data_messages` statistics.
    fn note_injection(&mut self, size: MessageSize);

    /// Accumulated traffic statistics.
    fn stats(&self) -> &NetworkStats;

    /// A short model name for reports.
    fn name(&self) -> &'static str;

    /// [`schedule`](Network::schedule) under the simulator's observers.
    ///
    /// When `tracer` is enabled it records a network occupancy event for
    /// `block`'s message: the hop, the payload size, the arrival cycle,
    /// and — when the destination port was busy — the queueing delay this
    /// message absorbed, making contention visible per message rather
    /// than only as the aggregate `queueing_cycles` counter.
    ///
    /// The whole call sits in a `net.schedule` span of `perf`, so the
    /// per-delivery reservation work (port contention lookup, statistics)
    /// shows up as its own line in the simulator's self-time attribution
    /// instead of being folded into whichever handler sent the message.
    #[allow(clippy::too_many_arguments)] // schedule's list + the block + two observers
    fn schedule_profiled(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size: MessageSize,
        now: u64,
        block: BlockAddr,
        tracer: &mut dyn Tracer,
        perf: &mut Profiler,
    ) -> u64 {
        perf.begin("net.schedule");
        let queued_before = self.stats().queueing_cycles.get();
        let arrival = self.schedule(src, dst, size, now);
        if tracer.enabled() {
            let queued = self.stats().queueing_cycles.get() - queued_before;
            let mut text = format!("net {src}->{dst} {size} arr@{arrival}");
            if queued > 0 {
                text.push_str(&format!(" (+{queued} queued)"));
            }
            tracer.record(SimEvent::new(now, ActorId::Network, block, text));
        }
        perf.end("net.schedule");
        arrival
    }
}

/// Point-to-point network with per-destination input-port contention.
///
/// Port bookkeeping is two flat vectors indexed by the dense cache /
/// module indices (node ids are small and contiguous), grown on demand —
/// the dispatch path does no hashing. The timed engine gives each run a
/// fresh `Crossbar` and folds its traffic counters into the simulation's
/// after the run.
#[derive(Debug, Clone)]
pub struct Crossbar {
    command_latency: u64,
    data_latency: u64,
    /// Cycles a destination port is busy accepting one message.
    port_occupancy: u64,
    cache_ports: Vec<u64>,
    module_ports: Vec<u64>,
    stats: NetworkStats,
}

impl Crossbar {
    /// A crossbar with the given wire latencies and per-message port
    /// occupancy.
    #[must_use]
    pub fn new(command_latency: u64, data_latency: u64, port_occupancy: u64) -> Self {
        Crossbar {
            command_latency,
            data_latency,
            port_occupancy,
            cache_ports: Vec::new(),
            module_ports: Vec::new(),
            stats: NetworkStats::default(),
        }
    }

    #[inline]
    fn port_free(&mut self, dst: NodeId) -> &mut u64 {
        let (ports, index) = match dst {
            NodeId::Cache(c) => (&mut self.cache_ports, c.index()),
            NodeId::Module(m) => (&mut self.module_ports, m.index()),
        };
        if index >= ports.len() {
            ports.resize(index + 1, 0);
        }
        &mut ports[index]
    }
}

impl Network for Crossbar {
    fn schedule(&mut self, _src: NodeId, dst: NodeId, size: MessageSize, now: u64) -> u64 {
        let wire = match size {
            MessageSize::Command => self.command_latency,
            MessageSize::Data => self.data_latency,
        };
        let earliest = now + wire;
        let occupancy = self.port_occupancy;
        let free = self.port_free(dst);
        let arrival = earliest.max(*free);
        *free = arrival + occupancy;
        self.stats.queueing_cycles.add(arrival - earliest);
        self.stats.deliveries.inc();
        arrival
    }

    fn note_injection(&mut self, size: MessageSize) {
        match size {
            MessageSize::Command => self.stats.command_messages.inc(),
            MessageSize::Data => self.stats.data_messages.inc(),
        }
    }

    fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "crossbar"
    }
}

/// A single shared bus: every delivery serializes through one resource.
#[derive(Debug, Clone)]
pub struct SharedBus {
    command_cycles: u64,
    data_cycles: u64,
    next_free: u64,
    stats: NetworkStats,
}

impl SharedBus {
    /// A bus occupying `command_cycles` per command and `data_cycles` per
    /// block transfer.
    #[must_use]
    pub fn new(command_cycles: u64, data_cycles: u64) -> Self {
        SharedBus {
            command_cycles,
            data_cycles,
            next_free: 0,
            stats: NetworkStats::default(),
        }
    }

    /// The cycle at which the bus next becomes free.
    #[must_use]
    pub fn next_free(&self) -> u64 {
        self.next_free
    }

    /// Acquires the bus at `now` for a transaction of the given size;
    /// returns the cycle the transaction *completes*. Snooping protocols
    /// use this directly: address + snoop happen during the occupancy.
    pub fn acquire(&mut self, size: MessageSize, now: u64) -> u64 {
        let occupancy = match size {
            MessageSize::Command => self.command_cycles,
            MessageSize::Data => self.data_cycles,
        };
        let start = now.max(self.next_free);
        self.stats.queueing_cycles.add(start - now);
        self.next_free = start + occupancy;
        self.next_free
    }
}

impl Network for SharedBus {
    fn schedule(&mut self, _src: NodeId, _dst: NodeId, size: MessageSize, now: u64) -> u64 {
        let arrival = self.acquire(size, now);
        self.stats.deliveries.inc();
        arrival
    }

    fn note_injection(&mut self, size: MessageSize) {
        match size {
            MessageSize::Command => self.stats.command_messages.inc(),
            MessageSize::Data => self.stats.data_messages.inc(),
        }
    }

    fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    fn name(&self) -> &'static str {
        "shared-bus"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(n: usize) -> NodeId {
        NodeId::Cache(CacheId::new(n))
    }

    fn module(n: usize) -> NodeId {
        NodeId::Module(ModuleId::new(n))
    }

    #[test]
    fn crossbar_uncontended_delivery_is_wire_latency() {
        let mut x = Crossbar::new(2, 4, 1);
        assert_eq!(
            x.schedule(cache(0), module(0), MessageSize::Command, 10),
            12
        );
        assert_eq!(x.schedule(cache(1), module(1), MessageSize::Data, 10), 14);
        assert_eq!(x.stats().deliveries.get(), 2);
        assert_eq!(x.stats().queueing_cycles.get(), 0);
    }

    #[test]
    fn crossbar_same_destination_contends() {
        let mut x = Crossbar::new(2, 4, 3);
        let first = x.schedule(cache(0), module(0), MessageSize::Command, 0);
        let second = x.schedule(cache(1), module(0), MessageSize::Command, 0);
        assert_eq!(first, 2);
        assert_eq!(second, 5, "port busy until 5");
        assert_eq!(x.stats().queueing_cycles.get(), 3);
        // Different destination: unaffected.
        assert_eq!(x.schedule(cache(2), module(1), MessageSize::Command, 0), 2);
    }

    #[test]
    fn crossbar_is_fifo_per_destination() {
        let mut x = Crossbar::new(2, 4, 1);
        let mut last = 0;
        for now in [0u64, 0, 1, 3] {
            let arrival = x.schedule(cache(0), cache(5), MessageSize::Command, now);
            assert!(arrival >= last, "delivery order inverted");
            last = arrival;
        }
    }

    #[test]
    fn broadcast_fanout_occupies_every_port_once() {
        let mut x = Crossbar::new(1, 2, 1);
        // A broadcast to 7 caches is 7 schedules; each cache's port sees
        // exactly one message — no shared bottleneck in a crossbar.
        let arrivals: Vec<u64> = (0..7)
            .map(|i| x.schedule(module(0), cache(i), MessageSize::Command, 0))
            .collect();
        assert!(arrivals.iter().all(|&t| t == 1));
        assert_eq!(x.stats().deliveries.get(), 7);
    }

    #[test]
    fn zero_latency_crossbar_delivers_instantly() {
        let mut x = Crossbar::new(0, 0, 0);
        assert_eq!(x.schedule(cache(0), module(0), MessageSize::Data, 7), 7);
    }

    #[test]
    fn bus_serializes_everything() {
        let mut b = SharedBus::new(2, 6);
        assert_eq!(b.schedule(cache(0), module(0), MessageSize::Command, 0), 2);
        assert_eq!(b.schedule(cache(1), module(0), MessageSize::Data, 0), 8);
        assert_eq!(
            b.stats().queueing_cycles.get(),
            2,
            "second waited for the bus"
        );
        assert_eq!(b.next_free(), 8);
    }

    #[test]
    fn bus_idle_gap_does_not_accumulate() {
        let mut b = SharedBus::new(2, 6);
        b.acquire(MessageSize::Command, 0);
        // Bus free at 2; next transaction at 10 starts immediately.
        assert_eq!(b.acquire(MessageSize::Command, 10), 12);
        assert_eq!(b.stats().queueing_cycles.get(), 0);
    }

    #[test]
    fn injections_count_by_size() {
        let mut x = Crossbar::new(0, 0, 0);
        x.note_injection(MessageSize::Command);
        x.note_injection(MessageSize::Command);
        x.note_injection(MessageSize::Data);
        assert_eq!(x.stats().command_messages.get(), 2);
        assert_eq!(x.stats().data_messages.get(), 1);
    }

    #[test]
    fn node_ids_display() {
        assert_eq!(cache(3).to_string(), "C3");
        assert_eq!(module(1).to_string(), "M1");
    }
}
