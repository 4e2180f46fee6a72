//! The sharded parallel engine: cycle-barrier execution of the
//! directory simulation, partitioned by home memory module.
//!
//! # Partitioning
//!
//! Blocks are owned by their home module (the address map), so all
//! directory state for a block lives in exactly one controller. The
//! engine partitions *both* controllers and caches round-robin over `S`
//! shards (module `j` → shard `j mod S`, cache `k` → shard `k mod S`);
//! every agent, controller, pending-transaction slot, and per-cpu
//! counter is then owned by exactly one shard, and a shard's event
//! handlers touch only shard-local state. `S` is fixed by the
//! configuration alone (the module count), never by the worker count —
//! which is what makes the results identical for any `--jobs`.
//!
//! # Conservative windows
//!
//! Every cross-actor interaction rides the network, and the crossbar's
//! cheapest hop costs `W = min(net_command, net_data)` cycles, so an
//! event processed at cycle `t` can only influence other actors at
//! `t + W` or later. Shards therefore run classic conservative PDES
//! rounds: process every local event in the window `[T, T + W)`,
//! buffering *all* sends (even shard-local ones) as [`OutMsg`]s; move
//! each send to its destination shard's inbox — directly when the same
//! worker owns that shard, through the owning worker's mailbox otherwise;
//! barrier; drain the inbox — sorted by the sender-side canonical key —
//! scheduling each message on the shard's own crossbar and enqueueing its
//! arrival; reduce the global minimum next event time through the second
//! barrier; advance `T`. When the reduced minimum is `u64::MAX` every
//! queue is empty and the run is complete. `W == 0` (a zero-latency
//! network) collapses to one shard, which processes and drains per event
//! — the legacy order exactly.
//!
//! # What a round costs
//!
//! With the default latencies `W = 2`, so a run is hundreds of thousands
//! of rounds of a handful of events each, and the round's fixed cost is
//! the engine's cost. One loop serves every worker count, and it pays
//! only for what a round contains: worker 0 is the calling thread (one
//! worker spawns nothing); a shard whose next event lies beyond the
//! window is skipped; outboxes, inboxes and mailboxes are drained in
//! place and keep their buffers; and the [`RoundBarrier`] returns at
//! once for a single party and otherwise spins, then yields, then parks.
//! With one worker every shard is local, so a round takes no lock, no
//! barrier and no allocation.
//!
//! # Why this is *exactly* the single-threaded simulation
//!
//! The legacy engine pops events in canonical [`EventKey`] order and its
//! only order-sensitive shared resource is the crossbar's
//! per-destination port clock, which advances in `schedule()` *call*
//! order. Within a window, shards process disjoint state, so only the
//! schedule-call order at each destination matters; draining mailboxes
//! sorted by `(cause key, sub)` — the canonical key of the event that
//! sent the message, then the send's index within that event — restores
//! precisely the call order the legacy loop would have used. Arrival
//! times, event counts, per-cache statistics, latency histograms, and
//! version/transaction numbering (already interleaved per-cpu) are
//! therefore bit-for-bit identical for any shard or worker count. The
//! only divergence is the sampled gauges (`queue_depth`, `outstanding`):
//! each shard samples only the actors it owns, so with `S > 1` their
//! peaks/means are per-shard views (exact again at `S == 1`). Trace
//! events are buffered per shard keyed by `(cause, sub, minor)` and
//! merge-sorted at the end, so a traced sharded run emits the legacy
//! event stream in the legacy order.

use crate::calendar::ShardQueue;
use crate::directory_sim::{DirectorySim, PendingTxn};
use crate::engine::{Event, EventKey};
use crate::report::Report;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use twobit_core::{CacheAgent, Controller, CtrlEmit, SendCost};
use twobit_interconnect::{Crossbar, MessageSize, Network, NodeId};
use twobit_obs::{ActorId, Metrics, Profiler, SimEvent, Tracer, TxnClass};
use twobit_types::{
    AccessKind, CacheId, CacheToMemory, MemoryToCache, ModuleId, ProtocolError, SystemConfig,
    TxnId, Version,
};
use twobit_workload::Workload;

/// Total order on buffered trace records: the canonical key of the event
/// being processed when the record was made, the record's reserved slot
/// within that event, and a minor counter for multi-record slots.
type TraceKey = (EventKey, u32, u32);

/// A shard's failure: the canonical key of the failing event orders
/// simultaneous failures.
type Failure = (EventKey, ProtocolError);

/// A per-shard trace sink that buffers events with their global ordering
/// key instead of writing them, so per-shard streams can be merge-sorted
/// into the legacy single-threaded order after the run.
///
/// The `sub` counter doubles as the interleaving position for *sends*:
/// reserving a slot for each buffered [`OutMsg`] keeps the destination
/// shard's drain — and any trace records the drain-side network
/// scheduling emits under the reserved slot — in the exact position the
/// legacy loop would have produced them.
#[derive(Debug)]
struct BufTracer {
    on: bool,
    cause: EventKey,
    sub: u32,
    minor: u32,
    fixed: Option<u32>,
    buf: Vec<(TraceKey, SimEvent)>,
}

impl BufTracer {
    fn new(on: bool) -> Self {
        BufTracer {
            on,
            cause: EventKey {
                time: 0,
                class: 0,
                actor: 0,
            },
            sub: 0,
            minor: 0,
            fixed: None,
            buf: Vec::new(),
        }
    }

    /// Starts a new ordering scope for processing the event with `cause`.
    fn begin_event(&mut self, cause: EventKey) {
        self.cause = cause;
        self.sub = 0;
        self.minor = 0;
        self.fixed = None;
    }

    /// Claims the next interleaving slot (for a buffered send).
    fn reserve_sub(&mut self) -> u32 {
        let s = self.sub;
        self.sub += 1;
        s
    }

    /// Pins subsequent records to a reserved slot of a (possibly remote)
    /// cause — used while draining that send at its destination.
    fn begin_drain(&mut self, cause: EventKey, sub: u32) {
        self.cause = cause;
        self.fixed = Some(sub);
        self.minor = 0;
    }

    fn end_drain(&mut self) {
        self.fixed = None;
    }
}

impl Tracer for BufTracer {
    fn enabled(&self) -> bool {
        self.on
    }

    fn record(&mut self, event: SimEvent) {
        let key = match self.fixed {
            Some(sub) => {
                let k = (self.cause, sub, self.minor);
                self.minor += 1;
                k
            }
            None => (self.cause, self.reserve_sub(), 0),
        };
        self.buf.push((key, event));
    }

    fn flush(&mut self) {}
}

/// A send buffered during window processing, delivered to the
/// destination shard at the round barrier.
#[derive(Debug)]
struct OutMsg {
    /// The shard that owns the destination actor.
    dst: usize,
    /// Canonical key of the event whose handler produced this send.
    cause: EventKey,
    /// The send's reserved interleaving slot within that event.
    sub: u32,
    /// Network injection cycle (handler base time plus controller or
    /// memory latency, exactly as the legacy dispatch computes it).
    inject: u64,
    size: MessageSize,
    kind: MsgKind,
}

#[derive(Debug)]
enum MsgKind {
    ToModule {
        src: CacheId,
        module: ModuleId,
        cmd: CacheToMemory,
    },
    ToCache {
        module: ModuleId,
        cache: CacheId,
        cmd: MemoryToCache,
    },
}

/// One shard: the agents and controllers it owns, their per-cpu
/// bookkeeping, a local calendar queue, a local crossbar (tracking only
/// the ports of destinations this shard owns), and per-shard metrics /
/// trace / profiler sinks that merge after the run.
///
/// Global cache `k` lives at local index `k / n_shards` of shard
/// `k % n_shards`; modules likewise.
struct Shard<W> {
    id: usize,
    n_shards: usize,
    config: SystemConfig,
    workload: W,
    agents: Vec<CacheAgent>,
    controllers: Vec<Controller>,
    pending: Vec<Option<PendingTxn>>,
    version_counters: Vec<u64>,
    txn_counters: Vec<u64>,
    refs_done: Vec<u64>,
    refs_target: u64,
    budget: u64,
    queue: ShardQueue,
    network: Crossbar,
    metrics: Metrics,
    tracer: BufTracer,
    profiler: Profiler,
    /// Sends buffered while processing the current window.
    outbox: Vec<OutMsg>,
    /// Sends addressed to this shard, awaiting the cause-sorted drain.
    inbox: Vec<OutMsg>,
    /// Cached `queue.min_time()` (`u64::MAX` when empty), refreshed
    /// whenever the queue changes, so a round can skip idle shards.
    next: u64,
    /// Open transactions among this shard's caches (the `outstanding`
    /// gauge), kept as a running count.
    outstanding: u64,
    /// Requests queued across this shard's controllers (the
    /// `queue_depth` gauge), kept as a running sum.
    queued: u64,
    now: u64,
    events: u64,
}

impl<W: Workload> Shard<W> {
    fn local_cache(&self, k: CacheId) -> usize {
        debug_assert_eq!(k.index() % self.n_shards, self.id);
        k.index() / self.n_shards
    }

    fn local_module(&self, m: ModuleId) -> usize {
        debug_assert_eq!(m.index() % self.n_shards, self.id);
        m.index() / self.n_shards
    }

    /// Processes every local event strictly before `end`.
    fn process_window(&mut self, end: u64) -> Result<(), Failure> {
        loop {
            self.profiler.begin("engine.pop");
            let popped = self.queue.pop_in(end);
            self.profiler.end("engine.pop");
            let Some((time, event)) = popped else {
                self.next = self.queue.min_time().unwrap_or(u64::MAX);
                return Ok(());
            };
            self.step(time, event)?;
        }
    }

    /// The single-shard (serial) loop: process and immediately deliver,
    /// event by event — the legacy engine's exact behavior, used when the
    /// network lookahead is zero.
    fn run_serial(&mut self) -> Result<(), Failure> {
        loop {
            self.profiler.begin("engine.pop");
            let popped = self.queue.pop_in(u64::MAX);
            self.profiler.end("engine.pop");
            let Some((time, event)) = popped else {
                return Ok(());
            };
            self.step(time, event)?;
            // One shard: every send is to self. The inbox is empty
            // here, so the swap also hands the outbox its buffer back.
            std::mem::swap(&mut self.inbox, &mut self.outbox);
            self.apply_inbox();
        }
    }

    /// Mirrors one iteration of the legacy event loop.
    fn step(&mut self, time: u64, event: Event) -> Result<(), Failure> {
        debug_assert!(time >= self.now, "time went backwards");
        let key = event.key(time);
        self.now = time;
        self.events += 1;
        if self.now > self.budget {
            return Err((
                key,
                ProtocolError::UnexpectedCommand {
                    state: format!("cycle {}", self.now),
                    command: "liveness budget exhausted — the system is wedged".to_string(),
                },
            ));
        }
        self.tracer.begin_event(key);
        self.handle(event).map_err(|e| (key, e))
    }

    fn handle(&mut self, event: Event) -> Result<(), ProtocolError> {
        match event {
            Event::ProcessorIssue { cpu } => {
                let li = self.local_cache(cpu);
                if self.refs_done[li] >= self.refs_target {
                    return Ok(());
                }
                self.profiler.begin("event.issue");
                let op = self.workload.next_ref(cpu);
                let version = match op.kind {
                    AccessKind::Write => self.fresh_version(cpu),
                    AccessKind::Read => Version::initial(),
                };
                self.profiler.begin("agent.start");
                let outcome = self.agents[li].start(op, version);
                self.profiler.end("agent.start");
                let base = self.now;
                let txn = if outcome.completed.is_some() {
                    None
                } else {
                    let class = DirectorySim::classify_open(&outcome.sends, op.kind);
                    let id = self.open_txn(cpu, class, base);
                    self.outstanding += 1;
                    self.metrics.outstanding.observe(base, self.outstanding);
                    Some(id)
                };
                if self.tracer.enabled() {
                    let mut ev = SimEvent::new(
                        base,
                        ActorId::Cache(cpu),
                        op.addr.block,
                        format!("issue {op}"),
                    );
                    if let Some(id) = txn {
                        ev = ev.txn(id);
                    }
                    self.tracer.record(ev);
                }
                self.buffer_to_memory(cpu, outcome.sends, base);
                if outcome.completed.is_some() {
                    self.refs_done[li] += 1;
                    self.schedule_next_issue(cpu, base);
                }
                self.profiler.end("event.issue");
            }
            Event::DeliverToCache { cache, msg } => {
                let li = self.local_cache(cache);
                self.profiler.begin("event.deliver_cache");
                let useless_before = self.agents[li].stats().useless_commands.get();
                let local_before = if self.tracer.enabled() {
                    Some(
                        self.agents[li]
                            .cache()
                            .state_of(msg.block())
                            .as_line_state(),
                    )
                } else {
                    None
                };
                self.profiler.begin("agent.on_network");
                let out = self.agents[li].on_network(msg)?;
                self.profiler.end("agent.on_network");
                let base = self.now
                    + if out.counted {
                        self.config.latency.snoop_service
                    } else {
                        0
                    };
                let useless =
                    out.counted && self.agents[li].stats().useless_commands.get() > useless_before;
                if out.counted {
                    self.metrics.record_command(cache, useless);
                }
                let finished = if out.completed.is_some() {
                    self.pending[li].take()
                } else {
                    None
                };
                if let Some(p) = finished {
                    self.metrics
                        .record_latency(p.class, base.saturating_sub(p.start));
                    self.outstanding -= 1;
                    self.metrics.outstanding.observe(base, self.outstanding);
                }
                if self.tracer.enabled() {
                    let local_after = self.agents[li]
                        .cache()
                        .state_of(msg.block())
                        .as_line_state();
                    let mut ev = SimEvent::new(
                        self.now,
                        ActorId::Cache(cache),
                        msg.block(),
                        msg.to_string(),
                    )
                    .class(msg.class())
                    .useless(useless);
                    if let Some(before) = local_before {
                        if before != local_after {
                            ev = ev.local(before, local_after);
                        }
                    }
                    if let Some(p) = finished {
                        ev = ev.txn(p.id);
                    }
                    self.tracer.record(ev);
                }
                self.buffer_to_memory(cache, out.sends, base);
                if out.completed.is_some() {
                    self.refs_done[li] += 1;
                    self.schedule_next_issue(cache, base);
                }
                self.profiler.end("event.deliver_cache");
            }
            Event::DeliverToModule { module, cmd } => {
                let lj = self.local_module(module);
                self.profiler.begin("event.deliver_module");
                let queued_before = self.controllers[lj].queued() as u64;
                let emits = self.controllers[lj].submit_observed(
                    cmd,
                    self.now,
                    &mut self.tracer,
                    &mut self.profiler,
                )?;
                self.queued = self.queued - queued_before + self.controllers[lj].queued() as u64;
                self.metrics.queue_depth.observe(self.now, self.queued);
                let base = self.now;
                self.buffer_emits(module, emits, base);
                self.profiler.end("event.deliver_module");
            }
        }
        Ok(())
    }

    /// Per-cpu version token; same interleaved formula as the legacy
    /// engine, so the value depends only on the cpu's own stream.
    fn fresh_version(&mut self, cpu: CacheId) -> Version {
        let n = self.config.caches as u64;
        let count = &mut self.version_counters[cpu.index() / self.n_shards];
        *count += 1;
        Version::new((*count - 1) * n + cpu.index() as u64 + 1)
    }

    fn open_txn(&mut self, cpu: CacheId, class: TxnClass, start: u64) -> TxnId {
        let n = self.config.caches as u64;
        let li = cpu.index() / self.n_shards;
        let count = &mut self.txn_counters[li];
        *count += 1;
        let id = TxnId::new((*count - 1) * n + cpu.index() as u64 + 1);
        self.pending[li] = Some(PendingTxn { class, start, id });
        id
    }

    fn schedule_next_issue(&mut self, cpu: CacheId, base: u64) {
        if self.refs_done[self.local_cache(cpu)] < self.refs_target {
            let delay = self.config.latency.cache_hit + self.config.think_time;
            self.queue.push(base + delay, Event::ProcessorIssue { cpu });
        }
    }

    /// Buffers cache→module sends (the sharded `dispatch_to_memory`).
    fn buffer_to_memory(&mut self, from: CacheId, sends: Vec<CacheToMemory>, base: u64) {
        self.profiler.begin("net.dispatch");
        for cmd in sends {
            let module = self.config.address_map.module_of(cmd.block());
            let size = match cmd {
                CacheToMemory::PutData { .. } => MessageSize::Data,
                _ => MessageSize::Command,
            };
            self.network.note_injection(size);
            let sub = self.tracer.reserve_sub();
            self.outbox.push(OutMsg {
                dst: module.index() % self.n_shards,
                cause: self.tracer.cause,
                sub,
                inject: base,
                size,
                kind: MsgKind::ToModule {
                    src: from,
                    module,
                    cmd,
                },
            });
        }
        self.profiler.end("net.dispatch");
    }

    /// Buffers module→cache sends (the sharded `dispatch_emits`).
    fn buffer_emits(&mut self, module: ModuleId, emits: Vec<CtrlEmit>, base: u64) {
        self.profiler.begin("net.dispatch");
        for emit in emits {
            match emit {
                CtrlEmit::Unicast { to, cmd, cost } => {
                    let (size, extra) = match cost {
                        SendCost::Command => (MessageSize::Command, 0),
                        SendCost::DataFromMemory => (MessageSize::Data, self.config.latency.memory),
                        SendCost::DataForwarded => (MessageSize::Data, 0),
                    };
                    self.network.note_injection(size);
                    let inject = base + self.config.latency.controller + extra;
                    let sub = self.tracer.reserve_sub();
                    self.outbox.push(OutMsg {
                        dst: to.index() % self.n_shards,
                        cause: self.tracer.cause,
                        sub,
                        inject,
                        size,
                        kind: MsgKind::ToCache {
                            module,
                            cache: to,
                            cmd,
                        },
                    });
                }
                CtrlEmit::Broadcast { cmd, exclude, cost } => {
                    let size = match cost {
                        SendCost::Command => MessageSize::Command,
                        _ => MessageSize::Data,
                    };
                    self.network.note_injection(size);
                    let inject = base + self.config.latency.controller;
                    if self.tracer.enabled() {
                        self.tracer.record(SimEvent::new(
                            inject,
                            ActorId::Network,
                            cmd.block(),
                            format!(
                                "fanout {cmd} from {module} to {} caches",
                                self.config.caches - 1
                            ),
                        ));
                    }
                    for cache in CacheId::all(self.config.caches) {
                        if cache == exclude {
                            continue;
                        }
                        let sub = self.tracer.reserve_sub();
                        self.outbox.push(OutMsg {
                            dst: cache.index() % self.n_shards,
                            cause: self.tracer.cause,
                            sub,
                            inject,
                            size,
                            kind: MsgKind::ToCache { module, cache, cmd },
                        });
                    }
                }
            }
        }
        self.profiler.end("net.dispatch");
    }

    /// Delivers the inbox: sorts by the sender-side canonical order (so
    /// the order sends *arrived* in the inbox never matters), reserves
    /// the destination port on the shard-local crossbar (reproducing the
    /// legacy schedule-call order, hence the legacy arrival times), and
    /// enqueues the arrivals. The inbox keeps its buffer.
    fn apply_inbox(&mut self) {
        if self.inbox.is_empty() {
            return;
        }
        let mut msgs = std::mem::take(&mut self.inbox);
        msgs.sort_unstable_by_key(|m| (m.cause, m.sub));
        for msg in msgs.drain(..) {
            self.tracer.begin_drain(msg.cause, msg.sub);
            match msg.kind {
                MsgKind::ToModule { src, module, cmd } => {
                    let arrival = self.network.schedule_profiled(
                        NodeId::Cache(src),
                        NodeId::Module(module),
                        msg.size,
                        msg.inject,
                        cmd.block(),
                        &mut self.tracer,
                        &mut self.profiler,
                    );
                    // The replacement "transaction" never stalls the
                    // processor; its latency is injection-to-delivery,
                    // recorded here where the arrival time is known.
                    if matches!(cmd, CacheToMemory::Eject { .. }) {
                        self.metrics
                            .record_latency(TxnClass::Replacement, arrival - msg.inject);
                    }
                    self.queue
                        .push(arrival, Event::DeliverToModule { module, cmd });
                }
                MsgKind::ToCache { module, cache, cmd } => {
                    let arrival = self.network.schedule_profiled(
                        NodeId::Module(module),
                        NodeId::Cache(cache),
                        msg.size,
                        msg.inject,
                        cmd.block(),
                        &mut self.tracer,
                        &mut self.profiler,
                    );
                    self.queue
                        .push(arrival, Event::DeliverToCache { cache, msg: cmd });
                }
            }
        }
        self.inbox = msgs;
        self.tracer.end_drain();
        self.next = self.queue.min_time().unwrap_or(u64::MAX);
    }
}

#[cfg(test)]
thread_local! {
    /// Threads spawned, mailbox locks taken, and barrier waits entered by
    /// the current thread — everything a one-worker run must never do.
    static SYNC_OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Counts one synchronisation operation (tests only; compiles to nothing
/// otherwise).
#[inline]
fn note_sync_op() {
    #[cfg(test)]
    SYNC_OPS.with(|ops| ops.set(ops.get() + 1));
}

/// Busy-polls of the generation word before a waiter starts yielding:
/// long enough to cover a peer finishing a typical window on its own
/// core, short enough to waste little when workers outnumber cores.
const BARRIER_SPINS: u32 = 128;
/// `yield_now` calls before a waiter parks on the condition variable.
const BARRIER_YIELDS: u32 = 64;

/// The round barrier: a sense-reversing barrier for a fixed number of
/// parties that also min-reduces one `u64` across them.
///
/// One party returns immediately without touching shared state. With
/// several, a waiter spins on the generation word, then yields its time
/// slice, then parks — so with a core per worker a round never enters
/// the kernel, and with more workers than cores the descheduled peers
/// still get to run.
struct RoundBarrier {
    parties: usize,
    arrived: AtomicUsize,
    /// Completed rounds of the barrier; its low bit is the sense. On a
    /// cache line of its own, so spinning waiters do not steal the line
    /// the arriving parties are still updating.
    generation: OwnLine<AtomicUsize>,
    /// Reduction cells: generation `g` reduces into `cells[g % 2]` while
    /// the other cell is reset for generation `g + 1`.
    cells: [AtomicU64; 2],
    /// Waiters that are parked or about to park.
    sleepers: AtomicUsize,
    park_lock: Mutex<()>,
    wake: Condvar,
}

/// Aligns (and so pads) a value to a cache line of its own.
#[repr(align(128))]
struct OwnLine<T>(T);

impl RoundBarrier {
    fn new(parties: usize) -> Self {
        RoundBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: OwnLine(AtomicUsize::new(0)),
            cells: [AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX)],
            sleepers: AtomicUsize::new(0),
            park_lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Waits for every party and returns the minimum of their `local`s.
    ///
    /// Everything a party wrote before calling is visible to every party
    /// after it returns: arrivals chain through the `AcqRel`
    /// read-modify-writes of `arrived`, and the last arriver's store of
    /// `generation` pairs with the waiters' `Acquire` loads of it.
    fn min(&self, local: u64) -> u64 {
        if self.parties == 1 {
            return local;
        }
        note_sync_op();
        // No party can be a generation ahead: the word moves only after
        // all parties, this one included, have arrived.
        let generation = self.generation.0.load(Ordering::Acquire);
        let cell = &self.cells[generation % 2];
        cell.fetch_min(local, Ordering::AcqRel);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Last to arrive. Every party has read the previous result
            // out of the other cell (it did so before arriving here), and
            // nobody touches `arrived` again until the generation moves.
            self.cells[(generation + 1) % 2].store(u64::MAX, Ordering::Relaxed);
            self.arrived.store(0, Ordering::Relaxed);
            // SeqCst pairs with the parking rung of
            // `await_generation_after`: either the load below sees the
            // sleeper, or the sleeper's re-check sees the new generation.
            self.generation
                .0
                .store(generation.wrapping_add(1), Ordering::SeqCst);
            if self.sleepers.load(Ordering::SeqCst) > 0 {
                // Taking the lock orders this wake-up after any sleeper
                // that has checked the generation but not yet waited.
                drop(self.park_lock.lock().expect("nothing panics holding it"));
                self.wake.notify_all();
            }
        } else {
            self.await_generation_after(generation);
        }
        cell.load(Ordering::Acquire)
    }

    /// Returns once `generation` has moved on: spin, then yield, then park.
    fn await_generation_after(&self, generation: usize) {
        let moved = || self.generation.0.load(Ordering::Acquire) != generation;
        for _ in 0..BARRIER_SPINS {
            if moved() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..BARRIER_YIELDS {
            if moved() {
                return;
            }
            std::thread::yield_now();
        }
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.park_lock.lock().expect("nothing panics holding it");
        while self.generation.0.load(Ordering::SeqCst) == generation {
            guard = self.wake.wait(guard).expect("nothing panics holding it");
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Sends addressed to one worker's shards by the *other* workers.
struct Mailbox {
    /// Set (`Release`) by a sender after it posts, read (`Acquire`) and
    /// cleared by the owner between the round's two barriers, when no
    /// sender runs; lets the owner skip the lock in rounds without mail.
    has_mail: AtomicBool,
    msgs: Mutex<Vec<OutMsg>>,
}

/// Shared coordination state for one sharded run. Shard `s` belongs to
/// worker `s % n_workers`, at position `s / n_workers` of its list.
struct Coordinator {
    /// `(worker, position in that worker's shard list)` of each shard.
    home: Vec<(usize, usize)>,
    /// One mailbox per worker.
    mailboxes: Vec<Mailbox>,
    barrier: RoundBarrier,
}

/// Keeps the canonically-earlier of two failures — exactly the error the
/// legacy loop (stopping at its first error) would have returned.
fn earlier(a: Option<Failure>, b: Option<Failure>) -> Option<Failure> {
    match (a, b) {
        (Some(a), Some(b)) => Some(if b.0 < a.0 { b } else { a }),
        (a, b) => a.or(b),
    }
}

impl Coordinator {
    fn new(n_shards: usize, n_workers: usize) -> Self {
        Coordinator {
            home: (0..n_shards)
                .map(|s| (s % n_workers, s / n_workers))
                .collect(),
            mailboxes: (0..n_workers)
                .map(|_| Mailbox {
                    has_mail: AtomicBool::new(false),
                    msgs: Mutex::new(Vec::new()),
                })
                .collect(),
            barrier: RoundBarrier::new(n_workers),
        }
    }

    /// Worker `me`'s round loop over the shards it owns: process the
    /// window, exchange sends, drain inboxes in cause order, min-reduce
    /// the next window start. Returns the worker's earliest failure.
    fn worker_loop<W: Workload>(
        &self,
        me: usize,
        my: &mut [Shard<W>],
        mut t: u64,
        window: u64,
    ) -> Option<Failure> {
        let mut failure = None;
        // Sends to other workers' shards, batched per destination worker
        // so a round takes at most one lock per peer.
        let mut staged: Vec<Vec<OutMsg>> = self.mailboxes.iter().map(|_| Vec::new()).collect();
        while t != u64::MAX {
            let end = t.saturating_add(window);
            for i in 0..my.len() {
                if my[i].next >= end {
                    continue;
                }
                if let Err(f) = my[i].process_window(end) {
                    failure = earlier(failure, Some(f));
                }
                // A send to a shard of this worker goes straight into
                // that shard's inbox; `apply_inbox` sorts, so the order
                // of arrival there is immaterial.
                let mut out = std::mem::take(&mut my[i].outbox);
                for msg in out.drain(..) {
                    let (worker, at) = self.home[msg.dst];
                    if worker == me {
                        my[at].inbox.push(msg);
                    } else {
                        staged[worker].push(msg);
                    }
                }
                my[i].outbox = out;
            }
            for (worker, batch) in staged.iter_mut().enumerate() {
                if batch.is_empty() {
                    continue;
                }
                note_sync_op();
                let mailbox = &self.mailboxes[worker];
                mailbox.msgs.lock().expect("mailbox lock").append(batch);
                mailbox.has_mail.store(true, Ordering::Release);
            }
            // All workers learn of a failure at the same round boundary,
            // so none is left waiting at a barrier.
            let all_ok = self.barrier.min(u64::from(failure.is_none())) == 1;
            if !all_ok {
                return failure;
            }
            let mailbox = &self.mailboxes[me];
            if mailbox.has_mail.load(Ordering::Acquire) {
                mailbox.has_mail.store(false, Ordering::Relaxed);
                note_sync_op();
                for msg in mailbox.msgs.lock().expect("mailbox lock").drain(..) {
                    my[self.home[msg.dst].1].inbox.push(msg);
                }
            }
            let mut local_min = u64::MAX;
            for shard in my.iter_mut() {
                shard.apply_inbox();
                local_min = local_min.min(shard.next);
            }
            t = self.barrier.min(local_min);
        }
        failure
    }
}

impl DirectorySim {
    /// Runs the simulation on the sharded engine with up to `workers`
    /// OS threads, the calling thread included.
    ///
    /// Produces the same [`Report`] — same cycle count, event count,
    /// statistics, latency histograms, versions, transaction ids, and
    /// (if a tracer is installed) the same trace in the same order — as
    /// [`run`](DirectorySim::run), for **any** worker count; see the
    /// module docs of [`crate::sharded`] for the argument. The gauge
    /// summaries (`peak_queue_depth`, `peak_outstanding`) are per-shard
    /// views when the configuration has more than one memory module.
    ///
    /// # Errors
    ///
    /// Exactly as [`run`](DirectorySim::run): the canonically-first
    /// protocol/liveness error of the equivalent single-threaded run.
    pub fn run_jobs<W>(
        &mut self,
        workload: W,
        refs_per_cpu: u64,
        workers: usize,
    ) -> Result<Report, ProtocolError>
    where
        W: Workload + Clone + Send,
    {
        let budget = self.now.saturating_add(
            refs_per_cpu
                .saturating_mul(10_000)
                .saturating_add(1_000_000),
        );
        self.run_sharded(workload, refs_per_cpu, workers, budget)
    }

    /// [`run_jobs`](DirectorySim::run_jobs) with the liveness budget — the
    /// last cycle an event may run at — as a parameter.
    fn run_sharded<W>(
        &mut self,
        workload: W,
        refs_per_cpu: u64,
        workers: usize,
        budget: u64,
    ) -> Result<Report, ProtocolError>
    where
        W: Workload + Clone + Send,
    {
        self.refs_target = refs_per_cpu;
        // The conservative lookahead: the cheapest possible network hop.
        let lookahead = self
            .config
            .latency
            .net_command
            .min(self.config.latency.net_data);
        let n_shards = if lookahead == 0 {
            1 // No lookahead: fall back to serial per-event delivery.
        } else {
            self.config.address_map.modules()
        };
        let n_workers = workers.clamp(1, n_shards);

        let mut shards = self.make_shards(workload, n_shards, refs_per_cpu, budget);
        let (shards, failure) = if n_shards == 1 {
            let failure = shards[0].run_serial().err();
            (shards, failure)
        } else {
            let t0 = shards.iter().map(|s| s.next).min().unwrap_or(u64::MAX);
            let mut assignments: Vec<Vec<Shard<W>>> = (0..n_workers).map(|_| Vec::new()).collect();
            for (i, shard) in shards.into_iter().enumerate() {
                assignments[i % n_workers].push(shard);
            }
            let coord = &Coordinator::new(n_shards, n_workers);
            // Worker 0 is the calling thread; only the others are spawned.
            let mut mine = assignments.remove(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = assignments
                    .into_iter()
                    .enumerate()
                    .map(|(i, mut theirs)| {
                        note_sync_op();
                        scope.spawn(move || {
                            let failure = coord.worker_loop(i + 1, &mut theirs, t0, lookahead);
                            (theirs, failure)
                        })
                    })
                    .collect();
                let mut failure = coord.worker_loop(0, &mut mine, t0, lookahead);
                for handle in handles {
                    let (theirs, theirs_failure) = handle.join().expect("sharded worker panicked");
                    mine.extend(theirs);
                    failure = earlier(failure, theirs_failure);
                }
                (mine, failure)
            })
        };

        self.absorb(shards);
        if let Some((_, err)) = failure {
            return Err(err);
        }
        self.finish()
    }

    /// Partitions the simulation state into `n_shards` shards and seeds
    /// each cpu's first issue.
    fn make_shards<W>(
        &mut self,
        workload: W,
        n_shards: usize,
        refs_per_cpu: u64,
        budget: u64,
    ) -> Vec<Shard<W>>
    where
        W: Workload + Clone,
    {
        let agents = std::mem::take(&mut self.agents);
        let controllers = std::mem::take(&mut self.controllers);
        let pending = std::mem::take(&mut self.pending);
        let version_counters = std::mem::take(&mut self.version_counters);
        let txn_counters = std::mem::take(&mut self.txn_counters);
        let refs_done = std::mem::take(&mut self.refs_done);

        let mut shards: Vec<Shard<W>> = (0..n_shards)
            .map(|id| Shard {
                id,
                n_shards,
                config: self.config,
                workload: workload.clone(),
                agents: Vec::new(),
                controllers: Vec::new(),
                pending: Vec::new(),
                version_counters: Vec::new(),
                txn_counters: Vec::new(),
                refs_done: Vec::new(),
                refs_target: refs_per_cpu,
                budget,
                queue: ShardQueue::new(self.now),
                network: Crossbar::new(
                    self.config.latency.net_command,
                    self.config.latency.net_data,
                    1,
                ),
                metrics: Metrics::new(self.config.caches, self.metrics_cadence),
                tracer: BufTracer::new(self.tracer.enabled()),
                profiler: {
                    let mut p = Profiler::disabled();
                    p.set_enabled(self.profiler.is_enabled());
                    p
                },
                outbox: Vec::new(),
                inbox: Vec::new(),
                next: u64::MAX,
                outstanding: 0,
                queued: 0,
                now: self.now,
                events: 0,
            })
            .collect();

        for (k, agent) in agents.into_iter().enumerate() {
            let shard = &mut shards[k % n_shards];
            shard.agents.push(agent);
            shard.pending.push(pending[k]);
            shard.outstanding += u64::from(pending[k].is_some());
            shard.version_counters.push(version_counters[k]);
            shard.txn_counters.push(txn_counters[k]);
            shard.refs_done.push(refs_done[k]);
        }
        for (j, controller) in controllers.into_iter().enumerate() {
            let shard = &mut shards[j % n_shards];
            shard.queued += controller.queued() as u64;
            shard.controllers.push(controller);
        }
        for cpu in CacheId::all(self.config.caches) {
            let shard = &mut shards[cpu.index() % n_shards];
            shard.queue.push(self.now, Event::ProcessorIssue { cpu });
            shard.next = self.now;
        }
        shards
    }

    /// Merges shard state back into the simulation (inverse of
    /// [`make_shards`](DirectorySim::make_shards)); called on success and
    /// failure alike so the simulation stays inspectable.
    fn absorb<W>(&mut self, mut shards: Vec<Shard<W>>) {
        shards.sort_unstable_by_key(|s| s.id);
        let n_shards = shards.len();
        let n_caches = self.config.caches;
        let n_modules = self.config.address_map.modules();

        let mut agents: Vec<Option<CacheAgent>> = (0..n_caches).map(|_| None).collect();
        let mut controllers: Vec<Option<Controller>> = (0..n_modules).map(|_| None).collect();
        self.pending = vec![None; n_caches];
        self.version_counters = vec![0; n_caches];
        self.txn_counters = vec![0; n_caches];
        self.refs_done = vec![0; n_caches];

        let mut trace: Vec<(TraceKey, SimEvent)> = Vec::new();
        for shard in &mut shards {
            for (i, agent) in shard.agents.drain(..).enumerate() {
                let k = shard.id + n_shards * i;
                agents[k] = Some(agent);
                self.pending[k] = shard.pending[i];
                self.version_counters[k] = shard.version_counters[i];
                self.txn_counters[k] = shard.txn_counters[i];
                self.refs_done[k] = shard.refs_done[i];
            }
            for (i, controller) in shard.controllers.drain(..).enumerate() {
                controllers[shard.id + n_shards * i] = Some(controller);
            }
            self.now = self.now.max(shard.now);
            self.events += shard.events;
            self.metrics.merge(&shard.metrics);
            self.network.merge_stats_from(&shard.network);
            self.extra_perf.merge(&shard.profiler.report());
            trace.append(&mut shard.tracer.buf);
        }
        self.agents = agents
            .into_iter()
            .map(|a| a.expect("every cache owned by exactly one shard"))
            .collect();
        self.controllers = controllers
            .into_iter()
            .map(|c| c.expect("every module owned by exactly one shard"))
            .collect();
        if self.tracer.enabled() {
            trace.sort_unstable_by_key(|(k, _)| *k);
            for (_, event) in trace {
                self.tracer.record(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::io::Write;
    use std::rc::Rc;
    use twobit_obs::JsonlTracer;
    use twobit_types::{ProtocolKind, SystemStats};
    use twobit_workload::{SharingModel, SharingParams};

    /// A `Write` sink whose bytes stay reachable after the tracer is
    /// boxed away behind `dyn Tracer`.
    #[derive(Debug, Clone, Default)]
    struct SharedBuf(Rc<RefCell<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn config(n: usize, protocol: ProtocolKind) -> SystemConfig {
        SystemConfig::with_defaults(n).with_protocol(protocol)
    }

    fn workload(n: usize, seed: u64) -> SharingModel {
        SharingModel::new(SharingParams::high(), n, seed).unwrap()
    }

    fn stats_fingerprint(s: &SystemStats) -> String {
        format!("{s:?}")
    }

    #[test]
    fn sharded_matches_legacy_event_for_event() {
        for protocol in [
            ProtocolKind::TwoBit,
            ProtocolKind::FullMap,
            ProtocolKind::StaticSoftware,
        ] {
            let mut legacy = DirectorySim::build(config(4, protocol)).unwrap();
            let legacy_report = legacy.run(workload(4, 7), 300).unwrap();

            let mut sharded = DirectorySim::build(config(4, protocol)).unwrap();
            let sharded_report = sharded.run_jobs(workload(4, 7), 300, 2).unwrap();

            assert_eq!(sharded_report.cycles, legacy_report.cycles, "{protocol}");
            assert_eq!(sharded_report.events, legacy_report.events, "{protocol}");
            assert_eq!(
                stats_fingerprint(&sharded_report.stats),
                stats_fingerprint(&legacy_report.stats),
                "{protocol}"
            );
            for class in TxnClass::ALL {
                assert_eq!(
                    sharded.metrics().latency(class),
                    legacy.metrics().latency(class),
                    "{protocol} {class}"
                );
            }
        }
    }

    /// Every directory scheme in the paper's spectrum.
    const SCHEMES: [ProtocolKind; 6] = [
        ProtocolKind::TwoBit,
        ProtocolKind::TwoBitTlb { entries: 8 },
        ProtocolKind::FullMap,
        ProtocolKind::FullMapLocal,
        ProtocolKind::ClassicalWriteThrough,
        ProtocolKind::StaticSoftware,
    ];

    const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

    /// Runs 8 caches with a JSONL tracer installed — on the sharded
    /// engine with that many workers, or on the legacy loop for `None` —
    /// and returns the report and the trace bytes.
    fn traced_run(protocol: ProtocolKind, sharded_jobs: Option<usize>) -> (Report, Vec<u8>) {
        let buf = SharedBuf::default();
        let mut sim = DirectorySim::build(config(8, protocol)).unwrap();
        sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
        let report = match sharded_jobs {
            Some(jobs) => sim.run_jobs(workload(8, 3), 60, jobs).unwrap(),
            None => sim.run(workload(8, 3), 60).unwrap(),
        };
        drop(sim.take_tracer());
        let bytes = buf.0.borrow().clone();
        (report, bytes)
    }

    #[test]
    fn worker_count_does_not_change_anything() {
        for protocol in SCHEMES {
            let runs: Vec<Report> = WORKER_COUNTS
                .into_iter()
                .map(|jobs| {
                    let mut sim = DirectorySim::build(config(8, protocol)).unwrap();
                    sim.run_jobs(workload(8, 42), 200, jobs).unwrap()
                })
                .collect();
            for other in &runs[1..] {
                assert_eq!(other.cycles, runs[0].cycles, "{protocol}");
                assert_eq!(other.events, runs[0].events, "{protocol}");
                assert_eq!(
                    stats_fingerprint(&other.stats),
                    stats_fingerprint(&runs[0].stats),
                    "{protocol}"
                );
                assert_eq!(
                    other.obs, runs[0].obs,
                    "{protocol}: gauges included, S is config-fixed"
                );
            }
        }
    }

    #[test]
    fn traced_sharded_run_matches_legacy_trace() {
        for protocol in SCHEMES {
            let (legacy_report, legacy_trace) = traced_run(protocol, None);
            assert!(!legacy_trace.is_empty());
            let runs = WORKER_COUNTS.map(|jobs| traced_run(protocol, Some(jobs)));
            for (jobs, (report, trace)) in WORKER_COUNTS.into_iter().zip(&runs) {
                assert!(*trace == legacy_trace, "{protocol}, {jobs} workers: trace");
                assert_eq!(report.cycles, legacy_report.cycles, "{protocol} {jobs}");
                assert_eq!(report.events, legacy_report.events, "{protocol} {jobs}");
                assert_eq!(
                    stats_fingerprint(&report.stats),
                    stats_fingerprint(&legacy_report.stats),
                    "{protocol} {jobs}"
                );
                assert_eq!(
                    report.obs, runs[0].0.obs,
                    "{protocol} {jobs}: traced gauges"
                );
            }
        }
    }

    /// DESIGN §8 mechanism 4: a failing run fails identically for any
    /// worker count, and leaves the simulation inspectable.
    #[test]
    fn failure_is_identical_for_any_worker_count() {
        let fail_with = |jobs: usize| {
            let mut sim = DirectorySim::build(config(8, ProtocolKind::TwoBit)).unwrap();
            let err = sim
                .run_sharded(workload(8, 42), 1_000, jobs, 300)
                .expect_err("300 cycles cannot retire 1,000 references per cpu");
            // `absorb` ran: every agent and controller is back in place.
            assert_eq!(sim.agents.len(), 8, "{jobs} workers");
            assert_eq!(sim.controllers.len(), 8, "{jobs} workers");
            assert!(sim.now > 300, "{jobs} workers: stopped past the budget");
            assert!(sim.refs_done.iter().sum::<u64>() > 0, "{jobs} workers");
            let cache_stats: Vec<_> = sim.agents.iter().map(|a| *a.stats()).collect();
            (err, sim.now, sim.events, format!("{cache_stats:?}"))
        };
        let one = fail_with(1);
        assert!(
            one.0.to_string().contains("liveness budget exhausted"),
            "{}",
            one.0
        );
        assert_eq!(fail_with(2), one, "2 workers");
        assert_eq!(fail_with(8), one, "8 workers");
    }

    /// With one worker the run must spawn no thread, take no mailbox
    /// lock, and never enter the barrier: everything is shard-local.
    #[test]
    fn one_worker_never_synchronises() {
        let sync_ops_of = |jobs: usize| {
            SYNC_OPS.with(|ops| ops.set(0));
            let mut sim = DirectorySim::build(config(8, ProtocolKind::TwoBit)).unwrap();
            sim.run_jobs(workload(8, 42), 200, jobs).unwrap();
            SYNC_OPS.with(std::cell::Cell::get)
        };
        assert_eq!(sync_ops_of(1), 0);
        assert!(sync_ops_of(2) > 0, "the counter sees worker 0's share");
    }

    #[test]
    fn barrier_counts_rounds_across_four_threads() {
        const ROUNDS: usize = 100_000;
        let barrier = RoundBarrier::new(4);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.min(u64::MAX);
                        // Every party's increment of this round is in,
                        // and nobody has started the next round's.
                        assert_eq!(counter.load(Ordering::Relaxed), 4 * (round + 1));
                        barrier.min(u64::MAX);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 4 * ROUNDS);
    }

    #[test]
    fn barrier_reduces_the_minimum_and_survives_oversubscription() {
        // Eight parties on however few cores the host has: the yield and
        // park rungs must keep the descheduled parties moving.
        const ROUNDS: u64 = 2_000;
        let barrier = RoundBarrier::new(8);
        let started = std::time::Instant::now();
        std::thread::scope(|scope| {
            for party in 0..8u64 {
                let barrier = &barrier;
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        // The minimum rotates through the parties.
                        let local = round * 8 + (party + round) % 8;
                        assert_eq!(barrier.min(local), round * 8);
                    }
                });
            }
        });
        assert!(
            started.elapsed() < std::time::Duration::from_secs(60),
            "8 parties took {:?} for {ROUNDS} rounds",
            started.elapsed()
        );
        assert_eq!(RoundBarrier::new(1).min(7), 7, "one party: immediate");
    }

    #[test]
    fn multi_worker_run_drains_and_completes() {
        let mut sim = DirectorySim::build(config(2, ProtocolKind::TwoBit)).unwrap();
        let report = sim.run_jobs(workload(2, 1), 50, 2).unwrap();
        assert_eq!(report.stats.total_references(), 100);
    }
}
