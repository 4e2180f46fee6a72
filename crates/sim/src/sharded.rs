//! The timed directory engine: the global event loop at one worker,
//! cycle-barrier rounds over shards partitioned by home memory module at
//! two or more.
//!
//! [`DirectorySim::run`] and [`DirectorySim::run_jobs`] are the same
//! code: `run` is the one-worker case.
//!
//! # One worker: the global event loop
//!
//! With one worker the engine runs `S = 1` shard, which is the whole
//! system: one calendar popped in canonical [`EventKey`] order, one
//! crossbar, and every send scheduled on that crossbar and enqueued where
//! the handler makes it. That *is* the loop the digests in
//! `tests/determinism.rs` were recorded from, so it has no rounds, no
//! outbox and no inbox sort to pay for. A zero-latency network (`W = 0`,
//! below) or a single memory module runs it too, whatever the worker
//! count.
//!
//! # Two or more workers: partitioning
//!
//! Blocks are owned by their home module (the address map), so all
//! directory state for a block lives in exactly one controller. The
//! engine partitions *both* controllers and caches round-robin over
//! `S` = module-count shards (module `j` → shard `j mod S`, cache `k` →
//! shard `k mod S`); every agent, controller, pending-transaction slot,
//! and per-cpu counter is then owned by exactly one shard, and a shard's
//! event handlers touch only shard-local state. `S` does not depend on
//! how many (≥ 2) workers run the shards. The workload is owned once per
//! *worker* and lent to that worker's shards, so it is asked only for the
//! cpus of shards the worker owns (the contract on
//! [`Workload::next_ref`] is what makes that unobservable).
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
//! network) leaves no window, so it runs the global loop.
//!
//! # What a round costs
//!
//! With the default latencies `W = 2`, so a run is hundreds of thousands
//! of rounds of a handful of events each, and the round's fixed cost is
//! the engine's cost. The loop pays only for what a round contains:
//! worker 0 is the calling thread; a shard whose next event lies beyond
//! the window is skipped; outboxes, inboxes and mailboxes are drained in
//! place and keep their buffers; and the [`RoundBarrier`] spins, then
//! yields, then parks.
//!
//! # Why the shard and worker counts are invisible
//!
//! The global event loop pops events in canonical [`EventKey`] order,
//! and its only order-sensitive shared resources are the crossbar's
//! per-destination port clocks, which advance in `schedule()` *call*
//! order, and the two run-wide gauges, which are observed in event
//! order. Within a window, shards process disjoint state, so only those
//! two orders matter, and both are restored from the canonical key of the
//! *causing* event. Inboxes are drained sorted by `(cause key, sub)` — the
//! key of the event that sent the message, then the send's index within
//! that event — which is precisely the global loop's schedule-call order.
//! Handlers do not observe a gauge; each logs at most one [`Tick`] —
//! `(cause key, cycle, which gauge, delta)`, when the count changes — and
//! worker 0 collects the round's ticks (its own directly, the other
//! workers' through its mailbox), sorts them by cause key after the first
//! barrier crossing and feeds one pair of run-wide gauges (the global
//! loop feeds each event's tick as the event ends). Arrival times, event
//! counts, per-cache statistics, latency histograms, gauges, and
//! version/transaction numbering (interleaved per-cpu) are therefore
//! bit-for-bit identical for any shard or worker count, and equal to the
//! digests frozen in `tests/determinism.rs`. Trace events are buffered
//! per shard keyed by `(cause, sub, minor)` and merge-sorted at the end,
//! so a traced run emits one stream in canonical order.
//!
//! The engine is not generic over the workload: workloads are lent as
//! trait objects, so both loops and the handlers are compiled once,
//! in this crate, whatever the caller runs.

use crate::calendar::ShardQueue;
use crate::directory_sim::{DirectorySim, PendingTxn};
use crate::engine::{Event, EventKey};
use crate::report::Report;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use twobit_core::{CacheAgent, Controller, CtrlEmit, Observer, SendCost};
use twobit_interconnect::{Crossbar, MessageSize, Network, NodeId};
use twobit_obs::{ActorId, Gauge, Metrics, Profiler, SimEvent, Tracer, TxnClass};
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
/// into one canonically ordered stream after the run.
///
/// The `sub` counter doubles as the interleaving position for *sends*:
/// reserving a slot for each send keeps its delivery — and any trace
/// records the network scheduling emits under the reserved slot, at the
/// send or in a destination shard's drain — in the exact position the
/// global event loop produces them.
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

    /// Claims the next interleaving slot (for a send).
    fn reserve_sub(&mut self) -> u32 {
        let s = self.sub;
        self.sub += 1;
        s
    }

    /// Pins subsequent records to a reserved slot of a (possibly remote)
    /// cause — used while delivering that send.
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
    /// memory latency).
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

/// Which run-wide gauge a [`Tick`] moves.
#[derive(Debug, Clone, Copy)]
enum GaugeId {
    /// Open (started, unretired) transactions.
    Outstanding,
    /// Requests queued across all controllers.
    QueueDepth,
}

/// One change of a run-wide gauge's count (both gauges are observed when
/// they change), logged by the handler that caused it instead of
/// observing a gauge directly: a shard sees only the actors it owns, so
/// the run-wide count exists only once every shard's ticks are replayed
/// in canonical event order. An event logs at most one tick, so the cause
/// key alone orders them.
#[derive(Debug)]
struct Tick {
    /// Canonical key of the event whose handler logged this.
    cause: EventKey,
    /// The cycle the gauge is observed at.
    at: u64,
    gauge: GaugeId,
    /// Change in the gauge's running count.
    delta: i64,
}

/// The run-wide gauges with the running counts that feed them. Worker 0
/// holds the only one.
struct GaugeFeed<'a> {
    outstanding: (u64, &'a mut Gauge),
    queue_depth: (u64, &'a mut Gauge),
}

impl GaugeFeed<'_> {
    /// Replays `ticks` in the order of the events that logged them,
    /// leaving the buffer empty.
    fn apply(&mut self, ticks: &mut Vec<Tick>) {
        // Most rounds log one tick or none; the guard spares them the call.
        if ticks.len() > 1 {
            ticks.sort_unstable_by_key(|tick| tick.cause);
        }
        for tick in ticks.iter() {
            let (count, gauge) = match tick.gauge {
                GaugeId::Outstanding => &mut self.outstanding,
                GaugeId::QueueDepth => &mut self.queue_depth,
            };
            *count = count
                .checked_add_signed(tick.delta)
                .expect("a gauge count never goes negative");
            gauge.observe(tick.at, *count);
        }
        ticks.clear();
    }
}

/// One shard: the agents and controllers it owns, their per-cpu
/// bookkeeping, a local calendar queue, a local crossbar (tracking only
/// the ports of destinations this shard owns), and per-shard metrics /
/// trace / profiler sinks that merge after the run.
///
/// Global cache `k` lives at local index `k / n_shards` of shard
/// `k % n_shards`; modules likewise.
struct Shard {
    id: usize,
    n_shards: usize,
    config: SystemConfig,
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
    /// What the handler running now has its agent or controller send,
    /// before it is costed and sent. Both are empty between events and
    /// keep their capacity, so an event allocates nothing.
    sends: Vec<CacheToMemory>,
    emits: Vec<CtrlEmit>,
    /// Sends buffered while processing the current window (rounds only:
    /// the global loop delivers each send where it is made).
    outbox: Vec<OutMsg>,
    /// Sends addressed to this shard, awaiting the cause-sorted drain.
    inbox: Vec<OutMsg>,
    /// Cached `queue.min_time()` (`u64::MAX` when empty), refreshed
    /// whenever the queue changes, so a round can skip idle shards.
    next: u64,
    now: u64,
    events: u64,
}

impl Shard {
    fn local_cache(&self, k: CacheId) -> usize {
        debug_assert_eq!(k.index() % self.n_shards, self.id);
        k.index() / self.n_shards
    }

    fn local_module(&self, m: ModuleId) -> usize {
        debug_assert_eq!(m.index() % self.n_shards, self.id);
        m.index() / self.n_shards
    }

    /// Processes every local event strictly before `end`.
    fn process_window(
        &mut self,
        end: u64,
        workload: &mut dyn Workload,
        ticks: &mut Vec<Tick>,
    ) -> Result<(), Failure> {
        loop {
            self.profiler.begin("engine.pop");
            let popped = self.queue.pop_in(end);
            self.profiler.end("engine.pop");
            let Some((time, event)) = popped else {
                self.next = self.queue.min_time().unwrap_or(u64::MAX);
                return Ok(());
            };
            self.step(time, event, workload, ticks)?;
        }
    }

    /// The global event loop, run by the one shard that is the whole
    /// system: pop in canonical order, handle (each send is delivered as
    /// it is made), feed the event's gauge tick; stop at the first error.
    fn run_serial(
        &mut self,
        workload: &mut dyn Workload,
        gauges: &mut GaugeFeed,
    ) -> Result<(), Failure> {
        debug_assert_eq!(self.n_shards, 1);
        let mut ticks = Vec::new();
        loop {
            self.profiler.begin("engine.pop");
            let popped = self.queue.pop_in(u64::MAX);
            self.profiler.end("engine.pop");
            let Some((time, event)) = popped else {
                return Ok(());
            };
            self.step(time, event, workload, &mut ticks)?;
            gauges.apply(&mut ticks);
        }
    }

    /// One event: clock, count, liveness budget, handler.
    fn step(
        &mut self,
        time: u64,
        event: Event,
        workload: &mut dyn Workload,
        ticks: &mut Vec<Tick>,
    ) -> Result<(), Failure> {
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
        self.handle(event, workload, ticks).map_err(|e| (key, e))
    }

    fn handle(
        &mut self,
        event: Event,
        workload: &mut dyn Workload,
        ticks: &mut Vec<Tick>,
    ) -> Result<(), ProtocolError> {
        // Logs a change of `delta` in a run-wide gauge's count, observed
        // at cycle `at`, against the event being handled.
        let cause = self.tracer.cause;
        let mut tick = |gauge, at, delta| {
            ticks.push(Tick {
                cause,
                at,
                gauge,
                delta,
            });
        };
        match event {
            Event::ProcessorIssue { cpu } => {
                let li = self.local_cache(cpu);
                if self.refs_done[li] >= self.refs_target {
                    return Ok(());
                }
                self.profiler.begin("event.issue");
                let op = workload.next_ref(cpu);
                let version = match op.kind {
                    AccessKind::Write => self.fresh_version(cpu),
                    AccessKind::Read => Version::initial(),
                };
                self.profiler.begin("agent.start");
                let outcome = self.agents[li].start(op, version, &mut self.sends);
                self.profiler.end("agent.start");
                let base = self.now;
                let txn = if outcome.completed.is_some() {
                    None
                } else {
                    let class = DirectorySim::classify_open(&self.sends, op.kind);
                    let id = self.open_txn(cpu, class, base);
                    tick(GaugeId::Outstanding, base, 1);
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
                self.buffer_to_memory(cpu, base);
                if outcome.completed.is_some() {
                    self.refs_done[li] += 1;
                    self.schedule_next_issue(cpu, base);
                }
                // Otherwise the cpu is stalled; the retiring grant
                // reschedules it.
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
                let out = self.agents[li].on_network(msg, &mut self.sends)?;
                self.profiler.end("agent.on_network");
                let base = self.now
                    + if out.counted {
                        self.config.latency.snoop_service
                    } else {
                        0
                    };
                // `counted` is exactly "commands_received was bumped";
                // comparing the useless counter across the call reproduces
                // the agent's own matched/unmatched verdict without
                // re-deriving it.
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
                    tick(GaugeId::Outstanding, base, -1);
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
                self.buffer_to_memory(cache, base);
                if out.completed.is_some() {
                    self.refs_done[li] += 1;
                    self.schedule_next_issue(cache, base);
                }
                self.profiler.end("event.deliver_cache");
            }
            Event::DeliverToModule { module, cmd } => {
                let lj = self.local_module(module);
                self.profiler.begin("event.deliver_module");
                let queued_before = self.controllers[lj].queued();
                self.controllers[lj].submit(
                    cmd,
                    Observer::new(self.now, &mut self.tracer, &mut self.profiler),
                    &mut self.emits,
                )?;
                // Like `outstanding`, the queue depth is observed when it
                // changes; most commands start at once and leave it alone.
                let queued_after = self.controllers[lj].queued();
                if queued_after != queued_before {
                    let delta = queued_after as i64 - queued_before as i64;
                    tick(GaugeId::QueueDepth, self.now, delta);
                }
                let base = self.now;
                self.buffer_emits(module, base);
                self.profiler.end("event.deliver_module");
            }
        }
        Ok(())
    }

    /// A globally unique version token for a store by `cpu`: a per-cpu
    /// counter interleaved with the cpu index, so the token depends only
    /// on the cpu's own reference stream, never on cross-cpu event order.
    fn fresh_version(&mut self, cpu: CacheId) -> Version {
        let n = self.config.caches as u64;
        let count = &mut self.version_counters[cpu.index() / self.n_shards];
        *count += 1;
        Version::new((*count - 1) * n + cpu.index() as u64 + 1)
    }

    /// Opens a latency-tracked transaction for `cpu`. Ids interleave a
    /// per-cpu counter with the cpu index, like versions.
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

    /// Sends one point delivery, injected at cycle `inject`: when this
    /// shard is the whole system, delivers it at once — the global loop's
    /// schedule-call order is the order sends are made — and otherwise
    /// buffers it for the shard that owns its recipient.
    fn send(&mut self, inject: u64, size: MessageSize, kind: MsgKind) {
        let sub = self.tracer.reserve_sub();
        if self.n_shards == 1 {
            self.deliver(self.tracer.cause, sub, inject, size, kind);
            return;
        }
        let recipient = match kind {
            MsgKind::ToModule { module, .. } => module.index(),
            MsgKind::ToCache { cache, .. } => cache.index(),
        };
        note(Op::OutMsg);
        self.outbox.push(OutMsg {
            dst: recipient % self.n_shards,
            cause: self.tracer.cause,
            sub,
            inject,
            size,
            kind,
        });
    }

    /// Buffers the cache→module commands in `sends`, leaving it empty.
    fn buffer_to_memory(&mut self, src: CacheId, base: u64) {
        self.profiler.begin("net.dispatch");
        let mut sends = std::mem::take(&mut self.sends);
        for cmd in sends.drain(..) {
            let module = self.config.address_map.module_of(cmd.block());
            let size = match cmd {
                CacheToMemory::PutData { .. } => MessageSize::Data,
                _ => MessageSize::Command,
            };
            self.network.note_injection(size);
            self.send(base, size, MsgKind::ToModule { src, module, cmd });
        }
        self.sends = sends;
        self.profiler.end("net.dispatch");
    }

    /// Buffers the module→cache messages in `emits`, leaving it empty.
    fn buffer_emits(&mut self, module: ModuleId, base: u64) {
        self.profiler.begin("net.dispatch");
        let mut emits = std::mem::take(&mut self.emits);
        for emit in emits.drain(..) {
            match emit {
                CtrlEmit::Unicast { to, cmd, cost } => {
                    let (size, extra) = match cost {
                        SendCost::Command => (MessageSize::Command, 0),
                        SendCost::DataFromMemory => (MessageSize::Data, self.config.latency.memory),
                        SendCost::DataForwarded => (MessageSize::Data, 0),
                    };
                    self.network.note_injection(size);
                    let inject = base + self.config.latency.controller + extra;
                    self.send(
                        inject,
                        size,
                        MsgKind::ToCache {
                            module,
                            cache: to,
                            cmd,
                        },
                    );
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
                        self.send(inject, size, MsgKind::ToCache { module, cache, cmd });
                    }
                }
            }
        }
        self.emits = emits;
        self.profiler.end("net.dispatch");
    }

    /// Delivers the inbox: sorts by the sender-side canonical order (so
    /// the order sends *arrived* in the inbox never matters), then
    /// delivers each in the one schedule-call order the global event loop
    /// uses, hence its arrival times. The inbox keeps its buffer.
    fn apply_inbox(&mut self) {
        if self.inbox.is_empty() {
            return;
        }
        let mut msgs = std::mem::take(&mut self.inbox);
        note(Op::InboxSort);
        msgs.sort_unstable_by_key(|m| (m.cause, m.sub));
        for msg in msgs.drain(..) {
            self.deliver(msg.cause, msg.sub, msg.inject, msg.size, msg.kind);
        }
        self.inbox = msgs;
        self.next = self.queue.min_time().unwrap_or(u64::MAX);
    }

    /// Delivers the send made in slot `sub` of the event keyed `cause`:
    /// reserves the destination port on this shard's crossbar, which
    /// gives the arrival time, and enqueues the arrival. Trace records of
    /// the scheduling are pinned to the send's slot.
    fn deliver(
        &mut self,
        cause: EventKey,
        sub: u32,
        inject: u64,
        size: MessageSize,
        kind: MsgKind,
    ) {
        self.tracer.begin_drain(cause, sub);
        let (src, dst, block, event) = match kind {
            MsgKind::ToModule { src, module, cmd } => (
                NodeId::Cache(src),
                NodeId::Module(module),
                cmd.block(),
                Event::DeliverToModule { module, cmd },
            ),
            MsgKind::ToCache { module, cache, cmd } => (
                NodeId::Module(module),
                NodeId::Cache(cache),
                cmd.block(),
                Event::DeliverToCache { cache, msg: cmd },
            ),
        };
        let arrival = self.network.schedule_profiled(
            src,
            dst,
            size,
            inject,
            block,
            &mut self.tracer,
            &mut self.profiler,
        );
        self.tracer.end_drain();
        // The replacement "transaction" (EJECT, optionally followed by
        // the write-back put) never stalls the processor, so its latency
        // is the eject notice's injection-to-delivery time.
        if let Event::DeliverToModule {
            cmd: CacheToMemory::Eject { .. },
            ..
        } = event
        {
            self.metrics
                .record_latency(TxnClass::Replacement, arrival - inject);
        }
        self.queue.push(arrival, event);
    }
}

/// The round machinery's operations, counted per thread by tests —
/// everything a one-worker run, which is the global loop, must never do.
#[derive(Clone, Copy)]
enum Op {
    /// A thread spawned, a mailbox lock taken, or a barrier wait entered.
    Sync,
    /// A send buffered as an [`OutMsg`].
    OutMsg,
    /// An inbox sorted before its drain.
    InboxSort,
    /// A round entered.
    Round,
}

#[cfg(test)]
thread_local! {
    /// Counts of each [`Op`] by the current thread, indexed by `Op as usize`.
    static OPS: [std::cell::Cell<u64>; 4] = const { [const { std::cell::Cell::new(0) }; 4] };
}

/// Counts one `op` (tests only; compiles to nothing otherwise).
#[inline]
fn note(op: Op) {
    #[cfg(test)]
    OPS.with(|ops| ops[op as usize].set(ops[op as usize].get() + 1));
    #[cfg(not(test))]
    let _ = op;
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
        note(Op::Sync);
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

/// What one worker posts to another in a round: sends for the shards
/// the recipient owns and — to worker 0 only, which feeds the gauges —
/// the sender's gauge ticks.
#[derive(Default)]
struct Mail {
    msgs: Vec<OutMsg>,
    ticks: Vec<Tick>,
}

/// Mail addressed to one worker by the *other* workers.
struct Mailbox {
    /// Set (`Release`) by a sender after it posts, read (`Acquire`) and
    /// cleared by the owner between the round's two barriers, when no
    /// sender runs; lets the owner skip the lock in rounds without mail.
    has_mail: AtomicBool,
    mail: Mutex<Mail>,
}

/// Shared coordination state for one sharded run. Shard `s` belongs to
/// worker `s % n_workers`, at position `s / n_workers` of its list.
struct Coordinator {
    /// `(worker, position in that worker's shard list)` of each shard.
    home: Vec<(usize, usize)>,
    /// One mailbox per worker.
    mailboxes: Vec<Mailbox>,
    barrier: RoundBarrier,
    /// Cycles in a round's window: the conservative lookahead.
    window: u64,
}

/// Keeps the canonically-earlier of two failures — exactly the error a
/// single global event loop (stopping at its first error) would return.
fn earlier(a: Option<Failure>, b: Option<Failure>) -> Option<Failure> {
    match (a, b) {
        (Some(a), Some(b)) => Some(if b.0 < a.0 { b } else { a }),
        (a, b) => a.or(b),
    }
}

impl Coordinator {
    fn new(n_shards: usize, n_workers: usize, window: u64) -> Self {
        Coordinator {
            home: (0..n_shards)
                .map(|s| (s % n_workers, s / n_workers))
                .collect(),
            mailboxes: (0..n_workers)
                .map(|_| Mailbox {
                    has_mail: AtomicBool::new(false),
                    mail: Mutex::new(Mail::default()),
                })
                .collect(),
            barrier: RoundBarrier::new(n_workers),
            window,
        }
    }

    /// Worker `me`'s round loop over the shards it owns, lending them its
    /// `workload`: process the window, exchange sends, drain inboxes in
    /// cause order, min-reduce the next window start. Worker 0, and only
    /// worker 0, is given the run-wide `gauges` to feed. Returns the
    /// worker's earliest failure.
    fn worker_loop(
        &self,
        me: usize,
        my: &mut [Shard],
        workload: &mut dyn Workload,
        mut gauges: Option<&mut GaugeFeed>,
        mut t: u64,
    ) -> Option<Failure> {
        debug_assert_eq!(me == 0, gauges.is_some());
        let mut failure = None;
        // Mail batched per destination worker, so a round takes at most
        // one lock per peer. Ticks all go to worker 0: `staged[0]` is its
        // own collection and every other worker's batch for it.
        let mut staged: Vec<Mail> = self.mailboxes.iter().map(|_| Mail::default()).collect();
        while t != u64::MAX {
            note(Op::Round);
            let end = t.saturating_add(self.window);
            for i in 0..my.len() {
                if my[i].next >= end {
                    continue;
                }
                if let Err(f) = my[i].process_window(end, workload, &mut staged[0].ticks) {
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
                        staged[worker].msgs.push(msg);
                    }
                }
                my[i].outbox = out;
            }
            for (worker, batch) in staged.iter_mut().enumerate() {
                if worker == me || (batch.msgs.is_empty() && batch.ticks.is_empty()) {
                    continue;
                }
                note(Op::Sync);
                let mailbox = &self.mailboxes[worker];
                let mut mail = mailbox.mail.lock().expect("mailbox lock");
                mail.msgs.append(&mut batch.msgs);
                mail.ticks.append(&mut batch.ticks);
                drop(mail);
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
                note(Op::Sync);
                let mut mail = mailbox.mail.lock().expect("mailbox lock");
                for msg in mail.msgs.drain(..) {
                    my[self.home[msg.dst].1].inbox.push(msg);
                }
                staged[me].ticks.append(&mut mail.ticks);
            }
            if let Some(gauges) = &mut gauges {
                gauges.apply(&mut staged[0].ticks);
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
    /// Runs `refs_per_cpu` references per processor from `workload` to
    /// completion and drains all in-flight activity, on the calling
    /// thread: the one-worker case of [`run_jobs`](DirectorySim::run_jobs),
    /// for workloads that are not `Clone + Send` (a `Box<dyn Workload>`,
    /// say).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on coherence/protocol violations, on a
    /// wedged system (liveness failure), or if invariants fail at the
    /// quiescent end.
    pub fn run<W: Workload>(
        &mut self,
        mut workload: W,
        refs_per_cpu: u64,
    ) -> Result<Report, ProtocolError> {
        let budget = self.liveness_budget(refs_per_cpu);
        self.run_rounds(&mut workload, Vec::new(), refs_per_cpu, budget)
    }

    /// [`run`](DirectorySim::run) on up to `workers` OS threads, the
    /// calling thread included, each owning a clone of `workload`. One
    /// worker runs the global event loop on the calling thread; two or
    /// more run conservative rounds over one shard per memory module.
    ///
    /// Produces the same [`Report`] — same cycle count, event count,
    /// statistics, latency histograms, gauges, versions, transaction ids,
    /// and (if a tracer is installed) the same trace in the same order —
    /// for **any** worker count; see the module docs of [`crate::sharded`]
    /// for the argument.
    ///
    /// # Errors
    ///
    /// Exactly as [`run`](DirectorySim::run): the canonically-first
    /// protocol/liveness error, whatever the worker count.
    pub fn run_jobs<W>(
        &mut self,
        workload: W,
        refs_per_cpu: u64,
        workers: usize,
    ) -> Result<Report, ProtocolError>
    where
        W: Workload + Clone + Send,
    {
        let budget = self.liveness_budget(refs_per_cpu);
        self.run_sharded(workload, refs_per_cpu, workers, budget)
    }

    /// The last cycle an event may run at. With blocking caches a
    /// reference takes a bounded number of cycles; budget generously.
    fn liveness_budget(&self, refs_per_cpu: u64) -> u64 {
        self.now.saturating_add(
            refs_per_cpu
                .saturating_mul(10_000)
                .saturating_add(1_000_000),
        )
    }

    /// The conservative lookahead: the cheapest possible network hop.
    fn lookahead(&self) -> u64 {
        let latency = &self.config.latency;
        latency.net_command.min(latency.net_data)
    }

    /// `S` for `workers` workers: one shard per memory module when they
    /// run rounds — two or more workers and a lookahead — and otherwise
    /// one, the whole system, which runs the global event loop.
    fn shard_count(&self, workers: usize) -> usize {
        if workers < 2 || self.lookahead() == 0 {
            1
        } else {
            self.config.address_map.modules()
        }
    }

    /// [`run_jobs`](DirectorySim::run_jobs) with the liveness budget as a
    /// parameter.
    fn run_sharded<W>(
        &mut self,
        mut workload: W,
        refs_per_cpu: u64,
        workers: usize,
        budget: u64,
    ) -> Result<Report, ProtocolError>
    where
        W: Workload + Clone + Send,
    {
        let n_workers = workers.clamp(1, self.shard_count(workers));
        let peers = (1..n_workers)
            .map(|_| Box::new(workload.clone()) as Box<dyn Workload + Send + '_>)
            .collect();
        self.run_rounds(&mut workload, peers, refs_per_cpu, budget)
    }

    /// The engine: one worker per workload — the calling thread with
    /// `workload`, one spawned thread per entry of `peers`. One shard runs
    /// the global event loop; several run rounds. Workloads are lent as
    /// trait objects, so the engine is compiled once, here, and a
    /// reference costs one indirect call.
    fn run_rounds(
        &mut self,
        workload: &mut dyn Workload,
        peers: Vec<Box<dyn Workload + Send + '_>>,
        refs_per_cpu: u64,
        budget: u64,
    ) -> Result<Report, ProtocolError> {
        self.refs_target = refs_per_cpu;
        let lookahead = self.lookahead();
        let n_workers = 1 + peers.len();
        let n_shards = self.shard_count(n_workers);
        debug_assert!(n_workers <= n_shards, "a worker owns at least one shard");

        let outstanding = self.pending.iter().flatten().count() as u64;
        let queued = self.controllers.iter().map(|c| c.queued() as u64).sum();
        let mut shards = self.make_shards(n_shards, refs_per_cpu, budget);
        let mut gauges = GaugeFeed {
            outstanding: (outstanding, &mut self.metrics.outstanding),
            queue_depth: (queued, &mut self.metrics.queue_depth),
        };
        let (shards, failure) = if n_shards == 1 {
            let failure = shards[0].run_serial(workload, &mut gauges).err();
            (shards, failure)
        } else {
            let t0 = shards.iter().map(|s| s.next).min().unwrap_or(u64::MAX);
            let mut assignments: Vec<Vec<Shard>> = (0..n_workers).map(|_| Vec::new()).collect();
            for (i, shard) in shards.into_iter().enumerate() {
                assignments[i % n_workers].push(shard);
            }
            let coord = &Coordinator::new(n_shards, n_workers, lookahead);
            // Worker 0 is the calling thread; only the others are spawned.
            let mut mine = assignments.remove(0);
            std::thread::scope(|scope| {
                let handles: Vec<_> = assignments
                    .into_iter()
                    .zip(peers)
                    .enumerate()
                    .map(|(i, (mut theirs, mut workload))| {
                        note(Op::Sync);
                        scope.spawn(move || {
                            let failure =
                                coord.worker_loop(i + 1, &mut theirs, workload.as_mut(), None, t0);
                            (theirs, failure)
                        })
                    })
                    .collect();
                let mut failure = coord.worker_loop(0, &mut mine, workload, Some(&mut gauges), t0);
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
    fn make_shards(&mut self, n_shards: usize, refs_per_cpu: u64, budget: u64) -> Vec<Shard> {
        let mut agents = deal(std::mem::take(&mut self.agents), n_shards);
        let mut controllers = deal(std::mem::take(&mut self.controllers), n_shards);
        let mut pending = deal(std::mem::take(&mut self.pending), n_shards);
        let mut version_counters = deal(std::mem::take(&mut self.version_counters), n_shards);
        let mut txn_counters = deal(std::mem::take(&mut self.txn_counters), n_shards);
        let mut refs_done = deal(std::mem::take(&mut self.refs_done), n_shards);

        let mut shards: Vec<Shard> = (0..n_shards)
            .map(|id| Shard {
                id,
                n_shards,
                config: self.config,
                agents: std::mem::take(&mut agents[id]),
                controllers: std::mem::take(&mut controllers[id]),
                pending: std::mem::take(&mut pending[id]),
                version_counters: std::mem::take(&mut version_counters[id]),
                txn_counters: std::mem::take(&mut txn_counters[id]),
                refs_done: std::mem::take(&mut refs_done[id]),
                refs_target: refs_per_cpu,
                budget,
                queue: ShardQueue::new(self.now),
                network: Crossbar::new(
                    self.config.latency.net_command,
                    self.config.latency.net_data,
                    1, // each input port accepts one message per cycle
                ),
                // Only the latency histograms and per-cache counters of a
                // shard's registry are used; the gauges are run-wide.
                metrics: Metrics::new(self.config.caches, 0),
                tracer: BufTracer::new(self.tracer.enabled()),
                profiler: {
                    let mut p = Profiler::disabled();
                    p.set_enabled(self.profiling);
                    p
                },
                sends: Vec::new(),
                emits: Vec::new(),
                outbox: Vec::new(),
                inbox: Vec::new(),
                next: u64::MAX,
                now: self.now,
                events: 0,
            })
            .collect();
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
    fn absorb(&mut self, mut shards: Vec<Shard>) {
        shards.sort_unstable_by_key(|s| s.id);
        let mut trace: Vec<(TraceKey, SimEvent)> = Vec::new();
        for shard in &mut shards {
            self.now = self.now.max(shard.now);
            self.events += shard.events;
            self.metrics.merge(&shard.metrics);
            self.network.merge(shard.network.stats());
            self.perf.merge(&shard.profiler.report());
            trace.append(&mut shard.tracer.buf);
        }
        self.agents = gather(&mut shards, |s| &mut s.agents);
        self.controllers = gather(&mut shards, |s| &mut s.controllers);
        self.pending = gather(&mut shards, |s| &mut s.pending);
        self.version_counters = gather(&mut shards, |s| &mut s.version_counters);
        self.txn_counters = gather(&mut shards, |s| &mut s.txn_counters);
        self.refs_done = gather(&mut shards, |s| &mut s.refs_done);
        if self.tracer.enabled() {
            trace.sort_unstable_by_key(|(k, _)| *k);
            for (_, event) in trace {
                self.tracer.record(event);
            }
        }
    }
}

/// Deals `items` round-robin into `n` hands: item `k` lands in hand
/// `k % n` at position `k / n` — how caches and modules map to shards.
fn deal<T>(items: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let mut hands: Vec<Vec<T>> = (0..n).map(|_| Vec::new()).collect();
    for (k, item) in items.into_iter().enumerate() {
        hands[k % n].push(item);
    }
    hands
}

/// The inverse of [`deal`]: takes one dealt `field` out of every shard
/// (in shard-id order) and restores the original order.
fn gather<T>(shards: &mut [Shard], field: impl Fn(&mut Shard) -> &mut Vec<T>) -> Vec<T> {
    let mut hands: Vec<_> = shards
        .iter_mut()
        .map(|shard| std::mem::take(field(shard)).into_iter())
        .collect();
    let mut items = Vec::new();
    loop {
        for hand in &mut hands {
            match hand.next() {
                Some(item) => items.push(item),
                None => return items,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::{ProtocolKind, SystemStats};
    use twobit_workload::{SharingModel, SharingParams};

    fn config(n: usize, protocol: ProtocolKind) -> SystemConfig {
        SystemConfig::with_defaults(n).with_protocol(protocol)
    }

    fn workload(n: usize, seed: u64) -> SharingModel {
        SharingModel::new(SharingParams::high(), n, seed).unwrap()
    }

    fn stats_fingerprint(s: &SystemStats) -> String {
        format!("{s:?}")
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

    // The frozen digests every entry point must reproduce — reports,
    // latency histograms, gauges and trace bytes — are in
    // `tests/determinism.rs`; here, only what needs the private surface.

    #[test]
    fn worker_count_does_not_change_anything() {
        for protocol in SCHEMES {
            let mut sim = DirectorySim::build(config(8, protocol)).unwrap();
            let run = sim.run(workload(8, 42), 200).unwrap();
            for jobs in WORKER_COUNTS {
                let mut sim = DirectorySim::build(config(8, protocol)).unwrap();
                let other = sim.run_jobs(workload(8, 42), 200, jobs).unwrap();
                assert_eq!(other.cycles, run.cycles, "{protocol} {jobs}");
                assert_eq!(other.events, run.events, "{protocol} {jobs}");
                assert_eq!(
                    stats_fingerprint(&other.stats),
                    stats_fingerprint(&run.stats),
                    "{protocol} {jobs}"
                );
                assert_eq!(other.obs, run.obs, "{protocol} {jobs}: gauges included");
            }
        }
    }

    /// DESIGN §8 mechanism 4: a failing run returns the same error for
    /// any worker count and leaves the simulation inspectable. The global
    /// loop stops at that error; rounds stop at the end of its window,
    /// identically for any number of round workers.
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
        let two = fail_with(2);
        let eight = fail_with(8);
        assert!(
            one.0.to_string().contains("liveness budget exhausted"),
            "{}",
            one.0
        );
        assert_eq!(two.0, one.0, "2 workers: the error");
        assert_eq!(eight.0, one.0, "8 workers: the error");
        assert_eq!(eight, two, "rounds: 8 workers stop where 2 do");
        // The global loop's clock is the failing event's cycle, which the
        // liveness error names, and it ran no event past that one.
        assert!(
            one.0.to_string().contains(&format!("cycle {}", one.1)),
            "{} at {}",
            one.0,
            one.1
        );
        assert!(one.2 <= two.2, "{} events, rounds ran {}", one.2, two.2);
    }

    /// The [`Op`] counts of the calling thread over one `run`.
    fn ops_of(run: impl FnOnce(&mut DirectorySim) -> Result<Report, ProtocolError>) -> [u64; 4] {
        OPS.with(|ops| ops.iter().for_each(|op| op.set(0)));
        let mut sim = DirectorySim::build(config(8, ProtocolKind::TwoBit)).unwrap();
        run(&mut sim).unwrap();
        OPS.with(|ops| ops.each_ref().map(std::cell::Cell::get))
    }

    /// With one worker the run is the global loop: it spawns no thread,
    /// takes no mailbox lock, enters no barrier and no round, buffers no
    /// send and sorts no inbox. The counter sees the calling thread —
    /// worker 0's share at two workers.
    #[test]
    fn one_worker_never_synchronises() {
        let one_worker = [
            ops_of(|sim| sim.run_jobs(workload(8, 42), 200, 1)),
            ops_of(|sim| sim.run(workload(8, 42), 200)),
        ];
        for ops in one_worker {
            assert_eq!(ops, [0; 4], "[sync, OutMsg, inbox sort, round]");
        }
        let two_workers = ops_of(|sim| sim.run_jobs(workload(8, 42), 200, 2));
        for op in [Op::Sync, Op::OutMsg, Op::InboxSort, Op::Round] {
            assert!(two_workers[op as usize] > 0, "{two_workers:?}");
        }
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
