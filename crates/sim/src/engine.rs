//! The timed directory engine: one event loop on the calling thread.
//!
//! [`DirectorySim::run`] pops events from one [`Calendar`] in canonical
//! order and hands each to its handler, which runs the agent or
//! controller it targets and sends what that emits at once: each send is
//! scheduled on the run's crossbar and its arrival enqueued where the
//! handler makes it. The run-wide gauges are observed in the handler that
//! moves them, and trace records go straight to the installed tracer, in
//! the order they are made.
//!
//! Events are ordered by `(time, rank)` — the rank states the event's
//! class and actor as one index (module deliveries, then cache
//! deliveries, then processor issues; [`crate::calendar`]) — rather than
//! by insertion order, so what runs next never depends on how the
//! calendar happens to store its events. The pair is unique per pending
//! event in a directory simulation because
//!
//! * at most one `ProcessorIssue` per cpu is pending at a time (a cpu
//!   reschedules itself only when a reference retires), and
//! * the crossbar reserves each destination port at strictly increasing
//!   arrival times (one cycle of port occupancy per message), so every
//!   `DeliverToCache`/`DeliverToModule` for one destination has a
//!   distinct arrival time.
//!
//! The calendar refuses a repeated pair in every build. DESIGN.md §8 has
//! the whole determinism argument.
//!
//! The engine is not generic over the workload: it is lent as a trait
//! object, so the loop and its handlers are compiled once, in this
//! crate, whatever the caller runs.

use crate::calendar::Calendar;
use crate::directory_sim::{DirectorySim, PendingTxn};
use crate::report::Report;
use twobit_core::{CtrlEmit, Observer, SendCost};
use twobit_interconnect::{Crossbar, MessageSize, Network, NodeId};
use twobit_obs::{ActorId, SimEvent, TxnClass};
use twobit_types::{
    AccessKind, CacheId, CacheToMemory, MemoryToCache, ModuleId, ProtocolError, TxnId, Version,
};
use twobit_workload::Workload;

/// A simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// What a send carries to its recipient.
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

/// What one run owns beside the simulation: its calendar and crossbar,
/// the buffers a handler's agent or controller writes its sends into
/// (empty between events, keeping their capacity, so an event allocates
/// nothing), the running counts the two gauges observe, and the last
/// cycle an event may run at.
struct Run {
    queue: Calendar,
    network: Crossbar,
    sends: Vec<CacheToMemory>,
    emits: Vec<CtrlEmit>,
    /// Open (started, unretired) transactions.
    outstanding: u64,
    /// Requests queued across all controllers.
    queued: u64,
    budget: u64,
    /// Whether the installed tracer records, asked once per run so the
    /// handlers read a field rather than make a virtual call per event.
    tracing: bool,
}

impl DirectorySim {
    /// Runs `refs_per_cpu` references per processor from `workload` to
    /// completion and drains all in-flight activity, on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on coherence/protocol violations, on a
    /// wedged system (liveness failure), or if invariants fail at the
    /// quiescent end. An error in the loop leaves the clock at the
    /// failing event's cycle; either way the simulation stays
    /// inspectable.
    pub fn run<W: Workload>(
        &mut self,
        mut workload: W,
        refs_per_cpu: u64,
    ) -> Result<Report, ProtocolError> {
        // With blocking caches a reference takes a bounded number of
        // cycles; budget generously.
        let budget = self.now.saturating_add(
            refs_per_cpu
                .saturating_mul(10_000)
                .saturating_add(1_000_000),
        );
        self.run_until(&mut workload, refs_per_cpu, budget)
    }

    /// [`run`](DirectorySim::run) with `budget` as the last cycle an
    /// event may run at.
    fn run_until(
        &mut self,
        workload: &mut dyn Workload,
        refs_per_cpu: u64,
        budget: u64,
    ) -> Result<Report, ProtocolError> {
        self.refs_target = refs_per_cpu;
        let latency = self.config.latency;
        let mut run = Run {
            queue: Calendar::new(self.now, self.config.caches, self.controllers.len()),
            // Each input port accepts one message per cycle.
            network: Crossbar::new(latency.net_command, latency.net_data, 1),
            sends: Vec::new(),
            emits: Vec::new(),
            outstanding: self.pending.iter().flatten().count() as u64,
            queued: self.controllers.iter().map(|c| c.queued() as u64).sum(),
            budget,
            tracing: self.tracer.enabled(),
        };
        for cpu in CacheId::all(self.config.caches) {
            run.queue.push(self.now, Event::ProcessorIssue { cpu });
        }
        let outcome = self.event_loop(&mut run, workload);
        self.network.merge(run.network.stats());
        outcome?;
        self.finish()
    }

    /// Pops and handles events in canonical order until the calendar is
    /// empty; stops at the first error.
    fn event_loop(
        &mut self,
        run: &mut Run,
        workload: &mut dyn Workload,
    ) -> Result<(), ProtocolError> {
        loop {
            self.profiler.begin("engine.pop");
            let popped = run.queue.pop();
            self.profiler.end("engine.pop");
            let Some((time, event)) = popped else {
                return Ok(());
            };
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            self.events += 1;
            if time > run.budget {
                return Err(ProtocolError::UnexpectedCommand {
                    state: format!("cycle {time}"),
                    command: "liveness budget exhausted — the system is wedged".to_string(),
                });
            }
            self.handle(run, event, workload)?;
        }
    }

    fn handle(
        &mut self,
        run: &mut Run,
        event: Event,
        workload: &mut dyn Workload,
    ) -> Result<(), ProtocolError> {
        match event {
            Event::ProcessorIssue { cpu } => {
                let k = cpu.index();
                if self.refs_done[k] >= self.refs_target {
                    return Ok(());
                }
                self.profiler.begin("event.issue");
                let op = workload.next_ref(cpu);
                let version = match op.kind {
                    AccessKind::Write => self.fresh_version(cpu),
                    AccessKind::Read => Version::initial(),
                };
                self.profiler.begin("agent.start");
                let outcome = self.agents[k].start(op, version, &mut run.sends);
                self.profiler.end("agent.start");
                let base = self.now;
                let txn = if outcome.completed.is_some() {
                    None
                } else {
                    let class = DirectorySim::classify_open(&run.sends, op.kind);
                    let id = self.open_txn(cpu, class, base);
                    run.outstanding += 1;
                    self.metrics.outstanding.observe(base, run.outstanding);
                    Some(id)
                };
                if run.tracing {
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
                self.dispatch_sends(run, cpu, base);
                if outcome.completed.is_some() {
                    self.refs_done[k] += 1;
                    self.schedule_next_issue(run, cpu, base);
                }
                // Otherwise the cpu is stalled; the retiring grant
                // reschedules it.
                self.profiler.end("event.issue");
            }
            Event::DeliverToCache { cache, msg } => {
                let k = cache.index();
                self.profiler.begin("event.deliver_cache");
                // Only a trace event needs the agent's state and useless
                // count from before the delivery.
                let before = run.tracing.then(|| {
                    let agent = &self.agents[k];
                    (
                        agent.cache().state_of(msg.block()).as_line_state(),
                        agent.stats().useless_commands.get(),
                    )
                });
                self.profiler.begin("agent.on_network");
                let out = self.agents[k].on_network(msg, &mut run.sends)?;
                self.profiler.end("agent.on_network");
                let base = self.now
                    + if out.counted {
                        self.config.latency.snoop_service
                    } else {
                        0
                    };
                let finished = if out.completed.is_some() {
                    self.pending[k].take()
                } else {
                    None
                };
                if let Some(p) = finished {
                    self.metrics
                        .record_latency(p.class, base.saturating_sub(p.start));
                    run.outstanding -= 1;
                    self.metrics.outstanding.observe(base, run.outstanding);
                }
                if let Some((local_before, useless_before)) = before {
                    let agent = &self.agents[k];
                    let local_after = agent.cache().state_of(msg.block()).as_line_state();
                    // `counted` is exactly "commands_received was bumped";
                    // comparing the useless counter across the call
                    // reproduces the agent's own matched/unmatched verdict
                    // without re-deriving it.
                    let useless =
                        out.counted && agent.stats().useless_commands.get() > useless_before;
                    let mut ev = SimEvent::new(
                        self.now,
                        ActorId::Cache(cache),
                        msg.block(),
                        msg.to_string(),
                    )
                    .class(msg.class())
                    .useless(useless);
                    if local_before != local_after {
                        ev = ev.local(local_before, local_after);
                    }
                    if let Some(p) = finished {
                        ev = ev.txn(p.id);
                    }
                    self.tracer.record(ev);
                }
                self.dispatch_sends(run, cache, base);
                if out.completed.is_some() {
                    self.refs_done[k] += 1;
                    self.schedule_next_issue(run, cache, base);
                }
                self.profiler.end("event.deliver_cache");
            }
            Event::DeliverToModule { module, cmd } => {
                let controller = &mut self.controllers[module.index()];
                self.profiler.begin("event.deliver_module");
                let queued_before = controller.queued() as u64;
                controller.submit(
                    cmd,
                    Observer::new(self.now, &mut *self.tracer, &mut self.profiler),
                    &mut run.emits,
                )?;
                // Like `outstanding`, the queue depth is observed when it
                // changes; most commands start at once and leave it alone.
                let queued_after = controller.queued() as u64;
                if queued_after != queued_before {
                    run.queued = run.queued + queued_after - queued_before;
                    self.metrics.queue_depth.observe(self.now, run.queued);
                }
                self.dispatch_emits(run, module, self.now);
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
        let count = &mut self.version_counters[cpu.index()];
        *count += 1;
        Version::new((*count - 1) * n + cpu.index() as u64 + 1)
    }

    /// Opens a latency-tracked transaction for `cpu`. Ids interleave a
    /// per-cpu counter with the cpu index, like versions.
    fn open_txn(&mut self, cpu: CacheId, class: TxnClass, start: u64) -> TxnId {
        let n = self.config.caches as u64;
        let count = &mut self.txn_counters[cpu.index()];
        *count += 1;
        let id = TxnId::new((*count - 1) * n + cpu.index() as u64 + 1);
        self.pending[cpu.index()] = Some(PendingTxn { class, start, id });
        id
    }

    fn schedule_next_issue(&mut self, run: &mut Run, cpu: CacheId, base: u64) {
        if self.refs_done[cpu.index()] < self.refs_target {
            let delay = self.config.latency.cache_hit + self.config.think_time;
            run.queue.push(base + delay, Event::ProcessorIssue { cpu });
        }
    }

    /// Sends the cache→module commands in the run's `sends`, leaving it
    /// empty.
    fn dispatch_sends(&mut self, run: &mut Run, src: CacheId, base: u64) {
        self.profiler.begin("net.dispatch");
        let mut sends = std::mem::take(&mut run.sends);
        for cmd in sends.drain(..) {
            let module = self.config.address_map.module_of(cmd.block());
            let size = match cmd {
                CacheToMemory::PutData { .. } => MessageSize::Data,
                _ => MessageSize::Command,
            };
            run.network.note_injection(size);
            self.send(run, base, size, MsgKind::ToModule { src, module, cmd });
        }
        run.sends = sends;
        self.profiler.end("net.dispatch");
    }

    /// Sends the module→cache messages in the run's `emits`, leaving it
    /// empty.
    fn dispatch_emits(&mut self, run: &mut Run, module: ModuleId, base: u64) {
        self.profiler.begin("net.dispatch");
        let mut emits = std::mem::take(&mut run.emits);
        for emit in emits.drain(..) {
            match emit {
                CtrlEmit::Unicast { to, cmd, cost } => {
                    let (size, extra) = match cost {
                        SendCost::Command => (MessageSize::Command, 0),
                        SendCost::DataFromMemory => (MessageSize::Data, self.config.latency.memory),
                        SendCost::DataForwarded => (MessageSize::Data, 0),
                    };
                    run.network.note_injection(size);
                    let inject = base + self.config.latency.controller + extra;
                    let kind = MsgKind::ToCache {
                        module,
                        cache: to,
                        cmd,
                    };
                    self.send(run, inject, size, kind);
                }
                CtrlEmit::Broadcast { cmd, exclude, cost } => {
                    let size = match cost {
                        SendCost::Command => MessageSize::Command,
                        _ => MessageSize::Data,
                    };
                    run.network.note_injection(size);
                    let inject = base + self.config.latency.controller;
                    if run.tracing {
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
                        if cache != exclude {
                            self.send(run, inject, size, MsgKind::ToCache { module, cache, cmd });
                        }
                    }
                }
            }
        }
        run.emits = emits;
        self.profiler.end("net.dispatch");
    }

    /// Sends one point delivery injected at cycle `inject`: reserves the
    /// destination port on the run's crossbar, which gives the arrival
    /// time, and enqueues the arrival. Handlers send in canonical event
    /// order, so the ports are reserved in that order too.
    fn send(&mut self, run: &mut Run, inject: u64, size: MessageSize, kind: MsgKind) {
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
        let arrival = run.network.schedule_profiled(
            src,
            dst,
            size,
            inject,
            block,
            &mut *self.tracer,
            &mut self.profiler,
        );
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
        run.queue.push(arrival, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;
    use twobit_obs::Tracer;
    use twobit_types::{MemRef, ProtocolKind, SystemConfig};
    use twobit_workload::{SharingModel, SharingParams};

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

    /// The events `calendar` pops, in order.
    fn drain(calendar: &mut Calendar) -> Vec<(u64, Event)> {
        std::iter::from_fn(|| calendar.pop()).collect()
    }

    #[test]
    fn time_outranks_class_and_actor() {
        let mut calendar = Calendar::new(0, 10, 1);
        calendar.push(2, deliver_module(0));
        calendar.push(1, issue(9));
        assert_eq!(
            drain(&mut calendar),
            vec![(1, issue(9)), (2, deliver_module(0))]
        );
    }

    #[test]
    fn equal_times_order_by_class_then_actor() {
        // Module deliveries first, then cache deliveries, then issues,
        // each by ascending actor index.
        let mut calendar = Calendar::new(0, 3, 2);
        for event in [
            issue(1),
            deliver_cache(2),
            issue(0),
            deliver_module(1),
            deliver_cache(0),
            deliver_module(0),
        ] {
            calendar.push(7, event);
        }
        let order: Vec<Event> = drain(&mut calendar).into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            order,
            vec![
                deliver_module(0),
                deliver_module(1),
                deliver_cache(0),
                deliver_cache(2),
                issue(0),
                issue(1),
            ]
        );
    }

    fn config(n: usize) -> SystemConfig {
        SystemConfig::with_defaults(n).with_protocol(ProtocolKind::TwoBit)
    }

    fn workload(n: usize, seed: u64) -> SharingModel {
        SharingModel::new(SharingParams::high(), n, seed).unwrap()
    }

    /// A failing run stops at its first error, with the clock at the
    /// failing event's cycle, and leaves the simulation inspectable. The
    /// error text, cycle and event count were recorded from the global
    /// loop of the multi-worker engine this one replaced.
    #[test]
    fn a_failure_stops_the_loop_at_the_failing_event() {
        let mut sim = DirectorySim::build(config(8)).unwrap();
        let err = sim
            .run_until(&mut workload(8, 42), 1_000, 300)
            .expect_err("300 cycles cannot retire 1,000 references per cpu");
        assert_eq!(
            err.to_string(),
            "unexpected command liveness budget exhausted — the system is wedged \
             in state cycle 303"
        );
        assert_eq!((sim.now(), sim.events_processed()), (303, 389));
        assert_eq!(sim.agents.len(), 8);
        assert_eq!(sim.controllers.len(), 8);
        assert!(sim.refs_done.iter().sum::<u64>() > 0);
    }

    /// Counts what reaches it in a cell the workload can read.
    #[derive(Debug)]
    struct Counted(Rc<Cell<u64>>);

    impl Tracer for Counted {
        fn record(&mut self, _event: SimEvent) {
            self.0.set(self.0.get() + 1);
        }
    }

    /// Notes the most records the tracer had received when asked for a
    /// reference.
    struct Peeking {
        inner: SharingModel,
        records: Rc<Cell<u64>>,
        seen: u64,
    }

    impl Workload for Peeking {
        fn next_ref(&mut self, k: CacheId) -> MemRef {
            self.seen = self.seen.max(self.records.get());
            self.inner.next_ref(k)
        }

        fn name(&self) -> &'static str {
            "peeking"
        }
    }

    /// Trace records stream to the tracer as the run makes them; none is
    /// held back for a merge at the end.
    #[test]
    fn trace_records_reach_the_tracer_during_the_run() {
        let records = Rc::new(Cell::new(0));
        let mut sim = DirectorySim::build(config(4)).unwrap();
        sim.set_tracer(Box::new(Counted(Rc::clone(&records))));
        let mut peeking = Peeking {
            inner: workload(4, 7),
            records: Rc::clone(&records),
            seen: 0,
        };
        sim.run(&mut peeking, 50).unwrap();
        assert!(peeking.seen > 0, "no record arrived before the last issue");
        assert!(peeking.seen < records.get(), "the run goes on recording");
    }
}
