//! Node-side logic: one cache controller or one memory module wrapped in
//! a message-in/messages-out step function.
//!
//! A node is deterministic and passive: it never spontaneously emits
//! anything, it only reacts to [`Request::Deliver`]. All ordering, time,
//! and fault behavior live in the driver; crash-recovery replay therefore
//! reproduces node state exactly by re-delivering the logged inputs.
//!
//! # The invalidation-acknowledgment barrier
//!
//! In the shared-memory simulator a broadcast invalidation takes effect
//! in the same quiescence step as the grant it precedes. Over a real
//! network that atomicity is gone: a `GETDATA` grant could race ahead of
//! the `BROADINV` that justifies it, letting a stale copy satisfy a read
//! *after* a newer write completed — an un-linearizable history. The
//! memory node therefore withholds every completion message (`GETDATA`,
//! `MGRANTED`, and the synthesized [`Payload::WtAck`]) for a block until
//! each invalidation it issued for that block has been acknowledged with
//! [`Payload::InvAck`]. Commands for the blocked address arriving in the
//! window are deferred FIFO and submitted after release (DESIGN.md §9).

use std::collections::{BTreeMap, VecDeque};

use twobit_core::{
    build_policy_for, build_protocol_for, CacheAgent, Completion, Controller, CtrlEmit, Observer,
};
use twobit_obs::json::{obj, Json, Text, ToJson, Value};
use twobit_obs::{ActorId, SimEvent};
use twobit_types::{
    AddressMap, BlockAddr, CacheId, CacheOrg, CacheToMemory, ControllerConcurrency, MemoryToCache,
    ModuleId, ProtocolKind, SystemConfig, TxnId, Version,
};

use crate::wire::{Actor, Envelope, Lines, NodeConfig, Payload, Request, Response};

/// Maps a scheme name (as carried in [`NodeConfig::scheme`]) to its
/// [`ProtocolKind`].
///
/// # Errors
///
/// Rejects unknown names and the bus-snooping protocols (they need a
/// shared bus, which the star-routed fleet does not model).
pub fn scheme_kind(name: &str, tlb_entries: u32) -> Result<ProtocolKind, String> {
    match name {
        "two-bit" => Ok(ProtocolKind::TwoBit),
        "two-bit+tlb" => Ok(ProtocolKind::TwoBitTlb {
            entries: tlb_entries.max(1),
        }),
        "full-map" => Ok(ProtocolKind::FullMap),
        "full-map+local" => Ok(ProtocolKind::FullMapLocal),
        "classical-wt" => Ok(ProtocolKind::ClassicalWriteThrough),
        "static-sw" => Ok(ProtocolKind::StaticSoftware),
        other => Err(format!("scheme `{other}` cannot run distributed")),
    }
}

fn block_of_c2m(cmd: &CacheToMemory) -> BlockAddr {
    match *cmd {
        CacheToMemory::Request { a, .. }
        | CacheToMemory::MRequest { a, .. }
        | CacheToMemory::PutData { a, .. }
        | CacheToMemory::WriteThrough { a, .. }
        | CacheToMemory::DirectRead { a, .. } => a,
        CacheToMemory::Eject { olda, .. } => olda,
    }
}

fn block_of_m2c(cmd: &MemoryToCache) -> BlockAddr {
    match *cmd {
        MemoryToCache::GetData { a, .. }
        | MemoryToCache::BroadInv { a, .. }
        | MemoryToCache::BroadQuery { a, .. }
        | MemoryToCache::MGranted { a, .. }
        | MemoryToCache::Inv { a, .. }
        | MemoryToCache::Purge { a, .. } => a,
    }
}

/// The largest tag store an `init` frame may ask a cache node for — 512
/// times the largest organization any binary, test or benchmark workload
/// builds (64 sets × 2 ways).
pub const MAX_CACHE_LINES: u64 = 1 << 16;

/// Either half of the fleet, behind one step interface.
// A memory node's controller holds its directory inline, which makes it
// the larger variant; a process has one `Node` and never moves it, so
// boxing either half would only add a pointer chase per delivery.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Node {
    /// A cache-controller node.
    Cache(CacheNode),
    /// A memory-module node.
    Mem(MemNode),
}

impl Node {
    /// Builds a node from its init configuration.
    ///
    /// # Errors
    ///
    /// Rejects bad schemes, bad cache organizations (including ones above
    /// [`MAX_CACHE_LINES`]), cache or module counts outside 1..=65535, and
    /// client roles (clients live inside the driver).
    pub fn new(cfg: &NodeConfig) -> Result<Node, String> {
        let kind = scheme_kind(&cfg.scheme, cfg.tlb_entries)?;
        // The configuration came off a socket, and the id and address-map
        // constructors below panic outside the 16 bits ids have.
        let ids = 1..=usize::from(u16::MAX);
        if !ids.contains(&cfg.caches) || !ids.contains(&cfg.modules) {
            return Err(format!(
                "{} caches and {} modules: both must be in 1..=65535",
                cfg.caches, cfg.modules
            ));
        }
        match cfg.role {
            Actor::Cache(k) => {
                if k >= cfg.caches {
                    return Err(format!("cache index {k} out of range"));
                }
                let org = CacheOrg::new(cfg.sets, cfg.assoc, cfg.block_words)
                    .map_err(|e| format!("bad cache organization: {e:?}"))?;
                // The tag store is allocated whole, `sets × assoc` lines,
                // from numbers that came off a socket.
                if org.total_blocks() > MAX_CACHE_LINES {
                    return Err(format!(
                        "bad cache organization: {} sets × {} ways is above {MAX_CACHE_LINES} lines",
                        cfg.sets, cfg.assoc
                    ));
                }
                let mut agent = CacheAgent::new(
                    CacheId::new(k),
                    org,
                    build_policy_for(kind, cfg.shared_from),
                    false,
                );
                agent.set_bias_entries(cfg.bias_entries);
                Ok(Node::Cache(CacheNode {
                    agent,
                    id: k,
                    map: AddressMap::interleaved(cfg.modules),
                    sends: Vec::new(),
                    text: Text::as_stated(),
                    current: None,
                    held: None,
                    last: None,
                }))
            }
            Actor::Module(j) => {
                if j >= cfg.modules {
                    return Err(format!("module index {j} out of range"));
                }
                let sys = SystemConfig::with_defaults(cfg.caches).with_protocol(kind);
                let ctrl = Controller::new(
                    ModuleId::new(j),
                    AddressMap::interleaved(cfg.modules),
                    build_protocol_for(&sys),
                    cfg.caches,
                    ControllerConcurrency::PerBlock,
                );
                Ok(Node::Mem(MemNode {
                    ctrl,
                    emits: Vec::new(),
                    text: Text::as_stated(),
                    module: j,
                    caches: cfg.caches,
                    next_barrier: 1,
                    gates: BTreeMap::new(),
                    gated_block: BTreeMap::new(),
                }))
            }
            Actor::Client(_) => Err("clients run inside the driver, not as nodes".into()),
        }
    }

    /// The node's step: takes one envelope at virtual time `now` and
    /// appends the envelopes to send, in issue order, to `outputs` and
    /// the node-local trace events, as JSONL lines, to `events`. This is
    /// what [`Request::Deliver`] carries across a process boundary; a
    /// driver hosting the node in its own process calls it directly,
    /// with an outputs buffer it keeps from one delivery to the next and
    /// its merged timeline as `events`.
    ///
    /// # Errors
    ///
    /// A protocol violation or a payload this half of the fleet never
    /// receives; the node cannot continue.
    pub fn deliver(
        &mut self,
        now: u64,
        env: &Envelope,
        outputs: &mut Vec<Envelope>,
        events: &mut Lines,
    ) -> Result<(), String> {
        match self {
            Node::Cache(n) => n.deliver(now, env, outputs, events),
            Node::Mem(n) => n.deliver(now, env, outputs, events),
        }
    }

    /// [`deliver`](Self::deliver) answered as a [`Request::Deliver`] is:
    /// the event lines go through `events`, which the caller may keep
    /// from one delivery to the next, and become strings at the wire.
    pub fn deliver_response(&mut self, now: u64, env: &Envelope, events: &mut Lines) -> Response {
        events.clear();
        let mut outputs = Vec::new();
        match self.deliver(now, env, &mut outputs, events) {
            Ok(()) => Response::DeliverOk {
                outputs,
                events: events.iter().map(str::to_owned).collect(),
            },
            Err(msg) => Response::Error { msg },
        }
    }

    /// Processes one control request. `Init` is handled by the caller
    /// (it is what constructs the node); here it is an error.
    pub fn handle(&mut self, req: &Request) -> Response {
        match req {
            Request::Init(_) => Response::Error {
                msg: "node already initialized".into(),
            },
            // `replay` does not change node behavior: the node is
            // deterministic, so re-delivering the logged inputs rebuilds
            // the state; the *driver* discards the outputs.
            Request::Deliver { now, env, .. } => {
                self.deliver_response(*now, env, &mut Lines::new())
            }
            Request::Checkpoint => Response::CheckpointOk {
                state: match self {
                    Node::Cache(n) => n.save_state(),
                    Node::Mem(n) => n.save_state(),
                },
            },
            Request::Restore { state } => {
                let r = match self {
                    Node::Cache(n) => n.restore_state(state),
                    Node::Mem(n) => n.restore_state(state),
                };
                match r {
                    Ok(()) => Response::RestoreOk,
                    Err(msg) => Response::Error { msg },
                }
            }
            Request::Shutdown => Response::ShutdownOk,
        }
    }
}

// ---------------------------------------------------------------------------
// Cache node
// ---------------------------------------------------------------------------

/// One cache controller as a network service.
///
/// Wraps the simulator's [`CacheAgent`] with the client-edge idempotency
/// layer: the client↔cache edge is at-least-once (the driver retries on
/// timeout), so the node keeps the one reply that can still be asked for
/// and answers a duplicate from it without re-executing.
///
/// One reply is enough because of the client-edge contract (DESIGN.md
/// §9.3): a client has one transaction outstanding, its transaction ids
/// only increase, and its edge is FIFO — so a *new* `ClientReq` proves
/// every earlier reply was received. The recovery state is therefore what
/// is live, not what has happened, and a checkpoint does not grow with
/// the run.
#[derive(Debug)]
pub struct CacheNode {
    agent: CacheAgent,
    id: usize,
    map: AddressMap,
    /// What the agent sends on the delivery being handled; empty between
    /// deliveries.
    sends: Vec<CacheToMemory>,
    /// The writer of this node's trace-event lines.
    text: Text,
    /// The transaction being serviced, if any. Set from `ClientReq`
    /// until its `ClientResp` is emitted; duplicate requests for it are
    /// dropped (the reply will reach the client when ready).
    current: Option<TxnId>,
    /// A completed write-through store whose `ClientResp` waits for the
    /// memory node's [`Payload::WtAck`] (global visibility). At most one:
    /// the client is blocking.
    held: Option<HeldResp>,
    /// The last completed transaction and its answer (observed version,
    /// hit flag), for duplicate-request replay. The next transaction
    /// acknowledges it away.
    last: Option<(TxnId, Version, bool)>,
}

#[derive(Debug, Clone, Copy)]
struct HeldResp {
    sv: Version,
    txn: TxnId,
    observed: Version,
    was_hit: bool,
}

impl CacheNode {
    fn me(&self) -> Actor {
        Actor::Cache(self.id)
    }

    fn actor_id(&self) -> ActorId {
        ActorId::Cache(CacheId::new(self.id))
    }

    fn route(&self, cmd: CacheToMemory) -> Envelope {
        let module = self.map.module_of(block_of_c2m(&cmd)).index();
        Envelope {
            src: self.me(),
            dst: Actor::Module(module),
            payload: Payload::ToMemory { cmd },
        }
    }

    fn client_resp(&self, txn: TxnId, observed: Version, was_hit: bool) -> Envelope {
        Envelope {
            src: self.me(),
            dst: Actor::Client(self.id),
            payload: Payload::ClientResp {
                txn,
                observed,
                was_hit,
            },
        }
    }

    fn respond(&mut self, txn: TxnId, observed: Version, was_hit: bool) -> Envelope {
        self.last = Some((txn, observed, was_hit));
        self.current = None;
        self.client_resp(txn, observed, was_hit)
    }

    fn complete(&mut self, c: &Completion, outputs: &mut Vec<Envelope>) -> Result<(), String> {
        let txn = self
            .current
            .ok_or("completion with no transaction in flight")?;
        outputs.push(self.respond(txn, c.observed, c.was_hit));
        Ok(())
    }

    fn deliver(
        &mut self,
        now: u64,
        env: &Envelope,
        outputs: &mut Vec<Envelope>,
        events: &mut Lines,
    ) -> Result<(), String> {
        match &env.payload {
            Payload::ClientReq { txn, op, sv } => {
                // The client has one transaction outstanding, its ids only
                // increase and its edge is FIFO, so `txn` is one of four
                // things (DESIGN.md §9.3).
                match self.last {
                    // The last completed transaction: replay the answer,
                    // touch nothing.
                    Some((last, observed, was_hit)) if last == *txn => {
                        outputs.push(self.client_resp(*txn, observed, was_hit));
                        return Ok(());
                    }
                    // The in-flight one (its answer is on its way), or one
                    // below the floor: a late duplicate of a transaction a
                    // newer one has acknowledged. Nobody waits for it and
                    // running it again would apply it twice: drop.
                    last if Some(*txn) <= self.current.max(last.map(|l| l.0)) => {
                        return Ok(());
                    }
                    // New.
                    _ => {}
                }
                if let Some(busy) = self.current {
                    return Err(format!(
                        "C{}: new txn {} while {} in flight",
                        self.id,
                        txn.raw(),
                        busy.raw()
                    ));
                }
                self.current = Some(*txn);
                let store_version = sv.unwrap_or(Version::new(0));
                self.sends.clear();
                let out = self.agent.start(*op, store_version, &mut self.sends);
                events.push(self.text.write(&SimEvent::with(
                    now,
                    self.actor_id(),
                    op.addr.block,
                    format_args!("txn {} {:?} start", txn.raw(), op.kind),
                )));
                // A fire-and-forget store (write-through policy or a
                // static-scheme public store) retires locally but is not
                // globally visible until memory confirms it; hold the
                // client response for the WtAck.
                let through = self.sends.iter().any(|s| {
                    matches!(s, CacheToMemory::WriteThrough { version, .. } if *version == store_version)
                });
                outputs.extend(self.sends.iter().map(|&send| self.route(send)));
                if let Some(c) = out.completed {
                    if through {
                        self.held = Some(HeldResp {
                            sv: store_version,
                            txn: *txn,
                            observed: c.observed,
                            was_hit: c.was_hit,
                        });
                    } else {
                        self.complete(&c, outputs)?;
                    }
                }
            }
            Payload::ToCache { cmd, ack } => {
                events.push(self.text.write(&SimEvent::with(
                    now,
                    self.actor_id(),
                    block_of_m2c(cmd),
                    format_args!("deliver {cmd}"),
                )));
                self.sends.clear();
                let out = self
                    .agent
                    .on_network(*cmd, &mut self.sends)
                    .map_err(|e| format!("C{}: {e}", self.id))?;
                outputs.extend(self.sends.iter().map(|&send| self.route(send)));
                // The ack goes after the responses the command provoked,
                // so a PUT supplied by a purge is already on the (FIFO)
                // link when the barrier releases.
                if let Some(barrier) = ack {
                    outputs.push(Envelope {
                        src: self.me(),
                        dst: env.src,
                        payload: Payload::InvAck { barrier: *barrier },
                    });
                }
                if let Some(c) = out.completed {
                    self.complete(&c, outputs)?;
                }
            }
            Payload::WtAck { sv } => {
                let held = self
                    .held
                    .take()
                    .ok_or_else(|| format!("C{}: WtAck with nothing held", self.id))?;
                if held.sv != *sv {
                    return Err(format!(
                        "C{}: WtAck for v{} but v{} held",
                        self.id,
                        sv.raw(),
                        held.sv.raw()
                    ));
                }
                outputs.push(self.respond(held.txn, held.observed, held.was_hit));
            }
            other => return Err(format!("C{}: unexpected payload {}", self.id, other.kind())),
        }
        Ok(())
    }

    fn save_state(&self) -> Json {
        obj([
            ("role", self.me().json()),
            ("agent", self.agent.save_state()),
            ("current", self.current.json()),
            (
                "held",
                self.held.as_ref().map_or(Json::Null, |h| {
                    obj([
                        ("sv", h.sv.json()),
                        ("txn", h.txn.json()),
                        ("observed", h.observed.json()),
                        ("hit", h.was_hit.json()),
                    ])
                }),
            ),
            // An array of at most one entry, so that a checkpoint from
            // when the whole completed-transaction table was kept
            // restores here, and this one there.
            (
                "done",
                self.last
                    .iter()
                    .map(|(txn, v, hit)| {
                        obj([("txn", txn.json()), ("v", v.json()), ("hit", hit.json())])
                    })
                    .collect(),
            ),
        ])
    }

    fn restore_state(&mut self, j: &Json) -> Result<(), String> {
        let role: Actor = j.field("role")?;
        if role != self.me() {
            return Err(format!("checkpoint is for {role}, this is {}", self.me()));
        }
        let current = j.field("current")?;
        let held = match j.member("held")? {
            Json::Null => None,
            h => Some(HeldResp {
                sv: h.field("sv")?,
                txn: h.field("txn")?,
                observed: h.field("observed")?,
                was_hit: h.field("hit")?,
            }),
        };
        // Of an older checkpoint's whole table only the highest entry
        // can still be asked for.
        let mut last: Option<(TxnId, Version, bool)> = None;
        for e in j.array("done")? {
            last = last.max(Some((e.field("txn")?, e.field("v")?, e.field("hit")?)));
        }
        self.agent.restore_state(j.member("agent")?)?;
        self.current = current;
        self.held = held;
        self.last = last;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Memory node
// ---------------------------------------------------------------------------

/// One memory module (controller + storage) as a network service.
///
/// Wraps the simulator's [`Controller`] with two distribution-only
/// mechanisms: broadcast expansion (the star network has no bus, so a
/// `BROADINV` becomes n−1 unicasts the node can count acknowledgments
/// for) and the invalidation barrier described at module level.
#[derive(Debug)]
pub struct MemNode {
    ctrl: Controller,
    /// What the controller emits on the command being processed; empty
    /// between commands.
    emits: Vec<CtrlEmit>,
    /// The writer of this node's trace-event lines.
    text: Text,
    module: usize,
    caches: usize,
    next_barrier: u64,
    /// Active barriers, keyed by block number. At most one per block.
    gates: BTreeMap<u64, Gate>,
    /// The block each active barrier gates, keyed by barrier id — what
    /// an acknowledgment looks its gate up by. Derived from `gates`, so
    /// not in the checkpoint.
    gated_block: BTreeMap<u64, u64>,
}

#[derive(Debug)]
struct Gate {
    barrier: u64,
    outstanding: usize,
    /// Completion envelopes withheld until release.
    held: Vec<Envelope>,
    /// Commands for this block that arrived during the barrier window.
    deferred: VecDeque<CacheToMemory>,
}

impl MemNode {
    fn me(&self) -> Actor {
        Actor::Module(self.module)
    }

    fn deliver(
        &mut self,
        now: u64,
        env: &Envelope,
        outputs: &mut Vec<Envelope>,
        events: &mut Lines,
    ) -> Result<(), String> {
        match &env.payload {
            Payload::ToMemory { cmd } => {
                events.push(self.text.write(&SimEvent::with(
                    now,
                    ActorId::Module(ModuleId::new(self.module)),
                    block_of_c2m(cmd),
                    format_args!("deliver {cmd}"),
                )));
                self.process(*cmd, outputs)?;
            }
            Payload::InvAck { barrier } => {
                self.on_inv_ack(now, *barrier, outputs, events)?;
            }
            other => {
                return Err(format!(
                    "M{}: unexpected payload {}",
                    self.module,
                    other.kind()
                ))
            }
        }
        Ok(())
    }

    /// Submits one command to the controller, expanding broadcasts and
    /// applying the barrier discipline. Commands for a gated block are
    /// deferred instead.
    fn process(&mut self, cmd: CacheToMemory, outputs: &mut Vec<Envelope>) -> Result<(), String> {
        let a = block_of_c2m(&cmd);
        if let Some(gate) = self.gates.get_mut(&a.number()) {
            gate.deferred.push_back(cmd);
            return Ok(());
        }
        // The synthesized completion for fire-and-forget stores: the
        // writer gets a WtAck once the store (and its invalidations) are
        // globally visible.
        let wt_ack = match cmd {
            CacheToMemory::WriteThrough { k, version, .. } => Some(Envelope {
                src: self.me(),
                dst: Actor::Cache(k.index()),
                payload: Payload::WtAck { sv: version },
            }),
            _ => None,
        };
        let queued_before = self.ctrl.queued();
        self.emits.clear();
        self.ctrl
            .submit(cmd, Observer::none(), &mut self.emits)
            .map_err(|e| format!("M{}: {e}", self.module))?;
        if wt_ack.is_some() && self.ctrl.queued() > queued_before {
            // The write-through schemes never make the controller busy,
            // so a queued WRITETHRU would mean the WtAck below lies about
            // visibility. Fail loudly rather than break linearizability.
            return Err(format!("M{}: WRITETHRU was queued", self.module));
        }

        // Barrier discipline, applied in emission order, a broadcast
        // expanded to its unicasts in cache order. The first
        // invalidation for a block opens a gate (one submit can cover
        // several transactions — the controller drains its internal
        // queue — so a `GETDATA` completing a read may precede the
        // `BROADINV…, GETDATA` of a drained write on the same block; that
        // first grant logically precedes the invalidations and goes out
        // ahead of them). Once a gate is open, *every* later emission for
        // that block is withheld until release, not just the completions:
        // a drained follow-up transaction's PURGE must not overtake the
        // withheld grant it logically follows, or the purged cache sees
        // the purge before the data and the controller waits forever for
        // a PUT that never comes. Only the invalidations themselves go
        // straight out — they are what the gate counts acks for.
        for i in 0..self.emits.len() {
            let (cmd, dsts, skip, needs_ack) = match self.emits[i] {
                CtrlEmit::Unicast { to, cmd, .. } => (
                    cmd,
                    to.index()..to.index() + 1,
                    None,
                    matches!(cmd, MemoryToCache::Inv { .. }),
                ),
                CtrlEmit::Broadcast { cmd, exclude, .. } => (
                    cmd,
                    0..self.caches,
                    Some(exclude.index()),
                    matches!(cmd, MemoryToCache::BroadInv { .. }),
                ),
            };
            for dst in dsts.filter(|&k| Some(k) != skip) {
                self.send_gated(dst, cmd, needs_ack, outputs);
            }
        }
        if let Some(ack_env) = wt_ack {
            let block = a.number();
            match self.gates.get_mut(&block) {
                Some(g) => g.held.push(ack_env),
                None => outputs.push(ack_env),
            }
        }
        Ok(())
    }

    /// Sends `cmd` to cache `dst` under the barrier discipline: an
    /// invalidation opens its block's gate (or joins the open one) and
    /// goes out; anything else waits in an open gate or goes out.
    fn send_gated(
        &mut self,
        dst: usize,
        cmd: MemoryToCache,
        needs_ack: bool,
        outputs: &mut Vec<Envelope>,
    ) {
        let block = block_of_m2c(&cmd).number();
        let me = self.me();
        let env = |ack| Envelope {
            src: me,
            dst: Actor::Cache(dst),
            payload: Payload::ToCache { cmd, ack },
        };
        if needs_ack {
            if !self.gates.contains_key(&block) {
                let barrier = self.next_barrier;
                self.next_barrier += 1;
                self.gated_block.insert(barrier, block);
                self.gates.insert(
                    block,
                    Gate {
                        barrier,
                        outstanding: 0,
                        held: Vec::new(),
                        deferred: VecDeque::new(),
                    },
                );
            }
            let gate = self.gates.get_mut(&block).expect("gate just ensured");
            gate.outstanding += 1;
            outputs.push(env(Some(gate.barrier)));
            return;
        }
        match self.gates.get_mut(&block) {
            Some(g) => g.held.push(env(None)),
            None => outputs.push(env(None)),
        }
    }

    fn on_inv_ack(
        &mut self,
        now: u64,
        barrier: u64,
        outputs: &mut Vec<Envelope>,
        events: &mut Lines,
    ) -> Result<(), String> {
        let block = *self
            .gated_block
            .get(&barrier)
            .ok_or_else(|| format!("M{}: ack for unknown barrier {barrier}", self.module))?;
        let gate = self.gates.get_mut(&block).expect("gate exists");
        gate.outstanding -= 1;
        if gate.outstanding > 0 {
            return Ok(());
        }
        let gate = self.gates.remove(&block).expect("gate exists");
        self.gated_block.remove(&barrier);
        events.push(self.text.write(&SimEvent::with(
            now,
            ActorId::Module(ModuleId::new(self.module)),
            BlockAddr::new(block),
            format_args!("barrier {barrier} released"),
        )));
        outputs.extend(gate.held);
        // Re-submit what queued up behind the barrier, in arrival order.
        // If one of them starts a new barrier on this block, the rest
        // re-defer automatically inside `process`.
        for cmd in gate.deferred {
            self.process(cmd, outputs)?;
        }
        Ok(())
    }

    fn save_state(&self) -> Json {
        obj([
            ("role", self.me().json()),
            ("ctrl", self.ctrl.save_state()),
            ("next_barrier", self.next_barrier.json()),
            (
                "gates",
                self.gates
                    .iter()
                    .map(|(block, g)| {
                        obj([
                            ("a", block.json()),
                            ("barrier", g.barrier.json()),
                            ("outstanding", g.outstanding.json()),
                            ("held", g.held.json()),
                            ("deferred", g.deferred.iter().map(ToJson::json).collect()),
                        ])
                    })
                    .collect(),
            ),
        ])
    }

    fn restore_state(&mut self, j: &Json) -> Result<(), String> {
        let role: Actor = j.field("role")?;
        if role != self.me() {
            return Err(format!("checkpoint is for {role}, this is {}", self.me()));
        }
        let next_barrier = j.field("next_barrier")?;
        let mut gates = BTreeMap::new();
        for g in j.array("gates")? {
            gates.insert(
                g.field("a")?,
                Gate {
                    barrier: g.field("barrier")?,
                    outstanding: g.field("outstanding")?,
                    held: g.field("held")?,
                    deferred: g.field::<Vec<CacheToMemory>>("deferred")?.into(),
                },
            );
        }
        self.ctrl.restore_state(j.member("ctrl")?)?;
        self.next_barrier = next_barrier;
        self.gated_block = gates.iter().map(|(a, g)| (g.barrier, *a)).collect();
        self.gates = gates;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::{AccessKind, MemRef, WordAddr};

    fn cfg(role: Actor, scheme: &str) -> NodeConfig {
        NodeConfig {
            role,
            scheme: scheme.into(),
            caches: 3,
            modules: 2,
            sets: 8,
            assoc: 2,
            block_words: 4,
            shared_from: 1 << 32,
            bias_entries: 0,
            tlb_entries: 4,
        }
    }

    fn client_req(k: usize, txn: u64, op: MemRef, sv: Option<Version>) -> Envelope {
        Envelope {
            src: Actor::Client(k),
            dst: Actor::Cache(k),
            payload: Payload::ClientReq {
                txn: TxnId::new(txn),
                op,
                sv,
            },
        }
    }

    fn deliver(node: &mut Node, env: &Envelope) -> Vec<Envelope> {
        match node.handle(&Request::Deliver {
            now: 0,
            replay: false,
            env: env.clone(),
        }) {
            Response::DeliverOk { outputs, .. } => outputs,
            other => panic!("unexpected response: {other:?}"),
        }
    }

    fn checkpoint(node: &mut Node) -> Json {
        match node.handle(&Request::Checkpoint) {
            Response::CheckpointOk { state } => state,
            other => panic!("unexpected response: {other:?}"),
        }
    }

    /// The node's `checkpoint_ok` frame: its whole state, as bytes.
    fn checkpoint_frame(node: &mut Node) -> String {
        crate::wire::response_line(&node.handle(&Request::Checkpoint))
    }

    #[test]
    fn read_miss_flows_cache_to_module_and_back() {
        let mut cache = Node::new(&cfg(Actor::Cache(0), "two-bit")).unwrap();
        let mut module = Node::new(&cfg(Actor::Module(0), "two-bit")).unwrap();
        let op = MemRef::read(WordAddr::new(4, 0)); // block 4 → module 0
        let out = deliver(&mut cache, &client_req(0, 1, op, None));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, Actor::Module(0));
        let out = deliver(&mut module, &out[0]);
        assert_eq!(out.len(), 1, "uncached block: immediate grant");
        let out = deliver(&mut cache, &out[0]);
        assert_eq!(out.len(), 1);
        match &out[0].payload {
            Payload::ClientResp { txn, .. } => assert_eq!(txn.raw(), 1),
            other => panic!("expected ClientResp, got {}", other.kind()),
        }
    }

    #[test]
    fn duplicate_client_requests_are_idempotent() {
        let mut cache = Node::new(&cfg(Actor::Cache(0), "two-bit")).unwrap();
        let mut module = Node::new(&cfg(Actor::Module(0), "two-bit")).unwrap();
        let op = MemRef::read(WordAddr::new(4, 0));
        let req = client_req(0, 1, op, None);
        let to_mem = deliver(&mut cache, &req);
        // Retry while in flight: dropped.
        assert!(deliver(&mut cache, &req).is_empty());
        let grant = deliver(&mut module, &to_mem[0]);
        let resp1 = deliver(&mut cache, &grant[0]);
        // Retry after completion: replayed from the recorded reply, with
        // the same observed version, and no new traffic to memory.
        let resp2 = deliver(&mut cache, &req);
        assert_eq!(resp1, resp2);
    }

    #[test]
    fn write_miss_holds_grant_until_inv_acks() {
        let mut module = Node::new(&cfg(Actor::Module(0), "two-bit")).unwrap();
        let mut c0 = Node::new(&cfg(Actor::Cache(0), "two-bit")).unwrap();
        let mut c1 = Node::new(&cfg(Actor::Cache(1), "two-bit")).unwrap();
        let mut c2 = Node::new(&cfg(Actor::Cache(2), "two-bit")).unwrap();
        let a = WordAddr::new(4, 0);

        // c1 and c2 read block 4 → Present* (two sharers).
        for (k, cache) in [(1usize, &mut c1), (2usize, &mut c2)] {
            let to_mem = deliver(cache, &client_req(k, k as u64, MemRef::read(a), None));
            let grant = deliver(&mut module, &to_mem[0]);
            deliver(cache, &grant[0]);
        }

        // c0 write-misses: BROADINV to c1+c2, grant withheld.
        let to_mem = deliver(
            &mut c0,
            &client_req(0, 10, MemRef::write(a), Some(Version::new(7))),
        );
        let out = deliver(&mut module, &to_mem[0]);
        let invs: Vec<_> = out
            .iter()
            .filter(|e| matches!(e.payload, Payload::ToCache { ack: Some(_), .. }))
            .collect();
        assert_eq!(invs.len(), 2, "both sharers get acked invalidations");
        assert!(
            !out.iter().any(|e| matches!(
                &e.payload,
                Payload::ToCache {
                    cmd: MemoryToCache::GetData { .. },
                    ..
                }
            )),
            "grant must wait for the barrier"
        );

        // Deliver the invalidation to c1 only: barrier still closed.
        let ack1 = deliver(&mut c1, invs[0]);
        let after_one = deliver(&mut module, ack1.last().unwrap());
        assert!(after_one.is_empty());

        // Second ack releases the grant.
        let ack2 = deliver(&mut c2, invs[1]);
        let released = deliver(&mut module, ack2.last().unwrap());
        assert_eq!(released.len(), 1);
        match &released[0].payload {
            Payload::ToCache {
                cmd: MemoryToCache::GetData { exclusive, .. },
                ..
            } => assert!(*exclusive),
            other => panic!("expected held grant, got {}", other.kind()),
        }
        let resp = deliver(&mut c0, &released[0]);
        assert!(
            matches!(resp[0].payload, Payload::ClientResp { observed, .. } if observed == Version::new(7))
        );
    }

    #[test]
    fn commands_for_a_gated_block_are_deferred() {
        let mut module = Node::new(&cfg(Actor::Module(0), "two-bit")).unwrap();
        let mut c1 = Node::new(&cfg(Actor::Cache(1), "two-bit")).unwrap();
        let a = WordAddr::new(4, 0);

        // c1 shares block 4.
        let to_mem = deliver(&mut c1, &client_req(1, 1, MemRef::read(a), None));
        let grant = deliver(&mut module, &to_mem[0]);
        deliver(&mut c1, &grant[0]);

        // c0 write-misses → barrier on block 4 (one sharer to invalidate).
        let out = deliver(
            &mut module,
            &Envelope {
                src: Actor::Cache(0),
                dst: Actor::Module(0),
                payload: Payload::ToMemory {
                    cmd: CacheToMemory::Request {
                        k: CacheId::new(0),
                        a: BlockAddr::new(4),
                        rw: AccessKind::Write,
                    },
                },
            },
        );
        // Two-bit does not know the sharer's identity: both other caches
        // get an acked invalidation.
        let mut c2 = Node::new(&cfg(Actor::Cache(2), "two-bit")).unwrap();
        let invs: Vec<Envelope> = out
            .iter()
            .filter(|e| matches!(e.payload, Payload::ToCache { ack: Some(_), .. }))
            .cloned()
            .collect();
        assert_eq!(invs.len(), 2);

        // c2's read for the same block arrives inside the window: deferred.
        let deferred = deliver(
            &mut module,
            &Envelope {
                src: Actor::Cache(2),
                dst: Actor::Module(0),
                payload: Payload::ToMemory {
                    cmd: CacheToMemory::Request {
                        k: CacheId::new(2),
                        a: BlockAddr::new(4),
                        rw: AccessKind::Read,
                    },
                },
            },
        );
        assert!(deferred.is_empty(), "gated-block command must wait");

        // The first ack keeps the barrier closed; the last one releases
        // the c0 grant AND processes c2's read, which must see the
        // *post-write* state (queried from the new owner).
        let ack1 = deliver(&mut c1, &invs[0]);
        assert!(deliver(&mut module, ack1.last().unwrap()).is_empty());
        let ack2 = deliver(&mut c2, &invs[1]);
        let released = deliver(&mut module, ack2.last().unwrap());
        assert!(released
            .iter()
            .any(|e| matches!(&e.payload, Payload::ToCache { cmd: MemoryToCache::GetData { k, .. }, .. } if k.index() == 0)));
        // c2's deferred read triggers a query of the new exclusive owner,
        // not an immediate grant of the stale memory copy.
        assert!(released.iter().any(|e| matches!(
            &e.payload,
            Payload::ToCache {
                cmd: MemoryToCache::BroadQuery { .. } | MemoryToCache::Purge { .. },
                ..
            }
        )));
    }

    #[test]
    fn write_through_store_waits_for_wt_ack() {
        let mut cache = Node::new(&cfg(Actor::Cache(0), "classical-wt")).unwrap();
        let mut module = Node::new(&cfg(Actor::Module(0), "classical-wt")).unwrap();
        let a = WordAddr::new(4, 0);
        let out = deliver(
            &mut cache,
            &client_req(0, 1, MemRef::write(a), Some(Version::new(5))),
        );
        // The store posts through but the client response is held.
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].payload,
            Payload::ToMemory {
                cmd: CacheToMemory::WriteThrough { .. }
            }
        ));
        // The classical scheme broadcasts an invalidation on every
        // write-through; the WtAck is held until both other caches ack.
        let out = deliver(&mut module, &out[0]);
        let invs: Vec<Envelope> = out
            .iter()
            .filter(|e| matches!(e.payload, Payload::ToCache { ack: Some(_), .. }))
            .cloned()
            .collect();
        assert_eq!(invs.len(), 2);
        assert!(!out
            .iter()
            .any(|e| matches!(e.payload, Payload::WtAck { .. })));
        let mut c1 = Node::new(&cfg(Actor::Cache(1), "classical-wt")).unwrap();
        let mut c2 = Node::new(&cfg(Actor::Cache(2), "classical-wt")).unwrap();
        let ack1 = deliver(&mut c1, &invs[0]);
        assert!(deliver(&mut module, ack1.last().unwrap()).is_empty());
        let ack2 = deliver(&mut c2, &invs[1]);
        let released = deliver(&mut module, ack2.last().unwrap());
        let wt = released
            .iter()
            .find(|e| matches!(e.payload, Payload::WtAck { .. }))
            .expect("WtAck after barrier");
        let resp = deliver(&mut cache, wt);
        assert!(
            matches!(resp[0].payload, Payload::ClientResp { observed, .. } if observed == Version::new(5))
        );
    }

    /// The largest frame the fleet can legitimately send is the
    /// checkpoint of a cache at [`MAX_CACHE_LINES`] with every line valid
    /// (it also comes back inside `restore`); the transport's frame bound
    /// is sized from it, so measure it against the bound.
    #[test]
    fn a_full_cache_checkpoint_fits_one_frame() {
        use crate::wire::response_line;
        use twobit_interconnect::transport::MAX_FRAME_BYTES;

        let mut big = cfg(Actor::Cache(0), "two-bit");
        (big.caches, big.modules) = (1, 1);
        (big.sets, big.assoc) = ((MAX_CACHE_LINES / 2) as u32, 2);
        let mut cache = Node::new(&big).unwrap();
        big.role = Actor::Module(0);
        let mut module = Node::new(&big).unwrap();
        for block in 0..MAX_CACHE_LINES {
            let op = MemRef::write(WordAddr::new(block, 0));
            let to_mem = deliver(&mut cache, &client_req(0, block + 1, op, None));
            let grant = deliver(&mut module, &to_mem[0]);
            let resp = deliver(&mut cache, &grant[0]);
            assert!(matches!(resp[0].payload, Payload::ClientResp { .. }));
        }
        let state = checkpoint(&mut cache);
        let tag_store = state.member("agent").unwrap().member("cache").unwrap();
        assert_eq!(
            tag_store.array("lines").unwrap().len() as u64,
            MAX_CACHE_LINES,
            "not a full cache"
        );
        // The lines alone: 39 bytes of keys and punctuation and at least
        // 9 of values each (measured: 4,707,503 bytes for the frame, a
        // 19-byte replacement word per set included). The 65,536
        // transactions that filled the cache add nothing: with an entry
        // for each the frame was 6.8 MB.
        let frame = response_line(&Response::CheckpointOk { state });
        assert!(
            frame.len() as u64 > MAX_CACHE_LINES * 48 && frame.len() < 5 << 20,
            "{} bytes: not the size of 65,536 lines",
            frame.len()
        );
        assert!(
            frame.len() * 4 < MAX_FRAME_BYTES,
            "a full cache's checkpoint is {} bytes, more than a quarter of the {} a frame may be",
            frame.len(),
            MAX_FRAME_BYTES
        );
    }

    /// Completes `txns` read transactions, ids `from..from + txns`, over
    /// nine blocks that fit the cache together: from the tenth on every
    /// one is a hit and the lines change only in their counters.
    fn run_reads(cache: &mut Node, module: &mut Node, from: u64, txns: u64) {
        for txn in from..from + txns {
            let op = MemRef::read(WordAddr::new(txn % 9, 0));
            let mut out = deliver(cache, &client_req(0, txn, op, None));
            if let Payload::ToMemory { .. } = out[0].payload {
                let grant = deliver(module, &out[0]);
                out = deliver(cache, &grant[0]);
            }
            assert!(matches!(out[0].payload, Payload::ClientResp { .. }));
        }
    }

    /// The recovery state is what is live, not what has happened: counted
    /// in bytes, not timed.
    #[test]
    fn a_checkpoint_does_not_grow_with_the_transactions_completed() {
        let mut small = cfg(Actor::Cache(0), "two-bit");
        (small.caches, small.modules) = (1, 1);
        (small.sets, small.assoc) = (8, 2);
        let mut cache = Node::new(&small).unwrap();
        small.role = Actor::Module(0);
        let mut module = Node::new(&small).unwrap();

        // Every run of digits becomes one `0`: what is left is the shape.
        let shape = |frame: &str| {
            let mut out = String::new();
            for c in frame.chars() {
                let c = if c.is_ascii_digit() { '0' } else { c };
                if !(c == '0' && out.ends_with('0')) {
                    out.push(c);
                }
            }
            out
        };
        run_reads(&mut cache, &mut module, 1, 10);
        let after_10 = checkpoint_frame(&mut cache);
        run_reads(&mut cache, &mut module, 11, 9_990);
        let after_10_000 = checkpoint_frame(&mut cache);
        assert_eq!(
            shape(&after_10),
            shape(&after_10_000),
            "the two checkpoints may differ by digit widths only"
        );
        assert!(
            after_10_000.len() < after_10.len() + 200,
            "{} bytes after 10 transactions, {} after 10,000",
            after_10.len(),
            after_10_000.len()
        );
    }

    /// A checkpoint written when the whole completed-transaction table
    /// was kept: only its highest entry can still be asked for.
    #[test]
    fn a_parent_format_checkpoint_restores_to_its_highest_entry() {
        let mut cache = Node::new(&cfg(Actor::Cache(0), "two-bit")).unwrap();
        let mut state = checkpoint(&mut cache);
        let Json::Obj(fields) = &mut state else {
            panic!("a checkpoint is an object");
        };
        // Not in id order: the highest is found, not assumed last.
        fields.insert(
            "done".into(),
            [3_u64, 500, 7, 499, 1]
                .iter()
                .map(|&t| {
                    obj([
                        ("txn", t.json()),
                        ("v", (t + 1000).json()),
                        ("hit", true.json()),
                    ])
                })
                .collect(),
        );
        assert!(matches!(
            cache.handle(&Request::Restore { state }),
            Response::RestoreOk
        ));
        let op = MemRef::read(WordAddr::new(4, 0));
        let replay = deliver(&mut cache, &client_req(0, 500, op, None));
        assert_eq!(replay.len(), 1);
        assert!(matches!(
            replay[0].payload,
            Payload::ClientResp { txn, observed, was_hit: true }
                if txn.raw() == 500 && observed == Version::new(1500)
        ));
        for txn in [1, 3, 7, 499] {
            assert!(deliver(&mut cache, &client_req(0, txn, op, None)).is_empty());
        }
        let kept = checkpoint(&mut cache);
        assert_eq!(kept.array("done").unwrap().len(), 1);
    }

    /// What a `ClientReq` is to the node that gets it: a duplicate of the
    /// last completed transaction, a duplicate of the one in flight, a
    /// stale id below the floor, or new.
    #[test]
    fn a_client_request_is_one_of_four_things() {
        let mut cache = Node::new(&cfg(Actor::Cache(0), "two-bit")).unwrap();
        let mut module = Node::new(&cfg(Actor::Module(0), "two-bit")).unwrap();
        let read = |block| MemRef::read(WordAddr::new(block, 0));

        // Transactions 5 and 9 complete; 9 is the last.
        for (txn, block) in [(5, 4), (9, 6)] {
            let to_mem = deliver(&mut cache, &client_req(0, txn, read(block), None));
            let grant = deliver(&mut module, &to_mem[0]);
            deliver(&mut cache, &grant[0]);
        }
        // Idle. The last one replays, whatever the duplicate asks for…
        let idle = checkpoint_frame(&mut cache);
        let replay = deliver(&mut cache, &client_req(0, 9, read(6), None));
        assert!(matches!(replay[0].payload, Payload::ClientResp { txn, .. } if txn.raw() == 9));
        assert_eq!(replay.len(), 1, "nothing goes to memory");
        // …and everything below it is dropped: the acknowledged 5, and ids
        // the node never saw (a miss on a fresh block if it were run).
        for stale in [5, 1, 8] {
            assert!(deliver(&mut cache, &client_req(0, stale, read(12), None)).is_empty());
        }
        assert_eq!(
            checkpoint_frame(&mut cache),
            idle,
            "a dropped request changes nothing"
        );

        // Busy with 12: its duplicate is dropped and so is everything
        // below the floor, now 12; 9 still replays (its reply may be the
        // one that was lost, though 12 says it was not).
        let to_mem = deliver(&mut cache, &client_req(0, 12, read(8), None));
        assert_eq!(to_mem.len(), 1);
        let busy = checkpoint_frame(&mut cache);
        for dropped in [12, 5, 10, 11] {
            assert!(deliver(&mut cache, &client_req(0, dropped, read(12), None)).is_empty());
        }
        assert_eq!(
            deliver(&mut cache, &client_req(0, 9, read(6), None)),
            replay
        );
        assert_eq!(checkpoint_frame(&mut cache), busy);
        // An id above the floor is a second transaction: the client broke
        // the one-outstanding contract.
        match cache.handle(&Request::Deliver {
            now: 0,
            replay: false,
            env: client_req(0, 13, read(12), None),
        }) {
            Response::Error { msg } => assert_eq!(msg, "C0: new txn 13 while 12 in flight"),
            other => panic!("unexpected response: {other:?}"),
        }
        assert_eq!(checkpoint_frame(&mut cache), busy);
        // 12 still completes, and is then what replays.
        let grant = deliver(&mut module, &to_mem[0]);
        let resp = deliver(&mut cache, &grant[0]);
        assert_eq!(deliver(&mut cache, &client_req(0, 12, read(8), None)), resp);
    }

    #[test]
    fn node_checkpoint_roundtrips_through_text() {
        let mut cache = Node::new(&cfg(Actor::Cache(0), "two-bit")).unwrap();
        let mut module = Node::new(&cfg(Actor::Module(0), "two-bit")).unwrap();
        let op = MemRef::read(WordAddr::new(4, 0));
        let to_mem = deliver(&mut cache, &client_req(0, 1, op, None));
        let grant = deliver(&mut module, &to_mem[0]);
        deliver(&mut cache, &grant[0]);

        for node in [&mut cache, &mut module] {
            let state = match node.handle(&Request::Checkpoint) {
                Response::CheckpointOk { state } => state,
                other => panic!("unexpected: {other:?}"),
            };
            let text = state.to_json();
            let parsed = twobit_obs::json::parse(&text).unwrap();
            assert!(matches!(
                node.handle(&Request::Restore { state: parsed }),
                Response::RestoreOk
            ));
            let again = match node.handle(&Request::Checkpoint) {
                Response::CheckpointOk { state } => state,
                other => panic!("unexpected: {other:?}"),
            };
            assert_eq!(again.to_json(), text, "checkpoint must be canonical");
        }
    }
}
