//! The fleet driver: spawns the nodes, owns the network, injects the
//! workload and the faults, and records the global history.
//!
//! # Determinism
//!
//! The driver is a star router running on *virtual time*. Every message
//! is a calendar entry ordered by `(time, seq)`, and the driver consumes
//! entries strictly in that order. Exchanges with the nodes are
//! *multiplexed*: a maximal run of same-instant deliveries is dispatched
//! as one batch over a [`PollTransport`] — phase one sends every node
//! request in `seq` order, phase two consumes the replies and routes
//! their outputs in the same `seq` order. Phase one only queues: the
//! requests leave, one write per node, when phase two first waits, and
//! the wait is a blocking read of the one connection whose reply comes
//! next in `seq` order. The batch is equivalent to the old
//! one-exchange-at-a-time loop because a node answers its requests in
//! request order (per-connection FIFO; it may read several before it
//! writes their replies together), every output is scheduled as a
//! *later* calendar entry with a strictly larger `seq`, and all
//! observable effects (timeline lines, rng draws, routing) happen in
//! phase two's deterministic order. OS scheduling decides only *when*
//! replies arrive, never the order anything is applied — so the whole
//! run, including every fault decision (drawn from a seeded [`Rng`]), is
//! a pure function of `(RunConfig, seed)`. Running the same configuration
//! twice — or under a different hosting [`Mode`] — yields byte-identical
//! merged timelines, which is the property the `same_seed_same_timeline`
//! and cross-hosting e2e tests pin.
//!
//! # Load model
//!
//! Clients are either *closed-loop* (a new request the instant the
//! previous one completes — the PR 8 behavior, and still the default) or
//! *open-loop*: an [`ArrivalSchedule`] drives request arrivals from the
//! seeded virtual-time calendar at a configurable rate, independent of
//! completions. Arrivals queue driver-side (a cache node admits one
//! client transaction at a time); client-perceived latency is measured
//! from *arrival* to completion, so queueing delay — the thing a closed
//! loop structurally cannot see — shows up in the per-class histograms.
//!
//! # Fault model
//!
//! See [`crate::faults`]: inter-node links are reliable FIFO (drops are
//! retransmission latency), partitions hold messages until heal, crashes
//! discard node state back to the last checkpoint (the driver rebuilds
//! the node and replays its logged deliveries), and only the client edge
//! truly loses messages — recovered by idempotent retry.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use twobit_core::Oracle;
use twobit_interconnect::poll::{PollTransport, Token};
use twobit_interconnect::transport::tcp_accept;
use twobit_obs::json::{num_u64, obj, Json, Reader, Sink, Text, ToJson};
use twobit_obs::Histogram;
use twobit_types::{AccessKind, AddressMap, BlockAddr, MemRef, TxnId, Version, WordAddr};

use crate::faults::{FaultConfig, Partition, Rng};
use crate::history::{check_history, LinearizationReport, OpRecord};
use crate::node::Node;
use crate::wire::{
    request_line, response_from_line, Actor, Envelope, Lines, NodeConfig, Payload, Request,
    Response,
};

/// The lines of the merged timeline the driver writes itself (node
/// events arrive written). Each states its form once, members in key
/// order like every frame, and the driver writes them through one held
/// [`Text`], which writes them as stated: the canonical text.
///
/// A delivery: `{dst, env, t}`.
pub struct DeliveryLine<'a> {
    /// When.
    pub t: u64,
    /// What was delivered.
    pub env: &'a Envelope,
}

impl ToJson for DeliveryLine<'_> {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.object(|o| {
            o.member("dst", &self.env.dst);
            o.member("env", self.env);
            o.member("t", &self.t);
        });
    }
}

/// A crashed node rebuilt: `{dst, restart, t}`.
pub struct RestartLine {
    /// When.
    pub t: u64,
    /// The node.
    pub node: Actor,
}

impl ToJson for RestartLine {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.object(|o| {
            o.member("dst", &self.node);
            o.member("restart", &true);
            o.member("t", &self.t);
        });
    }
}

/// The livelock guard's verdict, the last line of the tail it reports:
/// `{done, livelock, t}`.
pub struct LivelockLine<'a> {
    /// When.
    pub t: u64,
    /// Calendar events processed.
    pub events: u64,
    /// References completed per client.
    pub done: &'a [usize],
}

impl ToJson for LivelockLine<'_> {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.object(|o| {
            o.member("done", self.done);
            o.member("livelock", &self.events);
            o.member("t", &self.t);
        });
    }
}

/// How long the driver waits for a spawned node to dial back.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the driver waits for a node's reply to one request.
const RPC_TIMEOUT: Duration = Duration::from_secs(30);
/// How long the driver waits for a shutdown acknowledgement.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(5);

/// How node processes are hosted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mode {
    /// Nodes are in-process objects (fast; the default for tests).
    InProc,
    /// One child process per node, JSONL over TCP (the driver listens,
    /// nodes connect).
    Tcp {
        /// Path to the `dist_node` binary.
        node_bin: PathBuf,
    },
}

/// How client requests arrive at the fleet.
///
/// The schedule draws only from the seeded virtual-time calendar and the
/// per-client [`Rng`] streams, so every flavor preserves the
/// run-is-a-pure-function-of-`(config, seed)` property.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ArrivalSchedule {
    /// Closed loop: the next request arrives when the previous completes.
    #[default]
    Closed,
    /// Open loop: one arrival per client every `interval (+ jitter)`
    /// virtual-time units, regardless of completions.
    Fixed {
        /// Virtual time between arrivals.
        interval: u64,
        /// Extra uniform delay in `0..=jitter` per arrival.
        jitter: u64,
    },
    /// Open loop with bursts: arrivals every `interval`, and every
    /// `every`-th arrival brings `size` requests at once.
    Burst {
        /// Virtual time between arrival events.
        interval: u64,
        /// Burst cadence (every `every`-th arrival is a burst).
        every: u64,
        /// Requests per burst.
        size: u64,
    },
}

impl ArrivalSchedule {
    /// Parses `closed`, `fixed:INTERVAL[:JITTER]`, or
    /// `burst:INTERVAL:EVERY:SIZE`.
    ///
    /// # Errors
    ///
    /// A description of the malformed field.
    pub fn parse(s: &str) -> Result<Self, String> {
        let field = |part: Option<&str>, name: &str| -> Result<u64, String> {
            part.ok_or_else(|| format!("schedule `{s}`: missing {name}"))?
                .parse::<u64>()
                .map_err(|_| format!("schedule `{s}`: bad {name}"))
        };
        let mut parts = s.split(':');
        match parts.next() {
            Some("closed") => Ok(ArrivalSchedule::Closed),
            Some("fixed") => {
                let interval = field(parts.next(), "interval")?.max(1);
                let jitter = match parts.next() {
                    Some(j) => field(Some(j), "jitter")?,
                    None => 0,
                };
                Ok(ArrivalSchedule::Fixed { interval, jitter })
            }
            Some("burst") => Ok(ArrivalSchedule::Burst {
                interval: field(parts.next(), "interval")?.max(1),
                every: field(parts.next(), "every")?.max(1),
                size: field(parts.next(), "size")?.max(1),
            }),
            _ => Err(format!(
                "schedule `{s}`: expected closed | fixed:I[:J] | burst:I:E:S"
            )),
        }
    }

    /// The canonical spelling (round-trips through [`parse`](Self::parse)).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ArrivalSchedule::Closed => "closed".into(),
            ArrivalSchedule::Fixed { interval, jitter } => {
                if *jitter == 0 {
                    format!("fixed:{interval}")
                } else {
                    format!("fixed:{interval}:{jitter}")
                }
            }
            ArrivalSchedule::Burst {
                interval,
                every,
                size,
            } => format!("burst:{interval}:{every}:{size}"),
        }
    }
}

/// Complete description of one distributed run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Scheme name (one of the six directory schemes).
    pub scheme: String,
    /// Cache-controller node count.
    pub caches: usize,
    /// Memory-module node count.
    pub modules: usize,
    /// References each client issues.
    pub refs_per_client: usize,
    /// Master seed (workload and fault streams derive from it).
    pub seed: u64,
    /// Store probability (‰) per reference.
    pub write_permille: u64,
    /// Shared address range `0..blocks` for the dynamic schemes.
    pub blocks: u64,
    /// First public block for `static-sw` (private blocks per client are
    /// carved below it; see `gen_op`).
    pub shared_from: u64,
    /// Cache organization: sets / associativity / words per block.
    pub sets: u32,
    /// Associativity.
    pub assoc: u32,
    /// Words per block.
    pub block_words: u32,
    /// BIAS filter capacity.
    pub bias_entries: u32,
    /// Translation-buffer capacity (`two-bit+tlb`).
    pub tlb_entries: u32,
    /// Node hosting.
    pub mode: Mode,
    /// Client arrival model.
    pub schedule: ArrivalSchedule,
    /// The fault plan.
    pub faults: FaultConfig,
    /// Where to write per-node and merged JSONL timelines.
    pub trace_dir: Option<PathBuf>,
    /// Abort guard: maximum calendar events before declaring livelock.
    pub max_events: u64,
}

impl RunConfig {
    /// A small four-cache / two-module fleet, fault-free, closed-loop.
    #[must_use]
    pub fn quick(scheme: &str, seed: u64) -> Self {
        RunConfig {
            scheme: scheme.to_string(),
            caches: 4,
            modules: 2,
            refs_per_client: 100,
            seed,
            write_permille: 300,
            blocks: 12,
            shared_from: 16,
            sets: 8,
            assoc: 2,
            block_words: 4,
            bias_entries: 0,
            tlb_entries: 8,
            mode: Mode::InProc,
            schedule: ArrivalSchedule::Closed,
            faults: FaultConfig::none(),
            trace_dir: None,
            max_events: 5_000_000,
        }
    }

    /// What node `role` of this fleet is told at `init` (or built from,
    /// in process), at the start and at every restart.
    fn node_config(&self, role: Actor) -> NodeConfig {
        NodeConfig {
            role,
            scheme: self.scheme.clone(),
            caches: self.caches,
            modules: self.modules,
            sets: self.sets,
            assoc: self.assoc,
            block_words: self.block_words,
            shared_from: self.shared_from,
            bias_entries: self.bias_entries,
            tlb_entries: self.tlb_entries,
        }
    }
}

/// What a finished run reports.
#[derive(Debug)]
pub struct RunReport {
    /// Scheme that ran.
    pub scheme: String,
    /// Seed it ran under.
    pub seed: u64,
    /// Arrival schedule label.
    pub schedule: String,
    /// References completed (all clients).
    pub total_refs: usize,
    /// Client-edge retries (timeout resends).
    pub retries: u64,
    /// Inter-node retransmissions (drop-as-latency events).
    pub retransmits: u64,
    /// Client-edge messages actually lost.
    pub client_drops: u64,
    /// Envelopes delivered node-to-node or on the client edge.
    pub deliveries: u64,
    /// Node crash recoveries performed.
    pub recoveries: u64,
    /// Virtual time at quiescence.
    pub virtual_end: u64,
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// References completed per client.
    pub per_client_refs: Vec<usize>,
    /// Per partition: lag from the heal edge until the last
    /// partition-straddling op completed (see [`heal_lag`]).
    pub heal_lag: Vec<u64>,
    /// Client-perceived latency (arrival → completion, virtual time),
    /// one histogram per request class (`read`, `write`).
    pub latency: Vec<(String, Histogram)>,
    /// Linearizability checker effort/result.
    pub checker: LinearizationReport,
    /// The merged timeline (one JSONL line per delivery or node event).
    pub timeline: Lines,
    /// The raw history (for further analysis).
    pub ops: Vec<OpRecord>,
}

impl RunReport {
    /// Wall-clock milliseconds, rounded down.
    #[must_use]
    pub fn wall_ms(&self) -> u64 {
        self.wall_ns / 1_000_000
    }

    /// References completed per wall-clock second.
    #[must_use]
    pub fn refs_per_sec(&self) -> f64 {
        self.total_refs as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Renders the benchmark-facing summary (no timeline, no raw ops).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let latency = Json::Obj(
            self.latency
                .iter()
                .map(|(class, h)| {
                    (
                        class.clone(),
                        obj([
                            ("count", num_u64(h.count())),
                            ("mean", Json::Num(h.mean())),
                            ("p50", num_u64(h.percentile(0.50))),
                            ("p90", num_u64(h.percentile(0.90))),
                            ("p99", num_u64(h.percentile(0.99))),
                            ("max", num_u64(h.max())),
                        ]),
                    )
                })
                .collect(),
        );
        obj([
            ("schema", Json::Str("twobit-bench/v1".into())),
            ("kind", Json::Str("dist_soak".into())),
            ("scheme", Json::Str(self.scheme.clone())),
            ("seed", num_u64(self.seed)),
            ("schedule", Json::Str(self.schedule.clone())),
            ("total_refs", num_u64(self.total_refs as u64)),
            ("retries", num_u64(self.retries)),
            ("retransmits", num_u64(self.retransmits)),
            ("client_drops", num_u64(self.client_drops)),
            ("deliveries", num_u64(self.deliveries)),
            ("recoveries", num_u64(self.recoveries)),
            ("virtual_end", num_u64(self.virtual_end)),
            ("wall_ms", num_u64(self.wall_ms())),
            ("refs_per_sec", Json::Num(self.refs_per_sec())),
            (
                "per_client_refs",
                Json::Arr(
                    self.per_client_refs
                        .iter()
                        .map(|&n| num_u64(n as u64))
                        .collect(),
                ),
            ),
            (
                "heal_lag",
                Json::Arr(self.heal_lag.iter().map(|&t| num_u64(t)).collect()),
            ),
            ("latency", latency),
            (
                "checker",
                obj([
                    ("ops", num_u64(self.checker.ops as u64)),
                    ("blocks", num_u64(self.checker.blocks as u64)),
                    ("states", num_u64(self.checker.states_visited as u64)),
                ]),
            ),
        ])
    }
}

/// Per partition: how far past the heal edge the *partition-straddling*
/// traffic needed to drain.
///
/// An op counts toward a partition's lag iff it was in flight across the
/// heal (`invoked < heal < completed`) **and** its endpoints — the
/// client's cache and the block's home module — were on opposite sides
/// of the cut, so the partition itself is what delayed it. The lag is
/// measured from the heal edge (`completed - heal`). The previous metric
/// took the max `completed` over *every* op invoked before the heal, so
/// one op slowed by an unrelated fault stage (a retransmit storm on an
/// unseparated link, say) inflated the reported lag arbitrarily.
#[must_use]
pub fn heal_lag(ops: &[OpRecord], partitions: &[Partition], modules: usize) -> Vec<u64> {
    let map = AddressMap::interleaved(modules.max(1));
    partitions
        .iter()
        .map(|p| {
            ops.iter()
                .filter(|o| o.invoked < p.heal && o.completed > p.heal)
                .filter(|o| {
                    let home = map.module_of(BlockAddr::new(o.block)).index();
                    p.separates(Actor::Cache(o.client), Actor::Module(home))
                })
                .map(|o| o.completed - p.heal)
                .max()
                .unwrap_or(0)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Node links
// ---------------------------------------------------------------------------

enum NodeLink {
    InProc(Box<Node>),
    Child { child: ChildNode, token: Token },
}

impl NodeLink {
    /// Ends the node now, as a crash does: its connection is forgotten
    /// and, dropped here, its process is killed and reaped.
    fn kill(self, poll: &mut PollTransport) {
        if let NodeLink::Child { token, .. } = self {
            poll.deregister(token);
        }
    }
}

/// A child node's process. Dropping it kills and reaps the process, so
/// no way out of the driver — an error while spawning, initialising or
/// restoring a node included — leaves one running; for a child that
/// `reap` has already waited on, that is a no-op.
struct ChildNode(Child);

impl Drop for ChildNode {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Ends a child that was sent `shutdown`: waits `patience` for its
/// acknowledgement and then for its exit. Anything but `shutdown_ok` —
/// silence, a closed stream, a stale `deliver_ok` left by a batch that
/// failed — means the node cannot be trusted to exit by itself, so it is
/// killed first: `wait` must not be what hangs.
fn reap(poll: &mut PollTransport, child: &mut Child, token: Token, patience: Duration) {
    let reply = poll.recv_deadline(token, patience);
    let acknowledged = matches!(
        reply.ok().flatten().as_deref().map(response_from_line),
        Some(Ok(Response::ShutdownOk))
    );
    if !acknowledged {
        let _ = child.kill();
    }
    let _ = child.wait();
    poll.deregister(token);
}

/// One blocking request/response exchange (used off the hot path: init,
/// restore, replay, checkpoint — places where pipelining buys nothing).
fn rpc(
    link: &mut NodeLink,
    poll: &mut PollTransport,
    who: Actor,
    req: &Request,
) -> Result<Response, String> {
    match link {
        NodeLink::InProc(n) => Ok(n.handle(req)),
        NodeLink::Child { token, .. } => {
            poll.send(*token, &request_line(req))
                .map_err(|e| format!("{who}: send failed: {e}"))?;
            let line = poll
                .recv_deadline(*token, RPC_TIMEOUT)
                .map_err(|e| format!("{who}: recv failed: {e}"))?
                .ok_or_else(|| format!("{who}: node exited unexpectedly"))?;
            response_from_line(&line).map_err(|e| format!("{who}: bad response: {e}"))
        }
    }
}

fn spawn_link(
    mode: &Mode,
    node_cfg: &NodeConfig,
    poll: &mut PollTransport,
) -> Result<NodeLink, String> {
    let node_bin = match mode {
        // `Node::new` already applies the config; only children need the
        // Init exchange.
        Mode::InProc => return Ok(NodeLink::InProc(Box::new(Node::new(node_cfg)?))),
        Mode::Tcp { node_bin } => node_bin,
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let child = Command::new(node_bin)
        .arg("--tcp")
        .arg(addr.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .map(ChildNode)
        .map_err(|e| format!("spawn {}: {e}", node_bin.display()))?;
    // A node that dies before dialing back surfaces as a typed timeout
    // here instead of hanging the driver in accept(2).
    let stream =
        tcp_accept(&listener, ACCEPT_TIMEOUT).map_err(|e| format!("{}: {e}", node_cfg.role))?;
    let token = poll
        .register_tcp(stream)
        .map_err(|e| format!("register: {e}"))?;
    let mut link = NodeLink::Child { child, token };
    match rpc(
        &mut link,
        poll,
        node_cfg.role,
        &Request::Init(Box::new(node_cfg.clone())),
    )? {
        Response::InitOk => Ok(link),
        Response::Error { msg } => Err(format!("{}: init rejected: {msg}", node_cfg.role)),
        other => Err(format!(
            "{}: unexpected init reply: {other:?}",
            node_cfg.role
        )),
    }
}

// ---------------------------------------------------------------------------
// Calendar
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum EventKind {
    Deliver(Envelope),
    ClientArrival(usize),
    ClientTimeout { client: usize, txn: u64 },
    Restart(Actor),
    CheckpointTick,
}

#[derive(Debug)]
struct Event {
    t: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.t, self.seq) == (other.t, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.t, self.seq).cmp(&(other.t, other.seq))
    }
}

// ---------------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------------

/// An arrived request waiting for the client's single admission slot
/// (a cache node admits one client transaction at a time).
#[derive(Debug)]
struct PendingOp {
    op: MemRef,
    arrived: u64,
}

#[derive(Debug)]
struct Outstanding {
    txn: u64,
    op: MemRef,
    sv: Option<Version>,
    /// When the request arrived at the client (queueing starts here).
    arrived: u64,
    /// When it was submitted to the cache (the linearizability
    /// checker's invocation point).
    invoked: u64,
    retries: u64,
    backoff: u64,
}

#[derive(Debug)]
struct Client {
    rng: Rng,
    /// Requests generated so far (arrival side).
    issued: usize,
    /// Requests completed so far.
    done: usize,
    /// Arrival events seen (for burst cadence).
    arrivals: u64,
    pending: VecDeque<PendingOp>,
    outstanding: Option<Outstanding>,
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Driver<'c> {
    cfg: &'c RunConfig,
    rng: Rng,
    poll: PollTransport,
    links: BTreeMap<Actor, NodeLink>,
    calendar: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    link_clock: BTreeMap<(Actor, Actor), u64>,
    clients: Vec<Client>,
    oracle: Oracle,
    next_txn: u64,
    checkpoints: BTreeMap<Actor, Json>,
    /// Per node, the deliveries since its last checkpoint — kept only
    /// when the plan has a crash, the one thing that reads it.
    replay_log: BTreeMap<Actor, Vec<(u64, Envelope)>>,
    ops: Vec<OpRecord>,
    /// The merged timeline: the driver's own lines are copied in from
    /// `text`, and an in-process node writes its event lines here.
    timeline: Lines,
    /// The one writer of the driver's timeline lines and of the
    /// deliver frames it sends.
    text: Text,
    /// The one reader of the reply frames children send.
    reader: Reader,
    /// Per node, its share of the timeline — filled only when
    /// `trace_dir` asks for the per-node files.
    node_events: BTreeMap<Actor, Lines>,
    /// The same-instant deliveries being dispatched, and those of them
    /// phase two completes: buffers kept from one batch to the next.
    batch: Vec<Envelope>,
    slots: Vec<Envelope>,
    /// The envelopes one delivery yields, to route: an in-process node
    /// appends to it, and it is emptied before the next delivery.
    outputs: Vec<Envelope>,
    lat_read: Histogram,
    lat_write: Histogram,
    retries: u64,
    retransmits: u64,
    client_drops: u64,
    deliveries: u64,
    recoveries: u64,
    now: u64,
}

/// Runs one complete distributed experiment.
///
/// # Errors
///
/// Fails on node spawn/protocol errors, on livelock (`max_events`
/// exceeded), on an incomplete workload, and — the interesting case — on
/// a non-linearizable history.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let wall_start = std::time::Instant::now();
    let mut d = Driver::new(cfg)?;
    let result = d.drive();
    // Always try to shut the fleet down, even on error.
    d.shutdown_fleet();
    result?;

    let checker = check_history(&d.ops)?;
    let heal_lag = heal_lag(&d.ops, &cfg.faults.partitions, cfg.modules);

    if let Some(dir) = &cfg.trace_dir {
        write_traces(dir, &d.timeline, &d.node_events)?;
    }

    Ok(RunReport {
        scheme: cfg.scheme.clone(),
        seed: cfg.seed,
        schedule: cfg.schedule.label(),
        total_refs: d.clients.iter().map(|c| c.done).sum(),
        retries: d.retries,
        retransmits: d.retransmits,
        client_drops: d.client_drops,
        deliveries: d.deliveries,
        recoveries: d.recoveries,
        virtual_end: d.now,
        wall_ns: u64::try_from(wall_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        per_client_refs: d.clients.iter().map(|c| c.done).collect(),
        heal_lag,
        latency: vec![
            ("read".to_string(), d.lat_read),
            ("write".to_string(), d.lat_write),
        ],
        checker,
        timeline: d.timeline,
        ops: d.ops,
    })
}

fn write_traces(
    dir: &std::path::Path,
    timeline: &Lines,
    node_events: &BTreeMap<Actor, Lines>,
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let write = |name: &str, lines: &Lines| -> Result<(), String> {
        std::fs::File::create(dir.join(name))
            .and_then(|mut file| lines.write_to(&mut file))
            .map_err(|e| format!("write {name}: {e}"))
    };
    write("merged.jsonl", timeline)?;
    for (who, lines) in node_events {
        write(&format!("node-{who}.jsonl"), lines)?;
    }
    Ok(())
}

impl<'c> Driver<'c> {
    fn new(cfg: &'c RunConfig) -> Result<Self, String> {
        let mut poll = PollTransport::new();
        let mut links = BTreeMap::new();
        let mut node_events = BTreeMap::new();
        let roles = (0..cfg.caches)
            .map(Actor::Cache)
            .chain((0..cfg.modules).map(Actor::Module));
        for role in roles {
            links.insert(
                role,
                spawn_link(&cfg.mode, &cfg.node_config(role), &mut poll)?,
            );
            if cfg.trace_dir.is_some() {
                node_events.insert(role, Lines::new());
            }
        }
        // Stream 0 is the driver's fault stream; clients get 1..=caches.
        // Each is a full splitmix64 mix of (seed, index), so streams
        // share no structure even for adjacent indices.
        let clients = (0..cfg.caches)
            .map(|k| Client {
                rng: Rng::stream(cfg.seed, 1 + k as u64),
                issued: 0,
                done: 0,
                arrivals: 0,
                pending: VecDeque::new(),
                outstanding: None,
            })
            .collect();
        Ok(Driver {
            cfg,
            rng: Rng::stream(cfg.seed, 0),
            poll,
            links,
            calendar: BinaryHeap::new(),
            next_seq: 0,
            link_clock: BTreeMap::new(),
            clients,
            oracle: Oracle::new(),
            next_txn: 1,
            checkpoints: BTreeMap::new(),
            replay_log: BTreeMap::new(),
            ops: Vec::new(),
            timeline: Lines::new(),
            text: Text::new(),
            reader: Reader::default(),
            node_events,
            batch: Vec::new(),
            slots: Vec::new(),
            outputs: Vec::new(),
            lat_read: Histogram::new(),
            lat_write: Histogram::new(),
            retries: 0,
            retransmits: 0,
            client_drops: 0,
            deliveries: 0,
            recoveries: 0,
            now: 0,
        })
    }

    fn shutdown_fleet(&mut self) {
        // Phase 1: tell everyone. The requests are queued; phase 2's
        // first wait writes them all out, so the nodes shut down side by
        // side and the latency is the max, not the sum.
        for link in self.links.values_mut() {
            match link {
                NodeLink::InProc(n) => {
                    let _ = n.handle(&Request::Shutdown);
                }
                NodeLink::Child { token, .. } => {
                    let _ = self.poll.send(*token, &request_line(&Request::Shutdown));
                }
            }
        }
        // Phase 2: reap.
        for link in self.links.values_mut() {
            if let NodeLink::Child { child, token } = link {
                reap(&mut self.poll, &mut child.0, *token, SHUTDOWN_TIMEOUT);
            }
        }
    }

    fn push(&mut self, t: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.calendar.push(Reverse(Event { t, seq, kind }));
    }

    /// Writes one of the driver's own lines at the end of the timeline.
    fn record(&mut self, line: &impl ToJson) {
        self.timeline.push(self.text.write(line));
    }

    fn all_done(&self) -> bool {
        self.clients
            .iter()
            .all(|c| c.done >= self.cfg.refs_per_client)
    }

    fn drive(&mut self) -> Result<(), String> {
        // Crash restarts and checkpoint ticks get the lowest sequence
        // numbers so they sort before same-instant deliveries.
        let crashes = self.cfg.faults.crashes.clone();
        for c in &crashes {
            self.push(c.at + c.down_for, EventKind::Restart(c.node));
        }
        if self.cfg.faults.checkpoint_every > 0 {
            let t = self.cfg.faults.checkpoint_every;
            self.push(t, EventKind::CheckpointTick);
        }
        for k in 0..self.cfg.caches {
            self.push(0, EventKind::ClientArrival(k));
        }

        let mut processed: u64 = 0;
        while let Some(Reverse(ev)) = self.calendar.pop() {
            processed += 1;
            debug_assert!(ev.t >= self.now, "calendar went backwards");
            self.now = ev.t;
            match ev.kind {
                EventKind::Deliver(env) => {
                    // Gather the maximal run of same-instant deliveries
                    // (they are the top of the heap, in seq order) and
                    // dispatch them as one multiplexed batch. Any other
                    // event kind, or a later instant, ends the batch.
                    self.batch.push(env);
                    while let Some(Reverse(peek)) = self.calendar.peek() {
                        if peek.t != self.now || !matches!(peek.kind, EventKind::Deliver(_)) {
                            break;
                        }
                        let Some(Reverse(Event {
                            kind: EventKind::Deliver(e),
                            ..
                        })) = self.calendar.pop()
                        else {
                            unreachable!("the top was just peeked as a delivery at `now`");
                        };
                        processed += 1;
                        self.batch.push(e);
                    }
                    self.deliver_batch()?;
                }
                EventKind::ClientArrival(k) => self.on_arrival(k),
                EventKind::ClientTimeout { client, txn } => self.on_timeout(client, txn),
                EventKind::Restart(node) => self.on_restart(node)?,
                EventKind::CheckpointTick => self.on_checkpoint_tick()?,
            }
            if processed > self.cfg.max_events {
                let done: Vec<usize> = self.clients.iter().map(|c| c.done).collect();
                self.record(&LivelockLine {
                    t: self.now,
                    events: processed,
                    done: &done,
                });
                let tail: Vec<&str> = self.timeline.last(12).collect();
                return Err(format!(
                    "livelock: {processed} events without quiescence; timeline tail:\n{}",
                    tail.join("\n")
                ));
            }
        }
        if self.all_done() {
            Ok(())
        } else {
            Err(format!(
                "calendar drained early (done: {:?})",
                self.clients.iter().map(|c| c.done).collect::<Vec<_>>()
            ))
        }
    }

    // -- workload ----------------------------------------------------------

    fn gen_op(&mut self, k: usize) -> MemRef {
        let is_static = self.cfg.scheme == "static-sw";
        let c = &mut self.clients[k];
        let is_write = c.rng.chance(self.cfg.write_permille);
        let block = if is_static {
            // The static scheme's contract: blocks below `shared_from`
            // are private (one writer), blocks at or above are public
            // (never cached). Give each client a disjoint private strip.
            if c.rng.chance(400) {
                self.cfg.shared_from + c.rng.below(8)
            } else {
                (k as u64) * 4 + c.rng.below(4)
            }
        } else {
            c.rng.below(self.cfg.blocks.max(1))
        };
        let addr = WordAddr::new(block, 0);
        if is_write {
            MemRef::write(addr)
        } else {
            MemRef::read(addr)
        }
    }

    /// One arrival event for client `k`: generate the op(s), queue them,
    /// submit if the admission slot is free, and — for the open-loop
    /// schedules — book the next arrival.
    fn on_arrival(&mut self, k: usize) {
        let remaining = self
            .cfg
            .refs_per_client
            .saturating_sub(self.clients[k].issued);
        if remaining == 0 {
            return;
        }
        let burst = match self.cfg.schedule {
            ArrivalSchedule::Burst { every, size, .. }
                if (self.clients[k].arrivals + 1).is_multiple_of(every) =>
            {
                size as usize
            }
            _ => 1,
        };
        self.clients[k].arrivals += 1;
        for _ in 0..burst.min(remaining) {
            let op = self.gen_op(k);
            let c = &mut self.clients[k];
            c.issued += 1;
            c.pending.push_back(PendingOp {
                op,
                arrived: self.now,
            });
        }
        self.try_submit(k);
        if self.clients[k].issued < self.cfg.refs_per_client {
            match self.cfg.schedule {
                // Closed loop: the next arrival is chained from the
                // completion, not from the clock.
                ArrivalSchedule::Closed => {}
                ArrivalSchedule::Fixed { interval, jitter } => {
                    let j = self.clients[k].rng.below(jitter + 1);
                    self.push(self.now + interval + j, EventKind::ClientArrival(k));
                }
                ArrivalSchedule::Burst { interval, .. } => {
                    self.push(self.now + interval, EventKind::ClientArrival(k));
                }
            }
        }
    }

    /// Moves the head of `k`'s pending queue into its single admission
    /// slot (a cache node rejects a second in-flight client txn).
    fn try_submit(&mut self, k: usize) {
        if self.clients[k].outstanding.is_some() {
            return;
        }
        let Some(p) = self.clients[k].pending.pop_front() else {
            return;
        };
        let txn = self.next_txn;
        self.next_txn += 1;
        let sv = match p.op.kind {
            AccessKind::Write => Some(self.oracle.fresh_version()),
            AccessKind::Read => None,
        };
        let backoff = self.cfg.faults.client_timeout;
        self.clients[k].outstanding = Some(Outstanding {
            txn,
            op: p.op,
            sv,
            arrived: p.arrived,
            invoked: self.now,
            retries: 0,
            backoff,
        });
        self.send_client_req(k);
        self.push(
            self.now + backoff,
            EventKind::ClientTimeout { client: k, txn },
        );
    }

    fn send_client_req(&mut self, k: usize) {
        // Called only once `try_submit` set `outstanding` or `on_timeout`
        // found it set.
        let o = self.clients[k]
            .outstanding
            .as_ref()
            .expect("a txn in flight");
        let env = Envelope {
            src: Actor::Client(k),
            dst: Actor::Cache(k),
            payload: Payload::ClientReq {
                txn: TxnId::new(o.txn),
                op: o.op,
                sv: o.sv,
            },
        };
        if self.rng.chance(self.cfg.faults.client_drop_permille) {
            self.client_drops += 1;
            return;
        }
        let t = self.now + 1;
        self.push(t, EventKind::Deliver(env));
    }

    fn on_timeout(&mut self, k: usize, txn: u64) {
        let Some(o) = self.clients[k].outstanding.as_mut() else {
            return; // already answered
        };
        if o.txn != txn {
            return; // stale timer
        }
        o.retries += 1;
        // Exponential backoff, capped so a long partition cannot push
        // the next probe arbitrarily far past the heal.
        o.backoff = (o.backoff * 2).min(self.cfg.faults.client_timeout * 8);
        let backoff = o.backoff;
        self.retries += 1;
        self.send_client_req(k);
        self.push(
            self.now + backoff,
            EventKind::ClientTimeout { client: k, txn },
        );
    }

    fn on_client_resp(&mut self, k: usize, txn: TxnId, observed: Version, was_hit: bool) {
        // A response after completion, or to an earlier txn, is a duplicate.
        let Some(o) = self.clients[k].outstanding.take_if(|o| o.txn == txn.raw()) else {
            return;
        };
        self.ops.push(OpRecord {
            client: k,
            txn: o.txn,
            block: o.op.addr.block.number(),
            kind: o.op.kind,
            arrived: o.arrived,
            invoked: o.invoked,
            completed: self.now,
            version: observed.raw(),
            was_hit,
            retries: o.retries,
        });
        // Client-perceived latency includes driver-side queueing: the
        // clock starts at arrival, not submission.
        let latency = self.now - o.arrived;
        match o.op.kind {
            AccessKind::Read => self.lat_read.record(latency),
            AccessKind::Write => self.lat_write.record(latency),
        }
        self.clients[k].done += 1;
        if matches!(self.cfg.schedule, ArrivalSchedule::Closed)
            && self.clients[k].issued < self.cfg.refs_per_client
        {
            self.push(self.now + 1, EventKind::ClientArrival(k));
        }
        self.try_submit(k);
    }

    // -- network -----------------------------------------------------------

    /// When `node` is down at time `t`, the virtual instant it is back.
    fn down_until(&self, node: Actor, t: u64) -> Option<u64> {
        self.cfg
            .faults
            .crashes
            .iter()
            .filter(|c| c.node == node && t >= c.at && t < c.at + c.down_for)
            .map(|c| c.at + c.down_for)
            .max()
    }

    /// Computes the delivery time for an inter-node hop sent now.
    fn hop_delay(&mut self, src: Actor, dst: Actor) -> u64 {
        let f = &self.cfg.faults;
        let mut t = self.now + f.link_delay + self.rng.below(f.jitter + 1);
        let mut hops = 0;
        while hops < 20 && self.rng.chance(f.drop_permille) {
            t += f.retransmit_delay.max(1);
            self.retransmits += 1;
            hops += 1;
        }
        for p in &f.partitions {
            if self.now >= p.start && self.now < p.heal && p.separates(src, dst) {
                t = t.max(p.heal + f.link_delay);
            }
        }
        if let Some(up) = self.down_until(dst, t) {
            t = up;
        }
        // FIFO clamp: a link never reorders against itself.
        let clock = self.link_clock.entry((src, dst)).or_insert(0);
        t = t.max(*clock);
        *clock = t;
        t
    }

    fn route(&mut self, env: Envelope) {
        match env.dst {
            Actor::Client(_) => {
                if self.rng.chance(self.cfg.faults.client_drop_permille) {
                    self.client_drops += 1;
                    return;
                }
                let t = self.now + 1;
                self.push(t, EventKind::Deliver(env));
            }
            _ => {
                let t = self.hop_delay(env.src, env.dst);
                self.push(t, EventKind::Deliver(env));
            }
        }
    }

    /// Dispatches the same-instant batch of deliveries in `self.batch`.
    ///
    /// Phase one walks the batch in `seq` order, re-pushes the deliveries
    /// whose destination is down, and *starts* every child exchange
    /// (requests are queued on the poll transport, which writes them out,
    /// one write per node, when phase two first waits). Phase two walks
    /// the rest in the same order, steps each in-process node or consumes
    /// each child's reply, and applies all observable effects — timeline
    /// lines, history records, output routing, rng draws — so the result
    /// is identical to having performed the exchanges one at a time,
    /// while the children compute concurrently. (An in-process node is
    /// stepped in phase two: nothing phase two does before its turn
    /// reaches a node, so its outcome is the one phase one would get.)
    ///
    /// An envelope is popped off the calendar, lent to the frame writer
    /// or the node's step and to the timeline line, and then moved into
    /// the replay log when the plan has a crash to replay it for, or
    /// dropped.
    fn deliver_batch(&mut self) -> Result<(), String> {
        let mut batch = std::mem::take(&mut self.batch);
        let mut slots = std::mem::take(&mut self.slots);
        let result = self
            .start_batch(&mut batch, &mut slots)
            .and_then(|()| slots.drain(..).try_for_each(|env| self.finish(env)));
        batch.clear();
        slots.clear();
        self.batch = batch;
        self.slots = slots;
        result
    }

    /// Phase one: moves what phase two completes from `batch` to
    /// `slots`.
    fn start_batch(
        &mut self,
        batch: &mut Vec<Envelope>,
        slots: &mut Vec<Envelope>,
    ) -> Result<(), String> {
        for env in batch.drain(..) {
            // A message reaching a node inside its crash window waits
            // for the restart (the restart event carries an earlier
            // sequence number, so the rebuilt node is up before this
            // re-fires).
            if let Some(up) = self.down_until(env.dst, self.now) {
                self.push(up, EventKind::Deliver(env));
                continue;
            }
            let who = env.dst;
            let Some(NodeLink::Child { token, .. }) = self.links.get(&who) else {
                slots.push(env);
                continue;
            };
            let req = Request::Deliver {
                now: self.now,
                replay: false,
                env,
            };
            self.poll
                .send(*token, self.text.write(&req))
                .map_err(|e| format!("{who}: send failed: {e}"))?;
            let Request::Deliver { env, .. } = req else {
                unreachable!("`req` is the `Deliver` built above; `send` only borrowed it");
            };
            slots.push(env);
        }
        Ok(())
    }

    /// Phase two for one delivery.
    fn finish(&mut self, env: Envelope) -> Result<(), String> {
        self.deliveries += 1;
        self.record(&DeliveryLine {
            t: self.now,
            env: &env,
        });
        let who = env.dst;
        if let Actor::Client(k) = who {
            let Payload::ClientResp {
                txn,
                observed,
                was_hit,
            } = env.payload
            else {
                return Err(format!(
                    "client got non-response payload {}",
                    env.payload.kind()
                ));
            };
            self.on_client_resp(k, txn, observed, was_hit);
            return Ok(());
        }
        let mut outputs = std::mem::take(&mut self.outputs);
        let before = self.timeline.len();
        // Clients address their own cache, in-process nodes only the
        // fleet, and a child's outputs passed `check_outputs`.
        let link = self
            .links
            .get_mut(&who)
            .expect("every envelope names a node");
        match link {
            NodeLink::InProc(n) => n
                .deliver(self.now, &env, &mut outputs, &mut self.timeline)
                .map_err(|msg| format!("{who}: {msg}"))?,
            &mut NodeLink::Child { token, .. } => match self.recv_child(who, token)? {
                Response::DeliverOk {
                    outputs: sent,
                    events: lines,
                } => {
                    self.check_outputs(who, &sent)?;
                    // The timeline keeps lines; a child's may not be two.
                    if let Some(line) = lines.iter().find(|line| line.contains('\n')) {
                        return Err(format!("{who}: an event line holds a newline: {line:?}"));
                    }
                    outputs.extend(sent);
                    for line in &lines {
                        self.timeline.push(line);
                    }
                }
                Response::Error { msg } => return Err(format!("{who}: {msg}")),
                other => return Err(format!("{who}: unexpected reply {other:?}")),
            },
        }
        if !self.cfg.faults.crashes.is_empty() {
            self.replay_log
                .entry(who)
                .or_default()
                .push((self.now, env));
        }
        if let Some(own) = self.node_events.get_mut(&who) {
            for line in self.timeline.last(self.timeline.len() - before) {
                own.push(line);
            }
        }
        for out in outputs.drain(..) {
            self.route(out);
        }
        self.outputs = outputs;
        Ok(())
    }

    /// A child's reply may route only its own envelopes, and only to a
    /// node or a client the fleet has: anything else is refused here,
    /// before routing indexes by it.
    fn check_outputs(&self, who: Actor, outputs: &[Envelope]) -> Result<(), String> {
        let known = |a: Actor| match a {
            Actor::Client(k) => k < self.clients.len(),
            node => self.links.contains_key(&node),
        };
        match outputs.iter().find(|o| o.src != who || !known(o.dst)) {
            Some(o) => Err(format!(
                "{who}: reply routes an envelope from {} to {}, but a node sends only as itself, \
                 to one of {} caches, {} modules and their clients",
                o.src, o.dst, self.cfg.caches, self.cfg.modules
            )),
            None => Ok(()),
        }
    }

    /// Receives the next pipelined reply from child node `who`.
    fn recv_child(&mut self, who: Actor, token: Token) -> Result<Response, String> {
        let line = self
            .poll
            .recv_deadline(token, RPC_TIMEOUT)
            .map_err(|e| format!("{who}: recv failed: {e}"))?
            .ok_or_else(|| format!("{who}: node exited unexpectedly"))?;
        let reply = self.reader.read(&line);
        reply.map_err(|e| format!("{who}: bad response: {e}"))
    }

    // -- faults ------------------------------------------------------------

    fn on_restart(&mut self, node: Actor) -> Result<(), String> {
        self.recoveries += 1;
        self.record(&RestartLine { t: self.now, node });
        // The crashed instance is gone; build a fresh one…
        if let Some(old) = self.links.remove(&node) {
            old.kill(&mut self.poll);
        }
        let mut link = spawn_link(&self.cfg.mode, &self.cfg.node_config(node), &mut self.poll)?;
        // …restore the last checkpoint…
        if let Some(state) = self.checkpoints.remove(&node) {
            let req = Request::Restore { state };
            match rpc(&mut link, &mut self.poll, node, &req)? {
                Response::RestoreOk => {}
                other => return Err(format!("{node}: restore failed: {other:?}")),
            }
            let Request::Restore { state } = req else {
                unreachable!("`req` is the `Restore` built above; `rpc` only borrowed it");
            };
            // A second crash before the next checkpoint restores it again.
            self.checkpoints.insert(node, state);
        }
        // …and replay the deliveries logged since. The node recomputes
        // identical outputs; they were already routed before the crash,
        // so the driver discards them.
        let log = self.replay_log.remove(&node).unwrap_or_default();
        let mut replayed = Vec::with_capacity(log.len());
        for (t, env) in log {
            let req = Request::Deliver {
                now: t,
                replay: true,
                env,
            };
            match rpc(&mut link, &mut self.poll, node, &req)? {
                Response::DeliverOk { .. } => {}
                other => return Err(format!("{node}: replay failed: {other:?}")),
            }
            let Request::Deliver { env, .. } = req else {
                unreachable!("`req` is the `Deliver` built above; `rpc` only borrowed it");
            };
            replayed.push((t, env));
        }
        // A second crash before the next checkpoint replays them again.
        self.replay_log.insert(node, replayed);
        self.links.insert(node, link);
        Ok(())
    }

    fn on_checkpoint_tick(&mut self) -> Result<(), String> {
        let nodes: Vec<Actor> = self.links.keys().copied().collect();
        for node in nodes {
            if self.down_until(node, self.now).is_some() {
                continue; // don't checkpoint a node that is mid-crash
            }
            // `nodes` are the map's keys, and this loop removes none.
            let link = self.links.get_mut(&node).expect("known node");
            match rpc(link, &mut self.poll, node, &Request::Checkpoint)? {
                Response::CheckpointOk { state } => {
                    self.checkpoints.insert(node, state);
                    self.replay_log.remove(&node);
                }
                other => return Err(format!("{node}: checkpoint failed: {other:?}")),
            }
        }
        if !self.all_done() {
            let t = self.now + self.cfg.faults.checkpoint_every;
            self.push(t, EventKind::CheckpointTick);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stub node: `sleep SECS` as the child, and a peer thread as its
    /// connection that reads the `shutdown` request, writes `answer` if
    /// there is one and holds the connection until the driver closes it.
    /// Returns how the child ended once `reap` has had it, with a short
    /// patience.
    #[cfg(unix)]
    fn reaped(secs: &str, answer: Option<String>) -> std::process::ExitStatus {
        use twobit_interconnect::transport::{tcp_connect, Transport};

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut io = tcp_connect(addr).unwrap();
            io.recv().unwrap().expect("the shutdown request");
            if let Some(line) = answer {
                io.send(&line).unwrap();
            }
            while let Ok(Some(_)) = io.recv() {}
        });
        let mut child = Command::new("sleep")
            .arg(secs)
            .spawn()
            .expect("spawn sleep");
        let stream = tcp_accept(&listener, ACCEPT_TIMEOUT).unwrap();
        let mut poll = PollTransport::new();
        let token = poll.register_tcp(stream).unwrap();
        poll.send(token, &request_line(&Request::Shutdown)).unwrap();
        reap(&mut poll, &mut child, token, Duration::from_millis(200));
        peer.join().unwrap();
        // `reap` has waited: the status is there, and asking is not a hang.
        child.try_wait().unwrap().expect("reaped")
    }

    /// A node that never acknowledges `shutdown` — it ignores its input,
    /// or what it has to say is the stale reply of a batch that failed —
    /// is killed, not waited on without end; one that does acknowledge
    /// is left to exit by itself (its `sleep` ends well after the
    /// acknowledgement, so a kill would show).
    #[cfg(unix)]
    #[test]
    fn a_node_that_does_not_acknowledge_shutdown_is_killed() {
        use crate::wire::response_line;
        use std::os::unix::process::ExitStatusExt;

        let silent = reaped("600", None);
        assert_eq!(silent.signal(), Some(9), "{silent}");

        let stale = response_line(&Response::DeliverOk {
            outputs: Vec::new(),
            events: Vec::new(),
        });
        let stale = reaped("600", Some(stale));
        assert_eq!(stale.signal(), Some(9), "{stale}");

        let ack = response_line(&Response::ShutdownOk);
        let acknowledged = reaped("0.1", Some(ack));
        assert!(acknowledged.success(), "{acknowledged}");
    }

    fn rec(client: usize, block: u64, invoked: u64, completed: u64) -> OpRecord {
        OpRecord {
            client,
            txn: 1,
            block,
            kind: AccessKind::Read,
            arrived: invoked,
            invoked,
            completed,
            version: 0,
            was_hit: false,
            retries: 0,
        }
    }

    #[test]
    fn heal_lag_counts_only_partition_straddling_ops() {
        // Two modules, interleaved home map: block 0 → M0, block 1 → M1.
        // The cut isolates Cache(0).
        let p = Partition {
            start: 100,
            heal: 200,
            group: vec![Actor::Cache(0)],
        };
        // Straddles the heal on a separated route (C0 ↔ M0): counts,
        // lag measured from the heal edge = 260 − 200 = 60.
        let a = rec(0, 0, 150, 260);
        // The regression case: an op on an UNSEPARATED route (C1 ↔ M1,
        // both outside the group) that an unrelated fault stage dragged
        // out to t=500. The old metric took the max `completed` over
        // every op invoked before the heal, reporting 500 − 200 = 300.
        let b = rec(1, 1, 50, 500);
        // Separated client, but completed before the heal: not in
        // flight across the edge, no lag contribution.
        let c = rec(0, 1, 120, 180);
        let ops = vec![a, b, c];

        assert_eq!(heal_lag(&ops, std::slice::from_ref(&p), 2), vec![60]);

        // Reconstruct the old over-count to pin what this fix removes.
        let old = ops
            .iter()
            .filter(|o| o.invoked < p.heal)
            .map(|o| o.completed)
            .max()
            .unwrap()
            .saturating_sub(p.heal);
        assert_eq!(old, 300, "the unrelated op inflated the old metric 5x");
    }

    #[test]
    fn heal_lag_is_zero_without_straddling_traffic() {
        let p = Partition {
            start: 100,
            heal: 200,
            group: vec![Actor::Cache(0)],
        };
        // Only unseparated traffic in flight across the heal.
        let ops = vec![rec(1, 1, 50, 400)];
        assert_eq!(heal_lag(&ops, &[p], 2), vec![0]);
    }

    #[test]
    fn schedules_parse_and_round_trip() {
        for s in ["closed", "fixed:60", "fixed:25:5", "burst:40:8:6"] {
            let sched = ArrivalSchedule::parse(s).unwrap();
            assert_eq!(sched.label(), s);
            assert_eq!(ArrivalSchedule::parse(&sched.label()).unwrap(), sched);
        }
        assert_eq!(
            ArrivalSchedule::parse("fixed:10").unwrap(),
            ArrivalSchedule::Fixed {
                interval: 10,
                jitter: 0
            }
        );
        for bad in ["", "open", "fixed", "fixed:x", "burst:10", "burst:1:2:x"] {
            assert!(ArrivalSchedule::parse(bad).is_err(), "{bad} should fail");
        }
    }
}
