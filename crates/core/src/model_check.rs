//! A bounded model checker for the directory protocols.
//!
//! The paper closes with: "The protocols and associated hardware design
//! need to be refined (and proven correct)." This module is the
//! mechanized half of that refinement: it explores **message-delivery
//! interleavings** of a small system, checking on every complete
//! execution that
//!
//! 1. the system reaches quiescence with every reference retired — no
//!    deadlock in any interleaving (the section 3.2.5 races are liveness
//!    bugs, and both of the windows this implementation closes were found
//!    as deadlocks);
//! 2. no component ever sees an impossible command (protocol error);
//! 3. at quiescence, all structural invariants hold (SWMR, directory
//!    conservatism/exactness — [`crate::invariants::check_system`]).
//!
//! One search runs those checks:
//!
//! * [`ModelChecker::explore_dedup`] — a parallel, state-deduplicating
//!   breadth-first search over the interleaving **DAG**. Each state is
//!   reduced to a canonical 128-bit fingerprint (replacement clocks
//!   rank-reduced, maps sorted, statistics excluded) so states reached
//!   along many interleavings are expanded once; per-state path counts
//!   keep the interleaving totals exact. Any violation comes back as a
//!   [`Counterexample`]: the exact action path from the initial state,
//!   replayable step-by-step. Its stop-at-target form,
//!   [`ModelChecker::explore_until`], returns the shortest discovery
//!   path to the first state a predicate accepts — how the lint confirms
//!   a flow finding, and how `verify_protocols` picks the one complete
//!   interleaving it traces.
//!
//! Two more explorers serve as its reference and its reach:
//! [`ModelChecker::explore_exhaustive`], the untraced depth-first *tree*
//! search the DAG search is tested against, and
//! [`ModelChecker::explore_random`], seeded random walks that complete
//! scripts neither exhaustive search finishes.
//!
//! The checker also *measures* (rather than asserts) the transient
//! staleness the paper's ack-free design admits: the controller "proceeds
//! with get(k,a)" right after sending `BROADINV`, without waiting for
//! invalidation acknowledgments, so a cache whose invalidation is still
//! in flight can momentarily hit on a stale copy. Exploration counts such
//! reads ([`Exploration::stale_reads_observed`]) so the window's size can
//! be studied; it is a property of the protocol as published, not an
//! implementation bug. [`ModelChecker::fail_on_stale_reads`] flips that
//! measurement into an injected violation, turning any staleness window
//! into a concrete replayable counterexample.
//!
//! Nondeterminism model: all channels are per-(source, destination) FIFO
//! queues (matching both network models in `twobit-interconnect`); an
//! enabled action is either "some idle processor issues its next scripted
//! reference" or "deliver the head of some nonempty channel". Every
//! reachable ordering of those actions is a distinct interleaving.

use crate::agent::CacheAgent;
use crate::controller::{Controller, CtrlEmit, Observer};
use crate::exec::{build_policy_for, build_protocol_for};
use crate::invariants;
use crate::parallel::parallel_map;
use std::collections::BTreeMap;
use std::collections::HashMap;
use twobit_obs::{ActorId, NullTracer, RingTracer, SimEvent, Tracer};
use twobit_types::{
    AccessKind, BlockAddr, CacheId, CacheOrg, CacheToMemory, ConfigError, Fingerprint,
    Fingerprinter, MemRef, MemoryToCache, ModuleId, ProtocolError, ProtocolKind, SystemConfig,
    Version, WordAddr,
};

/// A named race: a system configuration and one reference list per cache.
pub type RaceScenario = (&'static str, SystemConfig, Vec<Vec<MemRef>>);

/// The canonical race scripts, one list for every consumer
/// (`verify_protocols`, the CI model-check gate, the `cargo test` smoke):
/// the section 3.2.5 write race, the replacement/recall race (a
/// two-set direct-mapped cache forces the conflict miss), the upgrade
/// with a third reader, and an upgrade gone stale while a third cache
/// re-shares the block, each under the five coherent schemes, script by
/// script; a clean replacement racing a write and a third reader (the
/// eject notice lands on a block that has since been written, or written
/// back and read again) under the schemes that survive it; then the
/// first three's counterparts for the static software scheme.
///
/// The last race is *not* run under the two-bit schemes because they
/// fail it: a clean-eject notice delayed past a write, a write-back and
/// another cache's read takes `Present1` to `Absent` under a live copy
/// (`eject-clean-present1` cannot tell whose notice it is). ROADMAP
/// item 9 has the counterexample; `tests/model_checking.rs` pins it.
///
/// The static scheme is special: hardware maintains no coherence for
/// private blocks (races on them are a *software* contract violation,
/// which the checker rightly reports), so its scripts race only on
/// public blocks — numbers at or above the default threshold
/// ([`DEFAULT_STATIC_SHARED_FROM`](crate::DEFAULT_STATIC_SHARED_FROM)) —
/// which the agents handle with `DIRECTREAD`/`WRITETHRU`, the regime its
/// table describes.
#[must_use]
pub fn race_scenarios() -> Vec<RaceScenario> {
    const PUBLIC: u64 = crate::exec::DEFAULT_STATIC_SHARED_FROM;
    let rd = |b: u64| MemRef::read(WordAddr::new(b, 0));
    let wr = |b: u64| MemRef::write(WordAddr::new(b, 0));
    let conflict = Some(CacheOrg::new(2, 1, 4).expect("valid 2-set direct-mapped cache"));
    let coherent = [
        ProtocolKind::TwoBit,
        ProtocolKind::TwoBitTlb { entries: 2 },
        ProtocolKind::FullMap,
        ProtocolKind::FullMapLocal,
        ProtocolKind::ClassicalWriteThrough,
    ];
    let static_sw = [ProtocolKind::StaticSoftware];
    let mut scenarios = Vec::new();
    let mut add =
        |label, protocols: &[ProtocolKind], org: Option<CacheOrg>, script: Vec<Vec<_>>| {
            for &protocol in protocols {
                let mut config = SystemConfig::with_defaults(script.len()).with_protocol(protocol);
                if let Some(org) = org {
                    config.cache = org;
                }
                scenarios.push((label, config, script.clone()));
            }
        };
    add(
        "3.2.5 write race (rd,wr / rd,wr)",
        &coherent,
        None,
        vec![vec![rd(1), wr(1)], vec![rd(1), wr(1)]],
    );
    add(
        "replacement/recall race (wr,conflict-rd / rd)",
        &coherent,
        conflict,
        vec![vec![wr(1), rd(9)], vec![rd(1)]],
    );
    add(
        "upgrade + third reader (rd,wr / wr / rd)",
        &coherent,
        None,
        vec![vec![rd(1), wr(1)], vec![wr(1)], vec![rd(1)]],
    );
    add(
        "stale upgrade on a re-shared block (rd,wr / wr / rd,rd)",
        &coherent,
        None,
        vec![vec![rd(1), wr(1)], vec![wr(1)], vec![rd(1), rd(1)]],
    );
    add(
        "clean replacement / write race (rd,conflict-rd / wr,conflict-rd / rd)",
        &coherent[2..],
        conflict,
        delayed_clean_eject_script(),
    );
    add(
        "public-block write race (rd,wr / rd,wr)",
        &static_sw,
        None,
        vec![vec![rd(PUBLIC), wr(PUBLIC)], vec![rd(PUBLIC), wr(PUBLIC)]],
    );
    add(
        "private replacement + public race (wr,conflict-rd,wr / rd)",
        &static_sw,
        conflict,
        vec![vec![wr(1), rd(9), wr(PUBLIC)], vec![rd(PUBLIC)]],
    );
    add(
        "public upgrade + third reader (rd,wr / wr / rd)",
        &static_sw,
        None,
        vec![
            vec![rd(PUBLIC), wr(PUBLIC)],
            vec![wr(PUBLIC)],
            vec![rd(PUBLIC)],
        ],
    );
    scenarios
}

/// The clean replacement / write / third reader race of
/// [`race_scenarios`] (for a two-set direct-mapped cache): cache 0's
/// clean-eject notice for block 1 can be overtaken by cache 1's write
/// and write-back of it and by cache 2's read.
#[must_use]
pub fn delayed_clean_eject_script() -> Vec<Vec<MemRef>> {
    let rd = |b: u64| MemRef::read(WordAddr::new(b, 0));
    let wr = |b: u64| MemRef::write(WordAddr::new(b, 0));
    vec![vec![rd(1), rd(9)], vec![wr(1), rd(9)], vec![rd(1)]]
}

/// A channel endpoint (encoded for deterministic `BTreeMap` ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Node {
    /// Cache `C_k` (by index).
    Cache(u16),
    /// Memory-module controller `K_j` (by index).
    Module(u16),
}

/// An in-flight message.
#[derive(Debug, Clone)]
enum Msg {
    ToModule(CacheToMemory),
    ToCache(MemoryToCache),
}

/// One branchable system state. Opaque: obtained from
/// [`ModelChecker::initial_state`] and advanced with
/// [`ModelChecker::step`]; the accessors expose the retirement
/// bookkeeping counterexample replays want to assert on.
#[derive(Clone)]
pub struct State {
    agents: Vec<CacheAgent>,
    controllers: Vec<Controller>,
    channels: BTreeMap<(Node, Node), Vec<Msg>>,
    cursor: Vec<usize>,
    version_counter: u64,
    /// Highest retired write version per block (for staleness counting).
    latest_write: HashMap<BlockAddr, Version>,
    stale_reads: u64,
    retired: usize,
}

impl State {
    /// References retired so far along this path.
    #[must_use]
    pub fn retired(&self) -> usize {
        self.retired
    }

    /// Reads so far that observed a version older than the newest retired
    /// write (the ack-free staleness window).
    #[must_use]
    pub fn stale_reads(&self) -> u64 {
        self.stale_reads
    }
}

/// An action enabled in a state: either a processor issues its next
/// scripted reference, or one channel delivers its head message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Cache `i`'s processor issues its next scripted reference.
    Issue(usize),
    /// The (source, destination) channel delivers its head message.
    Deliver(Node, Node),
}

/// Results of an exploration: the one record of a search.
///
/// The tree and random explorers leave the dedup-only fields
/// (`distinct_states`, `dedup_hits`, `peak_frontier`, `max_depth`,
/// `depth_conflicts`, `fired`, `hit`) at zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Exploration {
    /// Complete executions (quiescent leaves) verified. The dedup search
    /// counts these exactly — the number of root-to-leaf action paths in
    /// the explored DAG, computed by a paths-to-leaf recurrence over the
    /// recorded edges (saturating at `u64::MAX` for scripts whose
    /// interleaving count overflows).
    pub interleavings: u64,
    /// States actually expanded (enabled-action fan-out or leaf check) —
    /// never more than the node budget.
    pub states_visited: u64,
    /// Whether the node budget cut the exhaustive search short.
    pub truncated: bool,
    /// Reads that transiently observed a version older than the newest
    /// retired write — the ack-free invalidation window, measured.
    pub stale_reads_observed: u64,
    /// States discovered but never expanded when the budget truncated
    /// the search (0 when `truncated` is false).
    pub abandoned_frontier: u64,
    /// Dedup search: distinct states discovered (root included).
    pub distinct_states: u64,
    /// Dedup search: successor arrivals pruned because the state was
    /// already known ([`Exploration::dedup_hit_rate`] is the fraction of
    /// the interleaving tree the DAG view collapsed).
    pub dedup_hits: u64,
    /// Dedup search: largest breadth-first frontier.
    pub peak_frontier: u64,
    /// Dedup search: deepest layer expanded (= longest action path).
    pub max_depth: u64,
    /// Dedup search: rediscoveries of a state at a *different* depth than
    /// its first discovery — i.e. states reachable along action paths of
    /// unequal length (a BROADQUERY round-trip happening on one path but
    /// not another, say). Diagnostic only: the path counting runs over
    /// the full recorded DAG, so `interleavings` and
    /// `stale_reads_observed` stay exact regardless.
    pub depth_conflicts: u64,
    /// Dedup search: the table rules fired on any explored step.
    pub fired: crate::Fired,
    /// [`ModelChecker::explore_until`]: the discovery path of the first
    /// state the target accepted (empty for the initial state), or
    /// `None` if the search ended without one.
    pub hit: Option<Vec<Action>>,
}

impl Exploration {
    /// Fraction of successor arrivals the visited set pruned:
    /// `dedup_hits / (dedup_hits + distinct_states - 1)`, since every
    /// distinct state but the root arrived once as new. 0 when nothing
    /// arrived.
    #[must_use]
    pub fn dedup_hit_rate(&self) -> f64 {
        let arrivals = self.dedup_hits + self.distinct_states.saturating_sub(1);
        if arrivals == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / arrivals as f64
        }
    }
}

/// The coarse class of one in-flight message, exposed to search targets
/// ([`ModelChecker::probe_channels`]). Collapses the broadcast/unicast
/// shapes the flow analyses already abstract over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightMsg {
    /// `GETDATA` toward a cache; `exclusive` carries write permission.
    Grant {
        /// Whether the fill grants write permission.
        exclusive: bool,
    },
    /// `MGRANTED` toward a cache (granted or denied).
    UpgradeAck,
    /// `INV`/`BROADINV` toward a cache.
    Inv,
    /// `PURGE`/`BROADQUERY` toward a cache.
    Recall,
    /// Any cache→memory command.
    Command,
}

/// A protocol violation with the exact action path that reaches it from
/// the initial state. Produced by [`ModelChecker::explore_dedup`];
/// replay it with [`ModelChecker::replay`] or render it with
/// [`ModelChecker::render_counterexample`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The violated property.
    pub error: ProtocolError,
    /// Actions from the initial state to the violation. For a step
    /// violation the final action is the one that fails; for a quiescent
    /// leaf violation the path ends at the offending leaf state.
    pub path: Vec<Action>,
}

/// What one parallel worker returns for its chunk of a frontier layer.
#[derive(Default)]
struct ChunkOut {
    /// One entry per (state, enabled action) edge expanded:
    /// (successor fp, parent fp, action, successor state).
    successors: Vec<(Fingerprint, Fingerprint, Action, State)>,
    expanded: u64,
    /// Quiescent leaves checked OK: (leaf fp, its `stale_reads`).
    leaves: Vec<(Fingerprint, u64)>,
    /// First violation in chunk order: (state fp, failing action if a
    /// step failed — `None` for a quiescent-leaf violation, error).
    violation: Option<(Fingerprint, Option<Action>, ProtocolError)>,
    /// Table rules fired by the steps expanded here.
    fired: crate::Fired,
}

/// The model checker: a system configuration plus a finite per-cache
/// reference script.
#[derive(Debug)]
pub struct ModelChecker {
    config: SystemConfig,
    script: Vec<Vec<MemRef>>,
    fail_on_stale: bool,
}

impl ModelChecker {
    /// Creates a checker for `config` with one reference list per cache.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid configurations, bus protocols
    /// (their bus serializes delivery, leaving nothing to interleave), or
    /// a script whose length does not match the cache count.
    pub fn new(config: SystemConfig, script: Vec<Vec<MemRef>>) -> Result<Self, ConfigError> {
        config.validate()?;
        if config.protocol.is_bus_based() {
            return Err(ConfigError::new(
                "bus transactions are atomic; there are no interleavings to check",
            ));
        }
        if script.len() != config.caches {
            return Err(ConfigError::new(format!(
                "script has {} streams for {} caches",
                script.len(),
                config.caches
            )));
        }
        Ok(ModelChecker {
            config,
            script,
            fail_on_stale: false,
        })
    }

    /// Arms fault injection: a read retiring with a version older than
    /// the newest retired write — normally *measured* as the ack-free
    /// staleness window — becomes a [`ProtocolError::StaleRead`] at the
    /// action that retires it. With the dedup search this turns the
    /// paper's section 3.2.5 window into an exact, replayable
    /// counterexample path.
    pub fn fail_on_stale_reads(&mut self, fail: bool) {
        self.fail_on_stale = fail;
    }

    /// The pre-exploration system state: empty caches, absent directory
    /// entries, no messages in flight.
    #[must_use]
    pub fn initial_state(&self) -> State {
        let agents = CacheId::all(self.config.caches)
            .map(|id| {
                let mut agent = CacheAgent::new(
                    id,
                    self.config.cache,
                    build_policy_for(
                        self.config.protocol,
                        crate::exec::DEFAULT_STATIC_SHARED_FROM,
                    ),
                    self.config.duplicate_directory,
                );
                agent.set_bias_entries(self.config.bias_entries);
                agent
            })
            .collect();
        let controllers = ModuleId::all(self.config.address_map.modules())
            .map(|m| {
                Controller::new(
                    m,
                    self.config.address_map,
                    build_protocol_for(&self.config),
                    self.config.caches,
                    self.config.concurrency,
                )
            })
            .collect();
        State {
            agents,
            controllers,
            channels: BTreeMap::new(),
            cursor: vec![0; self.config.caches],
            version_counter: 0,
            latest_write: HashMap::new(),
            stale_reads: 0,
            retired: 0,
        }
    }

    fn total_refs(&self) -> usize {
        self.script.iter().map(Vec::len).sum()
    }

    /// The actions enabled in `state`, in deterministic order (issues by
    /// cache index, then deliveries by channel key).
    #[must_use]
    pub fn enabled(&self, state: &State) -> Vec<Action> {
        let mut actions = Vec::new();
        for (i, agent) in state.agents.iter().enumerate() {
            if !agent.is_stalled() && state.cursor[i] < self.script[i].len() {
                actions.push(Action::Issue(i));
            }
        }
        for (&(src, dst), queue) in &state.channels {
            if !queue.is_empty() {
                actions.push(Action::Deliver(src, dst));
            }
        }
        actions
    }

    /// Canonical 128-bit fingerprint of `state` for the visited-set.
    ///
    /// Everything future-relevant is folded in — agents (tag stores with
    /// replacement clocks rank-reduced, BIAS, pending), controllers
    /// (directory, memory, bookkeeping, queue), channel contents, script
    /// cursors, version counter, retirement bookkeeping — in a canonical
    /// order (the channel `BTreeMap` is already sorted; unordered maps
    /// are sorted by the component encoders). Pure statistics are
    /// excluded. `stale_reads` *is* included: two paths that differ only
    /// in observed staleness must stay distinct for the per-leaf stale
    /// totals to reconcile exactly with the tree search.
    #[must_use]
    pub fn fingerprint(&self, state: &State) -> Fingerprint {
        let mut fp = Fingerprinter::new();
        for agent in &state.agents {
            agent.fingerprint(&mut fp);
        }
        for controller in &state.controllers {
            controller.fingerprint(&mut fp);
        }
        fp.write_usize(state.channels.len());
        for (&(src, dst), queue) in &state.channels {
            fp.write_tag(Self::node_tag(src));
            fp.write_tag(Self::node_tag(dst));
            fp.write_usize(queue.len());
            for msg in queue {
                match msg {
                    Msg::ToModule(cmd) => {
                        fp.write_tag(0);
                        crate::fp::cache_to_memory(cmd, &mut fp);
                    }
                    Msg::ToCache(cmd) => {
                        fp.write_tag(1);
                        crate::fp::memory_to_cache(cmd, &mut fp);
                    }
                }
            }
        }
        for &c in &state.cursor {
            fp.write_usize(c);
        }
        fp.write_u64(state.version_counter);
        let mut latest: Vec<(u64, u64)> = state
            .latest_write
            .iter()
            .map(|(a, v)| (a.number(), v.raw()))
            .collect();
        latest.sort_unstable();
        fp.write_usize(latest.len());
        for (a, v) in latest {
            fp.write_u64(a);
            fp.write_u64(v);
        }
        fp.write_u64(state.stale_reads);
        fp.write_usize(state.retired);
        fp.finish()
    }

    fn node_tag(n: Node) -> u64 {
        match n {
            Node::Cache(c) => u64::from(c) << 1,
            Node::Module(m) => (u64::from(m) << 1) | 1,
        }
    }

    fn push_msg(state: &mut State, src: Node, dst: Node, msg: Msg) {
        state.channels.entry((src, dst)).or_default().push(msg);
    }

    fn send_to_memory(&self, state: &mut State, from: CacheId, sends: Vec<CacheToMemory>) {
        for cmd in sends {
            let module = self.config.address_map.module_of(cmd.block());
            Self::push_msg(
                state,
                Node::Cache(from.index() as u16),
                Node::Module(module.index() as u16),
                Msg::ToModule(cmd),
            );
        }
    }

    fn send_emits(&self, state: &mut State, module: ModuleId, emits: Vec<CtrlEmit>) {
        let src = Node::Module(module.index() as u16);
        for emit in emits {
            match emit {
                CtrlEmit::Unicast { to, cmd, .. } => {
                    Self::push_msg(
                        state,
                        src,
                        Node::Cache(to.index() as u16),
                        Msg::ToCache(cmd),
                    );
                }
                CtrlEmit::Broadcast { cmd, exclude, .. } => {
                    for cache in CacheId::all(self.config.caches) {
                        if cache != exclude {
                            Self::push_msg(
                                state,
                                src,
                                Node::Cache(cache.index() as u16),
                                Msg::ToCache(cmd),
                            );
                        }
                    }
                }
            }
        }
    }

    /// Books a retirement; returns the staleness evidence `(block,
    /// observed, expected)` when a read landed inside the ack-free
    /// window.
    fn record_retirement(state: &mut State, op: MemRef, observed: Version) -> Option<(u64, u64)> {
        state.retired += 1;
        match op.kind {
            AccessKind::Write => {
                let slot = state.latest_write.entry(op.addr.block).or_default();
                if observed > *slot {
                    *slot = observed;
                }
                None
            }
            AccessKind::Read => {
                let latest = state
                    .latest_write
                    .get(&op.addr.block)
                    .copied()
                    .unwrap_or_default();
                if observed < latest {
                    state.stale_reads += 1;
                    Some((observed.raw(), latest.raw()))
                } else {
                    None
                }
            }
        }
    }

    fn stale_error(reader: usize, a: BlockAddr, observed: u64, expected: u64) -> ProtocolError {
        ProtocolError::StaleRead {
            a,
            reader: CacheId::new(reader),
            observed,
            expected,
        }
    }

    /// Applies one action; returns the successor state.
    ///
    /// Public so counterexamples can be replayed step-by-step from
    /// [`ModelChecker::initial_state`]; `action` must be enabled in
    /// `state` (an element of [`ModelChecker::enabled`]).
    ///
    /// # Errors
    ///
    /// Returns the [`ProtocolError`] the action provokes: an impossible
    /// command at its recipient, or — with
    /// [`ModelChecker::fail_on_stale_reads`] armed — a stale read
    /// retiring.
    ///
    /// # Panics
    ///
    /// Panics if `action` is not enabled in `state`.
    pub fn step(&self, mut state: State, action: Action) -> Result<State, ProtocolError> {
        match action {
            Action::Issue(i) => {
                let op = self.script[i][state.cursor[i]];
                state.cursor[i] += 1;
                let version = match op.kind {
                    AccessKind::Write => {
                        state.version_counter += 1;
                        Version::new(state.version_counter)
                    }
                    AccessKind::Read => Version::initial(),
                };
                let mut sends = Vec::new();
                let outcome = state.agents[i].start(op, version, &mut sends);
                if let Some(c) = outcome.completed {
                    if let Some((observed, expected)) =
                        Self::record_retirement(&mut state, c.op, c.observed)
                    {
                        if self.fail_on_stale {
                            return Err(Self::stale_error(i, c.op.addr.block, observed, expected));
                        }
                    }
                }
                self.send_to_memory(&mut state, CacheId::new(i), sends);
            }
            Action::Deliver(src, dst) => {
                let msg = {
                    let queue = state
                        .channels
                        .get_mut(&(src, dst))
                        .expect("enabled channel exists");
                    let msg = queue.remove(0);
                    if queue.is_empty() {
                        state.channels.remove(&(src, dst));
                    }
                    msg
                };
                match (dst, msg) {
                    (Node::Module(m), Msg::ToModule(cmd)) => {
                        let mut emits = Vec::new();
                        state.controllers[m as usize].submit(cmd, Observer::none(), &mut emits)?;
                        self.send_emits(&mut state, ModuleId::new(m as usize), emits);
                    }
                    (Node::Cache(c), Msg::ToCache(cmd)) => {
                        let mut sends = Vec::new();
                        let out = state.agents[c as usize].on_network(cmd, &mut sends)?;
                        if let Some(completion) = out.completed {
                            if let Some((observed, expected)) = Self::record_retirement(
                                &mut state,
                                completion.op,
                                completion.observed,
                            ) {
                                if self.fail_on_stale {
                                    return Err(Self::stale_error(
                                        c as usize,
                                        completion.op.addr.block,
                                        observed,
                                        expected,
                                    ));
                                }
                            }
                        }
                        self.send_to_memory(&mut state, CacheId::new(c as usize), sends);
                    }
                    (node, msg) => unreachable!("misrouted {msg:?} at {node:?}"),
                }
            }
        }
        Ok(state)
    }

    /// Verifies a quiescent leaf.
    fn check_leaf(&self, state: &State) -> Result<(), ProtocolError> {
        if state.retired != self.total_refs() {
            return Err(ProtocolError::UnexpectedCommand {
                state: format!(
                    "quiescent with {}/{} retired",
                    state.retired,
                    self.total_refs()
                ),
                command: "deadlock: no enabled actions remain".to_string(),
            });
        }
        for controller in &state.controllers {
            if controller.busy() {
                return Err(ProtocolError::UnexpectedCommand {
                    state: format!("{} busy at quiescence", controller.module()),
                    command: "liveness violation".to_string(),
                });
            }
        }
        invariants::check_system(&state.agents, &state.controllers, self.config.address_map)
    }

    /// Every nonempty channel with the coarse classes of its queued
    /// messages in delivery order, in deterministic channel-key order —
    /// a probe for [`explore_until`](ModelChecker::explore_until) targets
    /// (e.g. "some module→cache
    /// link holds a grant with a recall queued behind it").
    #[must_use]
    pub fn probe_channels(&self, state: &State) -> Vec<((Node, Node), Vec<FlightMsg>)> {
        state
            .channels
            .iter()
            .map(|(&key, queue)| {
                let kinds = queue
                    .iter()
                    .map(|msg| match msg {
                        Msg::ToModule(_) => FlightMsg::Command,
                        Msg::ToCache(cmd) => match cmd {
                            MemoryToCache::GetData { exclusive, .. } => FlightMsg::Grant {
                                exclusive: *exclusive,
                            },
                            MemoryToCache::MGranted { .. } => FlightMsg::UpgradeAck,
                            MemoryToCache::Inv { .. } | MemoryToCache::BroadInv { .. } => {
                                FlightMsg::Inv
                            }
                            MemoryToCache::Purge { .. } | MemoryToCache::BroadQuery { .. } => {
                                FlightMsg::Recall
                            }
                        },
                    })
                    .collect();
                (key, kinds)
            })
            .collect()
    }

    /// Parallel, state-deduplicating exhaustive search over the
    /// interleaving **DAG**, expanding at most `node_budget` distinct
    /// states across up to `jobs` worker threads.
    ///
    /// States are deduplicated by canonical fingerprint
    /// ([`ModelChecker::fingerprint`]), so a state reachable along
    /// millions of interleavings is expanded once. The search records the
    /// DAG's edges; a paths-to-leaf recurrence over them afterwards keeps
    /// [`Exploration::interleavings`] and
    /// [`Exploration::stale_reads_observed`] exactly what the tree search
    /// would report. The search is level-synchronous and its aggregation
    /// is keyed by submission order, so results — including which
    /// violation is reported — are identical for every `jobs` value.
    ///
    /// # Errors
    ///
    /// The first violated property in deterministic search order, as a
    /// [`Counterexample`] carrying the exact action path from the
    /// initial state.
    pub fn explore_dedup(
        &self,
        node_budget: u64,
        jobs: usize,
    ) -> Result<Exploration, Box<Counterexample>> {
        self.explore_until(node_budget, jobs, &|_, _| false)
    }

    /// [`explore_dedup`](ModelChecker::explore_dedup), stopping at the
    /// first breadth-first layer that holds a state satisfying `target`
    /// (layer 0 is the initial state) and leaving the discovery path of
    /// the first such state in frontier order in [`Exploration::hit`].
    /// The path is a shortest one, and it and the whole record are the
    /// same for every `jobs` value: the layers before the hit's are
    /// expanded in full and the hit's is not expanded. A search that
    /// finds no such state reports `hit: None`, with `truncated` saying
    /// whether the budget or the state space ran out.
    ///
    /// The target receives the checker (for its probes) and a state; it
    /// runs on the calling thread, once for each distinct state.
    ///
    /// # Errors
    ///
    /// As [`explore_dedup`](ModelChecker::explore_dedup), for a
    /// violation met in a layer before the hit's.
    pub fn explore_until(
        &self,
        node_budget: u64,
        jobs: usize,
        target: &dyn Fn(&ModelChecker, &State) -> bool,
    ) -> Result<Exploration, Box<Counterexample>> {
        let jobs = jobs.max(1);
        let mut result = Exploration::default();
        let initial = self.initial_state();
        let root_fp = self.fingerprint(&initial);
        // Per-fingerprint bookkeeping; full states live only in the
        // current frontier. `parents` holds the first (deterministic)
        // discovery edge for path reconstruction; `edges` holds *every*
        // expanded (state, action) edge as a child list, with duplicates
        // preserved (two actions reaching the same successor are two
        // distinct interleaving steps), for exact path counting.
        let mut parents: HashMap<Fingerprint, (Fingerprint, Action)> = HashMap::new();
        let mut depths: HashMap<Fingerprint, u64> = HashMap::new();
        let mut edges: HashMap<Fingerprint, Vec<Fingerprint>> = HashMap::new();
        let mut leaf_stale: HashMap<Fingerprint, u64> = HashMap::new();
        depths.insert(root_fp, 0);
        result.distinct_states = 1;
        let mut frontier: Vec<(Fingerprint, State)> = vec![(root_fp, initial)];
        let mut depth: u64 = 0;
        loop {
            if let Some((fp, _)) = frontier.iter().find(|(_, s)| target(self, s)) {
                result.hit = Some(Self::path_to(&parents, root_fp, *fp));
                break;
            }
            if frontier.is_empty() || result.truncated {
                break;
            }
            result.peak_frontier = result.peak_frontier.max(frontier.len() as u64);
            let remaining = node_budget.saturating_sub(result.states_visited);
            let expand_n = (frontier.len() as u64).min(remaining) as usize;
            let overflow = frontier.split_off(expand_n);
            if expand_n > 0 {
                result.max_depth = result.max_depth.max(depth);
            }
            let chunk_size = frontier.len().div_ceil(jobs * 4).max(1);
            let mut chunks: Vec<Vec<(Fingerprint, State)>> = Vec::new();
            while !frontier.is_empty() {
                let rest = frontier.split_off(chunk_size.min(frontier.len()));
                chunks.push(std::mem::replace(&mut frontier, rest));
            }
            let outs = parallel_map(chunks, jobs, |chunk| self.expand_chunk(chunk));

            // Deterministic sequential merge, in chunk order.
            let mut next: Vec<(Fingerprint, State)> = Vec::new();
            let mut seen_next: std::collections::HashSet<Fingerprint> =
                std::collections::HashSet::new();
            for out in outs {
                result.states_visited += out.expanded;
                result.fired.merge(out.fired);
                for (fp, stale) in out.leaves {
                    leaf_stale.insert(fp, stale);
                }
                if let Some((at_fp, action, error)) = out.violation {
                    let mut path = Self::path_to(&parents, root_fp, at_fp);
                    path.extend(action);
                    return Err(Box::new(Counterexample { error, path }));
                }
                for (sfp, pfp, action, succ) in out.successors {
                    edges.entry(pfp).or_default().push(sfp);
                    if seen_next.contains(&sfp) {
                        result.dedup_hits += 1;
                    } else if let Some(&d) = depths.get(&sfp) {
                        result.dedup_hits += 1;
                        if d != depth + 1 {
                            result.depth_conflicts += 1;
                        }
                    } else {
                        depths.insert(sfp, depth + 1);
                        parents.insert(sfp, (pfp, action));
                        seen_next.insert(sfp);
                        next.push((sfp, succ));
                        result.distinct_states += 1;
                    }
                }
            }
            if !overflow.is_empty() {
                // The states discovered so far are still tested against
                // the target; none of them is expanded.
                result.truncated = true;
                result.abandoned_frontier = overflow.len() as u64 + next.len() as u64;
            }
            frontier = next;
            depth += 1;
        }
        let (interleavings, stale) = Self::count_paths(root_fp, &edges, &leaf_stale);
        result.interleavings = u64::try_from(interleavings).unwrap_or(u64::MAX);
        result.stale_reads_observed = u64::try_from(stale).unwrap_or(u64::MAX);
        Ok(result)
    }

    /// Expands one chunk of a frontier layer (runs on a worker thread).
    fn expand_chunk(&self, chunk: Vec<(Fingerprint, State)>) -> ChunkOut {
        let mut out = ChunkOut::default();
        for (fp, state) in chunk {
            if out.violation.is_some() {
                break;
            }
            out.expanded += 1;
            let actions = self.enabled(&state);
            if actions.is_empty() {
                match self.check_leaf(&state) {
                    Ok(()) => out.leaves.push((fp, state.stale_reads)),
                    Err(e) => out.violation = Some((fp, None, e)),
                }
                continue;
            }
            let last = actions.len() - 1;
            let mut state = Some(state);
            for (ai, action) in actions.into_iter().enumerate() {
                // The final branch consumes the state instead of cloning.
                let branch = if ai == last {
                    state
                        .take()
                        .expect("state consumed only by the last branch")
                } else {
                    state
                        .as_ref()
                        .expect("state present before last branch")
                        .clone()
                };
                match self.step(branch, action) {
                    Ok(succ) => {
                        // A state carries what fired on its path, so every
                        // successor's record covers the step just taken.
                        out.fired
                            .merge(crate::Fired::of(&succ.agents, &succ.controllers));
                        let sfp = self.fingerprint(&succ);
                        out.successors.push((sfp, fp, action, succ));
                    }
                    Err(e) => {
                        out.violation = Some((fp, Some(action), e));
                        break;
                    }
                }
            }
        }
        out
    }

    /// Exact interleaving accounting over the explored DAG: returns
    /// `(paths, stale)` where `paths` counts root-to-leaf action paths
    /// and `stale` sums, over every such path, the `stale_reads` of its
    /// leaf — precisely what enumerating the interleaving tree would
    /// tally. Computed by the recurrence `f(v) = Σ f(child)` (leaves:
    /// `f = 1`) in iterative post-order; states with no recorded edges
    /// that are not leaves (a truncated search's abandoned frontier)
    /// contribute 0. Saturating in `u128`.
    ///
    /// The state graph is acyclic — every action either advances a script
    /// cursor or consumes an in-flight message the finite execution must
    /// eventually drain (the tree search terminating on these scripts is
    /// the empirical witness) — so the post-order always completes.
    fn count_paths(
        root: Fingerprint,
        edges: &HashMap<Fingerprint, Vec<Fingerprint>>,
        leaf_stale: &HashMap<Fingerprint, u64>,
    ) -> (u128, u128) {
        let mut memo: HashMap<Fingerprint, (u128, u128)> = HashMap::new();
        let mut stack: Vec<(Fingerprint, bool)> = vec![(root, false)];
        while let Some((fp, ready)) = stack.pop() {
            if ready {
                let value = if let Some(&stale) = leaf_stale.get(&fp) {
                    (1u128, u128::from(stale))
                } else {
                    let mut f = 0u128;
                    let mut g = 0u128;
                    for child in edges.get(&fp).map(Vec::as_slice).unwrap_or_default() {
                        let &(cf, cg) = memo.get(child).unwrap_or(&(0, 0));
                        f = f.saturating_add(cf);
                        g = g.saturating_add(cg);
                    }
                    (f, g)
                };
                memo.insert(fp, value);
            } else if !memo.contains_key(&fp) {
                stack.push((fp, true));
                for &child in edges.get(&fp).map(Vec::as_slice).unwrap_or_default() {
                    if !memo.contains_key(&child) {
                        stack.push((child, false));
                    }
                }
            }
        }
        memo.get(&root).copied().unwrap_or((0, 0))
    }

    /// Walks the parent-pointer map from `target` back to `root`.
    fn path_to(
        parents: &HashMap<Fingerprint, (Fingerprint, Action)>,
        root: Fingerprint,
        target: Fingerprint,
    ) -> Vec<Action> {
        let mut path = Vec::new();
        let mut cur = target;
        while cur != root {
            let &(parent, action) = parents
                .get(&cur)
                .expect("parent chain reaches the initial state");
            path.push(action);
            cur = parent;
        }
        path.reverse();
        path
    }

    /// Replays an action path from the initial state through
    /// [`ModelChecker::step`], recording each action into `tracer`
    /// (events are stamped 1..=n with the action's position). If the
    /// path ends at quiescence, the leaf checks run too — so replaying a
    /// [`Counterexample::path`] reproduces its
    /// [`Counterexample::error`].
    ///
    /// # Errors
    ///
    /// The [`ProtocolError`] the path provokes, if any.
    ///
    /// # Panics
    ///
    /// Panics if an action in `path` is not enabled when reached.
    pub fn replay_traced(
        &self,
        path: &[Action],
        tracer: &mut dyn Tracer,
    ) -> Result<(), ProtocolError> {
        let mut state = self.initial_state();
        for (i, &action) in path.iter().enumerate() {
            if tracer.enabled() {
                self.trace_action(&state, action, (i + 1) as u64, tracer);
            }
            state = self.step(state, action)?;
        }
        if self.enabled(&state).is_empty() {
            self.check_leaf(&state)?;
        }
        Ok(())
    }

    /// [`replay_traced`](ModelChecker::replay_traced) without tracing.
    ///
    /// # Errors
    ///
    /// The [`ProtocolError`] the path provokes, if any.
    pub fn replay(&self, path: &[Action]) -> Result<(), ProtocolError> {
        self.replay_traced(path, &mut NullTracer)
    }

    /// Renders a counterexample as per-block `twobit-obs` timelines of
    /// its exact action path — one coherent story from the initial
    /// state, unlike a ring-buffer dump of a branching search, which
    /// interleaves events from unrelated branches.
    #[must_use]
    pub fn render_counterexample(&self, cex: &Counterexample) -> String {
        use std::fmt::Write as _;
        let mut ring = RingTracer::new(cex.path.len().max(1));
        let outcome = self.replay_traced(&cex.path, &mut ring);
        let events: Vec<SimEvent> = ring.events().into_iter().cloned().collect();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "counterexample: {} action(s) from the initial state",
            cex.path.len()
        );
        let mut blocks: Vec<BlockAddr> = Vec::new();
        for e in &events {
            if !blocks.contains(&e.block) {
                blocks.push(e.block);
            }
        }
        for block in blocks {
            out.push_str(&twobit_obs::render_block_timeline(&events, block));
        }
        match outcome {
            Err(e) => {
                let _ = writeln!(out, "violation: {e}");
            }
            Ok(()) => {
                let _ = writeln!(
                    out,
                    "warning: replay did not reproduce the recorded violation ({})",
                    cex.error
                );
            }
        }
        out
    }

    /// Exhaustive depth-first **tree** exploration of every interleaving
    /// (no state deduplication), expanding up to `node_budget` states.
    /// Kept as the untraced reference for
    /// [`explore_dedup`](ModelChecker::explore_dedup), which must agree
    /// with it on every completed script.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProtocolError`] found on any path: a deadlock,
    /// an impossible command, or a quiescent invariant violation.
    pub fn explore_exhaustive(&self, node_budget: u64) -> Result<Exploration, ProtocolError> {
        let mut result = Exploration::default();
        let mut stack = vec![self.initial_state()];
        while let Some(state) = stack.pop() {
            if result.states_visited >= node_budget {
                // The popped state and everything still stacked are
                // abandoned unexpanded; report them instead of silently
                // over-counting the breaching state as visited.
                result.truncated = true;
                result.abandoned_frontier = stack.len() as u64 + 1;
                break;
            }
            result.states_visited += 1;
            let actions = self.enabled(&state);
            if actions.is_empty() {
                self.check_leaf(&state)?;
                result.interleavings += 1;
                result.stale_reads_observed += state.stale_reads;
                continue;
            }
            for action in actions {
                stack.push(self.step(state.clone(), action)?);
            }
        }
        Ok(result)
    }

    /// Records `action` (about to be applied to `state`) as a trace event.
    fn trace_action(&self, state: &State, action: Action, t: u64, tracer: &mut dyn Tracer) {
        match action {
            Action::Issue(i) => {
                let op = self.script[i][state.cursor[i]];
                tracer.record(SimEvent::new(
                    t,
                    ActorId::Cache(CacheId::new(i)),
                    op.addr.block,
                    format!("issue {op}"),
                ));
            }
            Action::Deliver(src, dst) => {
                let msg = &state.channels[&(src, dst)][0];
                let (actor, block, text, class) = match (dst, msg) {
                    (Node::Module(m), Msg::ToModule(cmd)) => (
                        ActorId::Module(ModuleId::new(m as usize)),
                        cmd.block(),
                        cmd.to_string(),
                        cmd.class(),
                    ),
                    (Node::Cache(c), Msg::ToCache(cmd)) => (
                        ActorId::Cache(CacheId::new(c as usize)),
                        cmd.block(),
                        cmd.to_string(),
                        cmd.class(),
                    ),
                    (node, msg) => unreachable!("misrouted {msg:?} at {node:?}"),
                };
                tracer.record(SimEvent::new(t, actor, block, text).class(class));
            }
        }
    }

    /// Seeded random-walk exploration: `walks` complete executions, each
    /// choosing uniformly among enabled actions (splitmix64-mixed seed
    /// feeding an xorshift stream; fully deterministic per seed, and
    /// distinct — including adjacent — seeds produce distinct streams).
    /// Scales to scripts exhaustive search cannot cover.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProtocolError`] found on any walk.
    pub fn explore_random(&self, walks: u64, seed: u64) -> Result<Exploration, ProtocolError> {
        let mut result = Exploration::default();
        // splitmix64 the seed before the xorshift loop: xorshift state
        // must be nonzero, and the previous `seed | 1` fix-up collapsed
        // seeds 2k and 2k+1 onto the same walk sequence.
        let mut rng = {
            let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            if z == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                z
            }
        };
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for _ in 0..walks {
            let mut state = self.initial_state();
            loop {
                result.states_visited += 1;
                let actions = self.enabled(&state);
                if actions.is_empty() {
                    self.check_leaf(&state)?;
                    result.interleavings += 1;
                    result.stale_reads_observed += state.stale_reads;
                    break;
                }
                let pick = (next() % actions.len() as u64) as usize;
                state = self.step(state, actions[pick])?;
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::{ProtocolKind, WordAddr};

    fn rd(b: u64) -> MemRef {
        MemRef::read(WordAddr::new(b, 0))
    }

    fn wr(b: u64) -> MemRef {
        MemRef::write(WordAddr::new(b, 0))
    }

    fn checker(protocol: ProtocolKind, script: Vec<Vec<MemRef>>) -> ModelChecker {
        let config = SystemConfig::with_defaults(script.len()).with_protocol(protocol);
        ModelChecker::new(config, script).unwrap()
    }

    const PROTOCOLS: [ProtocolKind; 4] = [
        ProtocolKind::TwoBit,
        ProtocolKind::TwoBitTlb { entries: 2 },
        ProtocolKind::FullMap,
        ProtocolKind::FullMapLocal,
    ];

    /// The section 3.2.5 scenario, exhaustively: both caches read then
    /// both write the same block — every delivery order must stay live
    /// and consistent.
    #[test]
    fn write_race_is_deadlock_free_in_all_interleavings() {
        for protocol in PROTOCOLS {
            let mc = checker(protocol, vec![vec![rd(1), wr(1)], vec![rd(1), wr(1)]]);
            let result = mc.explore_exhaustive(2_000_000).unwrap();
            assert!(!result.truncated, "{protocol}: exploration must complete");
            assert!(
                result.interleavings > 10,
                "{protocol}: expected many interleavings, got {}",
                result.interleavings
            );
        }
    }

    /// The replacement/recall race: one cache dirties a block and evicts
    /// it (by touching a conflicting block) while the other cache misses
    /// on it. Every ordering of the write-back vs. the BROADQUERY must
    /// resolve.
    #[test]
    fn replacement_recall_race_is_live() {
        // Direct conflict: a 2-set cache makes blocks 1 and 9 collide
        // (1 % 2 == 9 % 2) only if direct-mapped; use sets=2, assoc=1.
        for protocol in PROTOCOLS {
            let mut config = SystemConfig::with_defaults(2).with_protocol(protocol);
            config.cache = twobit_types::CacheOrg::new(2, 1, 4).unwrap();
            let mc = ModelChecker::new(config, vec![vec![wr(1), rd(9)], vec![rd(1)]]).unwrap();
            let result = mc.explore_exhaustive(2_000_000).unwrap();
            assert!(!result.truncated, "{protocol}");
            assert!(result.interleavings > 0, "{protocol}");
        }
    }

    /// Three caches, upgrade storm on one block. The full interleaving
    /// tree is enormous; a bounded prefix still verifies hundreds of
    /// thousands of distinct orderings (every *completed* path is fully
    /// checked), and the deduplicated search covers it exhaustively.
    #[test]
    fn three_way_upgrade_storm_bounded() {
        let mc = checker(
            ProtocolKind::TwoBit,
            vec![vec![rd(1), wr(1)], vec![rd(1), wr(1)], vec![rd(1)]],
        );
        let result = mc.explore_exhaustive(150_000).unwrap();
        assert!(result.interleavings > 100, "got {}", result.interleavings);
        // The staleness window of the ack-free design is measurable here;
        // we record rather than assert it (it depends on ordering luck).
        let _ = result.stale_reads_observed;
    }

    /// The deduplicated search agrees exactly with the tree search on a
    /// script both can finish: same interleaving count, same staleness
    /// total — and strictly fewer expansions.
    #[test]
    fn dedup_search_agrees_with_tree_search() {
        for protocol in PROTOCOLS {
            let mc = checker(protocol, vec![vec![rd(1), wr(1)], vec![rd(1), wr(1)]]);
            let tree = mc.explore_exhaustive(2_000_000).unwrap();
            let dag = mc.explore_dedup(2_000_000, 2).unwrap();
            assert!(!dag.truncated, "{protocol}");
            assert_eq!(dag.interleavings, tree.interleavings, "{protocol}");
            assert_eq!(
                dag.stale_reads_observed, tree.stale_reads_observed,
                "{protocol}"
            );
            assert!(
                dag.states_visited < tree.states_visited,
                "{protocol}: dedup must shrink the search ({} vs {})",
                dag.states_visited,
                tree.states_visited
            );
        }
    }

    /// The dedup search's deterministic aggregation: identical results
    /// regardless of worker count.
    #[test]
    fn dedup_search_is_deterministic_across_jobs() {
        let mc = checker(
            ProtocolKind::TwoBit,
            vec![vec![rd(1), wr(1)], vec![rd(1), wr(1)], vec![rd(1)]],
        );
        let one = mc.explore_dedup(500_000, 1).unwrap();
        let four = mc.explore_dedup(500_000, 4).unwrap();
        assert_eq!(one, four);
    }

    /// Armed staleness injection turns the section 3.2.5 ack-free window
    /// into a counterexample whose path replays step-by-step through
    /// `step` to exactly the reported violation.
    #[test]
    fn stale_read_injection_yields_replayable_counterexample() {
        let mut mc = checker(
            ProtocolKind::TwoBit,
            vec![vec![rd(1), wr(1)], vec![rd(1), rd(1)]],
        );
        mc.fail_on_stale_reads(true);
        let cex = mc.explore_dedup(1_000_000, 2).unwrap_err();
        assert!(
            matches!(cex.error, ProtocolError::StaleRead { .. }),
            "expected an injected stale read, got {}",
            cex.error
        );
        // Replay manually through the public step API: every prefix
        // action applies cleanly, the final action reproduces the error.
        let mut state = mc.initial_state();
        for (i, &action) in cex.path.iter().enumerate() {
            assert!(
                mc.enabled(&state).contains(&action),
                "action {i} of the path must be enabled"
            );
            match mc.step(state, action) {
                Ok(next) => {
                    assert!(i + 1 < cex.path.len(), "only the last action may fail");
                    state = next;
                }
                Err(e) => {
                    assert_eq!(i + 1, cex.path.len(), "violation is the path's last action");
                    assert_eq!(e, cex.error);
                    // And the packaged replay agrees.
                    assert_eq!(mc.replay(&cex.path), Err(cex.error.clone()));
                    return;
                }
            }
        }
        panic!("replay completed without reproducing the violation");
    }

    /// The rendered counterexample is a coherent single-path timeline.
    #[test]
    fn counterexample_renders_a_timeline() {
        let mut mc = checker(
            ProtocolKind::TwoBit,
            vec![vec![rd(1), wr(1)], vec![rd(1), rd(1)]],
        );
        mc.fail_on_stale_reads(true);
        let cex = mc.explore_dedup(1_000_000, 2).unwrap_err();
        let rendered = mc.render_counterexample(&cex);
        assert!(rendered.contains("counterexample:"));
        assert!(rendered.contains("violation: stale read"));
    }

    /// Random walks scale the same checks to longer scripts.
    #[test]
    fn random_walks_cover_longer_scripts() {
        for protocol in PROTOCOLS {
            let mc = checker(
                protocol,
                vec![
                    vec![rd(1), wr(2), rd(1), wr(1), rd(2)],
                    vec![wr(1), rd(2), wr(2), rd(1), wr(1)],
                    vec![rd(2), rd(1), wr(1), rd(2), wr(2)],
                ],
            );
            let result = mc.explore_random(300, 0xdecade).unwrap();
            assert_eq!(result.interleavings, 300, "{protocol}");
        }
    }

    /// Determinism: the same seed explores the same walks.
    #[test]
    fn random_exploration_is_deterministic() {
        let mc = checker(ProtocolKind::TwoBit, vec![vec![rd(1), wr(1)], vec![wr(1)]]);
        let a = mc.explore_random(50, 7).unwrap();
        let b = mc.explore_random(50, 7).unwrap();
        assert_eq!(a, b);
    }

    /// Regression for the `seed | 1` aliasing bug: adjacent seeds (2k,
    /// 2k+1) must diverge, not silently explore identical walks.
    #[test]
    fn adjacent_seeds_diverge() {
        let mc = checker(
            ProtocolKind::TwoBit,
            vec![
                vec![rd(1), wr(2), rd(1), wr(1), rd(2)],
                vec![wr(1), rd(2), wr(2), rd(1), wr(1)],
                vec![rd(2), rd(1), wr(1), rd(2), wr(2)],
            ],
        );
        for seed in [0u64, 6, 0xdeca_de00] {
            let even = mc.explore_random(50, seed).unwrap();
            let odd = mc.explore_random(50, seed + 1).unwrap();
            assert_ne!(even, odd, "seeds {seed} and {} alias", seed + 1);
        }
    }

    /// Budget truncation is reported, not silent — and exactly: visited
    /// states never exceed the budget, and the abandoned frontier is
    /// accounted for.
    #[test]
    fn budget_truncation_is_flagged() {
        let mc = checker(
            ProtocolKind::TwoBit,
            vec![vec![rd(1), wr(1), rd(2)], vec![rd(1), wr(1), rd(2)]],
        );
        let result = mc.explore_exhaustive(100).unwrap();
        assert!(result.truncated);
        assert_eq!(
            result.states_visited, 100,
            "exactly the budget is expanded, not budget + 1"
        );
        assert!(
            result.abandoned_frontier > 0,
            "truncation abandons stacked states"
        );

        let dag = mc.explore_dedup(100, 2).unwrap();
        assert!(dag.truncated);
        assert!(dag.states_visited <= 100);
        assert!(dag.abandoned_frontier > 0);
    }

    #[test]
    fn constructor_validates() {
        let config = SystemConfig::with_defaults(2);
        assert!(
            ModelChecker::new(config, vec![vec![rd(1)]]).is_err(),
            "stream count"
        );
        let mut bus = SystemConfig::with_defaults(2).with_protocol(ProtocolKind::Illinois);
        bus.address_map = twobit_types::AddressMap::interleaved(1);
        assert!(
            ModelChecker::new(bus, vec![vec![], vec![]]).is_err(),
            "bus protocols"
        );
    }

    /// An invalidation in flight toward some cache: a target that reads
    /// channels only.
    fn inv_in_flight(mc: &ModelChecker, s: &State) -> bool {
        mc.probe_channels(s)
            .iter()
            .any(|((_, dst), q)| matches!(dst, Node::Cache(_)) && q.contains(&FlightMsg::Inv))
    }

    /// The stop-at-target search reaches an implicated in-flight shape
    /// along the same path at every `jobs`, and that path replays from
    /// the initial state to the first state the target accepts.
    #[test]
    fn explore_until_reaches_a_channel_shape() {
        let mc = checker(
            ProtocolKind::TwoBit,
            vec![vec![rd(1), wr(1)], vec![rd(1), wr(1)]],
        );
        let found = mc.explore_until(500_000, 1, &inv_in_flight).unwrap();
        let hit = found
            .hit
            .clone()
            .expect("the write race puts an Inv in flight");
        assert!(!hit.is_empty());
        assert!(!found.truncated);
        for jobs in [2, 4] {
            assert_eq!(
                mc.explore_until(500_000, jobs, &inv_in_flight).unwrap(),
                found
            );
        }
        let mut state = mc.initial_state();
        for &action in &hit {
            assert!(!inv_in_flight(&mc, &state), "an earlier state was a hit");
            assert!(mc.enabled(&state).contains(&action));
            state = mc.step(state, action).expect("the path replays");
        }
        assert!(
            inv_in_flight(&mc, &state),
            "the path ends in a target state"
        );
        mc.replay(&hit).expect("discovery path replays");
    }

    /// A target the initial state satisfies is hit by the empty path.
    #[test]
    fn explore_until_accepts_the_initial_state() {
        let mc = checker(ProtocolKind::TwoBit, vec![vec![rd(1)], vec![wr(1)]]);
        let out = mc.explore_until(10, 2, &|_, _| true).unwrap();
        assert_eq!(out.hit, Some(Vec::new()));
        assert_eq!(out.states_visited, 0);
    }

    /// An unsatisfiable target over the whole DAG is neither hit nor
    /// truncated — the search is then `explore_dedup` — and a budget too
    /// small for the DAG is flagged as truncated, not reported as a miss
    /// on a complete search.
    #[test]
    fn explore_until_flags_truncation() {
        let mc = checker(
            ProtocolKind::TwoBit,
            vec![vec![rd(1), wr(1), rd(2)], vec![rd(1), wr(1), rd(2)]],
        );
        let never = |_: &ModelChecker, _: &State| false;
        let full = mc.explore_until(2_000_000, 2, &never).unwrap();
        assert!(full.hit.is_none());
        assert!(!full.truncated, "search exhausted the DAG");
        assert_eq!(full, mc.explore_dedup(2_000_000, 2).unwrap());

        let out = mc.explore_until(50, 1, &never).unwrap();
        assert!(out.hit.is_none());
        assert!(out.truncated, "frontier was abandoned");
        assert!(out.states_visited <= 50);
    }

    #[test]
    fn exploration_dedup_hit_rate() {
        let e = Exploration {
            distinct_states: 26,
            dedup_hits: 75,
            ..Exploration::default()
        };
        assert!((e.dedup_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(Exploration::default().dedup_hit_rate(), 0.0);
    }

    /// Fingerprints separate distinct states and identify equal ones.
    #[test]
    fn fingerprints_are_canonical() {
        let mc = checker(ProtocolKind::TwoBit, vec![vec![rd(1), wr(1)], vec![rd(2)]]);
        let s0 = mc.initial_state();
        let fp0 = mc.fingerprint(&s0);
        assert_eq!(fp0, mc.fingerprint(&mc.initial_state()), "deterministic");
        let s1 = mc.step(s0.clone(), Action::Issue(0)).unwrap();
        assert_ne!(fp0, mc.fingerprint(&s1), "issuing changes the state");
        // Two independent issues commute to the same state: the DAG
        // property the dedup search exploits.
        let a01 = mc
            .step(
                mc.step(s0.clone(), Action::Issue(0)).unwrap(),
                Action::Issue(1),
            )
            .unwrap();
        let a10 = mc
            .step(mc.step(s0, Action::Issue(1)).unwrap(), Action::Issue(0))
            .unwrap();
        assert_eq!(mc.fingerprint(&a01), mc.fingerprint(&a10));
    }
}
