//! The cache controller attached to each processor (`C_k`): classifies
//! processor references, runs the replacement protocol of section 3.2.1,
//! and services the coherence commands that arrive from memory
//! controllers.
//!
//! One agent type serves every scheme, and it decides nothing itself: an
//! [`AgentPolicy`] picks one of the cache-side transition tables of
//! [`cache_table`](crate::cache_table) (write-back, write-back with the
//! Yen–Fu exclusive fill, write-through, static), and the agent
//! *interprets* it — it resolves the block's
//! [`CacheState`] (the line's state, or what the outstanding reference
//! awaits when it is on this block), looks the rule up in the compiled
//! dispatch array and runs the rule's [`CacheAction`]s, each one call on
//! the tag store, one message or one counter. The same tables are what
//! the linter analyses and what the whole-system flow graph's cache role
//! is lifted from, so there is one statement of the cache half of each
//! protocol.
//!
//! What stays code is data path, not protocol: the BIAS filter, the tag
//! store's victim choice, stolen-cycle accounting (a coherence command
//! searches the cache directory — one tag probe — whatever it finds; a
//! reply goes to the register holding the outstanding reference and
//! searches nothing), and the checkpoint codec.
//!
//! The agent holds at most one outstanding processor reference
//! (a blocking cache, as 1984 designs were) but keeps servicing network
//! commands while stalled — that interleaving is where the section 3.2.5
//! races live, and the tests here reproduce them.

use crate::cache_table::{
    self, CacheAction, CacheCond, CacheEvent, CacheSide, CacheState, CacheTable, Emit, Observed,
    PendingKind, Stat,
};
use crate::local::LocalState;
use crate::transitions::{cond_bits, undeclared, Dispatch, Rule, Set};
use std::fmt;
use twobit_cache::Cache;
use twobit_obs::json::{obj, FromJson, Json, Sink, ToJson, Value};
use twobit_obs::json_enum;
use twobit_types::{
    AccessKind, BlockAddr, CacheId, CacheOrg, CacheStats, CacheToMemory, Counter, Fingerprinter,
    MemRef, MemoryToCache, ProtocolError, Version, WritebackKind,
};

/// The cache discipline an agent runs: which table it interprets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentPolicy {
    /// Write-back private cache served by a directory.
    WriteBack {
        /// Whether fills may use the Exclusive local state
        /// (section 2.4.3) — only sound with a directory that tracks
        /// exclusive holders (the full-map+local scheme).
        use_exclusive: bool,
    },
    /// Write-through cache for the classical scheme (section 2.3).
    WriteThrough,
    /// The static software scheme (section 2.2).
    Static {
        /// First public (shared-writeable) block number: blocks at or
        /// above are never cached.
        shared_from: u64,
    },
}

impl AgentPolicy {
    /// The compiled table the policy names and the first uncached block
    /// number, if it has one — the one place a cache discipline is
    /// chosen; the agent never asks which it runs.
    fn select(self) -> (&'static Dispatch<CacheSide>, Option<u64>) {
        match self {
            AgentPolicy::WriteBack { use_exclusive } => {
                (cache_table::write_back(use_exclusive), None)
            }
            AgentPolicy::WriteThrough => (cache_table::write_through(), None),
            AgentPolicy::Static { shared_from } => {
                (cache_table::static_software(), Some(shared_from))
            }
        }
    }

    /// The table an agent under this policy interprets.
    #[must_use]
    pub fn table(self) -> &'static CacheTable {
        self.select().0.table()
    }
}

/// The agent's single outstanding reference.
#[derive(Debug, Clone, Copy)]
struct Pending {
    a: BlockAddr,
    kind: PendingKind,
    op: MemRef,
    store_version: Option<Version>,
}

json_enum!(PendingKind {
    ReadMiss => "read_miss",
    WriteMiss => "write_miss",
    Modify => "modify",
    DirectRead => "direct_read",
});

/// `{a, kind, op, sv}`.
impl ToJson for Pending {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.object(|o| {
            o.member("a", &self.a);
            o.member("kind", &self.kind);
            o.member("op", &self.op);
            o.member("sv", &self.store_version);
        });
    }
}

impl FromJson for Pending {
    fn decode<'a, V: Value<'a>>(j: V) -> Result<Self, String> {
        Ok(Pending {
            a: j.field("a")?,
            kind: j.field("kind")?,
            op: j.field("op")?,
            store_version: j.field("sv")?,
        })
    }
}

/// A processor reference that has retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The retired reference.
    pub op: MemRef,
    /// The data version observed (loads) or written (stores) — what the
    /// oracle checks.
    pub observed: Version,
    /// Whether the reference was satisfied without a directory
    /// transaction.
    pub was_hit: bool,
}

/// Result of presenting a processor reference to the cache, besides the
/// commands for memory controllers it wrote into the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StartOutcome {
    /// Set when the reference retired immediately (hit or fire-and-forget
    /// store); otherwise the agent is stalled until a network reply.
    pub completed: Option<Completion>,
    /// The table rule that fired.
    pub rule: &'static str,
}

/// Result of delivering a network command to the cache, besides the
/// responses for memory controllers it wrote into the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetOutcome {
    /// Set when the delivery retired the stalled reference.
    pub completed: Option<Completion>,
    /// Whether the delivery was a coherence command that consumed a cache
    /// directory cycle (for stolen-cycle accounting).
    pub counted: bool,
    /// The table rule that fired; empty when the BIAS memory absorbed the
    /// command before any rule could.
    pub rule: &'static str,
}

/// The BIAS memory of section 2.3: a small FIFO of block addresses whose
/// invalidation was already processed (and which have not been refetched
/// since). A repeated invalidation for a buffered block is absorbed
/// without a directory search — "the number of cache cycles spent in
/// processing invalidation requests can be minimized by a 'BIAS memory'
/// which filters out repeated invalidation requests for the same block."
///
/// Soundness invariant: a buffered block is never resident in the cache
/// (entries are inserted when a block becomes absent and removed on
/// fill), so skipping the search cannot skip a needed invalidation.
#[derive(Debug, Clone, Default)]
struct BiasFilter {
    entries: Vec<BlockAddr>,
    capacity: usize,
    cursor: usize,
}

impl BiasFilter {
    fn new(capacity: usize) -> Self {
        BiasFilter {
            entries: Vec::with_capacity(capacity),
            capacity,
            cursor: 0,
        }
    }

    fn contains(&self, a: BlockAddr) -> bool {
        self.entries.contains(&a)
    }

    fn insert(&mut self, a: BlockAddr) {
        if self.capacity == 0 || self.contains(a) {
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(a);
        } else {
            self.entries[self.cursor] = a;
            self.cursor = (self.cursor + 1) % self.capacity;
        }
    }

    fn remove(&mut self, a: BlockAddr) {
        self.entries.retain(|&e| e != a);
    }
}

/// What a rule's actions read: the block they act on, the reference
/// being serviced, and the data in hand.
#[derive(Clone, Copy)]
struct Frame {
    a: BlockAddr,
    /// The processor reference: the one being started, or the
    /// outstanding one a network event on its block concerns.
    op: Option<MemRef>,
    /// The version that reference's store publishes.
    store: Option<Version>,
    /// The version a grant carried, or an evicted victim held.
    data: Option<Version>,
}

/// The per-processor cache controller.
#[derive(Clone)]
pub struct CacheAgent {
    id: CacheId,
    cache: Cache<LocalState>,
    program: &'static Dispatch<CacheSide>,
    /// First public block number of the static scheme.
    uncached_from: Option<u64>,
    duplicate_directory: bool,
    bias: BiasFilter,
    pending: Option<Pending>,
    stats: CacheStats,
    /// Bit `i` is set once rule `i` of the table has fired (coverage;
    /// not state: excluded from fingerprints and checkpoints).
    fired: u64,
}

impl fmt::Debug for CacheAgent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheAgent")
            .field("id", &self.id)
            .field("table", &self.table().scheme)
            .field("pending", &self.pending)
            .field("occupancy", &self.cache.occupancy())
            .finish()
    }
}

impl CacheAgent {
    /// Creates an agent with an empty cache.
    #[must_use]
    pub fn new(id: CacheId, org: CacheOrg, policy: AgentPolicy, duplicate_directory: bool) -> Self {
        let (program, uncached_from) = policy.select();
        CacheAgent {
            id,
            cache: Cache::new(org),
            program,
            uncached_from,
            duplicate_directory,
            bias: BiasFilter::new(0),
            pending: None,
            stats: CacheStats::default(),
            fired: 0,
        }
    }

    /// Enables a BIAS memory of `entries` blocks (section 2.3); 0
    /// disables it. Resets the filter's contents.
    pub fn set_bias_entries(&mut self, entries: u32) {
        self.bias = BiasFilter::new(entries as usize);
    }

    /// This cache's identity.
    #[must_use]
    pub fn id(&self) -> CacheId {
        self.id
    }

    /// The tag store (read-only, for invariant checks).
    #[must_use]
    pub fn cache(&self) -> &Cache<LocalState> {
        &self.cache
    }

    /// The transition table this agent interprets.
    #[must_use]
    pub fn table(&self) -> &'static CacheTable {
        self.program.table()
    }

    /// Which rules of [`CacheAgent::table`] have fired so far, as a bit
    /// per rule index.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// `true` while a reference is outstanding.
    #[must_use]
    pub fn is_stalled(&self) -> bool {
        self.pending.is_some()
    }

    /// Feeds this agent's complete future-relevant state into `fp` for
    /// the model checker's visited-set: tag store (replacement stamps
    /// rank-reduced, see [`Cache::canonical_sets`]), BIAS filter, and the
    /// outstanding reference. Statistics and rule coverage never
    /// influence behavior and are excluded, as are the per-run constants
    /// (table, cache organization).
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_usize(self.id.index());
        for set in self.cache.canonical_sets() {
            fp.write_u64(u64::from(set.index));
            fp.write_u64(set.rng);
            fp.write_usize(set.lines.len());
            for line in set.lines {
                fp.write_u64(u64::from(line.way));
                fp.write_u64(line.addr.number());
                fp.write_tag(match line.state {
                    LocalState::Invalid => 0,
                    LocalState::Shared => 1,
                    LocalState::Exclusive => 2,
                    LocalState::Dirty => 3,
                });
                fp.write_u64(line.version.raw());
                fp.write_u64(u64::from(line.lru_rank));
                fp.write_u64(u64::from(line.fifo_rank));
            }
        }
        // BIAS: both the buffered blocks and the overwrite cursor steer
        // future filtering (the cursor picks the next slot replaced).
        fp.write_usize(self.bias.entries.len());
        for &a in &self.bias.entries {
            fp.write_u64(a.number());
        }
        fp.write_usize(self.bias.cursor);
        match &self.pending {
            None => fp.write_tag(0),
            Some(p) => {
                fp.write_tag(1);
                fp.write_u64(p.a.number());
                fp.write_tag(match p.kind {
                    PendingKind::ReadMiss => 0,
                    PendingKind::WriteMiss => 1,
                    PendingKind::Modify => 2,
                    PendingKind::DirectRead => 3,
                });
                fp.write_u64(p.op.addr.block.number());
                fp.write_u64(u64::from(p.op.addr.offset));
                fp.write_tag(match p.op.kind {
                    AccessKind::Read => 0,
                    AccessKind::Write => 1,
                });
                match p.store_version {
                    None => fp.write_tag(0),
                    Some(v) => {
                        fp.write_tag(1);
                        fp.write_u64(v.raw());
                    }
                }
            }
        }
    }

    /// Serializes this agent's complete state (tag store with exact
    /// replacement stamps, BIAS filter, outstanding reference, and —
    /// unlike [`CacheAgent::fingerprint`] — the statistics counters) as a
    /// checkpoint document for [`CacheAgent::restore_state`].
    ///
    /// Construction-time configuration (`policy`, cache organization,
    /// duplicate-directory flag) is *not* serialized: a restoring node
    /// rebuilds the agent from its own system config and the document
    /// only carries what evolved since. The id is included as a guard
    /// against restoring the wrong node's checkpoint.
    #[must_use]
    pub fn save_state(&self) -> Json {
        obj([
            ("id", self.id.json()),
            (
                "cache",
                crate::snapshot::cache_snapshot_json(&self.cache.snapshot()),
            ),
            ("pending", self.pending.json()),
            (
                "bias",
                obj([
                    ("capacity", self.bias.capacity.json()),
                    ("cursor", self.bias.cursor.json()),
                    ("entries", self.bias.entries.json()),
                ]),
            ),
            ("stats", self.stats.json()),
        ])
    }

    /// Restores the state captured by [`CacheAgent::save_state`] into
    /// this agent, which must have been constructed with the same
    /// configuration (id, cache organization, policy) as the saved one.
    ///
    /// # Errors
    ///
    /// Returns a message if the document is malformed, names a different
    /// cache id, its tag-store snapshot does not fit this agent's cache
    /// organization, or it holds a line in a state this agent's table
    /// declares no processor reference in (a checkpoint is untrusted, and
    /// [`CacheAgent::start`] cannot refuse). On error `self` is left
    /// unchanged.
    pub fn restore_state(&mut self, j: &Json) -> Result<(), String> {
        let id: CacheId = j.field("id")?;
        if id != self.id {
            return Err(format!(
                "checkpoint is for cache {id}, this agent is {}",
                self.id
            ));
        }
        let snap = crate::snapshot::cache_snapshot_from(j.member("cache")?)?;
        let cache = Cache::restore(self.cache.org(), &snap)?;
        let table = self.table();
        let held = table
            .spec(CacheEvent::Load)
            .map_or(Set::EMPTY, |spec| spec.domain);
        if let Some(line) = cache
            .valid_lines()
            .find(|line| !held.contains(CacheState::of_line(line.state)))
        {
            return Err(format!(
                "checkpoint holds {} {}, a state the {} table does not declare",
                line.addr,
                CacheState::of_line(line.state),
                table.scheme
            ));
        }
        let b = j.member("bias")?;
        // Built from what the document holds, not `BiasFilter::new`: that
        // allocates `capacity` entries, and the number is untrusted.
        let bias = BiasFilter {
            entries: b.field("entries")?,
            capacity: b.field("capacity")?,
            cursor: b.field("cursor")?,
        };
        if bias.entries.len() > bias.capacity {
            return Err("BIAS checkpoint exceeds its own capacity".into());
        }
        if bias.capacity > 0 && bias.cursor >= bias.capacity {
            return Err("BIAS cursor out of range".into());
        }
        let pending = j.field("pending")?;
        let stats = j.field("stats")?;
        self.cache = cache;
        self.pending = pending;
        self.bias = bias;
        self.stats = stats;
        Ok(())
    }

    /// The state of `a`'s line without a directory search: unlike
    /// `Cache::state_of` it counts no tag probe. For debug assertions (so
    /// the `tag_probes` statistic is the same in every build profile) and
    /// for a reply that matches no outstanding reference, which is about
    /// to be dropped or refused and must change nothing.
    fn line_unsearched(&self, a: BlockAddr) -> LocalState {
        let line = self.cache.valid_lines().find(|line| line.addr == a);
        line.map_or(LocalState::Invalid, |line| line.state)
    }

    fn resident_uncounted(&self, a: BlockAddr) -> bool {
        self.line_unsearched(a) != LocalState::Invalid
    }

    /// The state of `a`'s line: one search of the cache directory when
    /// `search`ed for — but none for a public block of the static scheme,
    /// which address decoding alone says is never cached.
    fn line_state(&self, a: BlockAddr, search: bool) -> CacheState {
        if self.uncached_from.is_some_and(|from| a.number() >= from) {
            debug_assert!(
                !self.resident_uncounted(a),
                "public blocks are never cached"
            );
            CacheState::Uncached
        } else if search {
            CacheState::of_line(self.cache.state_of(a))
        } else {
            CacheState::of_line(self.line_unsearched(a))
        }
    }

    /// Presents a processor reference, appending the commands to send to
    /// memory controllers, in order, to `sends` — a buffer the caller owns
    /// and reuses, so a reference allocates nothing. For stores,
    /// `store_version` is the fresh version this store will publish.
    ///
    /// # Panics
    ///
    /// Panics if a reference is already outstanding (the processor is
    /// blocked until the previous one retires), or if the line is in a
    /// state the table declares no reference in — which no table's own
    /// actions produce and [`CacheAgent::restore_state`] refuses.
    pub fn start(
        &mut self,
        op: MemRef,
        store_version: Version,
        sends: &mut Vec<CacheToMemory>,
    ) -> StartOutcome {
        assert!(
            self.pending.is_none(),
            "{}: reference issued while stalled",
            self.id
        );
        let (event, store) = match op.kind {
            AccessKind::Read => {
                self.stats.reads.inc();
                (CacheEvent::Load, None)
            }
            AccessKind::Write => {
                self.stats.writes.inc();
                (CacheEvent::Store, Some(store_version))
            }
        };
        let a = op.addr.block;
        let frame = Frame {
            a,
            op: Some(op),
            store,
            data: None,
        };
        let mut out = NetOutcome::default();
        let state = self.line_state(a, true);
        self.fire(event, state, frame, &mut out, sends);
        StartOutcome {
            completed: out.completed,
            rule: out.rule,
        }
    }

    /// Delivers a network command, appending the responses to send to
    /// memory controllers, in order, to `sends`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnexpectedCommand`], naming the table,
    /// the event and the state, for a delivery the table declares no rule
    /// for (e.g. a data grant with no pending miss). No line, reference or
    /// statistic has changed then; a refused coherence command has still
    /// searched the cache directory, a refused reply has searched nothing.
    pub fn on_network(
        &mut self,
        msg: MemoryToCache,
        sends: &mut Vec<CacheToMemory>,
    ) -> Result<NetOutcome, ProtocolError> {
        let holds = |cond, value| cond_bits(&[(cond, value)]);
        let (event, a, conds, data) = match msg {
            MemoryToCache::GetData {
                k,
                a,
                version,
                exclusive,
            } => {
                debug_assert_eq!(k, self.id, "misrouted grant");
                let conds = holds(CacheCond::Exclusive, exclusive);
                (CacheEvent::Grant, a, conds, Some(version))
            }
            MemoryToCache::MGranted { k, a, granted } => {
                debug_assert_eq!(k, self.id, "misrouted MGRANTED");
                let conds = holds(CacheCond::Granted, granted);
                (CacheEvent::UpgradeReply, a, conds, None)
            }
            MemoryToCache::BroadInv { a, exclude } => {
                debug_assert_ne!(exclude, self.id, "BROADINV delivered to its initiator");
                (CacheEvent::Invalidate, a, 0, None)
            }
            MemoryToCache::Inv { a, to } => {
                debug_assert_eq!(to, self.id, "misrouted INV");
                (CacheEvent::Invalidate, a, 0, None)
            }
            MemoryToCache::BroadQuery { a, rw } | MemoryToCache::Purge { a, rw, .. } => {
                let conds = holds(CacheCond::ForWrite, rw.is_write());
                (CacheEvent::Recall, a, conds, None)
            }
        };
        // A coherence command searches the cache directory; a reply goes
        // to the register holding the outstanding reference.
        let command = matches!(event, CacheEvent::Invalidate | CacheEvent::Recall);
        let mut out = NetOutcome {
            counted: command,
            ..NetOutcome::default()
        };
        // BIAS filter: a repeated invalidation for a block already known
        // absent is absorbed without a directory search or stolen cycle.
        if event == CacheEvent::Invalidate && self.bias.contains(a) {
            debug_assert!(
                !self.resident_uncounted(a),
                "BIAS entry for a resident block"
            );
            self.stats.commands_received.inc();
            self.stats.useless_commands.inc();
            self.stats.bias_filtered.inc();
            return Ok(out);
        }
        let waiting = self.pending.filter(|p| p.a == a);
        let line = (command || waiting.is_none()).then(|| self.line_state(a, command));
        let state = waiting
            .map(|p| CacheState::awaiting(p.kind))
            .or(line)
            .expect("the line is looked at when nothing is outstanding on the block");
        let frame = Frame {
            a,
            op: waiting.map(|p| p.op),
            store: waiting.and_then(|p| p.store_version),
            data,
        };
        let Some(found) = self.program.lookup(event, state, conds) else {
            return Err(self.refusal(msg, event, state));
        };
        if command {
            self.record_command(matches!(
                line,
                Some(CacheState::Clean | CacheState::Exclusive | CacheState::Dirty)
            ));
            if event == CacheEvent::Invalidate {
                self.bias.insert(a);
            }
        }
        self.apply(found, frame, &mut out, sends);
        Ok(out)
    }

    /// The typed error for a delivery the table declares no rule for.
    #[cold]
    fn refusal(&self, msg: MemoryToCache, event: CacheEvent, state: CacheState) -> ProtocolError {
        let a = msg.block();
        let who = match self.pending {
            None => format!("{} idle", self.id),
            Some(p) if p.a != a => format!("{} awaiting {}", self.id, p.a),
            Some(_) => format!("{} in {state}", self.id),
        };
        ProtocolError::UnexpectedCommand {
            state: format!("{who} ({})", undeclared(self.table(), event, state)),
            command: match msg {
                MemoryToCache::GetData { a, .. } => format!("get({a})"),
                other => other.to_string(),
            },
        }
    }

    /// Looks up and runs the one rule for a processor reference or a
    /// replacement on the frame's block.
    ///
    /// # Panics
    ///
    /// Panics if the table declares none: no action of any table leaves a
    /// line in such a state and `restore_state` refuses one.
    fn fire(
        &mut self,
        event: CacheEvent,
        state: CacheState,
        frame: Frame,
        out: &mut NetOutcome,
        sends: &mut Vec<CacheToMemory>,
    ) {
        match self.program.lookup(event, state, 0) {
            Some(found) => self.apply(found, frame, out, sends),
            None => panic!("{}: {}", self.id, undeclared(self.table(), event, state)),
        }
    }

    fn apply(
        &mut self,
        (index, rule): (usize, &'static Rule<CacheSide>),
        f: Frame,
        out: &mut NetOutcome,
        sends: &mut Vec<CacheToMemory>,
    ) {
        self.fired |= 1 << index;
        if rule.event != CacheEvent::Evict {
            out.rule = rule.name;
        }
        let a = f.a;
        let stored = || f.store.expect("a store rule fires on a store");
        for action in &rule.actions {
            match *action {
                CacheAction::Touch => self.cache.touch(a),
                CacheAction::MarkDirty => {
                    self.cache.set_state(a, LocalState::Dirty);
                }
                CacheAction::Downgrade => {
                    self.cache.set_state(a, LocalState::Shared);
                }
                CacheAction::Store => {
                    self.cache.set_version(a, stored());
                }
                CacheAction::Fill(state) => {
                    // The block is becoming resident again: it must leave
                    // the BIAS filter so future invalidations search the
                    // directory.
                    self.bias.remove(a);
                    let version = match state {
                        LocalState::Dirty => stored(),
                        _ => f.data.expect("a fill rule fires on a grant"),
                    };
                    self.cache.insert(a, state, version);
                }
                CacheAction::Drop => {
                    self.cache.invalidate(a);
                }
                CacheAction::MakeRoom => {
                    // The replacement protocol of section 3.2.1: if the
                    // incoming block's set is full the tag store names a
                    // victim, and the table says how it leaves.
                    if let Some(victim) = self.cache.peek_victim(a) {
                        let leaving = Frame {
                            a: victim.addr,
                            data: Some(victim.version),
                            ..f
                        };
                        let state = CacheState::of_line(victim.state);
                        self.fire(CacheEvent::Evict, state, leaving, out, sends);
                    }
                }
                CacheAction::Emit(emit) => self.emit(emit, f, sends),
                CacheAction::Stall(kind) => {
                    self.pending = Some(Pending {
                        a,
                        kind,
                        op: f.op.expect("a stalling rule fires on a reference"),
                        store_version: f.store,
                    });
                }
                CacheAction::Retire { hit, observed } => {
                    self.pending = None;
                    out.completed = Some(Completion {
                        op: f.op.expect("a retiring rule fires on a reference"),
                        observed: match observed {
                            Observed::Line => self.line_version(a),
                            Observed::Granted => f.data.expect("a grant carries data"),
                            Observed::Stored => stored(),
                        },
                        was_hit: hit,
                    });
                }
                CacheAction::Count(stat) => self.counter(stat).inc(),
            }
        }
    }

    fn line_version(&self, a: BlockAddr) -> Version {
        self.cache.version_of(a).expect("valid line has a version")
    }

    fn emit(&mut self, emit: Emit, f: Frame, sends: &mut Vec<CacheToMemory>) {
        let (k, a) = (self.id, f.a);
        let request = |rw| CacheToMemory::Request { k, a, rw };
        let eject = |wb| CacheToMemory::Eject { k, olda: a, wb };
        let put = |version| CacheToMemory::PutData {
            from: k,
            a,
            version,
        };
        let command = match emit {
            Emit::ReadReq => request(AccessKind::Read),
            Emit::WriteReq => request(AccessKind::Write),
            Emit::UpgradeReq => CacheToMemory::MRequest {
                k,
                a,
                version: self.line_version(a),
            },
            Emit::StoreThrough => CacheToMemory::WriteThrough {
                k,
                a,
                version: f.store.expect("a store rule fires on a store"),
            },
            Emit::DirectReadReq => CacheToMemory::DirectRead { k, a },
            Emit::Put => put(self.line_version(a)),
            Emit::EjectClean => eject(WritebackKind::Clean),
            Emit::EjectDirty => {
                sends.push(eject(WritebackKind::Dirty));
                put(f.data.expect("a victim's data is in hand"))
            }
        };
        sends.push(command);
    }

    fn counter(&mut self, stat: Stat) -> &mut Counter {
        let s = &mut self.stats;
        match stat {
            Stat::ReadHits => &mut s.read_hits,
            Stat::ReadMisses => &mut s.read_misses,
            Stat::WriteHitsDirty => &mut s.write_hits_dirty,
            Stat::WriteHitsClean => &mut s.write_hits_clean,
            Stat::WriteMisses => &mut s.write_misses,
            Stat::EvictionsClean => &mut s.evictions_clean,
            Stat::EvictionsDirty => &mut s.evictions_dirty,
            Stat::InvalidatedLines => &mut s.invalidated_lines,
            Stat::EffectiveCommands => &mut s.effective_commands,
            Stat::BlocksSupplied => &mut s.blocks_supplied,
        }
    }

    fn record_command(&mut self, matched: bool) {
        self.stats.commands_received.inc();
        if matched {
            // A match always costs the cache a cycle, duplicate directory
            // or not.
            self.stats.stolen_cycles.inc();
        } else {
            self.stats.useless_commands.inc();
            if !self.duplicate_directory {
                // Without the parallel controller of section 4.4, even a
                // non-matching probe steals a directory cycle.
                self.stats.stolen_cycles.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::WordAddr;

    /// An outcome with the sends that went with it.
    #[derive(Debug)]
    struct Told {
        sends: Vec<CacheToMemory>,
        completed: Option<Completion>,
        counted: bool,
        rule: &'static str,
    }

    impl CacheAgent {
        /// [`CacheAgent::start`] with a fresh send buffer.
        fn start_told(&mut self, op: MemRef, store_version: Version) -> Told {
            let mut sends = Vec::new();
            let out = self.start(op, store_version, &mut sends);
            Told {
                sends,
                completed: out.completed,
                counted: false,
                rule: out.rule,
            }
        }

        /// [`CacheAgent::on_network`] with a fresh send buffer.
        fn net_told(&mut self, msg: MemoryToCache) -> Result<Told, ProtocolError> {
            let mut sends = Vec::new();
            let out = self.on_network(msg, &mut sends)?;
            Ok(Told {
                sends,
                completed: out.completed,
                counted: out.counted,
                rule: out.rule,
            })
        }
    }

    fn agent(policy: AgentPolicy) -> CacheAgent {
        CacheAgent::new(
            CacheId::new(0),
            CacheOrg::new(4, 2, 4).unwrap(),
            policy,
            false,
        )
    }

    fn wb() -> CacheAgent {
        agent(AgentPolicy::WriteBack {
            use_exclusive: false,
        })
    }

    fn read(b: u64) -> MemRef {
        MemRef::read(WordAddr::new(b, 0))
    }

    fn write(b: u64) -> MemRef {
        MemRef::write(WordAddr::new(b, 0))
    }

    fn grant(k: usize, a: u64, v: u64, excl: bool) -> MemoryToCache {
        MemoryToCache::GetData {
            k: CacheId::new(k),
            a: BlockAddr::new(a),
            version: Version::new(v),
            exclusive: excl,
        }
    }

    #[test]
    fn read_miss_then_fill_then_hit() {
        let mut a = wb();
        let out = a.start_told(read(1), Version::initial());
        assert!(out.completed.is_none());
        assert!(matches!(
            out.sends[0],
            CacheToMemory::Request {
                rw: AccessKind::Read,
                ..
            }
        ));
        assert!(a.is_stalled());

        let out = a.net_told(grant(0, 1, 3, false)).unwrap();
        let c = out.completed.unwrap();
        assert_eq!(c.observed, Version::new(3));
        assert!(!a.is_stalled());

        let out = a.start_told(read(1), Version::initial());
        let c = out.completed.unwrap();
        assert!(c.was_hit);
        assert_eq!(c.observed, Version::new(3));
        assert_eq!(a.stats().read_hits.get(), 1);
        assert_eq!(a.stats().read_misses.get(), 1);
    }

    #[test]
    fn write_miss_fills_dirty_with_store_version() {
        let mut a = wb();
        let out = a.start_told(write(2), Version::new(10));
        assert!(matches!(
            out.sends[0],
            CacheToMemory::Request {
                rw: AccessKind::Write,
                ..
            }
        ));
        let out = a.net_told(grant(0, 2, 4, true)).unwrap();
        let c = out.completed.unwrap();
        assert_eq!(
            c.observed,
            Version::new(10),
            "store's version, not memory's"
        );
        assert_eq!(a.cache().state_of(BlockAddr::new(2)), LocalState::Dirty);
    }

    #[test]
    fn write_hit_clean_sends_mrequest_and_waits() {
        let mut a = wb();
        a.start_told(read(3), Version::initial());
        a.net_told(grant(0, 3, 0, false)).unwrap();

        let out = a.start_told(write(3), Version::new(5));
        assert!(out.completed.is_none());
        assert!(matches!(out.sends[0], CacheToMemory::MRequest { .. }));
        assert_eq!(a.stats().write_hits_clean.get(), 1);

        let out = a
            .net_told(MemoryToCache::MGranted {
                k: CacheId::new(0),
                a: BlockAddr::new(3),
                granted: true,
            })
            .unwrap();
        let c = out.completed.unwrap();
        assert_eq!(c.observed, Version::new(5));
        assert_eq!(a.cache().state_of(BlockAddr::new(3)), LocalState::Dirty);
    }

    #[test]
    fn write_hit_dirty_is_silent() {
        let mut a = wb();
        a.start_told(write(4), Version::new(1));
        a.net_told(grant(0, 4, 0, true)).unwrap();
        let out = a.start_told(write(4), Version::new(2));
        assert!(out.completed.is_some());
        assert!(out.sends.is_empty(), "dirty hit needs no directory trip");
        assert_eq!(a.stats().write_hits_dirty.get(), 1);
    }

    #[test]
    fn broadinv_invalidates_and_converts_pending_modify() {
        // Section 3.2.5: BROADINV doubles as MGRANTED(false).
        let mut a = wb();
        a.start_told(read(5), Version::initial());
        a.net_told(grant(0, 5, 0, false)).unwrap();
        a.start_told(write(5), Version::new(9)); // MREQUEST outstanding

        let out = a
            .net_told(MemoryToCache::BroadInv {
                a: BlockAddr::new(5),
                exclude: CacheId::new(1),
            })
            .unwrap();
        assert!(!a.cache().contains(BlockAddr::new(5)));
        assert!(
            matches!(
                out.sends.last(),
                Some(CacheToMemory::Request {
                    rw: AccessKind::Write,
                    ..
                })
            ),
            "converted to a write miss"
        );
        assert!(a.is_stalled());
        // The store still completes once the write-miss grant arrives.
        let out = a.net_told(grant(0, 5, 3, true)).unwrap();
        assert_eq!(out.completed.unwrap().observed, Version::new(9));
    }

    #[test]
    fn stale_mgranted_after_conversion_is_dropped() {
        let mut a = wb();
        a.start_told(read(5), Version::initial());
        a.net_told(grant(0, 5, 0, false)).unwrap();
        a.start_told(write(5), Version::new(9));
        a.net_told(MemoryToCache::BroadInv {
            a: BlockAddr::new(5),
            exclude: CacheId::new(1),
        })
        .unwrap();
        // The controller had already replied false to the (now deleted)
        // MREQUEST; the reply arrives late.
        let out = a
            .net_told(MemoryToCache::MGranted {
                k: CacheId::new(0),
                a: BlockAddr::new(5),
                granted: false,
            })
            .unwrap();
        assert!(
            out.sends.is_empty() && out.completed.is_none(),
            "ignored as stale"
        );
    }

    #[test]
    fn query_makes_dirty_owner_supply_and_downgrade() {
        let mut a = wb();
        a.start_told(write(6), Version::new(4));
        a.net_told(grant(0, 6, 0, true)).unwrap();

        let out = a
            .net_told(MemoryToCache::BroadQuery {
                a: BlockAddr::new(6),
                rw: AccessKind::Read,
            })
            .unwrap();
        assert!(matches!(out.sends[0], CacheToMemory::PutData { .. }));
        assert_eq!(
            a.cache().state_of(BlockAddr::new(6)),
            LocalState::Shared,
            "modified bit reset, copy kept"
        );
        assert_eq!(a.stats().blocks_supplied.get(), 1);

        // A write query instead invalidates.
        let mut b = wb();
        b.start_told(write(6), Version::new(4));
        b.net_told(grant(0, 6, 0, true)).unwrap();
        b.net_told(MemoryToCache::BroadQuery {
            a: BlockAddr::new(6),
            rw: AccessKind::Write,
        })
        .unwrap();
        assert!(!b.cache().contains(BlockAddr::new(6)));
    }

    #[test]
    fn query_on_absent_block_is_counted_useless() {
        let mut a = wb();
        let out = a
            .net_told(MemoryToCache::BroadQuery {
                a: BlockAddr::new(7),
                rw: AccessKind::Read,
            })
            .unwrap();
        assert!(out.sends.is_empty());
        assert!(out.counted);
        assert_eq!(a.stats().useless_commands.get(), 1);
        assert_eq!(
            a.stats().stolen_cycles.get(),
            1,
            "no duplicate directory: cycle lost"
        );
    }

    #[test]
    fn duplicate_directory_saves_nonmatching_cycles() {
        let mut a = CacheAgent::new(
            CacheId::new(0),
            CacheOrg::new(4, 2, 4).unwrap(),
            AgentPolicy::WriteBack {
                use_exclusive: false,
            },
            true,
        );
        a.net_told(MemoryToCache::BroadInv {
            a: BlockAddr::new(8),
            exclude: CacheId::new(1),
        })
        .unwrap();
        assert_eq!(a.stats().useless_commands.get(), 1);
        assert_eq!(
            a.stats().stolen_cycles.get(),
            0,
            "filtered by the duplicate directory"
        );
    }

    #[test]
    fn replacement_emits_eject_protocol() {
        // 4 sets → blocks 0 and 8 and 16 collide (assoc 2).
        let mut a = wb();
        for b in [0u64, 8] {
            a.start_told(read(b), Version::initial());
            a.net_told(grant(0, b, 0, false)).unwrap();
        }
        // Dirty one of them.
        a.start_told(write(0), Version::new(2));
        a.net_told(MemoryToCache::MGranted {
            k: CacheId::new(0),
            a: BlockAddr::new(0),
            granted: true,
        })
        .unwrap();
        // Touch block 8 so block 0 is LRU, then miss block 16.
        a.start_told(read(8), Version::initial());
        let out = a.start_told(read(16), Version::initial());
        assert!(
            matches!(
                out.sends[0],
                CacheToMemory::Eject {
                    wb: WritebackKind::Dirty,
                    ..
                }
            ),
            "dirty victim announces a write-back: {:?}",
            out.sends
        );
        assert!(matches!(out.sends[1], CacheToMemory::PutData { .. }));
        assert!(matches!(out.sends[2], CacheToMemory::Request { .. }));
        assert_eq!(a.stats().evictions_dirty.get(), 1);
    }

    #[test]
    fn exclusive_fill_upgrades_silently() {
        let mut a = agent(AgentPolicy::WriteBack {
            use_exclusive: true,
        });
        a.start_told(read(1), Version::initial());
        a.net_told(grant(0, 1, 0, true)).unwrap();
        assert_eq!(a.cache().state_of(BlockAddr::new(1)), LocalState::Exclusive);
        let out = a.start_told(write(1), Version::new(6));
        assert!(out.completed.is_some());
        assert!(out.sends.is_empty(), "Yen-Fu's saved MREQUEST");
        assert_eq!(a.cache().state_of(BlockAddr::new(1)), LocalState::Dirty);
    }

    #[test]
    fn write_through_store_is_fire_and_forget() {
        let mut a = agent(AgentPolicy::WriteThrough);
        let out = a.start_told(write(1), Version::new(3));
        assert!(out.completed.is_some());
        assert!(matches!(out.sends[0], CacheToMemory::WriteThrough { .. }));
        assert!(!a.is_stalled());
        // The local copy (absent here) was not allocated.
        assert!(!a.cache().contains(BlockAddr::new(1)));
    }

    #[test]
    fn write_through_store_updates_resident_copy() {
        let mut a = agent(AgentPolicy::WriteThrough);
        a.start_told(read(1), Version::initial());
        a.net_told(grant(0, 1, 2, false)).unwrap();
        a.start_told(write(1), Version::new(7));
        assert_eq!(
            a.cache().version_of(BlockAddr::new(1)),
            Some(Version::new(7))
        );
        assert_eq!(
            a.cache().state_of(BlockAddr::new(1)),
            LocalState::Shared,
            "never dirty"
        );
    }

    #[test]
    fn static_public_blocks_bypass_the_cache() {
        let mut a = agent(AgentPolicy::Static { shared_from: 100 });
        let out = a.start_told(read(150), Version::initial());
        assert!(matches!(out.sends[0], CacheToMemory::DirectRead { .. }));
        let out = a.net_told(grant(0, 150, 9, false)).unwrap();
        assert_eq!(out.completed.unwrap().observed, Version::new(9));
        assert!(
            !a.cache().contains(BlockAddr::new(150)),
            "no fill for public data"
        );

        let out = a.start_told(write(150), Version::new(11));
        assert!(out.completed.is_some());
        assert!(matches!(out.sends[0], CacheToMemory::WriteThrough { .. }));
    }

    #[test]
    fn static_private_blocks_write_back_silently() {
        let mut a = agent(AgentPolicy::Static { shared_from: 100 });
        a.start_told(read(5), Version::initial());
        a.net_told(grant(0, 5, 0, false)).unwrap();
        let out = a.start_told(write(5), Version::new(2));
        assert!(out.completed.is_some());
        assert!(
            out.sends.is_empty(),
            "private writes need no coherence traffic"
        );
        assert_eq!(a.cache().state_of(BlockAddr::new(5)), LocalState::Dirty);
    }

    #[test]
    fn bias_filter_absorbs_repeated_invalidations() {
        let mut a = wb();
        a.set_bias_entries(4);
        // First invalidation for an absent block: searched, then buffered.
        a.net_told(MemoryToCache::BroadInv {
            a: BlockAddr::new(3),
            exclude: CacheId::new(1),
        })
        .unwrap();
        assert_eq!(a.stats().stolen_cycles.get(), 1);
        assert_eq!(a.stats().bias_filtered.get(), 0);
        // Repeats are filtered: counted as received but no cycle stolen.
        for _ in 0..3 {
            a.net_told(MemoryToCache::BroadInv {
                a: BlockAddr::new(3),
                exclude: CacheId::new(1),
            })
            .unwrap();
        }
        assert_eq!(a.stats().bias_filtered.get(), 3);
        assert_eq!(
            a.stats().stolen_cycles.get(),
            1,
            "filtered repeats steal nothing"
        );
        assert_eq!(
            a.stats().commands_received.get(),
            4,
            "still received and counted"
        );
    }

    #[test]
    fn bias_entry_clears_on_refetch() {
        let mut a = wb();
        a.set_bias_entries(4);
        a.net_told(MemoryToCache::BroadInv {
            a: BlockAddr::new(3),
            exclude: CacheId::new(1),
        })
        .unwrap();
        // Refetch the block: the BIAS entry must go, so the next
        // invalidation really invalidates.
        a.start_told(read(3), Version::initial());
        a.net_told(grant(0, 3, 5, false)).unwrap();
        assert!(a.cache().contains(BlockAddr::new(3)));
        a.net_told(MemoryToCache::BroadInv {
            a: BlockAddr::new(3),
            exclude: CacheId::new(1),
        })
        .unwrap();
        assert!(
            !a.cache().contains(BlockAddr::new(3)),
            "invalidation was not filtered"
        );
        assert_eq!(a.stats().invalidated_lines.get(), 1);
    }

    #[test]
    fn bias_capacity_rotates_fifo() {
        let mut a = wb();
        a.set_bias_entries(2);
        for b in [1u64, 2, 3] {
            a.net_told(MemoryToCache::BroadInv {
                a: BlockAddr::new(b),
                exclude: CacheId::new(1),
            })
            .unwrap();
        }
        // Block 1 was pushed out by block 3; a repeat for it searches again.
        let stolen = a.stats().stolen_cycles.get();
        a.net_told(MemoryToCache::BroadInv {
            a: BlockAddr::new(1),
            exclude: CacheId::new(1),
        })
        .unwrap();
        assert_eq!(
            a.stats().stolen_cycles.get(),
            stolen + 1,
            "evicted entry no longer filters"
        );
        // Block 3 is still buffered.
        a.net_told(MemoryToCache::BroadInv {
            a: BlockAddr::new(3),
            exclude: CacheId::new(1),
        })
        .unwrap();
        assert_eq!(
            a.stats().stolen_cycles.get(),
            stolen + 1,
            "resident entry filters"
        );
    }

    #[test]
    #[should_panic(expected = "issued while stalled")]
    fn double_issue_panics() {
        let mut a = wb();
        a.start_told(read(1), Version::initial());
        a.start_told(read(2), Version::initial());
    }

    #[test]
    fn unsolicited_grant_is_an_error() {
        let mut a = wb();
        let err = a.net_told(grant(0, 1, 0, false)).unwrap_err();
        assert!(matches!(err, ProtocolError::UnexpectedCommand { .. }));
    }

    #[test]
    fn outcomes_name_the_rule_and_coverage_counts_the_eviction() {
        let mut a = wb();
        assert_eq!(a.start_told(read(0), Version::initial()).rule, "read-miss");
        let filled = a.net_told(grant(0, 0, 0, false)).unwrap();
        assert_eq!(filled.rule, "grant-fill-read");
        assert_eq!(a.start_told(read(0), Version::initial()).rule, "read-hit");
        // Fill block 0's set, then miss into it: the outcome names the
        // miss, and the coverage word also has the victim's eviction.
        a.start_told(read(8), Version::initial());
        a.net_told(grant(0, 8, 0, false)).unwrap();
        let fired = |a: &CacheAgent, name: &str| {
            let index = a.table().rules.iter().position(|r| r.name == name);
            a.fired() & (1 << index.expect("a rule of the table")) != 0
        };
        assert!(!fired(&a, "evict-clean"));
        let out = a.start_told(read(16), Version::initial());
        assert_eq!(out.rule, "read-miss");
        assert!(fired(&a, "evict-clean") && !fired(&a, "evict-dirty"));
        // A command the BIAS memory absorbs fires no rule at all.
        let mut b = wb();
        b.set_bias_entries(2);
        let inv = MemoryToCache::BroadInv {
            a: BlockAddr::new(3),
            exclude: CacheId::new(1),
        };
        assert_eq!(b.net_told(inv).unwrap().rule, "inv-while-missing");
        assert_eq!(b.net_told(inv).unwrap().rule, "");
    }

    #[test]
    fn an_undeclared_delivery_names_table_event_and_state_and_changes_nothing() {
        // A write-through cache never asks for an upgrade: its table
        // declares no reply to one.
        let mut a = agent(AgentPolicy::WriteThrough);
        a.start_told(read(1), Version::initial());
        let before = a.save_state().to_json();
        let err = a
            .net_told(MemoryToCache::MGranted {
                k: CacheId::new(0),
                a: BlockAddr::new(1),
                granted: false,
            })
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "unexpected command MGRANTED(C0, blk:0x1, no) in state C0 in await-read \
             (write-through: the table declares no upgrade-reply in await-read)"
        );
        assert_eq!(a.save_state().to_json(), before);
        assert_eq!(a.fired().count_ones(), 1, "only the read miss ran");
    }

    #[test]
    fn restore_refuses_a_line_the_table_declares_no_reference_in() {
        let mut yen_fu = agent(AgentPolicy::WriteBack {
            use_exclusive: true,
        });
        yen_fu.start_told(read(1), Version::initial());
        yen_fu.net_told(grant(0, 1, 0, true)).unwrap();
        let checkpoint = yen_fu.save_state();
        // Plain write-back never fills Exclusive and says nothing about
        // such a line; `start` could only panic on it.
        let err = wb().restore_state(&checkpoint).unwrap_err();
        assert_eq!(
            err,
            "checkpoint holds blk:0x1 exclusive, a state the write-back table does not declare"
        );
        let mut same = agent(AgentPolicy::WriteBack {
            use_exclusive: true,
        });
        same.restore_state(&checkpoint).unwrap();
        assert!(same
            .start_told(write(1), Version::new(2))
            .completed
            .is_some());
    }
}
