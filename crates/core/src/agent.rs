//! The cache controller attached to each processor (`C_k`): classifies
//! processor references, runs the replacement protocol of section 3.2.1,
//! and services the coherence commands that arrive from memory
//! controllers.
//!
//! One agent type serves every scheme; an [`AgentPolicy`] selects the
//! cache discipline:
//!
//! * [`AgentPolicy::WriteBack`] — the paper's write-back caches
//!   (two-bit, full-map, full-map+tlb). With `use_exclusive`, fills may
//!   enter the Yen–Fu [`LocalState::Exclusive`] state and writes to it
//!   upgrade silently.
//! * [`AgentPolicy::WriteThrough`] — the classical scheme: stores update
//!   the local copy (if any) and post a `WRITETHRU` to memory,
//!   fire-and-forget; no allocation on store misses; no dirty lines ever.
//! * [`AgentPolicy::Static`] — the software scheme: blocks at or above
//!   `shared_from` are public and never cached (`DIRECTREAD`/`WRITETHRU`);
//!   blocks below are private, write-back cached, and written without any
//!   coherence transaction.
//!
//! The agent holds at most one outstanding processor reference
//! (a blocking cache, as 1984 designs were) but keeps servicing network
//! commands while stalled — that interleaving is where the section 3.2.5
//! races live, and the tests here reproduce them.

use crate::local::LocalState;
use std::fmt;
use twobit_cache::Cache;
use twobit_cache::LineMeta as _;
use twobit_obs::json::{obj, FromJson, Json, Sink, ToJson};
use twobit_obs::json_enum;
use twobit_types::{
    AccessKind, BlockAddr, CacheId, CacheOrg, CacheStats, CacheToMemory, Fingerprinter, MemRef,
    MemoryToCache, ProtocolError, Version, WritebackKind,
};

/// The cache discipline an agent runs (see module docs).
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

/// Why the agent is stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PendingKind {
    ReadMiss,
    WriteMiss,
    Modify,
    DirectRead,
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
    fn from_json(j: &Json) -> Result<Self, String> {
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

/// Result of presenting a processor reference to the cache.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StartOutcome {
    /// Set when the reference retired immediately (hit or fire-and-forget
    /// store); otherwise the agent is stalled until a network reply.
    pub completed: Option<Completion>,
    /// Commands to send to memory controllers.
    pub sends: Vec<CacheToMemory>,
}

/// Result of delivering a network command to the cache.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetOutcome {
    /// Responses to send to memory controllers.
    pub sends: Vec<CacheToMemory>,
    /// Set when the delivery retired the stalled reference.
    pub completed: Option<Completion>,
    /// Whether the delivery was a coherence command that consumed a cache
    /// directory cycle (for stolen-cycle accounting).
    pub counted: bool,
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

/// The per-processor cache controller.
#[derive(Clone)]
pub struct CacheAgent {
    id: CacheId,
    cache: Cache<LocalState>,
    policy: AgentPolicy,
    duplicate_directory: bool,
    bias: BiasFilter,
    pending: Option<Pending>,
    stats: CacheStats,
}

impl fmt::Debug for CacheAgent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CacheAgent")
            .field("id", &self.id)
            .field("policy", &self.policy)
            .field("pending", &self.pending)
            .field("occupancy", &self.cache.occupancy())
            .finish()
    }
}

impl CacheAgent {
    /// Creates an agent with an empty cache.
    #[must_use]
    pub fn new(id: CacheId, org: CacheOrg, policy: AgentPolicy, duplicate_directory: bool) -> Self {
        CacheAgent {
            id,
            cache: Cache::new(org),
            policy,
            duplicate_directory,
            bias: BiasFilter::new(0),
            pending: None,
            stats: CacheStats::default(),
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

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable statistics (the timed simulator adds timing-derived
    /// counters).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// `true` while a reference is outstanding.
    #[must_use]
    pub fn is_stalled(&self) -> bool {
        self.pending.is_some()
    }

    /// Feeds this agent's complete future-relevant state into `fp` for
    /// the model checker's visited-set: tag store (replacement stamps
    /// rank-reduced, see [`Cache::canonical_sets`]), BIAS filter, and the
    /// outstanding reference. Statistics counters never influence
    /// behavior and are excluded, as are the per-run constants (`policy`
    /// is still included: it is cheap and guards against cross-config
    /// fingerprint reuse).
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_usize(self.id.index());
        match self.policy {
            AgentPolicy::WriteBack { use_exclusive } => {
                fp.write_tag(0);
                fp.write_bool(use_exclusive);
            }
            AgentPolicy::WriteThrough => fp.write_tag(1),
            AgentPolicy::Static { shared_from } => {
                fp.write_tag(2);
                fp.write_u64(shared_from);
            }
        }
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
    /// cache id, or its tag-store snapshot does not fit this agent's
    /// cache organization. On error `self` is left unchanged.
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

    /// Presents a processor reference. For stores, `store_version` is the
    /// fresh version this store will publish.
    ///
    /// # Panics
    ///
    /// Panics if a reference is already outstanding (the processor is
    /// blocked until the previous one retires).
    pub fn start(&mut self, op: MemRef, store_version: Version) -> StartOutcome {
        assert!(
            self.pending.is_none(),
            "{}: reference issued while stalled",
            self.id
        );
        match op.kind {
            AccessKind::Read => self.stats.reads.inc(),
            AccessKind::Write => self.stats.writes.inc(),
        }
        match self.policy {
            AgentPolicy::WriteBack { .. } => self.start_write_back(op, store_version, false),
            AgentPolicy::WriteThrough => self.start_write_through(op, store_version),
            AgentPolicy::Static { shared_from } => {
                if op.addr.block.number() >= shared_from {
                    self.start_static_public(op, store_version)
                } else {
                    // Private data: write-back, silent clean→dirty upgrade.
                    self.start_write_back(op, store_version, true)
                }
            }
        }
    }

    fn start_write_back(
        &mut self,
        op: MemRef,
        store_version: Version,
        silent_upgrade: bool,
    ) -> StartOutcome {
        let a = op.addr.block;
        let state = self.cache.state_of(a);
        match (op.kind, state) {
            (AccessKind::Read, s) if s.is_valid() => {
                self.cache.touch(a);
                self.stats.read_hits.inc();
                let observed = self.cache.version_of(a).expect("valid line has a version");
                StartOutcome {
                    completed: Some(Completion {
                        op,
                        observed,
                        was_hit: true,
                    }),
                    sends: Vec::new(),
                }
            }
            (AccessKind::Read, _) => {
                self.stats.read_misses.inc();
                let mut sends = self.make_room(a);
                sends.push(CacheToMemory::Request {
                    k: self.id,
                    a,
                    rw: AccessKind::Read,
                });
                self.pending = Some(Pending {
                    a,
                    kind: PendingKind::ReadMiss,
                    op,
                    store_version: None,
                });
                StartOutcome {
                    completed: None,
                    sends,
                }
            }
            (AccessKind::Write, LocalState::Dirty | LocalState::Exclusive) => {
                self.cache.touch(a);
                self.cache.set_state(a, LocalState::Dirty);
                self.cache.set_version(a, store_version);
                self.stats.write_hits_dirty.inc();
                StartOutcome {
                    completed: Some(Completion {
                        op,
                        observed: store_version,
                        was_hit: true,
                    }),
                    sends: Vec::new(),
                }
            }
            (AccessKind::Write, LocalState::Shared) if silent_upgrade => {
                // Static-scheme private data: no one else can hold it.
                self.cache.touch(a);
                self.cache.set_state(a, LocalState::Dirty);
                self.cache.set_version(a, store_version);
                self.stats.write_hits_dirty.inc();
                StartOutcome {
                    completed: Some(Completion {
                        op,
                        observed: store_version,
                        was_hit: true,
                    }),
                    sends: Vec::new(),
                }
            }
            (AccessKind::Write, LocalState::Shared) => {
                // Write hit on a previously unmodified block: MREQUEST
                // (section 3.2.4).
                self.cache.touch(a);
                self.stats.write_hits_clean.inc();
                self.pending = Some(Pending {
                    a,
                    kind: PendingKind::Modify,
                    op,
                    store_version: Some(store_version),
                });
                StartOutcome {
                    completed: None,
                    sends: vec![CacheToMemory::MRequest {
                        k: self.id,
                        a,
                        version: self.cache.version_of(a).expect("clean hit has a version"),
                    }],
                }
            }
            (AccessKind::Write, LocalState::Invalid) => {
                self.stats.write_misses.inc();
                let mut sends = self.make_room(a);
                sends.push(CacheToMemory::Request {
                    k: self.id,
                    a,
                    rw: AccessKind::Write,
                });
                self.pending = Some(Pending {
                    a,
                    kind: PendingKind::WriteMiss,
                    op,
                    store_version: Some(store_version),
                });
                StartOutcome {
                    completed: None,
                    sends,
                }
            }
        }
    }

    fn start_write_through(&mut self, op: MemRef, store_version: Version) -> StartOutcome {
        let a = op.addr.block;
        match op.kind {
            AccessKind::Read => {
                if self.cache.contains(a) {
                    self.cache.touch(a);
                    self.stats.read_hits.inc();
                    let observed = self.cache.version_of(a).expect("valid line has a version");
                    StartOutcome {
                        completed: Some(Completion {
                            op,
                            observed,
                            was_hit: true,
                        }),
                        sends: Vec::new(),
                    }
                } else {
                    self.stats.read_misses.inc();
                    let sends = self.make_room(a); // silent clean evictions
                    debug_assert!(sends.is_empty(), "write-through evictions are silent");
                    self.pending = Some(Pending {
                        a,
                        kind: PendingKind::ReadMiss,
                        op,
                        store_version: None,
                    });
                    StartOutcome {
                        completed: None,
                        sends: vec![CacheToMemory::Request {
                            k: self.id,
                            a,
                            rw: AccessKind::Read,
                        }],
                    }
                }
            }
            AccessKind::Write => {
                // Update the local copy (if present) and post through to
                // memory; no allocation on miss, no stall.
                let hit = self.cache.contains(a);
                if hit {
                    self.cache.touch(a);
                    self.cache.set_version(a, store_version);
                    self.stats.write_hits_dirty.inc();
                } else {
                    self.stats.write_misses.inc();
                }
                StartOutcome {
                    completed: Some(Completion {
                        op,
                        observed: store_version,
                        was_hit: hit,
                    }),
                    sends: vec![CacheToMemory::WriteThrough {
                        k: self.id,
                        a,
                        version: store_version,
                    }],
                }
            }
        }
    }

    /// Whether `a` is resident, for debug assertions: unlike
    /// `Cache::contains` it counts no tag probe, so the `tag_probes`
    /// statistic is the same in every build profile.
    fn resident_uncounted(&self, a: BlockAddr) -> bool {
        self.cache.valid_lines().any(|line| line.addr == a)
    }

    fn start_static_public(&mut self, op: MemRef, store_version: Version) -> StartOutcome {
        let a = op.addr.block;
        debug_assert!(
            !self.resident_uncounted(a),
            "public blocks are never cached"
        );
        match op.kind {
            AccessKind::Read => {
                self.stats.read_misses.inc();
                self.pending = Some(Pending {
                    a,
                    kind: PendingKind::DirectRead,
                    op,
                    store_version: None,
                });
                StartOutcome {
                    completed: None,
                    sends: vec![CacheToMemory::DirectRead { k: self.id, a }],
                }
            }
            AccessKind::Write => {
                self.stats.write_misses.inc();
                StartOutcome {
                    completed: Some(Completion {
                        op,
                        observed: store_version,
                        was_hit: false,
                    }),
                    sends: vec![CacheToMemory::WriteThrough {
                        k: self.id,
                        a,
                        version: store_version,
                    }],
                }
            }
        }
    }

    /// Runs the replacement protocol of section 3.2.1 for an incoming
    /// block `a`: picks a victim if `a`'s set is full, invalidates it, and
    /// emits the appropriate `EJECT` (plus `put` for dirty victims).
    fn make_room(&mut self, a: BlockAddr) -> Vec<CacheToMemory> {
        let Some(victim) = self.cache.peek_victim(a) else {
            return Vec::new();
        };
        let (va, vstate, vversion) = (victim.addr, victim.state, victim.version);
        self.cache.invalidate(va);
        match vstate {
            LocalState::Dirty => {
                self.stats.evictions_dirty.inc();
                vec![
                    CacheToMemory::Eject {
                        k: self.id,
                        olda: va,
                        wb: WritebackKind::Dirty,
                    },
                    CacheToMemory::PutData {
                        from: self.id,
                        a: va,
                        version: vversion,
                    },
                ]
            }
            LocalState::Shared | LocalState::Exclusive => {
                self.stats.evictions_clean.inc();
                match self.policy {
                    // Write-through and static caches have no directory
                    // state to maintain for clean lines: silent.
                    AgentPolicy::WriteThrough => Vec::new(),
                    AgentPolicy::Static { .. } => Vec::new(),
                    AgentPolicy::WriteBack { .. } => {
                        vec![CacheToMemory::Eject {
                            k: self.id,
                            olda: va,
                            wb: WritebackKind::Clean,
                        }]
                    }
                }
            }
            LocalState::Invalid => unreachable!("victims are valid lines"),
        }
    }

    /// Delivers a network command.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] for deliveries that are impossible under
    /// a correct protocol (e.g. a data grant with no pending miss).
    pub fn on_network(&mut self, msg: MemoryToCache) -> Result<NetOutcome, ProtocolError> {
        match msg {
            MemoryToCache::GetData {
                k,
                a,
                version,
                exclusive,
            } => {
                debug_assert_eq!(k, self.id, "misrouted grant");
                self.handle_grant(a, version, exclusive)
            }
            MemoryToCache::MGranted { k, a, granted } => {
                debug_assert_eq!(k, self.id, "misrouted MGRANTED");
                Ok(self.handle_mgranted(a, granted))
            }
            MemoryToCache::BroadInv { a, exclude } => {
                debug_assert_ne!(exclude, self.id, "BROADINV delivered to its initiator");
                Ok(self.handle_invalidate(a))
            }
            MemoryToCache::Inv { a, to } => {
                debug_assert_eq!(to, self.id, "misrouted INV");
                Ok(self.handle_invalidate(a))
            }
            MemoryToCache::BroadQuery { a, rw } => Ok(self.handle_query(a, rw)),
            MemoryToCache::Purge { a, to, rw } => {
                debug_assert_eq!(to, self.id, "misrouted PURGE");
                Ok(self.handle_query(a, rw))
            }
        }
    }

    fn handle_grant(
        &mut self,
        a: BlockAddr,
        version: Version,
        exclusive: bool,
    ) -> Result<NetOutcome, ProtocolError> {
        let pending = self
            .pending
            .take()
            .ok_or_else(|| ProtocolError::UnexpectedCommand {
                state: format!("{} idle", self.id),
                command: format!("get({a})"),
            })?;
        if pending.a != a {
            return Err(ProtocolError::UnexpectedCommand {
                state: format!("{} awaiting {}", self.id, pending.a),
                command: format!("get({a})"),
            });
        }
        // The block is becoming resident again: it must leave the BIAS
        // filter so future invalidations search the directory.
        self.bias.remove(a);
        let completion = match pending.kind {
            PendingKind::ReadMiss => {
                let use_exclusive = matches!(
                    self.policy,
                    AgentPolicy::WriteBack {
                        use_exclusive: true
                    }
                );
                let state = if exclusive && use_exclusive {
                    LocalState::Exclusive
                } else {
                    LocalState::Shared
                };
                self.cache.insert(a, state, version);
                Completion {
                    op: pending.op,
                    observed: version,
                    was_hit: false,
                }
            }
            PendingKind::WriteMiss => {
                let store_version = pending
                    .store_version
                    .expect("write miss carries its store version");
                self.cache.insert(a, LocalState::Dirty, store_version);
                Completion {
                    op: pending.op,
                    observed: store_version,
                    was_hit: false,
                }
            }
            PendingKind::DirectRead => {
                // Public block: consumed, never cached.
                Completion {
                    op: pending.op,
                    observed: version,
                    was_hit: false,
                }
            }
            PendingKind::Modify => {
                return Err(ProtocolError::UnexpectedCommand {
                    state: format!("{} awaiting MGRANTED for {a}", self.id),
                    command: format!("get({a})"),
                });
            }
        };
        Ok(NetOutcome {
            sends: Vec::new(),
            completed: Some(completion),
            counted: false,
        })
    }

    fn handle_mgranted(&mut self, a: BlockAddr, granted: bool) -> NetOutcome {
        match self.pending {
            Some(Pending {
                a: pa,
                kind: PendingKind::Modify,
                op,
                store_version,
            }) if pa == a => {
                if granted {
                    let version = store_version.expect("modify carries its store version");
                    debug_assert!(
                        self.resident_uncounted(a),
                        "granted modify but the line vanished"
                    );
                    self.cache.set_state(a, LocalState::Dirty);
                    self.cache.set_version(a, version);
                    self.pending = None;
                    NetOutcome {
                        completed: Some(Completion {
                            op,
                            observed: version,
                            was_hit: true,
                        }),
                        ..NetOutcome::default()
                    }
                } else {
                    // Denied: our copy is gone (the invalidate ordered
                    // before this reply). Retry as a write miss.
                    debug_assert!(
                        !self.resident_uncounted(a),
                        "denied modify but line survives"
                    );
                    self.pending = Some(Pending {
                        a,
                        kind: PendingKind::WriteMiss,
                        op,
                        store_version,
                    });
                    let mut sends = self.make_room(a);
                    sends.push(CacheToMemory::Request {
                        k: self.id,
                        a,
                        rw: AccessKind::Write,
                    });
                    NetOutcome {
                        sends,
                        ..NetOutcome::default()
                    }
                }
            }
            // Stale reply: we already converted on the invalidate.
            _ => NetOutcome::default(),
        }
    }

    fn handle_invalidate(&mut self, a: BlockAddr) -> NetOutcome {
        // BIAS filter: a repeated invalidation for a block already known
        // absent is absorbed without a directory search or stolen cycle.
        if self.bias.contains(a) {
            debug_assert!(
                !self.resident_uncounted(a),
                "BIAS entry for a resident block"
            );
            self.stats.commands_received.inc();
            self.stats.useless_commands.inc();
            self.stats.bias_filtered.inc();
            return NetOutcome {
                counted: true,
                ..NetOutcome::default()
            };
        }
        let matched = self.cache.contains(a);
        self.record_command(matched);
        let mut out = NetOutcome {
            counted: true,
            ..NetOutcome::default()
        };
        if matched {
            self.cache.invalidate(a);
            self.stats.invalidated_lines.inc();
            self.stats.effective_commands.inc();
        }
        self.bias.insert(a);
        // Pending MREQUEST on this block: the invalidate doubles as
        // MGRANTED(false) (section 3.2.5).
        if let Some(Pending {
            a: pa,
            kind: PendingKind::Modify,
            op,
            store_version,
        }) = self.pending
        {
            if pa == a {
                self.pending = Some(Pending {
                    a,
                    kind: PendingKind::WriteMiss,
                    op,
                    store_version,
                });
                out.sends.extend(self.make_room(a));
                out.sends.push(CacheToMemory::Request {
                    k: self.id,
                    a,
                    rw: AccessKind::Write,
                });
            }
        }
        out
    }

    fn handle_query(&mut self, a: BlockAddr, rw: AccessKind) -> NetOutcome {
        let state = self.cache.state_of(a);
        let matched = state.is_valid();
        self.record_command(matched);
        let mut out = NetOutcome {
            counted: true,
            ..NetOutcome::default()
        };
        match state {
            LocalState::Dirty | LocalState::Exclusive => {
                let version = self.cache.version_of(a).expect("valid line has a version");
                out.sends.push(CacheToMemory::PutData {
                    from: self.id,
                    a,
                    version,
                });
                self.stats.blocks_supplied.inc();
                self.stats.effective_commands.inc();
                match rw {
                    AccessKind::Read => {
                        // Reset the modified bit, keep a read-only copy.
                        self.cache.set_state(a, LocalState::Shared);
                    }
                    AccessKind::Write => {
                        // Reset the valid bit.
                        self.cache.invalidate(a);
                        self.stats.invalidated_lines.inc();
                    }
                }
            }
            LocalState::Shared | LocalState::Invalid => {
                // Not the owner: a two-bit BROADQUERY probes everyone and
                // most probes find nothing — the scheme's cost. (A clean
                // line can legitimately coexist with an in-flight query
                // only transiently; it owes no data.)
            }
        }
        out
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
        let out = a.start(read(1), Version::initial());
        assert!(out.completed.is_none());
        assert!(matches!(
            out.sends[0],
            CacheToMemory::Request {
                rw: AccessKind::Read,
                ..
            }
        ));
        assert!(a.is_stalled());

        let out = a.on_network(grant(0, 1, 3, false)).unwrap();
        let c = out.completed.unwrap();
        assert_eq!(c.observed, Version::new(3));
        assert!(!a.is_stalled());

        let out = a.start(read(1), Version::initial());
        let c = out.completed.unwrap();
        assert!(c.was_hit);
        assert_eq!(c.observed, Version::new(3));
        assert_eq!(a.stats().read_hits.get(), 1);
        assert_eq!(a.stats().read_misses.get(), 1);
    }

    #[test]
    fn write_miss_fills_dirty_with_store_version() {
        let mut a = wb();
        let out = a.start(write(2), Version::new(10));
        assert!(matches!(
            out.sends[0],
            CacheToMemory::Request {
                rw: AccessKind::Write,
                ..
            }
        ));
        let out = a.on_network(grant(0, 2, 4, true)).unwrap();
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
        a.start(read(3), Version::initial());
        a.on_network(grant(0, 3, 0, false)).unwrap();

        let out = a.start(write(3), Version::new(5));
        assert!(out.completed.is_none());
        assert!(matches!(out.sends[0], CacheToMemory::MRequest { .. }));
        assert_eq!(a.stats().write_hits_clean.get(), 1);

        let out = a
            .on_network(MemoryToCache::MGranted {
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
        a.start(write(4), Version::new(1));
        a.on_network(grant(0, 4, 0, true)).unwrap();
        let out = a.start(write(4), Version::new(2));
        assert!(out.completed.is_some());
        assert!(out.sends.is_empty(), "dirty hit needs no directory trip");
        assert_eq!(a.stats().write_hits_dirty.get(), 1);
    }

    #[test]
    fn broadinv_invalidates_and_converts_pending_modify() {
        // Section 3.2.5: BROADINV doubles as MGRANTED(false).
        let mut a = wb();
        a.start(read(5), Version::initial());
        a.on_network(grant(0, 5, 0, false)).unwrap();
        a.start(write(5), Version::new(9)); // MREQUEST outstanding

        let out = a
            .on_network(MemoryToCache::BroadInv {
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
        let out = a.on_network(grant(0, 5, 3, true)).unwrap();
        assert_eq!(out.completed.unwrap().observed, Version::new(9));
    }

    #[test]
    fn stale_mgranted_after_conversion_is_dropped() {
        let mut a = wb();
        a.start(read(5), Version::initial());
        a.on_network(grant(0, 5, 0, false)).unwrap();
        a.start(write(5), Version::new(9));
        a.on_network(MemoryToCache::BroadInv {
            a: BlockAddr::new(5),
            exclude: CacheId::new(1),
        })
        .unwrap();
        // The controller had already replied false to the (now deleted)
        // MREQUEST; the reply arrives late.
        let out = a
            .on_network(MemoryToCache::MGranted {
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
        a.start(write(6), Version::new(4));
        a.on_network(grant(0, 6, 0, true)).unwrap();

        let out = a
            .on_network(MemoryToCache::BroadQuery {
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
        b.start(write(6), Version::new(4));
        b.on_network(grant(0, 6, 0, true)).unwrap();
        b.on_network(MemoryToCache::BroadQuery {
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
            .on_network(MemoryToCache::BroadQuery {
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
        a.on_network(MemoryToCache::BroadInv {
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
            a.start(read(b), Version::initial());
            a.on_network(grant(0, b, 0, false)).unwrap();
        }
        // Dirty one of them.
        a.start(write(0), Version::new(2));
        a.on_network(MemoryToCache::MGranted {
            k: CacheId::new(0),
            a: BlockAddr::new(0),
            granted: true,
        })
        .unwrap();
        // Touch block 8 so block 0 is LRU, then miss block 16.
        a.start(read(8), Version::initial());
        let out = a.start(read(16), Version::initial());
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
        a.start(read(1), Version::initial());
        a.on_network(grant(0, 1, 0, true)).unwrap();
        assert_eq!(a.cache().state_of(BlockAddr::new(1)), LocalState::Exclusive);
        let out = a.start(write(1), Version::new(6));
        assert!(out.completed.is_some());
        assert!(out.sends.is_empty(), "Yen-Fu's saved MREQUEST");
        assert_eq!(a.cache().state_of(BlockAddr::new(1)), LocalState::Dirty);
    }

    #[test]
    fn write_through_store_is_fire_and_forget() {
        let mut a = agent(AgentPolicy::WriteThrough);
        let out = a.start(write(1), Version::new(3));
        assert!(out.completed.is_some());
        assert!(matches!(out.sends[0], CacheToMemory::WriteThrough { .. }));
        assert!(!a.is_stalled());
        // The local copy (absent here) was not allocated.
        assert!(!a.cache().contains(BlockAddr::new(1)));
    }

    #[test]
    fn write_through_store_updates_resident_copy() {
        let mut a = agent(AgentPolicy::WriteThrough);
        a.start(read(1), Version::initial());
        a.on_network(grant(0, 1, 2, false)).unwrap();
        a.start(write(1), Version::new(7));
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
        let out = a.start(read(150), Version::initial());
        assert!(matches!(out.sends[0], CacheToMemory::DirectRead { .. }));
        let out = a.on_network(grant(0, 150, 9, false)).unwrap();
        assert_eq!(out.completed.unwrap().observed, Version::new(9));
        assert!(
            !a.cache().contains(BlockAddr::new(150)),
            "no fill for public data"
        );

        let out = a.start(write(150), Version::new(11));
        assert!(out.completed.is_some());
        assert!(matches!(out.sends[0], CacheToMemory::WriteThrough { .. }));
    }

    #[test]
    fn static_private_blocks_write_back_silently() {
        let mut a = agent(AgentPolicy::Static { shared_from: 100 });
        a.start(read(5), Version::initial());
        a.on_network(grant(0, 5, 0, false)).unwrap();
        let out = a.start(write(5), Version::new(2));
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
        a.on_network(MemoryToCache::BroadInv {
            a: BlockAddr::new(3),
            exclude: CacheId::new(1),
        })
        .unwrap();
        assert_eq!(a.stats().stolen_cycles.get(), 1);
        assert_eq!(a.stats().bias_filtered.get(), 0);
        // Repeats are filtered: counted as received but no cycle stolen.
        for _ in 0..3 {
            a.on_network(MemoryToCache::BroadInv {
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
        a.on_network(MemoryToCache::BroadInv {
            a: BlockAddr::new(3),
            exclude: CacheId::new(1),
        })
        .unwrap();
        // Refetch the block: the BIAS entry must go, so the next
        // invalidation really invalidates.
        a.start(read(3), Version::initial());
        a.on_network(grant(0, 3, 5, false)).unwrap();
        assert!(a.cache().contains(BlockAddr::new(3)));
        a.on_network(MemoryToCache::BroadInv {
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
            a.on_network(MemoryToCache::BroadInv {
                a: BlockAddr::new(b),
                exclude: CacheId::new(1),
            })
            .unwrap();
        }
        // Block 1 was pushed out by block 3; a repeat for it searches again.
        let stolen = a.stats().stolen_cycles.get();
        a.on_network(MemoryToCache::BroadInv {
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
        a.on_network(MemoryToCache::BroadInv {
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
        a.start(read(1), Version::initial());
        a.start(read(2), Version::initial());
    }

    #[test]
    fn unsolicited_grant_is_an_error() {
        let mut a = wb();
        let err = a.on_network(grant(0, 1, 0, false)).unwrap_err();
        assert!(matches!(err, ProtocolError::UnexpectedCommand { .. }));
    }
}
