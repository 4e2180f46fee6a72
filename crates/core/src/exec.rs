//! The functional (untimed) executor: runs a whole Figure 3-1 system of
//! cache agents and memory controllers by processing every message to
//! quiescence before the next processor reference.
//!
//! This gives the protocols their *reference semantics*: each memory
//! reference is atomic at system level, so "the most recently written
//! value" is unambiguous and the [`Oracle`] can check coherence exactly.
//! It is also fast (no event queue), which makes it the engine behind the
//! property-based protocol tests. The timed simulator (`twobit-sim`)
//! drives the very same agents and controllers with latencies and
//! interleaving.

use crate::agent::{AgentPolicy, CacheAgent, Completion};
use crate::blockmap::BlockMap;
use crate::cache_table::CacheTable;
use crate::controller::{Controller, CtrlEmit, Observer};
use crate::directory::Directory;
use crate::invariants;
use crate::transitions::Program;
use crate::{classical, full_map, full_map_local, tlb, two_bit};
use twobit_types::{
    AccessKind, BlockAddr, CacheId, CacheToMemory, ConfigError, MemRef, MemoryToCache,
    ProtocolError, ProtocolKind, SystemConfig, SystemStats, Version,
};

/// Tracks the globally most recent write to every block and validates
/// every read against it — the section 1 coherence definition made
/// executable.
#[derive(Debug, Default)]
pub struct Oracle {
    expected: BlockMap<Version>,
    next_version: u64,
}

impl Oracle {
    /// A fresh oracle over an all-initial memory.
    #[must_use]
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Issues the version a new store will publish.
    pub fn fresh_version(&mut self) -> Version {
        self.next_version += 1;
        Version::new(self.next_version)
    }

    /// Records that a store of `version` to `a` has retired.
    pub fn record_write(&mut self, a: BlockAddr, version: Version) {
        self.expected.insert(a, version);
    }

    /// The version a coherent read of `a` must observe right now.
    #[must_use]
    pub fn expected(&self, a: BlockAddr) -> Version {
        self.expected
            .get(a)
            .copied()
            .unwrap_or_else(Version::initial)
    }

    /// Validates a retired load.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::StaleRead`] if the load observed anything
    /// but the most recently written version.
    pub fn check_read(
        &self,
        reader: CacheId,
        a: BlockAddr,
        observed: Version,
    ) -> Result<(), ProtocolError> {
        let expected = self.expected(a);
        if observed == expected {
            Ok(())
        } else {
            Err(ProtocolError::StaleRead {
                a,
                reader,
                observed: observed.raw(),
                expected: expected.raw(),
            })
        }
    }
}

/// Constructs the directory for a module under `config`: the scheme's
/// compiled table — the very one [`shipped_tables`](crate::shipped_tables)
/// lists — over the holder-identity store its deliveries call for. This
/// is the one place a scheme is chosen; the [`Directory`] never asks.
///
/// # Panics
///
/// Panics if `config` names a bus protocol — those are built by
/// `twobit-bus`, not the directory executor.
#[must_use]
pub fn build_protocol_for(config: &SystemConfig) -> Directory {
    let (program, buffer_entries) = program_for(config.protocol);
    Directory::new(program, config.caches, buffer_entries)
}

fn program_for(protocol: ProtocolKind) -> (&'static Program, usize) {
    match protocol {
        ProtocolKind::TwoBit => (two_bit::program(), 0),
        ProtocolKind::TwoBitTlb { entries } => (tlb::program(), entries as usize),
        ProtocolKind::FullMap => (full_map::program(), 0),
        ProtocolKind::FullMapLocal => (full_map_local::program(), 0),
        ProtocolKind::ClassicalWriteThrough => (classical::classical_program(), 0),
        ProtocolKind::StaticSoftware => (classical::null_program(), 0),
        ProtocolKind::WriteOnce | ProtocolKind::Illinois => {
            unreachable!("bus protocols are built by twobit-bus, not the directory executor")
        }
    }
}

/// The cache table the agents of the shipped scheme named `scheme` run —
/// the cache half that goes with that directory table, as
/// [`build_policy_for`] pairs them.
#[must_use]
pub fn cache_table_for(scheme: &str) -> Option<&'static CacheTable> {
    [
        ProtocolKind::TwoBit,
        ProtocolKind::TwoBitTlb { entries: 1 },
        ProtocolKind::FullMap,
        ProtocolKind::FullMapLocal,
        ProtocolKind::ClassicalWriteThrough,
        ProtocolKind::StaticSoftware,
    ]
    .into_iter()
    .find(|&protocol| program_for(protocol).0.table().scheme == scheme)
    .map(|protocol| build_policy_for(protocol, DEFAULT_STATIC_SHARED_FROM).table())
}

/// The cache policy matching a directory protocol.
///
/// `static_shared_from` is the public-block threshold used when the
/// protocol is the static software scheme.
///
/// # Panics
///
/// Panics if `protocol` is a bus protocol.
pub fn build_policy_for(protocol: ProtocolKind, static_shared_from: u64) -> AgentPolicy {
    match protocol {
        ProtocolKind::TwoBit | ProtocolKind::TwoBitTlb { .. } | ProtocolKind::FullMap => {
            AgentPolicy::WriteBack {
                use_exclusive: false,
            }
        }
        ProtocolKind::FullMapLocal => AgentPolicy::WriteBack {
            use_exclusive: true,
        },
        ProtocolKind::ClassicalWriteThrough => AgentPolicy::WriteThrough,
        ProtocolKind::StaticSoftware => AgentPolicy::Static {
            shared_from: static_shared_from,
        },
        ProtocolKind::WriteOnce | ProtocolKind::Illinois => {
            unreachable!("bus protocols are built by twobit-bus")
        }
    }
}

/// Which rules of a scheme's two tables have fired — a bit per index
/// into the directory table's and the cache table's `rules` — across
/// whatever agents and controllers it was gathered from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fired {
    /// Rules of the scheme's directory table.
    pub memory: u64,
    /// Rules of its cache table.
    pub cache: u64,
}

impl Fired {
    /// What these components have fired so far.
    #[must_use]
    pub fn of(agents: &[CacheAgent], controllers: &[Controller]) -> Fired {
        Fired {
            memory: controllers
                .iter()
                .fold(0, |bits, c| bits | c.protocol().fired()),
            cache: agents.iter().fold(0, |bits, a| bits | a.fired()),
        }
    }

    /// Adds what `other` saw fire.
    pub fn merge(&mut self, other: Fired) {
        self.memory |= other.memory;
        self.cache |= other.cache;
    }
}

/// A complete directory-based multiprocessor executed functionally.
#[derive(Debug)]
pub struct FunctionalSystem {
    config: SystemConfig,
    agents: Vec<CacheAgent>,
    controllers: Vec<Controller>,
    oracle: Oracle,
    check_invariants: bool,
    references: u64,
    /// The messages of the reference being executed, each queue consumed
    /// from the front by a cursor, and what one controller command
    /// emitted before broadcasts fan out. Kept between references, so
    /// executing one allocates nothing once they have grown.
    to_memory: Vec<CacheToMemory>,
    to_caches: Vec<(CacheId, MemoryToCache)>,
    emits: Vec<CtrlEmit>,
}

impl FunctionalSystem {
    /// Builds a system per `config`. For the static software scheme,
    /// blocks numbered `>= static_shared_from` are treated as public.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid or names a
    /// bus protocol (those live in `twobit-bus`).
    pub fn new(config: SystemConfig) -> Result<Self, ConfigError> {
        Self::with_static_threshold(config, DEFAULT_STATIC_SHARED_FROM)
    }

    /// Like [`FunctionalSystem::new`] with an explicit public-block
    /// threshold for the static scheme.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid or names a
    /// bus protocol.
    pub fn with_static_threshold(
        config: SystemConfig,
        static_shared_from: u64,
    ) -> Result<Self, ConfigError> {
        Self::with_directory(config, static_shared_from, build_protocol_for)
    }

    /// Like [`FunctionalSystem::with_static_threshold`], with every module
    /// running a copy of the directory `build` returns for the validated
    /// configuration instead of the one `config.protocol` names — how a
    /// test executes a table that is not shipped. The cache policy is
    /// still `config.protocol`'s.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid or names a
    /// bus protocol.
    pub fn with_directory(
        config: SystemConfig,
        static_shared_from: u64,
        build: impl FnOnce(&SystemConfig) -> Directory,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        if config.protocol.is_bus_based() {
            return Err(ConfigError::new(
                "bus protocols are executed by twobit-bus::BusSystem, not FunctionalSystem",
            ));
        }
        let directory = build(&config);
        let policy = build_policy_for(config.protocol, static_shared_from);
        let agents = CacheId::all(config.caches)
            .map(|id| {
                let mut agent =
                    CacheAgent::new(id, config.cache, policy, config.duplicate_directory);
                agent.set_bias_entries(config.bias_entries);
                agent
            })
            .collect();
        let controllers = twobit_types::ModuleId::all(config.address_map.modules())
            .map(|m| {
                Controller::new(
                    m,
                    config.address_map,
                    directory.clone(),
                    config.caches,
                    config.concurrency,
                )
            })
            .collect();
        Ok(FunctionalSystem {
            config,
            agents,
            controllers,
            oracle: Oracle::new(),
            check_invariants: false,
            references: 0,
            to_memory: Vec::new(),
            to_caches: Vec::new(),
            emits: Vec::new(),
        })
    }

    /// Enables full-system invariant checking after every reference
    /// (slow; used by the test suites).
    pub fn set_check_invariants(&mut self, on: bool) {
        self.check_invariants = on;
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The cache agents (for inspection).
    #[must_use]
    pub fn agents(&self) -> &[CacheAgent] {
        &self.agents
    }

    /// The memory controllers (for inspection).
    #[must_use]
    pub fn controllers(&self) -> &[Controller] {
        &self.controllers
    }

    /// The coherence oracle.
    #[must_use]
    pub fn oracle(&self) -> &Oracle {
        &self.oracle
    }

    /// Executes one memory reference by cache `k` to completion,
    /// validating coherence as it retires.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] on any coherence violation or impossible
    /// protocol event — either indicates a protocol bug (or an injected
    /// fault).
    pub fn do_ref(&mut self, k: CacheId, op: MemRef) -> Result<Completion, ProtocolError> {
        let store_version = match op.kind {
            AccessKind::Write => self.oracle.fresh_version(),
            AccessKind::Read => Version::initial(),
        };
        self.to_memory.clear();
        self.to_caches.clear();
        let start = self.agents[k.index()].start(op, store_version, &mut self.to_memory);
        let mut retired = start.completed;
        let (mut next_command, mut next_delivery) = (0, 0);

        // Process to quiescence. Cache-bound deliveries drain first so
        // per-reference ordering matches the timed simulator's
        // (commands sent earlier arrive earlier).
        loop {
            if let Some(&(dst, msg)) = self.to_caches.get(next_delivery) {
                next_delivery += 1;
                let out = self.agents[dst.index()].on_network(msg, &mut self.to_memory)?;
                if let Some(c) = out.completed {
                    debug_assert!(retired.is_none(), "a reference retires exactly once");
                    retired = Some(c);
                }
                continue;
            }
            if let Some(&cmd) = self.to_memory.get(next_command) {
                next_command += 1;
                let module = self.config.address_map.module_of(cmd.block());
                self.emits.clear();
                self.controllers[module.index()].submit(cmd, Observer::none(), &mut self.emits)?;
                for emit in &self.emits {
                    match *emit {
                        CtrlEmit::Unicast { to, cmd, .. } => self.to_caches.push((to, cmd)),
                        CtrlEmit::Broadcast { cmd, exclude, .. } => {
                            self.to_caches.extend(
                                CacheId::all(self.config.caches)
                                    .filter(|&id| id != exclude)
                                    .map(|id| (id, cmd)),
                            );
                        }
                    }
                }
                continue;
            }
            break;
        }

        let completion = retired.ok_or_else(|| ProtocolError::UnexpectedCommand {
            state: format!("{k} quiescent"),
            command: format!("{op} never retired"),
        })?;

        match op.kind {
            AccessKind::Read => self
                .oracle
                .check_read(k, op.addr.block, completion.observed)?,
            AccessKind::Write => self.oracle.record_write(op.addr.block, completion.observed),
        }
        self.references += 1;

        for controller in &self.controllers {
            if controller.busy() {
                return Err(ProtocolError::UnexpectedCommand {
                    state: format!("{} busy at quiescence", controller.module()),
                    command: format!("after {op}"),
                });
            }
        }
        if self.check_invariants {
            invariants::check_system(&self.agents, &self.controllers, self.config.address_map)?;
        }
        Ok(completion)
    }

    /// Runs a sequence of (cache, reference) pairs.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ProtocolError`] encountered.
    pub fn run<I>(&mut self, refs: I) -> Result<(), ProtocolError>
    where
        I: IntoIterator<Item = (CacheId, MemRef)>,
    {
        for (k, op) in refs {
            self.do_ref(k, op)?;
        }
        Ok(())
    }

    /// Total references executed.
    #[must_use]
    pub fn references(&self) -> u64 {
        self.references
    }

    /// Which table rules the run has fired so far.
    #[must_use]
    pub fn fired(&self) -> Fired {
        Fired::of(&self.agents, &self.controllers)
    }

    /// The fixed reference stream `tests/transcript_digests.rs` pins the
    /// directories' decisions on and `verify_protocols` counts rule
    /// coverage over: a system of 4 caches × 2 modules with a 4-block
    /// cache under `protocol` (invariants on; blocks from 32 up public
    /// under the static scheme), and 4,000 seeded references to it — so
    /// clean and dirty ejects, recalls, upgrades, denied upgrades and
    /// translation-buffer evictions all occur.
    ///
    /// # Panics
    ///
    /// Panics if `protocol` is a bus protocol.
    pub fn transcript_stream(
        protocol: ProtocolKind,
    ) -> (FunctionalSystem, impl Iterator<Item = (CacheId, MemRef)>) {
        const SHARED_FROM: u64 = 32;
        let config = SystemConfig {
            address_map: twobit_types::AddressMap::interleaved(2),
            cache: twobit_types::CacheOrg::new(2, 2, 4).expect("valid 4-block cache"),
            ..SystemConfig::with_defaults(4)
        }
        .with_protocol(protocol);
        let mut sys = FunctionalSystem::with_static_threshold(config, SHARED_FROM).expect("valid");
        sys.set_check_invariants(true);
        let static_split = protocol == ProtocolKind::StaticSoftware;
        let mut x = 0x0dd0_15ea_5e5c_a1e5_u64;
        let refs = (0..4000).map(move |_| {
            // splitmix64
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let k = CacheId::new(((z >> 40) % 4) as usize);
            let block = if !static_split {
                (z >> 8) % 20
            } else if z & 1 == 0 {
                (k.index() as u64) * 8 + (z >> 8) % 8 // private to cache k
            } else {
                SHARED_FROM + (z >> 8) % 6 // public, never cached
            };
            let addr = twobit_types::WordAddr::new(block, 0);
            let op = if (z >> 20) % 5 < 2 {
                MemRef::write(addr)
            } else {
                MemRef::read(addr)
            };
            (k, op)
        });
        (sys, refs)
    }

    /// Collects statistics from every component.
    #[must_use]
    pub fn stats(&self) -> SystemStats {
        let mut stats = SystemStats::new(self.agents.len(), self.controllers.len());
        for (slot, agent) in stats.caches.iter_mut().zip(&self.agents) {
            *slot = *agent.stats();
        }
        for (slot, controller) in stats.controllers.iter_mut().zip(&self.controllers) {
            *slot = controller.stats();
        }
        stats
    }
}

/// Default first-public-block number for the static software scheme:
/// workloads in `twobit-workload` place shared blocks at and above this
/// address.
pub const DEFAULT_STATIC_SHARED_FROM: u64 = 1 << 32;

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::WordAddr;

    fn sys(n: usize, protocol: ProtocolKind) -> FunctionalSystem {
        let config = SystemConfig::with_defaults(n).with_protocol(protocol);
        let mut s = FunctionalSystem::new(config).unwrap();
        s.set_check_invariants(true);
        s
    }

    fn rd(b: u64) -> MemRef {
        MemRef::read(WordAddr::new(b, 0))
    }

    fn wr(b: u64) -> MemRef {
        MemRef::write(WordAddr::new(b, 0))
    }

    fn cid(n: usize) -> CacheId {
        CacheId::new(n)
    }

    const DIRECTORY_PROTOCOLS: [ProtocolKind; 4] = [
        ProtocolKind::TwoBit,
        ProtocolKind::TwoBitTlb { entries: 4 },
        ProtocolKind::FullMap,
        ProtocolKind::FullMapLocal,
    ];

    #[test]
    fn single_cache_read_write_read() {
        for protocol in DIRECTORY_PROTOCOLS {
            let mut s = sys(1, protocol);
            s.do_ref(cid(0), rd(1)).unwrap();
            s.do_ref(cid(0), wr(1)).unwrap();
            let c = s.do_ref(cid(0), rd(1)).unwrap();
            assert_eq!(
                c.observed,
                s.oracle().expected(BlockAddr::new(1)),
                "{protocol}"
            );
        }
    }

    #[test]
    fn producer_consumer_sees_fresh_data() {
        for protocol in DIRECTORY_PROTOCOLS {
            let mut s = sys(2, protocol);
            // C0 writes, C1 reads, repeatedly — the read-miss-on-PresentM
            // path every iteration.
            for _ in 0..10 {
                s.do_ref(cid(0), wr(7)).unwrap();
                let c = s.do_ref(cid(1), rd(7)).unwrap();
                assert_eq!(
                    c.observed,
                    s.oracle().expected(BlockAddr::new(7)),
                    "{protocol}"
                );
            }
        }
    }

    #[test]
    fn write_write_ping_pong() {
        for protocol in DIRECTORY_PROTOCOLS {
            let mut s = sys(2, protocol);
            for i in 0..10 {
                let writer = cid(i % 2);
                s.do_ref(writer, wr(3)).unwrap();
            }
            let c = s.do_ref(cid(0), rd(3)).unwrap();
            assert_eq!(c.observed.raw(), 10, "{protocol}: last of 10 writes");
        }
    }

    #[test]
    fn shared_readers_then_one_writer_invalidates_all() {
        for protocol in DIRECTORY_PROTOCOLS {
            let mut s = sys(4, protocol);
            for i in 0..4 {
                s.do_ref(cid(i), rd(5)).unwrap();
            }
            s.do_ref(cid(0), wr(5)).unwrap();
            for i in 1..4 {
                let c = s.do_ref(cid(i), rd(5)).unwrap();
                assert_eq!(
                    c.observed.raw(),
                    1,
                    "{protocol}: reader {i} must see the write"
                );
            }
        }
    }

    #[test]
    fn two_bit_broadcasts_where_full_map_unicasts() {
        let mut two_bit = sys(8, ProtocolKind::TwoBit);
        let mut full_map = sys(8, ProtocolKind::FullMap);
        // Two readers then a third-party write: invalidation event.
        for s in [&mut two_bit, &mut full_map] {
            s.do_ref(cid(0), rd(9)).unwrap();
            s.do_ref(cid(1), rd(9)).unwrap();
            s.do_ref(cid(2), wr(9)).unwrap();
        }
        let tb = two_bit.stats();
        let fm = full_map.stats();
        let tb_received: u64 = tb.caches.iter().map(|c| c.commands_received.get()).sum();
        let fm_received: u64 = fm.caches.iter().map(|c| c.commands_received.get()).sum();
        assert_eq!(fm_received, 2, "full map touches exactly the two holders");
        assert_eq!(tb_received, 7, "two-bit touches all n-1 others");
        let tb_useless: u64 = tb.caches.iter().map(|c| c.useless_commands.get()).sum();
        assert_eq!(
            tb_useless, 5,
            "n-2 minus the one useful... 7 delivered, 2 useful"
        );
    }

    #[test]
    fn classical_write_through_broadcasts_every_store() {
        let config = SystemConfig {
            address_map: twobit_types::AddressMap::interleaved(1),
            ..SystemConfig::with_defaults(4)
        }
        .with_protocol(ProtocolKind::ClassicalWriteThrough);
        let mut s = FunctionalSystem::new(config).unwrap();
        s.set_check_invariants(true);
        s.do_ref(cid(0), rd(1)).unwrap();
        s.do_ref(cid(1), rd(1)).unwrap();
        for _ in 0..5 {
            s.do_ref(cid(2), wr(2)).unwrap(); // unrelated block: still broadcast
        }
        let stats = s.stats();
        let broadcasts: u64 = stats
            .controllers
            .iter()
            .map(|c| c.broadcasts_sent.get())
            .sum();
        assert_eq!(
            broadcasts, 5,
            "every store broadcasts under the classical scheme"
        );
        // And a racing reader still sees fresh data.
        s.do_ref(cid(0), wr(1)).unwrap();
        let c = s.do_ref(cid(1), rd(1)).unwrap();
        assert_eq!(c.observed, s.oracle().expected(BlockAddr::new(1)));
    }

    #[test]
    fn static_scheme_keeps_public_data_in_memory() {
        let config = SystemConfig::with_defaults(4).with_protocol(ProtocolKind::StaticSoftware);
        let mut s = FunctionalSystem::with_static_threshold(config, 1000).unwrap();
        s.set_check_invariants(true);
        // Public block 1000: every access goes to memory, always coherent.
        s.do_ref(cid(0), wr(1000)).unwrap();
        let c = s.do_ref(cid(1), rd(1000)).unwrap();
        assert_eq!(c.observed.raw(), 1);
        // Private blocks cache normally (per-CPU distinct).
        s.do_ref(cid(0), wr(1)).unwrap();
        s.do_ref(cid(0), rd(1)).unwrap();
        let stats = s.stats();
        assert_eq!(stats.caches[cid(0).index()].read_hits.get(), 1);
        let broadcasts: u64 = stats
            .controllers
            .iter()
            .map(|c| c.broadcasts_sent.get())
            .sum();
        assert_eq!(broadcasts, 0, "no coherence traffic at all");
    }

    #[test]
    fn mrequest_race_resolves_one_winner() {
        // The paper's 3.2.5 example seen end-to-end: two holders both
        // upgrade. Functionally serialized, the second sees the
        // invalidation and retries as a write miss; both stores land.
        for protocol in DIRECTORY_PROTOCOLS {
            let mut s = sys(2, protocol);
            s.do_ref(cid(0), rd(4)).unwrap();
            s.do_ref(cid(1), rd(4)).unwrap();
            s.do_ref(cid(0), wr(4)).unwrap();
            s.do_ref(cid(1), wr(4)).unwrap();
            let c = s.do_ref(cid(0), rd(4)).unwrap();
            assert_eq!(c.observed.raw(), 2, "{protocol}: both writes serialized");
        }
    }

    #[test]
    fn capacity_evictions_write_back_correctly() {
        for protocol in DIRECTORY_PROTOCOLS {
            let config = SystemConfig {
                cache: twobit_types::CacheOrg::new(2, 1, 4).unwrap(), // tiny: 2 blocks
                ..SystemConfig::with_defaults(2)
            }
            .with_protocol(protocol);
            let mut s = FunctionalSystem::new(config).unwrap();
            s.set_check_invariants(true);
            // Dirty many conflicting blocks on C0, then read them from C1.
            for b in 0..8u64 {
                s.do_ref(cid(0), wr(b)).unwrap();
            }
            for b in 0..8u64 {
                let c = s.do_ref(cid(1), rd(b)).unwrap();
                assert_eq!(
                    c.observed,
                    s.oracle().expected(BlockAddr::new(b)),
                    "{protocol}: block {b} after eviction churn"
                );
            }
        }
    }

    #[test]
    fn full_map_local_skips_mrequest_for_sole_owner() {
        let mut with_local = sys(2, ProtocolKind::FullMapLocal);
        let mut without = sys(2, ProtocolKind::FullMap);
        for s in [&mut with_local, &mut without] {
            s.do_ref(cid(0), rd(6)).unwrap();
            s.do_ref(cid(0), wr(6)).unwrap();
        }
        assert_eq!(
            with_local.stats().controllers[0].mrequests.get()
                + with_local.stats().controllers[1].mrequests.get(),
            0,
            "exclusive fill upgrades silently"
        );
        let fm_mreqs: u64 = without
            .stats()
            .controllers
            .iter()
            .map(|c| c.mrequests.get())
            .sum();
        assert_eq!(fm_mreqs, 1, "plain full map pays the MREQUEST");
    }

    #[test]
    fn oracle_rejects_fabricated_stale_read() {
        let oracle = {
            let mut o = Oracle::new();
            let v = o.fresh_version();
            o.record_write(BlockAddr::new(1), v);
            o
        };
        let err = oracle
            .check_read(cid(0), BlockAddr::new(1), Version::initial())
            .unwrap_err();
        assert!(matches!(err, ProtocolError::StaleRead { .. }));
    }

    #[test]
    fn bus_protocols_are_rejected() {
        let config = SystemConfig {
            address_map: twobit_types::AddressMap::interleaved(1),
            ..SystemConfig::with_defaults(2)
        }
        .with_protocol(ProtocolKind::Illinois);
        assert!(FunctionalSystem::new(config).is_err());
    }
}
