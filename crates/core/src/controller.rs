//! The memory-module controller (`K_j`): executes its [`Directory`]'s
//! decisions and enforces the synchronization discipline of
//! section 3.2.5.
//!
//! The paper requires the controller to contain: the bit map (inside the
//! directory here), "a control unit (finite state automaton) to
//! implement the protocols", "a queue for temporary storing of requests
//! arriving while the current one is being serviced and logic to insert
//! and delete (anywhere) elements in the queue" — the *delete anywhere*
//! power is exactly what the MREQUEST-cancellation scenario of
//! section 3.2.5 needs, and it is implemented here verbatim: when a
//! `BROADINV(a, k)` goes out, queued `MREQUEST(j, a)` from other caches
//! are deleted (cache `j` treats the arriving `BROADINV` as
//! `MGRANTED(j, false)` and retries as a write miss).
//!
//! Two concurrency disciplines are supported
//! ([`ControllerConcurrency`]): whole-controller serialization
//! ("only one command at a time", which the paper calls too stringent)
//! and per-block serialization (the multiprogrammed controller).
//!
//! The controller also resolves the replacement/recall race the paper
//! leaves open: a dirty block's owner may eject it at the same moment the
//! controller queries for it. The write-back is then *in flight* when the
//! `BROADQUERY`/`PURGE` finds no owner; the controller accepts the
//! arriving write-back as the query's answer
//! ([`Directory::eject_satisfies_wait`]).

use crate::blockmap::{BlockMap, BlockSet};
use crate::directory::{DirSend, DirStep, Directory, OpenKind, SendCost};
use crate::memory::MemoryImage;
use std::collections::VecDeque;
use twobit_obs::json::{obj, Json, ToJson, Value};
use twobit_obs::{ActorId, Profiler, SimEvent, Tracer};
use twobit_types::{
    AccessKind, AddressMap, BlockAddr, CacheId, CacheToMemory, ControllerConcurrency,
    ControllerStats, Counter, Fingerprinter, MemoryToCache, ModuleId, ProtocolError, Version,
    WritebackKind,
};

/// A message the controller wants delivered, with its timing class: what
/// its directory decided to send, counted on the way through.
pub type CtrlEmit = DirSend;

/// Who watches a controller handle a command. [`Observer::none`] watches
/// nothing and costs nothing.
#[derive(Debug)]
pub struct Observer<'a> {
    now: u64,
    tracer: Option<&'a mut dyn Tracer>,
    perf: Option<&'a mut Profiler>,
}

impl<'a> Observer<'a> {
    /// Nobody.
    #[must_use]
    pub fn none() -> Self {
        Observer {
            now: 0,
            tracer: None,
            perf: None,
        }
    }

    /// The discrete-event simulator's observers at cycle `now`.
    ///
    /// When `tracer` is enabled it records the command's receipt at cycle
    /// `now` — including the global-state transition it caused, which is
    /// the directory-side half of every section 3.2.5 race. The event is
    /// recorded even when the command is a protocol error, so post-mortem
    /// ring dumps end on the offending command.
    ///
    /// `perf` receives span timings for hot-path attribution:
    /// `ctrl.queue.enqueue` (conflict deferral), `ctrl.queue.drain` (the
    /// scan-and-reopen loop, its self-time being the queue scan itself),
    /// and `ctrl.protocol.open` (one per command handed to the
    /// directory). The simulator passes its own profiler here so these spans
    /// nest under the event class being dispatched.
    #[must_use]
    pub fn new(now: u64, tracer: &'a mut dyn Tracer, perf: &'a mut Profiler) -> Self {
        Observer {
            now,
            tracer: Some(tracer),
            perf: Some(perf),
        }
    }
}

/// A transaction-opening command as the directory takes it.
fn opener(cmd: CacheToMemory) -> (CacheId, BlockAddr, OpenKind) {
    match cmd {
        CacheToMemory::Request { k, a, rw } => {
            let kind = match rw {
                AccessKind::Read => OpenKind::ReadMiss,
                AccessKind::Write => OpenKind::WriteMiss,
            };
            (k, a, kind)
        }
        CacheToMemory::MRequest { k, a, version } => (k, a, OpenKind::Modify(version)),
        CacheToMemory::WriteThrough { k, a, version } => (k, a, OpenKind::WriteThrough(version)),
        CacheToMemory::DirectRead { k, a } => (k, a, OpenKind::DirectRead),
        other => unreachable!("not an opener: {other}"),
    }
}

/// A memory-module controller: directory + request queue + module
/// storage. `Clone` lets the model checker branch system states.
#[derive(Debug, Clone)]
pub struct Controller {
    module: ModuleId,
    /// The address map this module is one of: says which blocks are this
    /// module's to serve, and how its per-block tables are keyed.
    map: AddressMap,
    protocol: Directory,
    memory: MemoryImage,
    n_caches: usize,
    concurrency: ControllerConcurrency,
    /// Blocks whose transaction awaits a data supply, with the miss kind
    /// (read/write) — needed to tell whether a query responder retains a
    /// clean copy.
    awaiting: BlockMap<AccessKind>,
    /// Dirty ejects announced but whose data has not arrived yet. At most
    /// one in flight per (cache, block), and rarely more than a handful
    /// total, so a linear-scanned `Vec` beats any hashed set here.
    eject_announced: Vec<(CacheId, BlockAddr)>,
    /// Blocks locked by an announced eject (no transaction may start
    /// until the write-back lands).
    eject_locked: BlockSet,
    queue: VecDeque<CacheToMemory>,
    stats: ControllerStats,
}

impl Controller {
    /// Creates a controller for `module` of the memory `map` lays out,
    /// running `protocol` and serving a system of `n_caches` caches. Every
    /// per-block table — the directory's, the memory image, the
    /// transaction bookkeeping — is keyed by the block's slot within the
    /// module ([`BlockMap::with_stride`]), so it costs what the module
    /// holds.
    ///
    /// # Panics
    ///
    /// Panics if `n_caches` is zero or `map` has no such module.
    #[must_use]
    pub fn new(
        module: ModuleId,
        map: AddressMap,
        protocol: Directory,
        n_caches: usize,
        concurrency: ControllerConcurrency,
    ) -> Self {
        assert!(n_caches > 0, "a controller serves at least one cache");
        assert!(module.index() < map.modules(), "{module} is not in {map:?}");
        let stride = map.stride();
        Controller {
            module,
            map,
            protocol: protocol.keyed_by(stride),
            memory: MemoryImage::new().keyed_by(stride),
            n_caches,
            concurrency,
            awaiting: BlockMap::with_stride(stride),
            eject_announced: Vec::new(),
            eject_locked: BlockSet::with_stride(stride),
            queue: VecDeque::new(),
            stats: ControllerStats::default(),
        }
    }

    /// This controller's module identity.
    #[must_use]
    pub fn module(&self) -> ModuleId {
        self.module
    }

    /// The module's storage.
    #[must_use]
    pub fn memory(&self) -> &MemoryImage {
        &self.memory
    }

    /// The directory (for invariant checks and reports).
    #[must_use]
    pub fn protocol(&self) -> &Directory {
        &self.protocol
    }

    /// Accumulated statistics, including translation-buffer counters when
    /// the protocol has one.
    #[must_use]
    pub fn stats(&self) -> ControllerStats {
        let mut stats = self.stats;
        if let Some((hits, misses)) = self.protocol.tlb_counters() {
            stats.tlb_hits = Counter::from(hits);
            stats.tlb_misses = Counter::from(misses);
        }
        stats
    }

    /// `true` while any transaction awaits data or any request is queued —
    /// the drain-at-end liveness check.
    #[must_use]
    pub fn busy(&self) -> bool {
        !self.awaiting.is_empty() || !self.queue.is_empty() || !self.eject_locked.is_empty()
    }

    /// Feeds the controller's complete future-relevant state into `fp`
    /// for the model checker's visited-set: the directory (via
    /// [`Directory::fingerprint`]), the memory image, and the
    /// section 3.2.5 transaction bookkeeping (awaiting set, eject locks,
    /// conflict queue — in queue order, since service order matters).
    /// Unordered sets are sorted first so the encoding is
    /// path-independent; statistics are excluded.
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_usize(self.module.index());
        self.protocol.fingerprint(fp);
        fp.write_usize(self.memory.len());
        for (a, v) in self.memory.written_blocks() {
            fp.write_u64(a.number());
            fp.write_u64(v.raw());
        }
        // `BlockMap`/`BlockSet` iterate in ascending block order already.
        fp.write_usize(self.awaiting.len());
        for (a, rw) in self.awaiting.iter() {
            fp.write_u64(a.number());
            fp.write_bool(rw.is_write());
        }
        let mut announced: Vec<(usize, u64)> = self
            .eject_announced
            .iter()
            .map(|&(k, a)| (k.index(), a.number()))
            .collect();
        announced.sort_unstable();
        fp.write_usize(announced.len());
        for (k, a) in announced {
            fp.write_usize(k);
            fp.write_u64(a);
        }
        fp.write_usize(self.eject_locked.len());
        for a in self.eject_locked.iter() {
            fp.write_u64(a.number());
        }
        fp.write_usize(self.queue.len());
        for cmd in &self.queue {
            crate::fp::cache_to_memory(cmd, fp);
        }
    }

    /// Serializes the controller's complete state — the directory
    /// (via [`Directory::save_state`], tagged with the scheme name), the memory image, the section 3.2.5 transaction bookkeeping
    /// (awaiting set, eject locks, conflict queue in service order), and
    /// the statistics — as a checkpoint document for
    /// [`Controller::restore_state`].
    ///
    /// The `eject_announced` list keeps its insertion order: unlike the
    /// fingerprint (which sorts for path-independence), a checkpoint must
    /// reproduce the *exact* state so a restored run replays identically.
    #[must_use]
    pub fn save_state(&self) -> Json {
        obj([
            ("module", self.module.index().json()),
            ("scheme", self.protocol.name().json()),
            ("protocol", self.protocol.save_state()),
            ("memory", self.memory.json()),
            (
                "awaiting",
                self.awaiting
                    .iter()
                    .map(|(a, rw)| obj([("a", a.json()), ("rw", rw.json())]))
                    .collect(),
            ),
            (
                "eject_announced",
                self.eject_announced
                    .iter()
                    .map(|(k, a)| obj([("k", k.json()), ("a", a.json())]))
                    .collect(),
            ),
            (
                "eject_locked",
                self.eject_locked.iter().map(|a| a.json()).collect(),
            ),
            ("queue", self.queue.iter().map(ToJson::json).collect()),
            ("stats", self.stats.json()),
        ])
    }

    /// Restores the state captured by [`Controller::save_state`] into
    /// this controller, which must have been constructed for the same
    /// module, scheme, and cache count as the saved one. The document
    /// does not depend on how tables are keyed; the restored ones are
    /// keyed as this controller's.
    ///
    /// # Errors
    ///
    /// Returns a message if the document is malformed or names a
    /// different module or scheme. On error `self` is left unchanged.
    pub fn restore_state(&mut self, j: &Json) -> Result<(), String> {
        let module: usize = j.field("module")?;
        if module != self.module.index() {
            return Err(format!(
                "checkpoint is for module {module}, this controller is {}",
                self.module.index()
            ));
        }
        let scheme = j.req_str("scheme")?;
        if scheme != self.protocol.name() {
            return Err(format!(
                "checkpoint scheme `{scheme}` does not match running scheme `{}`",
                self.protocol.name()
            ));
        }
        let stride = self.map.stride();
        let protocol = self.protocol.restored(j.member("protocol")?)?;
        let memory = j.field::<MemoryImage>("memory")?.keyed_by(stride);
        let mut awaiting = BlockMap::with_stride(stride);
        for e in j.array("awaiting")? {
            awaiting.insert(e.field("a")?, e.field("rw")?);
        }
        let mut eject_announced = Vec::new();
        for e in j.array("eject_announced")? {
            eject_announced.push((e.field("k")?, e.field("a")?));
        }
        let mut eject_locked = BlockSet::with_stride(stride);
        for a in j.field::<Vec<BlockAddr>>("eject_locked")? {
            eject_locked.insert(a);
        }
        let queue = j.field::<Vec<CacheToMemory>>("queue")?.into();
        let stats = j.field("stats")?;
        self.protocol = protocol;
        self.memory = memory;
        self.awaiting = awaiting;
        self.eject_announced = eject_announced;
        self.eject_locked = eject_locked;
        self.queue = queue;
        self.stats = stats;
        Ok(())
    }

    /// Number of queued (conflict-deferred) requests.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Handles one command from a cache, appending the messages to
    /// deliver, in order, to `emits` — a buffer the caller owns and
    /// reuses, so handling a command allocates nothing. After an error
    /// it holds whatever was sent before the command failed.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError`] if the command is impossible in the
    /// current state (e.g. unsolicited block data) or is for a block
    /// another module owns — these indicate protocol bugs, injected
    /// faults or a misrouting peer, never normal operation.
    pub fn submit(
        &mut self,
        cmd: CacheToMemory,
        obs: Observer<'_>,
        emits: &mut Vec<CtrlEmit>,
    ) -> Result<(), ProtocolError> {
        let mut idle = Profiler::disabled();
        let perf = obs.perf.unwrap_or(&mut idle);
        let Some(tracer) = obs.tracer.filter(|tracer| tracer.enabled()) else {
            return self.handle(cmd, perf, emits);
        };
        let a = cmd.block();
        let class = cmd.class();
        let text = cmd.to_string();
        let before = self.protocol.global_state(a);
        let result = self.handle(cmd, perf, emits);
        let after = self.protocol.global_state(a);
        let mut ev = SimEvent::new(obs.now, ActorId::Module(self.module), a, text).class(class);
        if before != after {
            ev = ev.global(before, after);
        }
        tracer.record(ev);
        result
    }

    fn handle(
        &mut self,
        cmd: CacheToMemory,
        perf: &mut Profiler,
        emits: &mut Vec<CtrlEmit>,
    ) -> Result<(), ProtocolError> {
        let a = cmd.block();
        let owner = self.map.module_of(a);
        if owner != self.module {
            return Err(ProtocolError::UnexpectedCommand {
                state: format!(
                    "{} serving only its own blocks ({a} is {owner}'s)",
                    self.module
                ),
                command: cmd.to_string(),
            });
        }
        match cmd {
            CacheToMemory::Request { .. }
            | CacheToMemory::MRequest { .. }
            | CacheToMemory::WriteThrough { .. }
            | CacheToMemory::DirectRead { .. } => {
                if self.can_start(a) {
                    self.process_open(cmd, perf, emits)?;
                    self.drain_queue(perf, emits)
                } else {
                    // Refused now, not when the queue drains under some
                    // other cache's command.
                    let (k, _, kind) = opener(cmd);
                    self.protocol.declares(k, a, kind)?;
                    self.enqueue(cmd, perf);
                    Ok(())
                }
            }
            CacheToMemory::Eject { k, olda, wb } => {
                self.stats.ejects.inc();
                match wb {
                    WritebackKind::Clean => self.handle_clean_eject(k, olda, perf, emits),
                    WritebackKind::Dirty => {
                        if !self.eject_announced.contains(&(k, olda)) {
                            self.eject_announced.push((k, olda));
                        }
                        if !self.awaiting.contains_key(olda) {
                            self.eject_locked.insert(olda);
                        }
                        Ok(())
                    }
                }
            }
            CacheToMemory::PutData { from, a, version } => {
                self.handle_put(from, a, version, perf, emits)
            }
        }
    }

    fn can_start(&self, a: BlockAddr) -> bool {
        match self.concurrency {
            ControllerConcurrency::SingleCommand => {
                self.awaiting.is_empty() && self.eject_locked.is_empty() && self.queue.is_empty()
            }
            ControllerConcurrency::PerBlock => {
                !self.awaiting.contains_key(a) && !self.eject_locked.contains(a)
            }
        }
    }

    fn enqueue(&mut self, cmd: CacheToMemory, perf: &mut Profiler) {
        perf.begin("ctrl.queue.enqueue");
        self.stats.conflicts_queued.inc();
        self.queue.push_back(cmd);
        let peak = self.stats.queue_peak.get().max(self.queue.len() as u64);
        self.stats.queue_peak = Counter::from(peak);
        perf.end("ctrl.queue.enqueue");
    }

    fn process_open(
        &mut self,
        cmd: CacheToMemory,
        perf: &mut Profiler,
        emits: &mut Vec<CtrlEmit>,
    ) -> Result<(), ProtocolError> {
        perf.begin("ctrl.protocol.open");
        let (k, a, kind) = opener(cmd);
        let from = emits.len();
        let step = self.protocol.open(k, a, kind, &self.memory, emits);
        perf.end("ctrl.protocol.open");
        let step = step?;
        match kind {
            OpenKind::Modify(_) => self.stats.mrequests.inc(),
            _ => self.stats.requests.inc(),
        }
        if !step.completes {
            let rw = match kind {
                OpenKind::ReadMiss => AccessKind::Read,
                OpenKind::WriteMiss => AccessKind::Write,
                other => unreachable!("{other:?} transactions never await data"),
            };
            self.awaiting.insert(a, rw);
        }
        self.apply_step(a, step, &emits[from..]);
        Ok(())
    }

    fn handle_clean_eject(
        &mut self,
        k: CacheId,
        olda: BlockAddr,
        perf: &mut Profiler,
        emits: &mut Vec<CtrlEmit>,
    ) -> Result<(), ProtocolError> {
        if self.awaiting.contains_key(olda)
            && self
                .protocol
                .eject_satisfies_wait(olda, k, WritebackKind::Clean)
        {
            // A clean eject racing a recall: memory already holds the
            // data; resolve the wait with it.
            let version = self.memory.read(olda);
            let from = emits.len();
            let step = self.protocol.supply(olda, k, version, false, emits)?;
            self.awaiting.remove(olda);
            self.apply_step(olda, step, &emits[from..]);
            self.drain_queue(perf, emits)
        } else {
            self.protocol.eject_clean(k, olda)
        }
    }

    fn handle_put(
        &mut self,
        from: CacheId,
        a: BlockAddr,
        version: Version,
        perf: &mut Profiler,
        emits: &mut Vec<CtrlEmit>,
    ) -> Result<(), ProtocolError> {
        let first = emits.len();
        if let Some(i) = self.eject_announced.iter().position(|&e| e == (from, a)) {
            // The write-back half of a dirty eject…
            let answers_query = self.awaiting.contains_key(a)
                && self
                    .protocol
                    .eject_satisfies_wait(a, from, WritebackKind::Dirty);
            let step = if answers_query {
                // …which doubles as the answer to an in-flight query.
                self.protocol.supply(a, from, version, false, emits)?
            } else {
                self.protocol.eject_dirty(from, a, version, emits)?
            };
            self.eject_announced.swap_remove(i);
            if answers_query {
                self.awaiting.remove(a);
            }
            self.eject_locked.remove(a);
            self.apply_step(a, step, &emits[first..]);
            return self.drain_queue(perf, emits);
        }
        match self.awaiting.get(a).copied() {
            Some(rw) => {
                // A query/purge response. On a read the responder kept a
                // clean copy; on a write it invalidated itself.
                let retains = rw == AccessKind::Read;
                let step = self.protocol.supply(a, from, version, retains, emits)?;
                self.awaiting.remove(a);
                self.apply_step(a, step, &emits[first..]);
                self.drain_queue(perf, emits)
            }
            None => Err(ProtocolError::UnexpectedCommand {
                state: format!("{} with no transaction on {a}", self.protocol.name()),
                command: format!("put({from}, {a}, {version})"),
            }),
        }
    }

    /// Executes a directory decision on block `a`: lands its memory write
    /// and books the messages it `sent` (already in the caller's buffer).
    fn apply_step(&mut self, a: BlockAddr, step: DirStep, sent: &[CtrlEmit]) {
        if let Some((addr, version)) = step.write_memory {
            self.memory.write(addr, version);
            self.stats.memory_writes.inc();
        }
        for send in sent {
            match *send {
                DirSend::Unicast { to, cmd, cost } => {
                    self.stats.unicasts_sent.inc();
                    self.stats.deliveries.inc();
                    if cost == SendCost::DataFromMemory {
                        self.stats.memory_reads.inc();
                    }
                    if matches!(cmd, MemoryToCache::Inv { .. }) {
                        self.cancel_queued_modifies(a, Some(to));
                    }
                }
                DirSend::Broadcast { cmd, .. } => {
                    self.stats.broadcasts_sent.inc();
                    self.stats
                        .deliveries
                        .add(self.n_caches.saturating_sub(1) as u64);
                    if matches!(cmd, MemoryToCache::BroadInv { .. }) {
                        self.cancel_queued_modifies(a, None);
                    }
                }
            }
        }
    }

    /// Deletes queued `MREQUEST`s for `a` that an invalidation just made
    /// stale — the section 3.2.5 scenario. `only` restricts deletion to
    /// one cache (targeted `INV`); `None` deletes all (broadcast).
    fn cancel_queued_modifies(&mut self, a: BlockAddr, only: Option<CacheId>) {
        self.queue.retain(|cmd| match *cmd {
            CacheToMemory::MRequest { k, a: qa, .. } if qa == a => only.is_some_and(|o| o != k),
            _ => true,
        });
    }

    fn drain_queue(
        &mut self,
        perf: &mut Profiler,
        emits: &mut Vec<CtrlEmit>,
    ) -> Result<(), ProtocolError> {
        perf.begin("ctrl.queue.drain");
        let mut result = Ok(());
        while result.is_ok() {
            let idx = match self.concurrency {
                ControllerConcurrency::SingleCommand => {
                    if self.awaiting.is_empty()
                        && self.eject_locked.is_empty()
                        && !self.queue.is_empty()
                    {
                        Some(0)
                    } else {
                        None
                    }
                }
                ControllerConcurrency::PerBlock => self.queue.iter().position(|c| {
                    let a = c.block();
                    !self.awaiting.contains_key(a) && !self.eject_locked.contains(a)
                }),
            };
            let Some(idx) = idx else { break };
            let cmd = self.queue.remove(idx).expect("index just found");
            result = self.process_open(cmd, perf, emits);
        }
        perf.end("ctrl.queue.drain");
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::Directory;
    use twobit_types::GlobalState;

    fn two_bit() -> Directory {
        Directory::new(crate::two_bit::program(), 4, 0)
    }

    fn blk(n: u64) -> BlockAddr {
        BlockAddr::new(n)
    }

    fn cid(n: usize) -> CacheId {
        CacheId::new(n)
    }

    fn controller(n: usize, concurrency: ControllerConcurrency) -> Controller {
        let one_module = AddressMap::interleaved(1);
        Controller::new(ModuleId::new(0), one_module, two_bit(), n, concurrency)
    }

    fn two_bit_controller(n: usize) -> Controller {
        controller(n, ControllerConcurrency::PerBlock)
    }

    /// What `c` sends on `cmd`, which it must accept.
    fn submit(c: &mut Controller, cmd: CacheToMemory) -> Vec<CtrlEmit> {
        let mut emits = Vec::new();
        c.submit(cmd, Observer::none(), &mut emits)
            .expect("an acceptable command");
        emits
    }

    fn read_miss(k: usize, a: u64) -> CacheToMemory {
        CacheToMemory::Request {
            k: cid(k),
            a: blk(a),
            rw: AccessKind::Read,
        }
    }

    fn write_miss(k: usize, a: u64) -> CacheToMemory {
        CacheToMemory::Request {
            k: cid(k),
            a: blk(a),
            rw: AccessKind::Write,
        }
    }

    #[test]
    fn simple_read_miss_grants_immediately() {
        let mut c = two_bit_controller(4);
        let emits = submit(&mut c, read_miss(0, 1));
        assert_eq!(emits.len(), 1);
        assert!(matches!(
            emits[0],
            CtrlEmit::Unicast {
                cmd: MemoryToCache::GetData { .. },
                ..
            }
        ));
        assert!(!c.busy());
        assert_eq!(c.stats().requests.get(), 1);
        assert_eq!(c.stats().memory_reads.get(), 1);
    }

    #[test]
    fn conflicting_request_queues_until_supply() {
        let mut c = two_bit_controller(4);
        submit(&mut c, write_miss(0, 1)); // PresentM at C0
        let emits = submit(&mut c, read_miss(1, 1));
        assert!(
            matches!(emits[0], CtrlEmit::Broadcast { .. }),
            "BROADQUERY goes out"
        );
        assert!(c.busy());

        // A third request for the same block must wait (section 3.2.5).
        let emits = submit(&mut c, read_miss(2, 1));
        assert!(emits.is_empty());
        assert_eq!(c.queued(), 1);
        assert_eq!(c.stats().conflicts_queued.get(), 1);

        // The owner answers; both waiting requests resolve in order.
        let emits = submit(
            &mut c,
            CacheToMemory::PutData {
                from: cid(0),
                a: blk(1),
                version: Version::new(5),
            },
        );
        let grants: Vec<CacheId> = emits
            .iter()
            .filter_map(|e| match e {
                CtrlEmit::Unicast {
                    cmd: MemoryToCache::GetData { k, .. },
                    ..
                } => Some(*k),
                _ => None,
            })
            .collect();
        assert_eq!(
            grants,
            vec![cid(1), cid(2)],
            "queued request drains after the supply"
        );
        assert!(!c.busy());
        assert_eq!(
            c.memory().read(blk(1)),
            Version::new(5),
            "write-back landed"
        );
    }

    #[test]
    fn per_block_concurrency_lets_other_blocks_through() {
        let mut c = two_bit_controller(4);
        submit(&mut c, write_miss(0, 1));
        submit(&mut c, read_miss(1, 1)); // awaiting data on block 1
        let emits = submit(&mut c, read_miss(2, 2));
        assert_eq!(emits.len(), 1, "block 2 is not blocked by block 1's wait");
    }

    #[test]
    fn single_command_concurrency_serializes_everything() {
        let mut c = controller(4, ControllerConcurrency::SingleCommand);
        submit(&mut c, write_miss(0, 1));
        submit(&mut c, read_miss(1, 1)); // awaits
        let emits = submit(&mut c, read_miss(2, 2));
        assert!(
            emits.is_empty(),
            "unrelated block still waits under single-command"
        );
        assert_eq!(c.queued(), 1);
    }

    #[test]
    fn queued_mrequest_deleted_by_broadcast_invalidate() {
        // The exact section 3.2.5 scenario: caches 0 and 1 hold copies;
        // both MREQUEST "at the same time".
        let mut c = two_bit_controller(4);
        submit(&mut c, read_miss(0, 1));
        submit(&mut c, read_miss(1, 1)); // Present*
                                         // C0's MREQUEST processed first: BROADINV(1, excl C0) + grant.
                                         // To force queueing, make block 1 busy first via a PresentM wait
                                         // on… simpler: submit both MREQUESTs back-to-back. The first
                                         // completes synchronously, so queueing needs an artificial block —
                                         // use SingleCommand with an outstanding wait on another block.
        let mut c2 = controller(4, ControllerConcurrency::SingleCommand);
        submit(&mut c2, read_miss(0, 1));
        submit(&mut c2, read_miss(1, 1));
        submit(&mut c2, write_miss(2, 9)); // block 9: PresentM at C2
        submit(&mut c2, read_miss(3, 9)); // awaiting on block 9
                                          // Both MREQUESTs for block 1 now queue behind the wait.
        submit(
            &mut c2,
            CacheToMemory::MRequest {
                k: cid(0),
                a: blk(1),
                version: Version::initial(),
            },
        );
        submit(
            &mut c2,
            CacheToMemory::MRequest {
                k: cid(1),
                a: blk(1),
                version: Version::initial(),
            },
        );
        assert_eq!(c2.queued(), 2);
        // Resolve block 9; the queue drains: C0's MREQUEST broadcasts
        // BROADINV which deletes C1's queued MREQUEST.
        let emits = submit(
            &mut c2,
            CacheToMemory::PutData {
                from: cid(2),
                a: blk(9),
                version: Version::new(2),
            },
        );
        let granted: Vec<(CacheId, bool)> = emits
            .iter()
            .filter_map(|e| match e {
                CtrlEmit::Unicast {
                    cmd: MemoryToCache::MGranted { k, granted, .. },
                    ..
                } => Some((*k, *granted)),
                _ => None,
            })
            .collect();
        assert_eq!(
            granted,
            vec![(cid(0), true)],
            "C1's MREQUEST was deleted, never answered"
        );
        assert!(!c2.busy());
        let _ = c; // silence unused in the simple path
    }

    #[test]
    fn racing_dirty_eject_satisfies_broadquery() {
        let mut c = two_bit_controller(4);
        submit(&mut c, write_miss(0, 1)); // PresentM at C0
        submit(&mut c, read_miss(1, 1)); // BROADQUERY out, awaiting
                                         // C0 had already ejected: EJECT + put arrive instead of a query
                                         // response.
        submit(
            &mut c,
            CacheToMemory::Eject {
                k: cid(0),
                olda: blk(1),
                wb: WritebackKind::Dirty,
            },
        );
        let emits = submit(
            &mut c,
            CacheToMemory::PutData {
                from: cid(0),
                a: blk(1),
                version: Version::new(7),
            },
        );
        assert!(matches!(
            emits[0],
            CtrlEmit::Unicast {
                cmd: MemoryToCache::GetData { .. },
                ..
            }
        ));
        assert!(!c.busy());
        // Owner did not retain: requester is the sole holder.
        assert_eq!(c.protocol().global_state(blk(1)), GlobalState::Present1);
    }

    #[test]
    fn dirty_eject_locks_block_until_data_lands() {
        let mut c = two_bit_controller(4);
        submit(&mut c, write_miss(0, 1));
        submit(
            &mut c,
            CacheToMemory::Eject {
                k: cid(0),
                olda: blk(1),
                wb: WritebackKind::Dirty,
            },
        );
        // A request arriving between the eject notice and its data queues.
        let emits = submit(&mut c, read_miss(1, 1));
        assert!(emits.is_empty());
        let emits = submit(
            &mut c,
            CacheToMemory::PutData {
                from: cid(0),
                a: blk(1),
                version: Version::new(3),
            },
        );
        // After the write-back lands, the queued read served from memory
        // sees the fresh data.
        match emits.last() {
            Some(CtrlEmit::Unicast {
                cmd: MemoryToCache::GetData { version, .. },
                ..
            }) => {
                assert_eq!(*version, Version::new(3));
            }
            other => panic!("expected drained grant, got {other:?}"),
        }
    }

    #[test]
    fn unsolicited_put_is_a_protocol_error() {
        let mut c = two_bit_controller(4);
        let put = CacheToMemory::PutData {
            from: cid(0),
            a: blk(1),
            version: Version::new(1),
        };
        let err = c
            .submit(put, Observer::none(), &mut Vec::new())
            .unwrap_err();
        assert!(matches!(err, ProtocolError::UnexpectedCommand { .. }));
    }

    #[test]
    fn a_command_for_another_modules_block_is_refused_before_any_table_is_touched() {
        let map = AddressMap::interleaved(4);
        let mut c = Controller::new(
            ModuleId::new(0),
            map,
            two_bit(),
            4,
            ControllerConcurrency::PerBlock,
        );
        submit(&mut c, read_miss(0, 8));
        let before = c.save_state().to_json();
        let mut emits = Vec::new();
        for cmd in [
            read_miss(1, 5),
            CacheToMemory::PutData {
                from: cid(0),
                a: blk(5),
                version: Version::new(1),
            },
            CacheToMemory::Eject {
                k: cid(0),
                olda: blk(5),
                wb: WritebackKind::Clean,
            },
        ] {
            let err = c.submit(cmd, Observer::none(), &mut emits).unwrap_err();
            assert!(
                err.to_string()
                    .ends_with("in state M0 serving only its own blocks (blk:0x5 is M1's)"),
                "{err}"
            );
        }
        assert!(emits.is_empty());
        assert_eq!(c.save_state().to_json(), before, "stats included");
    }

    #[test]
    fn broadcast_delivery_accounting() {
        let mut c = two_bit_controller(8);
        submit(&mut c, read_miss(0, 1));
        submit(&mut c, write_miss(1, 1)); // BROADINV to 7 caches
        let stats = c.stats();
        assert_eq!(stats.broadcasts_sent.get(), 1);
        // 7 broadcast deliveries + 2 grants.
        assert_eq!(stats.deliveries.get(), 7 + 2);
    }
}
