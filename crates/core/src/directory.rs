//! The directory of one memory module: what the controller's finite-state
//! automaton decides, separated from when it runs.
//!
//! There is one [`Directory`]. It holds the paper's two bits per block,
//! the record of transactions awaiting data, and whatever its scheme
//! keeps about holder identities — nothing, a bounded buffer of exact
//! sets, or an exact presence vector — and it decides by *interpreting*
//! its scheme's compiled [`TransitionTable`] (a [`Program`]): handed a
//! transaction-opening command (or owner-supplied data resolving an
//! earlier one, or an eject), it looks the rule up by `(event, state,
//! conditions)` and runs the rule's actions: the commands to send go, in
//! order, into a buffer the caller owns and reuses (a decision allocates
//! nothing), and a [`DirStep`] says what to write to memory and whether
//! the transaction is complete. It never asks which scheme it serves; the
//! table and the identity store are all that differ.
//!
//! The [`Controller`](crate::Controller) executes steps and enforces the
//! section 3.2.5 queueing discipline; the timed simulator adds latencies
//! on top. Nothing here knows about time, which is what makes the
//! directory directly property-testable.

use crate::blockmap::BlockMap;
use crate::memory::MemoryImage;
use crate::owner_set::OwnerSet;
use crate::tlb::TranslationBuffer;
use crate::transitions::{
    cond_bits, undeclared, ActionKind, Cond, Delivery, EventKind, Next, Program, Rule,
    TransitionTable,
};
use twobit_obs::json::{obj, Json, ToJson, Value};
use twobit_types::{
    AccessKind, BlockAddr, CacheId, Fingerprinter, GlobalState, MemoryToCache, ProtocolError,
    Version, WritebackKind,
};

/// The transaction-opening commands a controller can hand a protocol,
/// i.e. the four protocol instances of section 2.4 plus the write-through
/// and uncached accesses of the section 2.2–2.3 comparator schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenKind {
    /// `REQUEST(k, a, "read")` — section 3.2.2.
    ReadMiss,
    /// `REQUEST(k, a, "write")` — section 3.2.3.
    WriteMiss,
    /// `MREQUEST(k, a)` — section 3.2.4 (write hit on unmodified block),
    /// carrying the requester's copy version for staleness detection.
    Modify(Version),
    /// A store written straight to memory, carrying its data.
    WriteThrough(Version),
    /// An uncached read served from memory.
    DirectRead,
}

/// How a sent message is costed by the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendCost {
    /// A control command (one network command slot).
    Command,
    /// A block data transfer whose payload required a memory-module read.
    DataFromMemory,
    /// A block data transfer forwarded from data already in hand (an
    /// owner's `put`), no memory read on the critical path.
    DataForwarded,
}

/// One outbound message decided by a protocol step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirSend {
    /// A message to a single cache.
    Unicast {
        /// Recipient.
        to: CacheId,
        /// The command.
        cmd: MemoryToCache,
        /// Timing classification.
        cost: SendCost,
    },
    /// A message to every cache except `exclude` (the transaction's
    /// initiator, which the paper notes "is in an idle state and hence
    /// never loses a cycle").
    Broadcast {
        /// The command.
        cmd: MemoryToCache,
        /// The initiator, not delivered to.
        exclude: CacheId,
        /// Timing classification.
        cost: SendCost,
    },
}

/// The outcome of one protocol decision, besides the messages it wrote
/// into the caller's send buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirStep {
    /// A block write into the module's storage (a write-back landing),
    /// applied before any send is delivered.
    pub write_memory: Option<(BlockAddr, Version)>,
    /// `true` when the transaction is finished and the block unlocks;
    /// `false` when the protocol now awaits a data supply
    /// (`BROADQUERY`/`PURGE` response or racing write-back).
    pub completes: bool,
}

impl OpenKind {
    fn event(self) -> EventKind {
        match self {
            OpenKind::ReadMiss => EventKind::ReadMiss,
            OpenKind::WriteMiss => EventKind::WriteMiss,
            OpenKind::Modify(_) => EventKind::Modify,
            OpenKind::WriteThrough(_) => EventKind::WriteThrough,
            OpenKind::DirectRead => EventKind::DirectRead,
        }
    }
}

/// What an in-flight transaction awaits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Waiting {
    /// The requester to grant once data arrives.
    pub k: CacheId,
    /// Whether the triggering miss was a write.
    pub write: bool,
}

/// What a directory knows about *which* caches hold a block — the one
/// datum besides the table that differs between schemes, decided by the
/// strongest [`Delivery`] the table asks for.
///
/// Both identity-keeping kinds follow one update discipline, applied by
/// the interpreter at the moments the true holder set is known: an
/// exclusive grant, a granted upgrade or a shared grant out of `Absent`
/// sets `{k}`; any other shared grant adds `k`; a supply sets `{k}` plus
/// the supplier if it kept a clean copy; an eject removes the ejector.
#[derive(Debug, Clone)]
enum Identities {
    /// Nothing: two bits per block is all there is, and every
    /// non-initiator command is broadcast.
    Unknown,
    /// A bounded LRU buffer of exact sets (section 4.4): a hit targets,
    /// a miss broadcasts. "Adds" only extend a resident entry — exact
    /// knowledge is never invented.
    Buffered(TranslationBuffer),
    /// An exact presence vector per cached block (section 2.4.2), `width`
    /// caches wide. Blocks nobody holds have no entry.
    Exact {
        width: usize,
        holders: BlockMap<OwnerSet>,
    },
}

impl Identities {
    fn set(&mut self, a: BlockAddr, k: CacheId, also: Option<CacheId>) {
        let owners = |width| {
            let mut owners = OwnerSet::singleton(width, k);
            owners.extend(also);
            owners
        };
        match self {
            Identities::Unknown => {}
            Identities::Buffered(buffer) => buffer.record(a, owners(buffer.width())),
            Identities::Exact { width, holders } => match holders.get_mut(a) {
                Some(recorded) => {
                    recorded.clear();
                    recorded.extend(also.into_iter().chain([k]));
                }
                None => {
                    holders.insert(a, owners(*width));
                }
            },
        }
    }

    fn add(&mut self, a: BlockAddr, k: CacheId) {
        match self {
            Identities::Unknown => {}
            Identities::Buffered(buffer) => buffer.extend_if_tracked(a, k),
            Identities::Exact { holders, .. } => match holders.get_mut(a) {
                Some(owners) => {
                    owners.insert(k);
                }
                None => self.set(a, k, None),
            },
        }
    }

    fn remove(&mut self, a: BlockAddr, k: CacheId) {
        match self {
            Identities::Unknown => {}
            Identities::Buffered(buffer) => buffer.remove_owner(a, k),
            Identities::Exact { holders, .. } => {
                if let Some(owners) = holders.get_mut(a) {
                    owners.remove(k);
                    if owners.is_empty() {
                        holders.remove(a);
                    }
                }
            }
        }
    }

    /// The exact holders of `a`, when they are known right now — what
    /// decides between targeted commands (`Some`; the inner `None` is the
    /// empty set of a block nobody is recorded holding) and a broadcast
    /// (`None`). A buffered lookup counts as a hit or a miss.
    fn lookup(&mut self, a: BlockAddr) -> Option<Option<&OwnerSet>> {
        match self {
            Identities::Unknown => None,
            Identities::Buffered(buffer) => buffer.lookup(a).map(Some),
            Identities::Exact { holders, .. } => Some(holders.get(a)),
        }
    }

    /// The presence vectors and their width, where identities are exact.
    fn vectors(&self) -> Option<(&BlockMap<OwnerSet>, usize)> {
        match self {
            Identities::Unknown | Identities::Buffered(_) => None,
            Identities::Exact { width, holders } => Some((holders, *width)),
        }
    }

    /// The holder set of `a` where identities are exact.
    fn exact(&self, a: BlockAddr) -> Option<OwnerSet> {
        self.vectors().map(|(holders, width)| {
            holders
                .get(a)
                .cloned()
                .unwrap_or_else(|| OwnerSet::new(width))
        })
    }

    /// Whether `k` is a recorded holder of `a`, where identities are
    /// exact.
    fn records(&self, a: BlockAddr, k: CacheId) -> Option<bool> {
        self.vectors()
            .map(|(holders, _)| holders.get(a).is_some_and(|owners| owners.contains(k)))
    }

    /// How many holders of `a` are recorded where identities are exact.
    fn count(&self, a: BlockAddr) -> usize {
        self.vectors()
            .and_then(|(holders, _)| holders.get(a))
            .map_or(0, OwnerSet::len)
    }
}

/// Where the block data an action needs comes from.
#[derive(Clone, Copy)]
enum Data<'m> {
    /// The module's storage (an opening command).
    Memory(&'m MemoryImage),
    /// Data that arrived with the event: a supply, a dirty eject's
    /// write-back, a write-through store.
    InHand(Version),
    /// Nowhere (a clean eject notice).
    None,
}

/// The directory of one memory module (`K_j`'s decision logic): the
/// interpreter of a compiled [`TransitionTable`] over the two-bit global
/// state map, the waiting records and the scheme's holder-identity store
/// (see the module docs).
#[derive(Debug, Clone)]
pub struct Directory {
    program: &'static Program,
    /// Blocks not in their initial state. Absent entries are removed, so
    /// the map is canonical.
    states: BlockMap<GlobalState>,
    waiting: BlockMap<Waiting>,
    identities: Identities,
    /// Bit `i` is set once rule `i` of the table has fired (coverage;
    /// not state: excluded from fingerprints and checkpoints).
    fired: u64,
}

/// A rule chosen for an arrival: the block's state before it, the rule's
/// index in the table, the rule.
type Chosen = (GlobalState, usize, &'static Rule);

impl Directory {
    /// An empty directory running `program` for a system of `caches`
    /// caches. The identity store is the one the table's deliveries call
    /// for ([`Program::delivery`]); `buffer_entries` sizes the
    /// translation buffer and is read only where they call for one.
    ///
    /// # Panics
    ///
    /// Panics if `caches` is zero, or `buffer_entries` is zero where a
    /// buffer is called for.
    #[must_use]
    pub fn new(program: &'static Program, caches: usize, buffer_entries: usize) -> Self {
        assert!(caches > 0, "presence vector needs at least one bit");
        Directory {
            program,
            states: BlockMap::new(),
            waiting: BlockMap::new(),
            identities: match program.delivery() {
                Delivery::Broadcast => Identities::Unknown,
                Delivery::Either => {
                    Identities::Buffered(TranslationBuffer::new(buffer_entries, caches))
                }
                Delivery::Targeted => Identities::Exact {
                    width: caches,
                    holders: BlockMap::new(),
                },
            },
            fired: 0,
        }
    }

    /// This directory with its per-block tables stored for one module of
    /// a `stride`-way interleaved memory ([`BlockMap::with_stride`]) —
    /// what a [`Controller`](crate::Controller) makes of the directory it
    /// is given. Content and behaviour are the same at any stride.
    #[must_use]
    pub fn keyed_by(mut self, stride: u64) -> Self {
        self.states = self.states.keyed_by(stride);
        self.waiting = self.waiting.keyed_by(stride);
        if let Identities::Exact { holders, .. } = &mut self.identities {
            *holders = holders.keyed_by(stride);
        }
        self
    }

    /// Which rules of [`Directory::table`] have fired so far, as a bit
    /// per rule index.
    #[must_use]
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Short stable scheme name for reports.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.program.table().scheme
    }

    /// The transition table this directory executes.
    #[must_use]
    pub fn table(&self) -> &'static TransitionTable {
        self.program.table()
    }

    fn set_state(&mut self, a: BlockAddr, s: GlobalState) {
        if s == self.program.initial() {
            self.states.remove(a);
        } else {
            self.states.insert(a, s);
        }
    }

    /// Handles a transaction-opening command from cache `k` for block `a`,
    /// appending the messages to send, in order, to `sends`.
    ///
    /// The controller guarantees `a` has no other transaction in flight
    /// (section 3.2.5's per-block serialization).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::UnexpectedCommand`], naming scheme, event and
    /// state, for an [`OpenKind`] the scheme's table declares no rule for
    /// (e.g. `WriteThrough` at a two-bit directory); nothing has changed
    /// then.
    pub fn open(
        &mut self,
        k: CacheId,
        a: BlockAddr,
        kind: OpenKind,
        mem: &MemoryImage,
        sends: &mut Vec<DirSend>,
    ) -> Result<DirStep, ProtocolError> {
        debug_assert!(!self.waiting.contains_key(a), "open on a waiting block");
        let (fresh, data) = match kind {
            // `Fresh`: the requester's copy is current. Where identities
            // are exact that is "a recorded holder"; otherwise the carried
            // version detects the crossing-window race the two-bit map
            // cannot see by identity — a clean copy's version equals
            // memory's unless an invalidation for it is in flight (see
            // the `MREQUEST` docs in twobit-types).
            OpenKind::Modify(version) => (
                self.identities
                    .records(a, k)
                    .unwrap_or_else(|| version == mem.read(a)),
                Data::Memory(mem),
            ),
            OpenKind::WriteThrough(version) => (false, Data::InHand(version)),
            _ => (false, Data::Memory(mem)),
        };
        let chosen = self.choose(kind.event(), cond_bits(&[(Cond::Fresh, fresh)]), k, a)?;
        Ok(self.fire(chosen, k, a, data, None, sends))
    }

    /// Checks that the table declares `kind`'s event at all — what a
    /// controller asks before queueing a command it cannot start yet.
    ///
    /// # Errors
    ///
    /// As [`Directory::open`], if it declares none.
    pub fn declares(&self, k: CacheId, a: BlockAddr, kind: OpenKind) -> Result<(), ProtocolError> {
        match self.table().spec(kind.event()) {
            Some(_) => Ok(()),
            None => Err(self.refusal(kind.event(), k, a)),
        }
    }

    /// The typed error for an arrival outside the table's declared
    /// domain — it may have come off a socket, so it is not a crash.
    #[cold]
    fn refusal(&self, event: EventKind, k: CacheId, a: BlockAddr) -> ProtocolError {
        ProtocolError::UnexpectedCommand {
            state: undeclared(self.table(), event, self.global_state(a)),
            command: format!("{event}({k}, {a})"),
        }
    }

    /// Handles block data arriving for a transaction left waiting by
    /// [`Directory::open`]. `retains` tells whether the supplier kept a
    /// clean copy (a `BROADQUERY(read)` response) or gave the block up
    /// entirely (an invalidating response or a racing write-back). The
    /// grant goes into `sends`.
    ///
    /// # Errors
    ///
    /// As [`Directory::open`], for a supply in a state outside the
    /// table's declared domain.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is waiting on `a`.
    pub fn supply(
        &mut self,
        a: BlockAddr,
        from: CacheId,
        version: Version,
        retains: bool,
        sends: &mut Vec<DirSend>,
    ) -> Result<DirStep, ProtocolError> {
        let waiting = *self
            .waiting
            .get(a)
            .expect("supply without a waiting transaction");
        let conds = cond_bits(&[(Cond::WaitWrite, waiting.write), (Cond::Retains, retains)]);
        let chosen = self.choose(EventKind::Supply, conds, waiting.k, a)?;
        self.waiting.remove(a);
        let keeper = (retains && !waiting.write).then_some(from);
        Ok(self.fire(chosen, waiting.k, a, Data::InHand(version), keeper, sends))
    }

    /// Whether an eject notice from `k` (clean or dirty) stands in for the
    /// data supply an in-flight transaction on `a` is waiting for — the
    /// replacement/recall race resolution (the paper's protocols leave
    /// this open; see DESIGN.md). A dirty eject carries the modified data
    /// the wait is for; a clean one does only where the table lets an
    /// exclusive holder be clean, memory then being current. Where
    /// identities are exact the ejector must be the recorded holder.
    #[must_use]
    pub fn eject_satisfies_wait(&self, a: BlockAddr, k: CacheId, wb: WritebackKind) -> bool {
        self.waiting.contains_key(a)
            && (wb == WritebackKind::Dirty || self.program.clean_exclusive())
            && self.identities.records(a, k).unwrap_or(true)
    }

    /// Absorbs a clean (advisory) eject notice.
    ///
    /// # Errors
    ///
    /// As [`Directory::open`].
    pub fn eject_clean(&mut self, k: CacheId, a: BlockAddr) -> Result<(), ProtocolError> {
        let chosen = self.choose(EventKind::EjectClean, 0, k, a)?;
        self.identities.remove(a, k);
        // The notice is advisory: its rule moves the state and sends
        // nothing, so this `Vec` never allocates.
        let mut sends = Vec::new();
        self.fire(chosen, k, a, Data::None, None, &mut sends);
        debug_assert!(sends.is_empty(), "a clean eject notice is advisory");
        Ok(())
    }

    /// Absorbs a dirty eject once its data has arrived; typically writes
    /// memory and frees the directory entry.
    ///
    /// # Errors
    ///
    /// As [`Directory::open`].
    pub fn eject_dirty(
        &mut self,
        k: CacheId,
        a: BlockAddr,
        version: Version,
        sends: &mut Vec<DirSend>,
    ) -> Result<DirStep, ProtocolError> {
        let chosen = self.choose(EventKind::EjectDirty, 0, k, a)?;
        self.identities.remove(a, k);
        Ok(self.fire(chosen, k, a, Data::InHand(version), None, sends))
    }

    /// Looks up the one rule for `event` on block `a` in its present
    /// state.
    fn choose(
        &self,
        event: EventKind,
        conds: u8,
        k: CacheId,
        a: BlockAddr,
    ) -> Result<Chosen, ProtocolError> {
        let before = self.global_state(a);
        match self.program.code().lookup(event, before, conds) {
            Some((index, rule)) => Ok((before, index, rule)),
            None => Err(self.refusal(event, k, a)),
        }
    }

    /// Executes a chosen rule. `k` is the initiator (the requester, the
    /// waiting requester a supply resolves, or the ejector); `keeper` a
    /// supplier that kept a clean copy.
    fn fire(
        &mut self,
        (before, index, rule): Chosen,
        k: CacheId,
        a: BlockAddr,
        data: Data<'_>,
        keeper: Option<CacheId>,
        sends: &mut Vec<DirSend>,
    ) -> DirStep {
        self.fired |= 1 << index;
        let event = rule.event;
        let rw = if event == EventKind::WriteMiss {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let mut step = DirStep {
            write_memory: None,
            completes: rule.completes,
        };
        for action in &rule.actions {
            match *action {
                ActionKind::Grant { exclusive } => {
                    sends.push(match data {
                        Data::Memory(mem) => grant_from_memory(k, a, mem, exclusive),
                        Data::InHand(version) => grant_forwarded(k, a, version, exclusive),
                        Data::None => panic!("'{}' grants with no data to grant", rule.name),
                    });
                    // The holder set is known exactly when the grant is
                    // exclusive, resolves a supply, or finds nobody home.
                    if exclusive || event == EventKind::Supply || before == GlobalState::Absent {
                        self.identities.set(a, k, keeper);
                    } else {
                        self.identities.add(a, k);
                    }
                }
                ActionKind::ModifyGrant { granted } => {
                    sends.push(mgranted(k, a, granted));
                    if granted {
                        self.identities.set(a, k, None);
                    }
                }
                ActionKind::Invalidate { delivery } => {
                    self.deliver(sends, delivery, a, k, None);
                }
                ActionKind::Recall { delivery } => {
                    self.deliver(sends, delivery, a, k, Some(rw));
                }
                ActionKind::WriteMemory => match data {
                    Data::InHand(version) => step.write_memory = Some((a, version)),
                    Data::Memory(_) | Data::None => {
                        panic!("'{}' writes memory with no data in hand", rule.name)
                    }
                },
            }
        }
        if !rule.completes {
            self.waiting.insert(
                a,
                Waiting {
                    k,
                    write: rw.is_write(),
                },
            );
        }
        if let Next::In(set) = rule.next {
            // A wider set leaves the successor to the exact holder set
            // (`Program::compile` admits it nowhere else); the modified
            // bit is whether the block was `PresentM`.
            let next = set.sole().unwrap_or_else(|| {
                match (self.identities.count(a), before == GlobalState::PresentM) {
                    (0, _) => GlobalState::Absent,
                    (_, true) => GlobalState::PresentM,
                    (1, false) => GlobalState::Present1,
                    (_, false) => GlobalState::PresentStar,
                }
            });
            debug_assert!(set.contains(next), "'{}' reached {next}", rule.name);
            self.set_state(a, next);
        }
        step
    }

    /// Sends a non-initiator command — a recall with its access kind, else
    /// an invalidation — by its declared delivery: one broadcast where
    /// holders are unknown (by declaration, or a translation-buffer
    /// miss), else one unicast per recorded holder other than the
    /// initiator, in ascending cache order. Out of line: it keeps the
    /// common grant-only step's frame small.
    #[inline(never)]
    fn deliver(
        &mut self,
        sends: &mut Vec<DirSend>,
        delivery: Delivery,
        a: BlockAddr,
        k: CacheId,
        recall: Option<AccessKind>,
    ) {
        let cost = SendCost::Command;
        let known = match delivery {
            Delivery::Broadcast => None,
            Delivery::Targeted | Delivery::Either => self.identities.lookup(a),
        };
        match known {
            Some(owners) => sends.extend(
                owners
                    .into_iter()
                    .flat_map(OwnerSet::iter)
                    .filter(|&to| to != k)
                    .map(|to| DirSend::Unicast {
                        to,
                        cmd: match recall {
                            Some(rw) => MemoryToCache::Purge { a, to, rw },
                            None => MemoryToCache::Inv { a, to },
                        },
                        cost,
                    }),
            ),
            None => sends.push(DirSend::Broadcast {
                cmd: match recall {
                    Some(rw) => MemoryToCache::BroadQuery { a, rw },
                    None => MemoryToCache::BroadInv { a, exclude: k },
                },
                exclude: k,
                cost,
            }),
        }
    }

    /// `true` while a transaction on `a` awaits a data supply.
    #[must_use]
    pub fn awaiting(&self, a: BlockAddr) -> bool {
        self.waiting.contains_key(a)
    }

    /// The directory's (possibly conservative) view of `a` as one of the
    /// paper's four global states; a scheme that tracks none reports its
    /// constant.
    #[must_use]
    pub fn global_state(&self, a: BlockAddr) -> GlobalState {
        self.states
            .get(a)
            .copied()
            .unwrap_or(self.program.initial())
    }

    /// The exact holder set for `a`, if this scheme keeps one per block
    /// (a translation buffer's knowledge is partial; invariants go
    /// through [`Directory::check_consistency`]).
    #[must_use]
    pub fn holders(&self, a: BlockAddr) -> Option<OwnerSet> {
        self.identities.exact(a)
    }

    /// Translation-buffer (hits, misses) counters, for the schemes that
    /// have one (section 4.4's second enhancement).
    #[must_use]
    pub fn tlb_counters(&self) -> Option<(u64, u64)> {
        match &self.identities {
            Identities::Buffered(buffer) => Some(buffer.counters()),
            Identities::Unknown | Identities::Exact { .. } => None,
        }
    }

    /// Serializes the directory's complete state as a checkpoint
    /// document, invertible by [`Directory::restored`]: `{states,
    /// waiting}` plus `buffer` or `holders` where identities are kept.
    /// Unlike [`Directory::fingerprint`], counters (buffer hits/misses)
    /// are *included* — a restored node must report the same statistics
    /// it would have reported uninterrupted. `BlockMap::iter` is
    /// ascending, so the document is canonical like the fingerprint.
    #[must_use]
    pub fn save_state(&self) -> Json {
        let states: Json = self
            .states
            .iter()
            .map(|(a, s)| obj([("a", a.json()), ("s", s.bits().json())]))
            .collect();
        let waiting: Json = self
            .waiting
            .iter()
            .map(|(a, w)| obj([("a", a.json()), ("k", w.k.json()), ("w", w.write.json())]))
            .collect();
        let identities = match &self.identities {
            Identities::Unknown => None,
            Identities::Buffered(buffer) => Some(("buffer", buffer.json())),
            Identities::Exact { holders, .. } => Some((
                "holders",
                holders
                    .iter()
                    .map(|(a, owners)| obj([("a", a.json()), ("o", owners.json())]))
                    .collect(),
            )),
        };
        obj([("states", states), ("waiting", waiting)]
            .into_iter()
            .chain(identities))
    }

    /// Rebuilds a directory like this one — same table, same identity
    /// store dimensions, same table keying — from a
    /// [`Directory::save_state`] document.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field, or a presence vector
    /// or buffer whose width or capacity is not this directory's.
    pub fn restored(&self, j: &Json) -> Result<Directory, String> {
        let stride = self.states.stride();
        let mut d = Directory {
            program: self.program,
            states: BlockMap::with_stride(stride),
            waiting: BlockMap::with_stride(stride),
            fired: self.fired,
            identities: match &self.identities {
                Identities::Unknown => Identities::Unknown,
                Identities::Buffered(buffer) => {
                    Identities::Buffered(buffer.restored(j.member("buffer")?)?)
                }
                Identities::Exact { width, .. } => {
                    let mut holders = BlockMap::with_stride(stride);
                    for e in j.array("holders")? {
                        let owners: OwnerSet = e.field("o")?;
                        if owners.capacity() != *width {
                            return Err("presence vector width mismatch".into());
                        }
                        holders.insert(e.field("a")?, owners);
                    }
                    Identities::Exact {
                        width: *width,
                        holders,
                    }
                }
            },
        };
        for e in j.array("states")? {
            let bits: u8 = e.field("s")?;
            let s = GlobalState::from_bits(bits)
                .ok_or_else(|| format!("bad global-state bits {bits}"))?;
            d.set_state(e.field("a")?, s);
        }
        for e in j.array("waiting")? {
            d.waiting.insert(
                e.field("a")?,
                Waiting {
                    k: e.field("k")?,
                    write: e.field("w")?,
                },
            );
        }
        Ok(d)
    }

    /// Feeds the directory's complete decision-relevant state into `fp`
    /// in a canonical (path-independent) order, for the model checker's
    /// visited-set: per-block global states, waiting records, holder
    /// sets, buffer contents — and no pure observability counter (two
    /// states differing only in hit/miss tallies behave identically, and
    /// folding them in would defeat deduplication).
    pub fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_usize(self.states.len());
        for (a, s) in self.states.iter() {
            fp.write_u64(a.number());
            fp.write_u64(u64::from(s.bits()));
        }
        fp.write_usize(self.waiting.len());
        for (a, w) in self.waiting.iter() {
            fp.write_u64(a.number());
            fp.write_usize(w.k.index());
            fp.write_bool(w.write);
        }
        match &self.identities {
            Identities::Unknown => {}
            Identities::Buffered(buffer) => buffer.fingerprint(fp),
            Identities::Exact { holders, .. } => {
                fp.write_usize(holders.len());
                for (a, owners) in holders.iter() {
                    fp.write_u64(a.number());
                    fp.write_usize(owners.len());
                    for k in owners.iter() {
                        fp.write_usize(k.index());
                    }
                }
            }
        }
    }

    /// Checks that this directory's knowledge of `a` is consistent with
    /// the ground truth (`clean` = caches holding a clean copy, `dirty` =
    /// caches holding a dirty copy). Only meaningful at quiescence (no
    /// in-flight messages). The global state must admit the copy counts
    /// (conservatively: `Present*` admits any number of clean copies),
    /// and whatever holder set is recorded — a presence vector, a
    /// resident buffer entry — must be exact. A scheme that tracks no
    /// state admits a dirty copy only if its table can grant write
    /// permission at all.
    ///
    /// # Errors
    ///
    /// Returns a description of the inconsistency when the directory's
    /// view does not admit the ground truth.
    pub fn check_consistency(
        &self,
        a: BlockAddr,
        clean: &OwnerSet,
        dirty: &OwnerSet,
    ) -> Result<(), String> {
        let table = self.program.table();
        let state = self.global_state(a);
        let admitted = if table.tracks_state {
            state.admits(clean.len(), dirty.len())
                // An exclusive holder that never wrote is clean.
                || (self.program.clean_exclusive()
                    && state == GlobalState::PresentM
                    && clean.len() == 1
                    && dirty.is_empty())
        } else {
            dirty.len() <= usize::from(self.program.grants_exclusive())
        };
        if !admitted {
            return Err(format!(
                "{} state {state} does not admit {} clean / {} dirty copies",
                table.scheme,
                clean.len(),
                dirty.len()
            ));
        }
        let recorded = match &self.identities {
            Identities::Unknown => None,
            Identities::Buffered(buffer) => buffer.peek(a).cloned(),
            Identities::Exact { .. } => self.identities.exact(a),
        };
        match recorded {
            Some(recorded) => {
                let mut actual = OwnerSet::new(recorded.capacity());
                actual.extend(clean.iter().chain(dirty.iter()));
                if recorded == actual {
                    Ok(())
                } else {
                    Err(format!(
                        "recorded holders {recorded} but actual holders {actual}"
                    ))
                }
            }
            None => Ok(()),
        }
    }
}

/// Convenience constructors for the grant messages every protocol sends.
pub(crate) fn grant_from_memory(
    k: CacheId,
    a: BlockAddr,
    mem: &MemoryImage,
    exclusive: bool,
) -> DirSend {
    DirSend::Unicast {
        to: k,
        cmd: MemoryToCache::GetData {
            k,
            a,
            version: mem.read(a),
            exclusive,
        },
        cost: SendCost::DataFromMemory,
    }
}

/// A grant forwarding data just supplied by an owner.
pub(crate) fn grant_forwarded(
    k: CacheId,
    a: BlockAddr,
    version: Version,
    exclusive: bool,
) -> DirSend {
    DirSend::Unicast {
        to: k,
        cmd: MemoryToCache::GetData {
            k,
            a,
            version,
            exclusive,
        },
        cost: SendCost::DataForwarded,
    }
}

/// An `MGRANTED` reply.
pub(crate) fn mgranted(k: CacheId, a: BlockAddr, granted: bool) -> DirSend {
    DirSend::Unicast {
        to: k,
        cmd: MemoryToCache::MGranted { k, a, granted },
        cost: SendCost::Command,
    }
}

/// What the scheme tests drive a directory through: each call with a
/// fresh send buffer, handed back beside the step's outcome.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// A [`DirStep`] with the sends it made.
    #[derive(Debug)]
    pub(crate) struct Stepped {
        pub(crate) sends: Vec<DirSend>,
        pub(crate) write_memory: Option<(BlockAddr, Version)>,
        pub(crate) completes: bool,
    }

    fn stepped(
        step: impl FnOnce(&mut Vec<DirSend>) -> Result<DirStep, ProtocolError>,
    ) -> Result<Stepped, ProtocolError> {
        let mut sends = Vec::new();
        let DirStep {
            write_memory,
            completes,
        } = step(&mut sends)?;
        Ok(Stepped {
            sends,
            write_memory,
            completes,
        })
    }

    impl Directory {
        pub(crate) fn open_step(
            &mut self,
            k: CacheId,
            a: BlockAddr,
            kind: OpenKind,
            mem: &MemoryImage,
        ) -> Result<Stepped, ProtocolError> {
            stepped(|sends| self.open(k, a, kind, mem, sends))
        }

        pub(crate) fn supply_step(
            &mut self,
            a: BlockAddr,
            from: CacheId,
            version: Version,
            retains: bool,
        ) -> Result<Stepped, ProtocolError> {
            stepped(|sends| self.supply(a, from, version, retains, sends))
        }

        pub(crate) fn eject_dirty_step(
            &mut self,
            k: CacheId,
            a: BlockAddr,
            version: Version,
        ) -> Result<Stepped, ProtocolError> {
            stepped(|sends| self.eject_dirty(k, a, version, sends))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_helpers_build_expected_commands() {
        let mem = MemoryImage::new();
        let k = CacheId::new(3);
        let a = BlockAddr::new(7);
        match grant_from_memory(k, a, &mem, true) {
            DirSend::Unicast {
                to,
                cmd:
                    MemoryToCache::GetData {
                        exclusive, version, ..
                    },
                cost,
            } => {
                assert_eq!(to, k);
                assert!(exclusive);
                assert_eq!(version, Version::initial());
                assert_eq!(cost, SendCost::DataFromMemory);
            }
            other => panic!("unexpected send {other:?}"),
        }
        match grant_forwarded(k, a, Version::new(9), false) {
            DirSend::Unicast {
                cmd: MemoryToCache::GetData { version, .. },
                cost,
                ..
            } => {
                assert_eq!(version, Version::new(9));
                assert_eq!(cost, SendCost::DataForwarded);
            }
            other => panic!("unexpected send {other:?}"),
        }
    }
}
