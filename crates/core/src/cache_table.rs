//! The cache controller (`C_k`) as data: the [`CacheSide`] vocabulary and
//! one transition [`Table`] per cache discipline the six schemes use.
//!
//! * `write_back` — the paper's write-back caches (two-bit, two-bit
//!   with the translation buffer, full map). With the Yen–Fu fill
//!   (full map with local state) a sole reader's grant lands
//!   [`CacheState::Exclusive`], which a store upgrades silently.
//! * `write_through` — the classical scheme: a store updates the local
//!   copy, if any, and posts a `WRITETHRU`, fire-and-forget; no allocation
//!   on a store miss, no dirty line ever, silent replacement.
//! * `static_software` — the software scheme: a public block (numbered
//!   at or above the agent's threshold) is [`CacheState::Uncached`] for
//!   good and served by `DIRECTREAD`/`WRITETHRU`; a private one is
//!   write-back cached with no coherence transaction at all.
//!
//! The one [`CacheAgent`](crate::CacheAgent) interprets these tables; the
//! linter reads them ([`shipped_cache_tables`]) and
//! [`lift_cache`](crate::flow::lift_cache) turns them into the cache role
//! of the whole-system flow graph. Each [`CacheAction`] is one call the
//! agent makes on its tag store (or one message, or one counter), so the
//! tag-probe count of a run is a property of the tables.
//!
//! A state is the block's line state joined with the agent's outstanding
//! reference when that reference is on this block. Where a rule leaves
//! the block is not declared but derived from its actions
//! ([`successor`]), so a table cannot say one thing and do another.

use crate::local::LocalState;
use crate::transitions::{symbols, Dispatch, EventSpec, Rule, Set, Table, Vocabulary};
use std::sync::OnceLock;

/// The cache-controller vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSide;

impl Vocabulary for CacheSide {
    type Event = CacheEvent;
    type State = CacheState;
    type Cond = CacheCond;
    type Action = CacheAction;
}

/// A cache discipline's table.
pub type CacheTable = Table<CacheSide>;
type CacheRule = Rule<CacheSide>;
type States = Set<CacheState>;

/// What a cache controller reacts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheEvent {
    /// The processor reads.
    Load,
    /// The processor writes.
    Store,
    /// `GETDATA`: the data a miss or a direct read asked for.
    Grant,
    /// `MGRANTED`: the answer to an `MREQUEST`.
    UpgradeReply,
    /// `INV`/`BROADINV`.
    Invalidate,
    /// `PURGE`/`BROADQUERY`.
    Recall,
    /// The replacement pseudo-event: [`CacheAction::MakeRoom`] found the
    /// incoming block's set full and fires this on the victim line.
    Evict,
}

symbols!(CacheEvent {
    Load => "load",
    Store => "store",
    Grant => "grant",
    UpgradeReply => "upgrade-reply",
    Invalidate => "invalidate",
    Recall => "recall",
    Evict => "evict",
});

/// One block's state at one cache: its line's [`LocalState`], or what
/// the agent's outstanding reference awaits when it is on this block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheState {
    /// No copy.
    Invalid,
    /// A read-only copy.
    Clean,
    /// The sole copy, unmodified (Yen–Fu).
    Exclusive,
    /// The sole copy, modified.
    Dirty,
    /// A public block of the static scheme: never cached.
    Uncached,
    /// A read miss is out.
    AwaitRead,
    /// A write miss is out.
    AwaitWrite,
    /// A direct read of an uncached block is out.
    AwaitDirect,
    /// An `MREQUEST` is out; the line is still clean.
    AwaitUpgrade,
}

symbols!(CacheState {
    Invalid => "invalid",
    Clean => "clean",
    Exclusive => "exclusive",
    Dirty => "dirty",
    Uncached => "uncached",
    AwaitRead => "await-read",
    AwaitWrite => "await-write",
    AwaitDirect => "await-direct",
    AwaitUpgrade => "await-upgrade",
});

/// Why an agent is stalled: the kind of its outstanding reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingKind {
    /// A `REQUEST(read)` is out.
    ReadMiss,
    /// A `REQUEST(write)` is out.
    WriteMiss,
    /// An `MREQUEST` is out.
    Modify,
    /// A `DIRECTREAD` is out.
    DirectRead,
}

impl CacheState {
    /// The state of a block whose line is in `line` and which the agent
    /// awaits nothing for.
    #[must_use]
    pub fn of_line(line: LocalState) -> CacheState {
        match line {
            LocalState::Invalid => CacheState::Invalid,
            LocalState::Shared => CacheState::Clean,
            LocalState::Exclusive => CacheState::Exclusive,
            LocalState::Dirty => CacheState::Dirty,
        }
    }

    /// The state of the block an outstanding reference of `kind` is on.
    #[must_use]
    pub fn awaiting(kind: PendingKind) -> CacheState {
        match kind {
            PendingKind::ReadMiss => CacheState::AwaitRead,
            PendingKind::WriteMiss => CacheState::AwaitWrite,
            PendingKind::DirectRead => CacheState::AwaitDirect,
            PendingKind::Modify => CacheState::AwaitUpgrade,
        }
    }

    /// The line state underneath and the outstanding reference, if any.
    fn parts(self) -> (CacheState, Option<PendingKind>) {
        match self {
            CacheState::AwaitRead => (CacheState::Invalid, Some(PendingKind::ReadMiss)),
            CacheState::AwaitWrite => (CacheState::Invalid, Some(PendingKind::WriteMiss)),
            CacheState::AwaitDirect => (CacheState::Uncached, Some(PendingKind::DirectRead)),
            CacheState::AwaitUpgrade => (CacheState::Clean, Some(PendingKind::Modify)),
            line => (line, None),
        }
    }
}

/// A boolean the arriving command carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheCond {
    /// The [`CacheEvent::Grant`]'s exclusive flag.
    Exclusive,
    /// Whether the [`CacheEvent::UpgradeReply`] grants.
    Granted,
    /// Whether the [`CacheEvent::Recall`] serves a write miss.
    ForWrite,
}

symbols!(CacheCond {
    Exclusive => "exclusive",
    Granted => "granted",
    ForWrite => "for-write",
});

/// A command a cache sends its block's home module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// `REQUEST(k, a, read)`.
    ReadReq,
    /// `REQUEST(k, a, write)`.
    WriteReq,
    /// `MREQUEST(k, a)`, carrying the line's version (one tag probe).
    UpgradeReq,
    /// `WRITETHRU(k, a)`, carrying the store's version.
    StoreThrough,
    /// `DIRECTREAD(k, a)`.
    DirectReadReq,
    /// `put`: the line's data, answering a recall (one tag probe).
    Put,
    /// `EJECT(k, a, clean)`.
    EjectClean,
    /// `EJECT(k, a, dirty)` followed by the `put` that carries the
    /// victim's data — one write-back.
    EjectDirty,
}

/// The per-rule statistics of [`CacheStats`](twobit_types::CacheStats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // each names the `CacheStats` field it bumps
pub enum Stat {
    ReadHits,
    ReadMisses,
    WriteHitsDirty,
    WriteHitsClean,
    WriteMisses,
    EvictionsClean,
    EvictionsDirty,
    InvalidatedLines,
    EffectiveCommands,
    BlocksSupplied,
}

/// Where a retiring reference's observed version comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observed {
    /// The line's version (one tag probe).
    Line,
    /// The version the grant carried.
    Granted,
    /// The version the store wrote.
    Stored,
}

/// What a cache rule does: one tag-store call, one message, one piece of
/// bookkeeping. All act on the event's block (the victim, for
/// [`CacheEvent::Evict`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// `Cache::touch`: the line was just used.
    Touch,
    /// `Cache::set_state(Dirty)`.
    MarkDirty,
    /// `Cache::set_state(Shared)`: reset the modified bit, keep the copy.
    Downgrade,
    /// `Cache::set_version`: the store's data lands in the line.
    Store,
    /// `Cache::insert` in the given state — with the store's version when
    /// that state is `Dirty`, else the grant's. The block also leaves the
    /// BIAS memory: it is resident again.
    Fill(LocalState),
    /// `Cache::invalidate`.
    Drop,
    /// `Cache::peek_victim` for the incoming block and, if its set is
    /// full, the [`CacheEvent::Evict`] rule of the victim's state.
    MakeRoom,
    /// Send a command.
    Emit(Emit),
    /// The reference stays outstanding, awaiting a reply.
    Stall(PendingKind),
    /// The reference retires.
    Retire {
        /// Whether it was satisfied without a directory transaction.
        hit: bool,
        /// The version it observed (loads) or wrote (stores).
        observed: Observed,
    },
    /// Bump a counter.
    Count(Stat),
}

/// The state `rule` leaves its block in when fired from `from`, derived
/// from what its actions do to the line and to the outstanding
/// reference.
#[must_use]
pub fn successor(rule: &CacheRule, from: CacheState) -> CacheState {
    let (mut line, mut pending) = from.parts();
    for action in &rule.actions {
        match *action {
            CacheAction::Fill(state) => line = CacheState::of_line(state),
            CacheAction::Drop => line = CacheState::Invalid,
            CacheAction::MarkDirty => line = CacheState::Dirty,
            CacheAction::Downgrade => line = CacheState::Clean,
            CacheAction::Stall(kind) => pending = Some(kind),
            CacheAction::Retire { .. } => pending = None,
            _ => {}
        }
    }
    pending.map_or(line, CacheState::awaiting)
}

// ---------------------------------------------------------------------
// The rules the disciplines share.
// ---------------------------------------------------------------------

use CacheAction as A;
use CacheEvent as E;
use CacheState as S;

fn only(s: CacheState) -> States {
    Set::only(s)
}

/// The reference retires, satisfied without a directory transaction.
fn hit(observed: Observed) -> CacheAction {
    A::Retire {
        hit: true,
        observed,
    }
}

/// The reference retires, having needed one.
fn miss(observed: Observed) -> CacheAction {
    A::Retire {
        hit: false,
        observed,
    }
}

fn read_hit(copies: States) -> CacheRule {
    crate::rule!("read-hit", E::Load, copies).actions(&[
        A::Touch,
        A::Count(Stat::ReadHits),
        hit(Observed::Line),
    ])
}

fn read_miss() -> CacheRule {
    crate::rule!("read-miss", E::Load, only(S::Invalid)).actions(&[
        A::Count(Stat::ReadMisses),
        A::MakeRoom,
        A::Emit(Emit::ReadReq),
        A::Stall(PendingKind::ReadMiss),
    ])
}

/// A store that needs nobody's permission: to an owned line, or — under
/// the static scheme, where nobody else can hold a private block — to a
/// clean one.
fn write_hit(name: &'static str, when: States) -> CacheRule {
    Rule::new(name, file!(), line!(), E::Store, when).actions(&[
        A::Touch,
        A::MarkDirty,
        A::Store,
        A::Count(Stat::WriteHitsDirty),
        hit(Observed::Stored),
    ])
}

fn write_miss() -> CacheRule {
    crate::rule!("write-miss", E::Store, only(S::Invalid)).actions(&[
        A::Count(Stat::WriteMisses),
        A::MakeRoom,
        A::Emit(Emit::WriteReq),
        A::Stall(PendingKind::WriteMiss),
    ])
}

fn fill_read(name: &'static str, state: LocalState) -> CacheRule {
    Rule::new(name, file!(), line!(), E::Grant, only(S::AwaitRead))
        .actions(&[A::Fill(state), miss(Observed::Granted)])
}

fn fill_write() -> CacheRule {
    crate::rule!("grant-fill-write", E::Grant, only(S::AwaitWrite))
        .actions(&[A::Fill(LocalState::Dirty), miss(Observed::Stored)])
}

fn inv_drop_copy(copies: States) -> CacheRule {
    crate::rule!("inv-drop-copy", E::Invalidate, copies).actions(&[
        A::Drop,
        A::Count(Stat::InvalidatedLines),
        A::Count(Stat::EffectiveCommands),
    ])
}

/// A victim leaves: counted, and announced if the discipline announces
/// it.
fn evict(name: &'static str, when: States, stat: Stat, announce: Option<Emit>) -> CacheRule {
    let rule =
        Rule::new(name, file!(), line!(), E::Evict, when).actions(&[A::Drop, A::Count(stat)]);
    match announce {
        Some(emit) => rule.action(A::Emit(emit)),
        None => rule,
    }
}

fn compiled(table: CacheTable) -> Dispatch<CacheSide> {
    Dispatch::compile(table).unwrap_or_else(|e| panic!("a shipped cache table compiles: {e}"))
}

// ---------------------------------------------------------------------
// The disciplines.
// ---------------------------------------------------------------------

/// The write-back discipline of sections 3.2.1–3.2.5 — with `exclusive`,
/// the Yen–Fu variant whose sole-reader fills land `Exclusive`.
pub(crate) fn write_back(exclusive: bool) -> &'static Dispatch<CacheSide> {
    static PLAIN: OnceLock<Dispatch<CacheSide>> = OnceLock::new();
    static YEN_FU: OnceLock<Dispatch<CacheSide>> = OnceLock::new();
    let cell = if exclusive { &YEN_FU } else { &PLAIN };
    cell.get_or_init(|| {
        use CacheCond as C;
        let owned = if exclusive {
            States::of(&[S::Exclusive, S::Dirty])
        } else {
            only(S::Dirty)
        };
        let copies = owned.union(only(S::Clean));
        let lines = copies.union(only(S::Invalid));
        let missing = States::of(&[S::Invalid, S::AwaitRead, S::AwaitWrite]);
        let anywhere = lines.union(missing).union(only(S::AwaitUpgrade));
        // The invalidation ordered before a denial, or doubling as one
        // (section 3.2.5): the copy is gone, retry as a write miss.
        let retry_as_write_miss = [
            A::Drop,
            A::Stall(PendingKind::WriteMiss),
            A::MakeRoom,
            A::Emit(Emit::WriteReq),
        ];
        let supply = [
            A::Emit(Emit::Put),
            A::Count(Stat::BlocksSupplied),
            A::Count(Stat::EffectiveCommands),
        ];
        let mut rules = vec![
            read_hit(copies),
            read_miss(),
            write_hit("write-hit-owner", owned),
            // Write hit on a previously unmodified block: MREQUEST
            // (section 3.2.4).
            crate::rule!("upgrade", E::Store, only(S::Clean)).actions(&[
                A::Touch,
                A::Count(Stat::WriteHitsClean),
                A::Emit(Emit::UpgradeReq),
                A::Stall(PendingKind::Modify),
            ]),
            write_miss(),
            fill_write(),
            crate::rule!("upgrade-granted", E::UpgradeReply, only(S::AwaitUpgrade))
                .requires(C::Granted, true)
                .actions(&[A::MarkDirty, A::Store, hit(Observed::Stored)]),
            crate::rule!("upgrade-denied", E::UpgradeReply, only(S::AwaitUpgrade))
                .requires(C::Granted, false)
                .actions(&retry_as_write_miss),
            // The invalidation already converted the MREQUEST; the late
            // reply to it is dropped.
            crate::rule!(
                "upgrade-stale-reply",
                E::UpgradeReply,
                anywhere.without(only(S::AwaitUpgrade))
            ),
            inv_drop_copy(copies),
            crate::rule!("inv-while-missing", E::Invalidate, missing),
            crate::rule!("inv-converts-upgrade", E::Invalidate, only(S::AwaitUpgrade))
                .actions(&[
                    A::Count(Stat::InvalidatedLines),
                    A::Count(Stat::EffectiveCommands),
                ])
                .actions(&retry_as_write_miss),
            // Reset the modified bit, keep a read-only copy.
            crate::rule!("recall-owner-read", E::Recall, owned)
                .requires(C::ForWrite, false)
                .actions(&supply)
                .action(A::Downgrade),
            // Reset the valid bit.
            crate::rule!("recall-owner-write", E::Recall, owned)
                .requires(C::ForWrite, true)
                .actions(&supply)
                .actions(&[A::Drop, A::Count(Stat::InvalidatedLines)]),
            // Not the owner: a two-bit BROADQUERY probes everyone and
            // most probes find nothing — the scheme's cost.
            crate::rule!("recall-bystander", E::Recall, anywhere.without(owned)),
            evict(
                "evict-clean",
                copies.without(only(S::Dirty)),
                Stat::EvictionsClean,
                Some(Emit::EjectClean),
            ),
            evict(
                "evict-dirty",
                only(S::Dirty),
                Stat::EvictionsDirty,
                Some(Emit::EjectDirty),
            ),
        ];
        if exclusive {
            rules.push(
                fill_read("grant-fill-shared", LocalState::Shared).requires(C::Exclusive, false),
            );
            rules.push(
                fill_read("grant-fill-exclusive", LocalState::Exclusive)
                    .requires(C::Exclusive, true),
            );
        } else {
            rules.push(fill_read("grant-fill-read", LocalState::Shared));
        }
        compiled(Table {
            scheme: if exclusive {
                "write-back+exclusive"
            } else {
                "write-back"
            },
            tracks_state: true,
            events: vec![
                EventSpec::new(E::Load, lines, &[]),
                EventSpec::new(E::Store, lines, &[]),
                EventSpec::new(
                    E::Grant,
                    States::of(&[S::AwaitRead, S::AwaitWrite]),
                    if exclusive { &[C::Exclusive] } else { &[] },
                ),
                EventSpec::new(E::UpgradeReply, anywhere, &[C::Granted]),
                EventSpec::new(E::Invalidate, anywhere, &[]),
                EventSpec::new(E::Recall, anywhere, &[C::ForWrite]),
                EventSpec::new(E::Evict, copies, &[]),
            ],
            rules,
        })
    })
}

/// The classical write-through discipline (section 2.3).
pub(crate) fn write_through() -> &'static Dispatch<CacheSide> {
    static PROGRAM: OnceLock<Dispatch<CacheSide>> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        let lines = States::of(&[S::Invalid, S::Clean]);
        let missing = States::of(&[S::Invalid, S::AwaitRead]);
        compiled(Table {
            scheme: "write-through",
            tracks_state: true,
            events: vec![
                EventSpec::new(E::Load, lines, &[]),
                EventSpec::new(E::Store, lines, &[]),
                EventSpec::new(E::Grant, only(S::AwaitRead), &[]),
                EventSpec::new(E::Invalidate, lines.union(missing), &[]),
                EventSpec::new(E::Evict, only(S::Clean), &[]),
            ],
            rules: vec![
                read_hit(only(S::Clean)),
                read_miss(),
                // Update the local copy and post through to memory; the
                // line stays clean.
                crate::rule!("store-through", E::Store, only(S::Clean)).actions(&[
                    A::Touch,
                    A::Store,
                    A::Count(Stat::WriteHitsDirty),
                    A::Emit(Emit::StoreThrough),
                    hit(Observed::Stored),
                ]),
                // No allocation on a store miss, no stall.
                crate::rule!("store-through-miss", E::Store, only(S::Invalid)).actions(&[
                    A::Count(Stat::WriteMisses),
                    A::Emit(Emit::StoreThrough),
                    miss(Observed::Stored),
                ]),
                fill_read("grant-fill-read", LocalState::Shared),
                inv_drop_copy(only(S::Clean)),
                crate::rule!("inv-while-missing", E::Invalidate, missing),
                // Memory is always current: nobody needs telling.
                evict("evict-silent", only(S::Clean), Stat::EvictionsClean, None),
            ],
        })
    })
}

/// The static software discipline (section 2.2).
pub(crate) fn static_software() -> &'static Dispatch<CacheSide> {
    static PROGRAM: OnceLock<Dispatch<CacheSide>> = OnceLock::new();
    PROGRAM.get_or_init(|| {
        let copies = States::of(&[S::Clean, S::Dirty]);
        let blocks = copies.union(States::of(&[S::Invalid, S::Uncached]));
        compiled(Table {
            scheme: "static",
            tracks_state: true,
            events: vec![
                EventSpec::new(E::Load, blocks, &[]),
                EventSpec::new(E::Store, blocks, &[]),
                EventSpec::new(
                    E::Grant,
                    States::of(&[S::AwaitRead, S::AwaitWrite, S::AwaitDirect]),
                    &[],
                ),
                EventSpec::new(E::Evict, copies, &[]),
            ],
            rules: vec![
                read_hit(copies),
                read_miss(),
                crate::rule!("direct-read", E::Load, only(S::Uncached)).actions(&[
                    A::Count(Stat::ReadMisses),
                    A::Emit(Emit::DirectReadReq),
                    A::Stall(PendingKind::DirectRead),
                ]),
                write_hit("write-hit-owner", only(S::Dirty)),
                write_hit("write-hit-silent-upgrade", only(S::Clean)),
                write_miss(),
                crate::rule!("store-through", E::Store, only(S::Uncached)).actions(&[
                    A::Count(Stat::WriteMisses),
                    A::Emit(Emit::StoreThrough),
                    miss(Observed::Stored),
                ]),
                fill_read("grant-fill-read", LocalState::Shared),
                fill_write(),
                // Public data is consumed, never cached.
                crate::rule!("grant-direct", E::Grant, only(S::AwaitDirect))
                    .action(miss(Observed::Granted)),
                // No directory state to maintain for a clean private line.
                evict("evict-silent", only(S::Clean), Stat::EvictionsClean, None),
                evict(
                    "evict-dirty",
                    only(S::Dirty),
                    Stat::EvictionsDirty,
                    Some(Emit::EjectDirty),
                ),
            ],
        })
    })
}

/// The four cache tables the six schemes run, plain write-back first.
#[must_use]
pub fn shipped_cache_tables() -> [&'static CacheTable; 4] {
    [
        write_back(false),
        write_back(true),
        write_through(),
        static_software(),
    ]
    .map(Dispatch::table)
}
