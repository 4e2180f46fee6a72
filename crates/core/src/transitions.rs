//! Declarative guarded-action transition tables for both controllers of
//! the paper's protocols — the memory module's directory (`K_j`) and the
//! cache's controller (`C_k`) — and the compile step that makes a table
//! executable.
//!
//! A [`Table`] is written in a [`Vocabulary`]: an alphabet of events,
//! states, boolean conditions and actions. Its [`Rule`]s each name the
//! triggering event, the states they fire from, the condition literals
//! they require and the actions they perform. [`Dispatch::compile`] turns
//! a table into a dense `(event, state, condition bits) → rule` array,
//! refusing one with a gap or an overlap — the same
//! [`Table::coverage`] enumeration the linter's exhaustiveness,
//! determinism and dead-rule analyses read — and an interpreter runs the
//! chosen rule's actions.
//!
//! Two vocabularies ship. [`Memory`] (this module: [`EventKind`],
//! [`GlobalState`], [`Cond`], [`ActionKind`]) is what the six
//! [`TransitionTable`]s of the directory schemes are written in; the one
//! [`Directory`](crate::Directory) interprets their [`Program`]s.
//! [`CacheSide`](crate::cache_table::CacheSide) is what the cache
//! disciplines are written in; the one [`CacheAgent`](crate::CacheAgent)
//! interprets those. The simulator, the model checker, the distributed
//! nodes and the `twobit-lint` analyses (exhaustiveness, determinism,
//! dead rules; for the directory also invariant preservation and
//! broadcast necessity; whole-system message flow over both halves)
//! therefore all read one statement of each half of each protocol.
//!
//! The memory vocabulary is deliberately coarse where the paper's
//! schemes differ mechanically: an [`ActionKind::Invalidate`] stands for
//! a `BROADINV` broadcast (two-bit), a set of targeted `INV`s (full-map),
//! or either (the translation-buffer scheme) — the [`Delivery`] field
//! records which shapes a scheme admits, which is what the
//! broadcast-necessity analysis inspects and what decides how much the
//! directory must know about holder identities.

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;
use twobit_types::GlobalState;

/// One letter of a finite alphabet: an event, a state or a condition.
pub trait Symbol: Copy + Eq + Hash + fmt::Debug + fmt::Display + 'static {
    /// Every letter, in [`index`](Symbol::index) order.
    const ALL: &'static [Self];
    /// The letter's position in [`ALL`](Symbol::ALL).
    fn index(self) -> usize;
}

/// Implements [`Symbol`] and `Display` for a fieldless enum declared in
/// index order.
macro_rules! symbols {
    ($ty:ident { $($variant:ident => $text:literal),+ $(,)? }) => {
        impl $crate::transitions::Symbol for $ty {
            const ALL: &'static [Self] = &[$($ty::$variant),+];
            fn index(self) -> usize {
                self as usize
            }
        }
        impl std::fmt::Display for $ty {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.write_str(match self {
                    $($ty::$variant => $text),+
                })
            }
        }
    };
}
pub(crate) use symbols;

/// The alphabets one controller's tables are written in.
pub trait Vocabulary: Copy + Eq + fmt::Debug + 'static {
    /// What the controller reacts to.
    type Event: Symbol;
    /// The per-block states a rule fires from.
    type State: Symbol;
    /// Boolean guard variables decided per arrival, not per state.
    type Cond: Symbol;
    /// What a rule does.
    type Action: Copy + PartialEq + fmt::Debug;
}

/// The memory-module vocabulary: the directory's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Memory;

impl Vocabulary for Memory {
    type Event = EventKind;
    type State = GlobalState;
    type Cond = Cond;
    type Action = ActionKind;
}

impl Symbol for GlobalState {
    const ALL: &'static [Self] = &GlobalState::ALL;
    fn index(self) -> usize {
        usize::from(self.bits())
    }
}

/// The events a directory reacts to: the entry points of
/// [`Directory`](crate::Directory), with `open`'s
/// [`OpenKind`](crate::OpenKind)s split out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// `open(.., OpenKind::ReadMiss, ..)`.
    ReadMiss,
    /// `open(.., OpenKind::WriteMiss, ..)`.
    WriteMiss,
    /// `open(.., OpenKind::Modify(v), ..)` — an MREQUEST.
    Modify,
    /// `open(.., OpenKind::WriteThrough(v), ..)`.
    WriteThrough,
    /// `open(.., OpenKind::DirectRead, ..)`.
    DirectRead,
    /// `supply(..)` — data resolving an awaited transaction.
    Supply,
    /// `eject_clean(..)` — an advisory clean-replacement notice.
    EjectClean,
    /// `eject_dirty(..)` — a dirty replacement's write-back landing.
    EjectDirty,
}

symbols!(EventKind {
    ReadMiss => "read-miss",
    WriteMiss => "write-miss",
    Modify => "modify",
    WriteThrough => "write-through",
    DirectRead => "direct-read",
    Supply => "supply",
    EjectClean => "eject-clean",
    EjectDirty => "eject-dirty",
});

/// A boolean guard variable whose value is decided per call, not per
/// state. Each scheme gives the variable its own concrete reading; the
/// table only cares that it is a boolean the guards may test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// The [`EventKind::Modify`] requester's copy is current: the two-bit
    /// scheme compares the carried version against memory, the full maps
    /// check the requester is a recorded holder.
    Fresh,
    /// The waiting transaction a [`EventKind::Supply`] resolves was a
    /// write miss.
    WaitWrite,
    /// The [`EventKind::Supply`]ing cache kept a clean copy (a
    /// `BROADQUERY(read)`/`PURGE(read)` response, as opposed to an
    /// invalidating response or a racing write-back).
    Retains,
}

symbols!(Cond {
    Fresh => "fresh",
    WaitWrite => "wait-write",
    Retains => "retains",
});

/// A set of states of one alphabet, as a bit mask (bit `i` is the state
/// of [`index`](Symbol::index) `i`; sixteen states at most).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Set<S>(u16, PhantomData<S>);

/// A set of [`GlobalState`]s.
pub type StateSet = Set<GlobalState>;

impl Set<GlobalState> {
    /// The clean shared states `{Present1, Present*}`.
    pub const SHARED: StateSet = Set(0b0110, PhantomData);
}

impl<S: Symbol> Set<S> {
    /// The empty set.
    pub const EMPTY: Self = Set(0, PhantomData);
    /// Every state of the alphabet.
    pub const ALL: Self = Set(((1u32 << S::ALL.len()) - 1) as u16, PhantomData);

    /// The singleton set `{s}`.
    #[must_use]
    pub fn only(s: S) -> Self {
        Set(1 << s.index(), PhantomData)
    }

    /// The set of the listed states.
    #[must_use]
    pub fn of(states: &[S]) -> Self {
        states
            .iter()
            .fold(Self::EMPTY, |acc, &s| acc.union(Self::only(s)))
    }

    /// Membership test.
    #[must_use]
    pub fn contains(self, s: S) -> bool {
        self.0 & (1 << s.index()) != 0
    }

    /// Set union.
    #[must_use]
    pub const fn union(self, other: Self) -> Self {
        Set(self.0 | other.0, PhantomData)
    }

    /// Set intersection.
    #[must_use]
    pub const fn intersect(self, other: Self) -> Self {
        Set(self.0 & other.0, PhantomData)
    }

    /// The members of `self` that are not in `other`.
    #[must_use]
    pub const fn without(self, other: Self) -> Self {
        Set(self.0 & !other.0, PhantomData)
    }

    /// `true` when no state is in the set.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The member of a one-state set.
    #[must_use]
    pub fn sole(self) -> Option<S> {
        (self.0.count_ones() == 1).then(|| S::ALL[self.0.trailing_zeros() as usize])
    }

    /// Iterates the member states in index order.
    pub fn iter(self) -> impl Iterator<Item = S> {
        S::ALL.iter().copied().filter(move |&s| self.contains(s))
    }
}

impl<S: Symbol> fmt::Display for Set<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

/// How a non-initiator command reaches the caches it concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// One broadcast to every cache but the initiator (`BROADINV`,
    /// `BROADQUERY`) — holder identities are unknown.
    Broadcast,
    /// Targeted unicasts to recorded holders (`INV`, `PURGE`).
    Targeted,
    /// Either shape, decided per call (the translation-buffer scheme:
    /// targeted on a buffer hit, broadcast on a miss).
    Either,
}

/// An abstract directory action — what the interpreter turns into the
/// sends and memory write of a [`DirStep`](crate::DirStep), in the
/// vocabulary the analyses reason in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// A `GETDATA` grant to the initiator.
    Grant {
        /// Whether the fill is exclusive (write miss, or the Yen–Fu
        /// sole-reader optimization).
        exclusive: bool,
    },
    /// An `MGRANTED` reply to the initiator.
    ModifyGrant {
        /// Whether the upgrade was granted or denied as stale.
        granted: bool,
    },
    /// Invalidation of non-initiator copies — fire-and-forget.
    Invalidate {
        /// Broadcast, targeted, or per-call choice.
        delivery: Delivery,
    },
    /// A data recall (`BROADQUERY`/`PURGE`) that the protocol then waits
    /// on.
    Recall {
        /// Broadcast, targeted, or per-call choice.
        delivery: Delivery,
    },
    /// A block write into module memory (write-back landing or
    /// write-through update).
    WriteMemory,
}

/// A documented message-ordering guarantee a rule's emissions rely on.
///
/// The whole-system flow analyses (`twobit-lint`) flag every pair of
/// emissions whose delivery order is load-bearing; each flagged pair
/// must be covered by one of these declared guarantees or it is a
/// finding. The guarantees are *implemented* by the deployment layers:
/// `FifoLink` by both network models in `twobit-interconnect` (per-
/// connection FIFO framing) and the model checker's per-(source,
/// destination) channel queues; `AckBarrier` by the memory node's
/// inv-ack gate in `crates/dist/src/node.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderGuarantee {
    /// Per-(source, destination) links deliver messages in emission
    /// order. Orders any two emissions toward the *same* node that
    /// leave the source in a known order.
    FifoLink,
    /// The inv-ack barrier: completion replies emitted alongside an
    /// invalidation are withheld until every invalidation is
    /// acknowledged, and commands for the gated block are deferred, so
    /// nothing emitted for the block can overtake the invalidation
    /// round. Orders an invalidation before its rule's completion even
    /// across *different* destination nodes, where `FifoLink` says
    /// nothing.
    AckBarrier,
}

impl fmt::Display for OrderGuarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            OrderGuarantee::FifoLink => "fifo-link",
            OrderGuarantee::AckBarrier => "ack-barrier",
        })
    }
}

/// The successor-state constraint of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next<S = GlobalState> {
    /// The state is unchanged by the rule.
    Same,
    /// The state after the rule is a member of the set.
    In(Set<S>),
}

/// Declares one event a table reacts to: the states it may arrive in
/// and the condition variables its guards may test.
#[derive(Debug, Clone)]
pub struct EventSpec<V: Vocabulary = Memory> {
    /// The event.
    pub kind: V::Event,
    /// The states the event can be observed in. An event arriving outside
    /// its domain is a protocol error: no rule says what to do.
    pub domain: Set<V::State>,
    /// The condition variables meaningful for this event; guards may
    /// only test these.
    pub conds: Vec<V::Cond>,
}

impl<V: Vocabulary> EventSpec<V> {
    /// A new event declaration.
    #[must_use]
    pub fn new(kind: V::Event, domain: Set<V::State>, conds: &[V::Cond]) -> EventSpec<V> {
        EventSpec {
            kind,
            domain,
            conds: conds.to_vec(),
        }
    }
}

/// One guarded-action rule: *when* `event` arrives in a state of `when`
/// with `requires` holding, *do* `actions` and move to a state admitted
/// by `next`.
#[derive(Debug, Clone)]
pub struct Rule<V: Vocabulary = Memory> {
    /// Stable rule name, unique within its table.
    pub name: &'static str,
    /// Source file of the table entry (for finding provenance).
    pub file: &'static str,
    /// Source line of the table entry.
    pub line: u32,
    /// The triggering event.
    pub event: V::Event,
    /// The source states the guard admits.
    pub when: Set<V::State>,
    /// Condition literals the guard requires, as `(variable, value)`
    /// conjuncts.
    pub requires: Vec<(V::Cond, bool)>,
    /// The abstract actions performed, in order.
    pub actions: Vec<V::Action>,
    /// The successor-state constraint. Directory tables declare it;
    /// cache tables leave it [`Next::Same`] and have it derived from the
    /// actions ([`successor`](crate::cache_table::successor)).
    pub next: Next<V::State>,
    /// `false` when a directory rule leaves the transaction awaiting a
    /// [`EventKind::Supply`].
    pub completes: bool,
    /// Ordering guarantees the rule's emissions rely on: declared when
    /// swapping two of the rule's emissions (or an emission of this
    /// rule with one of a successor rule) would change protocol
    /// behavior. The flow analyses check every such pair against these
    /// declarations.
    pub guarantees: Vec<OrderGuarantee>,
}

impl<V: Vocabulary> Rule<V> {
    /// A new rule; prefer the [`rule!`](crate::rule) macro, which fills
    /// in provenance automatically.
    #[must_use]
    pub fn new(
        name: &'static str,
        file: &'static str,
        line: u32,
        event: V::Event,
        when: Set<V::State>,
    ) -> Rule<V> {
        Rule {
            name,
            file,
            line,
            event,
            when,
            requires: Vec::new(),
            actions: Vec::new(),
            next: Next::Same,
            completes: true,
            guarantees: Vec::new(),
        }
    }

    /// Adds a condition literal to the guard.
    #[must_use]
    pub fn requires(mut self, cond: V::Cond, value: bool) -> Rule<V> {
        self.requires.push((cond, value));
        self
    }

    /// Adds an action.
    #[must_use]
    pub fn action(mut self, action: V::Action) -> Rule<V> {
        self.actions.push(action);
        self
    }

    /// Adds actions, in order.
    #[must_use]
    pub fn actions(mut self, actions: &[V::Action]) -> Rule<V> {
        self.actions.extend_from_slice(actions);
        self
    }

    /// Sets the successor-state set.
    #[must_use]
    pub fn to(mut self, next: Set<V::State>) -> Rule<V> {
        self.next = Next::In(next);
        self
    }

    /// Marks the rule as leaving the transaction awaiting a supply.
    #[must_use]
    pub fn awaits(mut self) -> Rule<V> {
        self.completes = false;
        self
    }

    /// Declares an ordering guarantee the rule's emissions rely on.
    #[must_use]
    pub fn guarded_by(mut self, guarantee: OrderGuarantee) -> Rule<V> {
        self.guarantees.push(guarantee);
        self
    }

    /// `file:line` of the table entry.
    #[must_use]
    pub fn provenance(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }

    /// Whether the guard holds at `(event, state, assignment)`. A
    /// requirement naming a condition outside the assignment (a variable
    /// the event does not declare) never holds.
    #[must_use]
    pub fn enabled_at(
        &self,
        event: V::Event,
        state: V::State,
        assignment: &[(V::Cond, bool)],
    ) -> bool {
        self.event == event
            && self.when.contains(state)
            && self
                .requires
                .iter()
                .all(|literal| assignment.contains(literal))
    }
}

/// Builds a [`Rule`] with the provenance of the macro call site.
#[macro_export]
macro_rules! rule {
    ($name:literal, $event:expr, $when:expr) => {
        $crate::transitions::Rule::new($name, file!(), line!(), $event, $when)
    };
}

/// One controller's complete transition relation as analyzable data.
#[derive(Debug, Clone)]
pub struct Table<V: Vocabulary = Memory> {
    /// The table's stable name, as reports and checkpoints print it: the
    /// scheme of a directory table, the discipline of a cache table.
    pub scheme: &'static str,
    /// Whether a directory scheme maintains per-block global state. The
    /// stateless comparators (classical write-through, static software)
    /// report a constant state, and the state-dependent invariants do
    /// not apply to them. Cache tables always track their lines.
    pub tracks_state: bool,
    /// The declared events with their domains and condition variables.
    pub events: Vec<EventSpec<V>>,
    /// The guarded-action rules.
    pub rules: Vec<Rule<V>>,
}

/// A directory scheme's table — what [`Program::compile`] takes and the
/// one [`Directory`](crate::Directory) executes.
pub type TransitionTable = Table<Memory>;

/// One point of an event's declared domain — a state plus a truth value
/// for every condition variable the event declares — with the rules
/// (indexes into [`Table::rules`]) enabled there. Exactly one is a
/// well-formed table; none is a gap, more an overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Point<V: Vocabulary = Memory> {
    /// The event.
    pub event: V::Event,
    /// The state.
    pub state: V::State,
    /// One literal per condition variable the event declares.
    pub assignment: Vec<(V::Cond, bool)>,
    /// The rules enabled at this point.
    pub rules: Vec<usize>,
}

impl<V: Vocabulary> fmt::Display for Point<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}", self.event, self.state)?;
        for (cond, value) in &self.assignment {
            write!(f, ", {cond}={value}")?;
        }
        write!(f, ")")
    }
}

impl<V: Vocabulary> Table<V> {
    /// The declaration for `kind`, if the table reacts to it.
    #[must_use]
    pub fn spec(&self, kind: V::Event) -> Option<&EventSpec<V>> {
        self.events.iter().find(|e| e.kind == kind)
    }

    /// Looks up a rule by name.
    #[must_use]
    pub fn rule(&self, name: &str) -> Option<&Rule<V>> {
        self.rules.iter().find(|r| r.name == name)
    }

    /// Looks up a rule by name, mutably — used by tests and the seeded
    /// bug demo to break a shipped table on purpose.
    pub fn rule_mut(&mut self, name: &str) -> Option<&mut Rule<V>> {
        self.rules.iter_mut().find(|r| r.name == name)
    }

    /// Every point of every declared event's domain with the rules
    /// enabled there — the enumeration behind [`Dispatch::compile`] and
    /// the linter's exhaustiveness, determinism and dead-rule analyses.
    #[must_use]
    pub fn coverage(&self) -> Vec<Point<V>> {
        let mut points = Vec::new();
        for spec in &self.events {
            for state in spec.domain.iter() {
                // Three condition variables at most: eight assignments.
                for bits in 0..1u8 << spec.conds.len() {
                    let assignment: Vec<(V::Cond, bool)> = spec
                        .conds
                        .iter()
                        .enumerate()
                        .map(|(i, &cond)| (cond, bits & (1 << i) != 0))
                        .collect();
                    let rules = (0..self.rules.len())
                        .filter(|&r| self.rules[r].enabled_at(spec.kind, state, &assignment))
                        .collect();
                    points.push(Point {
                        event: spec.kind,
                        state,
                        assignment,
                        rules,
                    });
                }
            }
        }
        points
    }
}

/// `"<scheme>: the table declares no <event> in <state>"` — what both
/// interpreters say, inside a typed
/// [`ProtocolError::UnexpectedCommand`](twobit_types::ProtocolError), of
/// an arrival outside a table's declared domain.
#[must_use]
pub fn undeclared<V: Vocabulary>(table: &Table<V>, event: V::Event, state: V::State) -> String {
    format!("{}: the table declares no {event} in {state}", table.scheme)
}

/// The tables of all six shipped schemes, in protocol-tag order — each
/// the table of the compiled [`Program`] that
/// [`build_protocol_for`](crate::build_protocol_for) hands the scheme's
/// directories.
#[must_use]
pub fn shipped_tables() -> [&'static TransitionTable; 6] {
    [
        crate::two_bit::program(),
        crate::tlb::program(),
        crate::full_map::program(),
        crate::full_map_local::program(),
        crate::classical::classical_program(),
        crate::classical::null_program(),
    ]
    .map(Program::table)
}

// ---------------------------------------------------------------------
// Compilation: the table as a dense dispatch array.
// ---------------------------------------------------------------------

/// Why a table cannot be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError<V: Vocabulary = Memory> {
    /// No rule is enabled at a point of a declared domain.
    Gap {
        /// The table's scheme.
        scheme: &'static str,
        /// The uncovered point.
        point: Point<V>,
    },
    /// Two rules are enabled at one point.
    Overlap {
        /// The table's scheme.
        scheme: &'static str,
        /// The doubly covered point.
        point: Point<V>,
        /// The first two rules enabled there.
        rules: [&'static str; 2],
    },
    /// A rule asks for something the interpreter cannot do.
    Unexecutable {
        /// The table's scheme.
        scheme: &'static str,
        /// The offending rule.
        rule: &'static str,
        /// What is wrong with it.
        why: &'static str,
    },
}

impl<V: Vocabulary> fmt::Display for CompileError<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Gap { scheme, point } => {
                write!(f, "{scheme}: no rule covers {point}")
            }
            CompileError::Overlap {
                scheme,
                point,
                rules: [a, b],
            } => write!(f, "{scheme}: rules '{a}' and '{b}' both cover {point}"),
            CompileError::Unexecutable { scheme, rule, why } => {
                write!(f, "{scheme}: rule '{rule}' {why}")
            }
        }
    }
}

impl<V: Vocabulary> std::error::Error for CompileError<V> {}

/// The bit pattern [`Dispatch::lookup`] takes: one bit per condition
/// that holds among `literals`.
#[must_use]
pub fn cond_bits<C: Symbol>(literals: &[(C, bool)]) -> u8 {
    literals
        .iter()
        .filter(|(_, holds)| *holds)
        .fold(0, |bits, &(cond, _)| bits | 1 << cond.index())
}

const NO_RULE: u8 = u8::MAX;
/// An interpreter records which rules have fired as one bit each of a
/// `u64` ([`Directory::fired`](crate::Directory::fired),
/// [`CacheAgent::fired`](crate::CacheAgent::fired)).
const MAX_RULES: usize = 64;

/// A [`Table`] compiled for execution: the table itself plus a dense
/// `(event, state, condition bits) → rule` array.
#[derive(Debug, Clone)]
pub struct Dispatch<V: Vocabulary = Memory> {
    table: Table<V>,
    slots: Box<[u8]>,
}

impl<V: Vocabulary> Dispatch<V> {
    fn slot(event: V::Event, state: V::State, conds: u8) -> usize {
        let conds = usize::from(conds) & ((1 << V::Cond::ALL.len()) - 1);
        ((event.index() * V::State::ALL.len() + state.index()) << V::Cond::ALL.len()) | conds
    }

    /// Compiles `table`, refusing one an interpreter could not run
    /// deterministically: a gap or an overlap inside a declared domain
    /// (the linter's exhaustiveness and determinism findings).
    ///
    /// # Errors
    ///
    /// Returns the first [`CompileError`] found, in table order.
    pub fn compile(table: Table<V>) -> Result<Dispatch<V>, CompileError<V>> {
        let scheme = table.scheme;
        if let Some(rule) = table.rules.get(MAX_RULES) {
            return Err(CompileError::Unexecutable {
                scheme,
                rule: rule.name,
                why: "is beyond the 64 rules a coverage word can name",
            });
        }
        let size = (V::Event::ALL.len() * V::State::ALL.len()) << V::Cond::ALL.len();
        let mut slots = vec![NO_RULE; size].into_boxed_slice();
        for point in table.coverage() {
            match point.rules[..] {
                [] => return Err(CompileError::Gap { scheme, point }),
                [rule] => {
                    // A condition the event does not declare does not
                    // matter: the rule holds whatever its bit says.
                    let declared = point.assignment.iter();
                    let declared = declared.fold(0, |bits, &(c, _)| bits | 1u8 << c.index());
                    let conds = cond_bits(&point.assignment);
                    for free in (0..1u8 << V::Cond::ALL.len()).filter(|bits| bits & declared == 0) {
                        slots[Self::slot(point.event, point.state, conds | free)] = rule as u8;
                    }
                }
                [a, b, ..] => {
                    return Err(CompileError::Overlap {
                        scheme,
                        point,
                        rules: [table.rules[a].name, table.rules[b].name],
                    })
                }
            }
        }
        Ok(Dispatch { table, slots })
    }

    /// The table this dispatch array executes.
    #[must_use]
    pub fn table(&self) -> &Table<V> {
        &self.table
    }

    /// The rule (and its index in [`Table::rules`]) for `event` in
    /// `state` under the condition bits of [`cond_bits`]; `None` outside
    /// the event's declared domain.
    #[must_use]
    pub fn lookup(&self, event: V::Event, state: V::State, conds: u8) -> Option<(usize, &Rule<V>)> {
        let r = usize::from(self.slots[Self::slot(event, state, conds)]);
        self.table.rules.get(r).map(|rule| (r, rule))
    }
}

/// A [`TransitionTable`] compiled for execution: its [`Dispatch`] array
/// and the few facts about the whole relation the
/// [`Directory`](crate::Directory) reads.
#[derive(Debug, Clone)]
pub struct Program {
    code: Dispatch,
    initial: GlobalState,
    delivery: Delivery,
    clean_exclusive: bool,
    grants_exclusive: bool,
}

impl Program {
    /// Compiles `table`, refusing one the directory could not run
    /// deterministically: what [`Dispatch::compile`] refuses, a successor
    /// set wider than one state where holder identities are not exact,
    /// or a state change in a scheme that tracks no state.
    ///
    /// # Errors
    ///
    /// Returns the first [`CompileError`] found, in table order.
    pub fn compile(table: TransitionTable) -> Result<Program, CompileError> {
        let code = Dispatch::compile(table)?;
        let table = code.table();
        let scheme = table.scheme;
        // What the directory must know about holder identities is what
        // the strongest delivery any rule asks for needs.
        let delivery = table
            .rules
            .iter()
            .flat_map(|r| &r.actions)
            .filter_map(|action| match *action {
                ActionKind::Invalidate { delivery } | ActionKind::Recall { delivery } => {
                    Some(delivery)
                }
                _ => None,
            })
            .fold(Delivery::Broadcast, |need, d| match (need, d) {
                (Delivery::Targeted, _) | (_, Delivery::Targeted) => Delivery::Targeted,
                (Delivery::Either, _) | (_, Delivery::Either) => Delivery::Either,
                (Delivery::Broadcast, Delivery::Broadcast) => Delivery::Broadcast,
            });
        for rule in &table.rules {
            let why = match rule.next {
                Next::Same => continue,
                Next::In(_) if !table.tracks_state => "moves the state of a stateless scheme",
                Next::In(set) if set.sole().is_none() && delivery != Delivery::Targeted => {
                    "leaves its successor to the holder set, which only targeted delivery keeps"
                }
                Next::In(_) => continue,
            };
            return Err(CompileError::Unexecutable {
                scheme,
                rule: rule.name,
                why,
            });
        }
        // A stateless scheme reports the one state its events declare.
        let initial = match table.events.first() {
            Some(spec) if !table.tracks_state => spec.domain.iter().next().unwrap_or_default(),
            _ => GlobalState::Absent,
        };
        let moves_to = |rule: &Rule, s| matches!(rule.next, Next::In(set) if set.contains(s));
        Ok(Program {
            initial,
            delivery,
            // A clean eject that can empty a `PresentM` block means the
            // exclusive holder may still be clean (Yen–Fu's local state).
            clean_exclusive: table.rules.iter().any(|r| {
                r.event == EventKind::EjectClean
                    && r.when.contains(GlobalState::PresentM)
                    && moves_to(r, GlobalState::Absent)
            }),
            grants_exclusive: table.rules.iter().flat_map(|r| &r.actions).any(|a| {
                matches!(
                    a,
                    ActionKind::Grant { exclusive: true }
                        | ActionKind::ModifyGrant { granted: true }
                )
            }),
            code,
        })
    }

    /// The table this program executes.
    #[must_use]
    pub fn table(&self) -> &TransitionTable {
        self.code.table()
    }

    /// The compiled dispatch array.
    #[must_use]
    pub fn code(&self) -> &Dispatch {
        &self.code
    }

    /// The rule for `event` in `state` under the condition bits of
    /// [`cond_bits`]; `None` outside the event's declared domain.
    #[must_use]
    pub fn rule(&self, event: EventKind, state: GlobalState, conds: u8) -> Option<&Rule> {
        self.code.lookup(event, state, conds).map(|(_, rule)| rule)
    }

    /// The state of a block nothing has happened to: `Absent`, or the
    /// constant state of a scheme that tracks none.
    #[must_use]
    pub fn initial(&self) -> GlobalState {
        self.initial
    }

    /// The strongest delivery any rule asks for — what the directory
    /// must know about holder identities: nothing
    /// ([`Delivery::Broadcast`]), a bounded buffer of exact sets
    /// ([`Delivery::Either`]) or an exact presence vector
    /// ([`Delivery::Targeted`]).
    #[must_use]
    pub fn delivery(&self) -> Delivery {
        self.delivery
    }

    /// Whether a `PresentM` block's sole holder may still be clean: the
    /// table lets a clean eject take `PresentM` to `Absent`.
    #[must_use]
    pub fn clean_exclusive(&self) -> bool {
        self.clean_exclusive
    }

    /// Whether any rule hands out write permission — without one no
    /// cache can ever hold a dirty copy.
    #[must_use]
    pub fn grants_exclusive(&self) -> bool {
        self.grants_exclusive
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_set_operations() {
        let shared = StateSet::SHARED;
        assert!(shared.contains(GlobalState::Present1));
        assert!(shared.contains(GlobalState::PresentStar));
        assert!(!shared.contains(GlobalState::Absent));
        assert_eq!(shared.iter().count(), 2);
        assert_eq!(
            StateSet::ALL.intersect(StateSet::only(GlobalState::PresentM)),
            StateSet::only(GlobalState::PresentM)
        );
        assert!(StateSet::EMPTY.is_empty());
        assert_eq!(shared.to_string(), "{Present1, Present*}");
        assert_eq!(
            StateSet::of(&[GlobalState::Present1, GlobalState::PresentStar]),
            shared
        );
        assert_eq!(shared.sole(), None);
        assert_eq!(StateSet::EMPTY.sole(), None);
        assert_eq!(
            StateSet::only(GlobalState::PresentM).sole(),
            Some(GlobalState::PresentM)
        );
    }

    fn two_bit() -> TransitionTable {
        crate::two_bit::program().table().clone()
    }

    #[test]
    fn dispatch_finds_the_rule_the_guards_name() {
        let program = crate::two_bit::program();
        let rule = |event, state, conds| program.rule(event, state, conds).map(|r| r.name);
        let fresh = cond_bits(&[(Cond::Fresh, true)]);
        assert_eq!(
            rule(EventKind::ReadMiss, GlobalState::Absent, 0),
            Some("read-miss-absent")
        );
        assert_eq!(
            rule(EventKind::Modify, GlobalState::PresentStar, fresh),
            Some("modify-fresh-shared")
        );
        assert_eq!(
            rule(EventKind::Modify, GlobalState::PresentStar, 0),
            Some("modify-stale-copy")
        );
        assert_eq!(
            rule(
                EventKind::Supply,
                GlobalState::PresentM,
                cond_bits(&[(Cond::WaitWrite, false), (Cond::Retains, true)])
            ),
            Some("supply-read-retained")
        );
        // Outside a declared domain, and for an undeclared event: no rule.
        assert_eq!(rule(EventKind::Supply, GlobalState::Absent, 0), None);
        assert_eq!(rule(EventKind::WriteThrough, GlobalState::Absent, 0), None);
    }

    #[test]
    fn a_gap_is_refused_naming_the_uncovered_point() {
        let mut table = two_bit();
        table.rules.retain(|r| r.name != "write-miss-modified");
        let err = Program::compile(table).unwrap_err();
        match &err {
            CompileError::Gap { scheme, point } => {
                assert_eq!(*scheme, "two-bit");
                assert_eq!(point.event, EventKind::WriteMiss);
                assert_eq!(point.state, GlobalState::PresentM);
            }
            other => panic!("expected a gap, got {other:?}"),
        }
        assert_eq!(
            err.to_string(),
            "two-bit: no rule covers (write-miss, PresentM)"
        );
    }

    #[test]
    fn an_overlap_is_refused_naming_both_rules() {
        let mut table = two_bit();
        // Dropping the staleness guard makes the denial cover the points
        // the two granting rules already cover.
        table
            .rule_mut("modify-stale-copy")
            .unwrap()
            .requires
            .clear();
        let err = Program::compile(table).unwrap_err();
        assert_eq!(
            err.to_string(),
            "two-bit: rules 'modify-fresh-present1' and 'modify-stale-copy' both cover \
             (modify, Present1, fresh=true)"
        );
    }

    #[test]
    fn a_wide_successor_needs_exact_identities() {
        let mut table = two_bit();
        table.rule_mut("read-miss-shared").unwrap().next = Next::In(StateSet::SHARED);
        let err = Program::compile(table).unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::Unexecutable {
                    rule: "read-miss-shared",
                    ..
                }
            ),
            "{err}"
        );
        // The full map states that very rule, over an exact vector.
        assert_eq!(
            crate::full_map::program()
                .table()
                .rule("read-miss-shared")
                .unwrap()
                .next,
            Next::In(StateSet::SHARED)
        );
    }

    #[test]
    fn a_stateless_scheme_may_not_move_its_state() {
        let mut table = crate::classical::classical_program().table().clone();
        table.rule_mut("read-miss").unwrap().next = Next::In(StateSet::only(GlobalState::Present1));
        assert!(matches!(
            Program::compile(table),
            Err(CompileError::Unexecutable {
                rule: "read-miss",
                ..
            })
        ));
    }

    #[test]
    fn programs_derive_what_the_directory_reads() {
        let facts = |p: &Program| {
            (
                p.delivery(),
                p.initial(),
                p.clean_exclusive(),
                p.grants_exclusive(),
            )
        };
        use Delivery::{Broadcast, Either, Targeted};
        use GlobalState::{Absent, PresentStar};
        assert_eq!(
            facts(crate::two_bit::program()),
            (Broadcast, Absent, false, true)
        );
        assert_eq!(facts(crate::tlb::program()), (Either, Absent, false, true));
        assert_eq!(
            facts(crate::full_map::program()),
            (Targeted, Absent, false, true)
        );
        assert_eq!(
            facts(crate::full_map_local::program()),
            (Targeted, Absent, true, true)
        );
        assert_eq!(
            facts(crate::classical::classical_program()),
            (Broadcast, PresentStar, false, false)
        );
        assert_eq!(
            facts(crate::classical::null_program()),
            (Broadcast, PresentStar, false, true)
        );
    }
}
