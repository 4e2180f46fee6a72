//! Whole-system message-flow vocabulary.
//!
//! The per-scheme [`TransitionTable`]s describe one role — the memory
//! module — in isolation. The liveness bug class PR 9 hit dynamically
//! (a `PURGE` overtaking a barrier-withheld exclusive grant, landing in
//! a cache state with no rule to service it) lives *between* roles: it
//! needs the cache side's states, the client edge, and the dist layer's
//! ordering machinery (the inv-ack gate, the WtAck hold, txn-id
//! idempotency) in one graph. This module is that graph's vocabulary:
//!
//! * [`FlowRole`] — the three node roles: client, cache controller,
//!   memory module.
//! * [`MsgClass`] — every message class exchanged between roles,
//!   including the dist-layer control messages (`InvAck`, `WtAck`) the
//!   protocol tables never see.
//! * [`FlowRule`] — a guarded rule at a role: *when* `trigger` arrives
//!   in one of the `when` states, emit `emits` and move to a state in
//!   `next`. Memory-role rules are lifted mechanically from a
//!   [`TransitionTable`] by [`lift_memory`] and cache-role rules from a
//!   [`CacheTable`] by [`lift_cache`] — the tables the directory and the
//!   cache agent execute; `twobit-dist` overlays what its node loop adds
//!   (acknowledgments, the gate, the client edge) and the whole system
//!   is assembled and analyzed by `twobit-lint`.
//! * [`FlowEmit`] — one emission edge, annotated with its delivery
//!   shape ([`Delivery`]), destination aim ([`DestHint`]), and the
//!   [`OrderGuarantee`]s it rides on.
//!
//! The abstraction is per-block: states describe one block's life at
//! one node, and a "system" is the product of the three roles around
//! one block. That is exactly the granularity of the dist layer's
//! gates and of the paper's section 3.2.5 races.

use crate::cache_table::{successor, CacheAction, CacheEvent, CacheState, CacheTable, Emit};
use crate::transitions::{
    ActionKind, Cond, Delivery, EventKind, Next, OrderGuarantee, TransitionTable,
};
use std::collections::BTreeMap;
use std::fmt;
use twobit_types::GlobalState;

/// A node role in the whole-system flow graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowRole {
    /// A client issuing references against one cache.
    Client,
    /// A cache controller (the `CacheAgent` plus its dist node wrapper).
    Cache,
    /// A memory-module controller (directory protocol plus its dist
    /// node's gate machinery).
    Memory,
}

impl fmt::Display for FlowRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FlowRole::Client => "client",
            FlowRole::Cache => "cache",
            FlowRole::Memory => "memory",
        })
    }
}

/// Every message class that crosses a link between roles, plus the one
/// local stimulus ([`MsgClass::Evict`]) that models capacity pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MsgClass {
    /// Client → cache: a read or write reference.
    ClientReq,
    /// Cache → client: the reference's completion.
    ClientResp,
    /// Cache → memory: a read-miss request (`REQUEST(read)`).
    ReadReq,
    /// Cache → memory: a write-miss request (`REQUEST(write)`).
    WriteReq,
    /// Cache → memory: an upgrade request (`MREQUEST`).
    UpgradeReq,
    /// Cache → memory: a write-through store (`WRITETHRU`).
    StoreThrough,
    /// Cache → memory: an uncached direct read (`DIRECTREAD`).
    DirectReadReq,
    /// Cache → memory: data supplied for a recall (`PUT`).
    Put,
    /// Cache → memory: a clean-replacement notice.
    EjectClean,
    /// Cache → memory: a dirty replacement's write-back.
    EjectDirty,
    /// Memory → cache: a data grant to the initiator (`GETDATA`).
    Grant,
    /// Memory → cache: an upgrade reply to the initiator (`MGRANTED`,
    /// granted or denied).
    UpgradeAck,
    /// Memory → cache: an invalidation (`INV`/`BROADINV`).
    Inv,
    /// Memory → cache: a data recall (`PURGE`/`BROADQUERY`).
    Recall,
    /// Memory → cache: the dist layer's write-through acknowledgment.
    WtAck,
    /// Cache → memory: the dist layer's invalidation acknowledgment.
    InvAck,
    /// Local stimulus at a cache: capacity pressure forcing a
    /// replacement. Not a network message — it has no arrival
    /// semantics, only opportunistic firing.
    Evict,
}

impl MsgClass {
    /// The role a message of this class is delivered to. [`Evict`]
    /// (local) reports its firing role, the cache.
    ///
    /// [`Evict`]: MsgClass::Evict
    #[must_use]
    pub fn dest(self) -> FlowRole {
        match self {
            MsgClass::ClientReq
            | MsgClass::Grant
            | MsgClass::UpgradeAck
            | MsgClass::Inv
            | MsgClass::Recall
            | MsgClass::WtAck
            | MsgClass::Evict => FlowRole::Cache,
            MsgClass::ClientResp => FlowRole::Client,
            MsgClass::ReadReq
            | MsgClass::WriteReq
            | MsgClass::UpgradeReq
            | MsgClass::StoreThrough
            | MsgClass::DirectReadReq
            | MsgClass::Put
            | MsgClass::EjectClean
            | MsgClass::EjectDirty
            | MsgClass::InvAck => FlowRole::Memory,
        }
    }

    /// `true` for the local [`Evict`](MsgClass::Evict) stimulus, which
    /// never crosses a link.
    #[must_use]
    pub fn is_local(self) -> bool {
        self == MsgClass::Evict
    }
}

impl fmt::Display for MsgClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MsgClass::ClientReq => "client-req",
            MsgClass::ClientResp => "client-resp",
            MsgClass::ReadReq => "read-req",
            MsgClass::WriteReq => "write-req",
            MsgClass::UpgradeReq => "upgrade-req",
            MsgClass::StoreThrough => "store-through",
            MsgClass::DirectReadReq => "direct-read-req",
            MsgClass::Put => "put",
            MsgClass::EjectClean => "eject-clean",
            MsgClass::EjectDirty => "eject-dirty",
            MsgClass::Grant => "grant",
            MsgClass::UpgradeAck => "upgrade-ack",
            MsgClass::Inv => "inv",
            MsgClass::Recall => "recall",
            MsgClass::WtAck => "wt-ack",
            MsgClass::InvAck => "inv-ack",
            MsgClass::Evict => "evict",
        })
    }
}

/// Which node(s) of the destination role an emission aims at. The flow
/// abstraction has one node per role; the hint preserves the identity
/// information the analyses need to decide whether two emissions can
/// reach the *same* concrete node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DestHint {
    /// The cache whose request triggered the rule (a solicited reply).
    Initiator,
    /// Every cache except the initiator (invalidation traffic).
    Others,
    /// The cache the directory believes owns the block (recalls). The
    /// owner is the initiator of an *earlier* transaction, so an
    /// `Owner`-aimed emission can share a concrete destination with an
    /// `Initiator`-aimed one from a preceding rule.
    Owner,
    /// The block's home memory module.
    Home,
    /// The client the cache is serving.
    Issuer,
}

impl DestHint {
    /// Whether emissions with these hints can reach the same concrete
    /// node. `within_rule` restricts the question to two emissions of
    /// one rule firing (where "initiator" and "others" are disjoint by
    /// construction); across rules the initiator of one transaction can
    /// be among the "others" or be the "owner" of the next.
    #[must_use]
    pub fn may_alias(self, other: DestHint, within_rule: bool) -> bool {
        use DestHint::{Home, Initiator, Issuer, Others, Owner};
        match (self, other) {
            (Home, Home) | (Issuer, Issuer) => true,
            (Home | Issuer, _) | (_, Home | Issuer) => false,
            (Initiator, Others) | (Others, Initiator) => !within_rule,
            (Initiator | Others | Owner, _) => true,
        }
    }
}

impl fmt::Display for DestHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DestHint::Initiator => "initiator",
            DestHint::Others => "others",
            DestHint::Owner => "owner",
            DestHint::Home => "home",
            DestHint::Issuer => "issuer",
        })
    }
}

/// One emission edge of a flow rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowEmit {
    /// The message class emitted.
    pub msg: MsgClass,
    /// Which node(s) of the destination role it aims at.
    pub hint: DestHint,
    /// Delivery shape, for emissions lifted from table actions that
    /// carry one (`None` for plain unicasts).
    pub delivery: Option<Delivery>,
    /// Ordering guarantees this emission rides on (copied from the
    /// source rule's declarations).
    pub guarantees: Vec<OrderGuarantee>,
}

impl FlowEmit {
    /// A plain unicast emission with no declared guarantees.
    #[must_use]
    pub fn new(msg: MsgClass, hint: DestHint) -> FlowEmit {
        FlowEmit {
            msg,
            hint,
            delivery: None,
            guarantees: Vec::new(),
        }
    }
}

/// One protocol state of one role in the flow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowState {
    /// The role the state belongs to.
    pub role: FlowRole,
    /// Stable state name, unique within the role.
    pub name: String,
    /// `Some(m)` when the state is *blocked*: the role sits in it until
    /// a message of class `m` arrives.
    pub awaits: Option<MsgClass>,
    /// `true` when commands arriving in this state are deferred (queued
    /// for later processing) rather than dropped — the memory's
    /// per-block busy states and the dist layer's inv-ack gate.
    pub defers: bool,
}

impl FlowState {
    /// A plain, non-blocked state.
    #[must_use]
    pub fn idle(role: FlowRole, name: impl Into<String>) -> FlowState {
        FlowState {
            role,
            name: name.into(),
            awaits: None,
            defers: false,
        }
    }

    /// A blocked state awaiting `m`, deferring other commands.
    #[must_use]
    pub fn blocked(role: FlowRole, name: impl Into<String>, m: MsgClass) -> FlowState {
        FlowState {
            role,
            name: name.into(),
            awaits: Some(m),
            defers: role == FlowRole::Memory,
        }
    }
}

/// One guarded rule at a role of the flow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRule {
    /// Stable rule name, unique within the system (lifted memory rules
    /// are prefixed `mem/`, dist-layer rules `cache/`, `client/`,
    /// `gate/`).
    pub name: String,
    /// `file:line` of the declaration this rule was lifted from.
    pub provenance: String,
    /// The role the rule fires at.
    pub role: FlowRole,
    /// The message class (or local stimulus) that triggers it.
    pub trigger: MsgClass,
    /// The state names the rule fires from.
    pub when: Vec<String>,
    /// The emissions it performs.
    pub emits: Vec<FlowEmit>,
    /// Possible successor states (empty = state unchanged).
    pub next: Vec<String>,
}

impl FlowRule {
    /// A new rule with no emissions and an unchanged successor state.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        provenance: impl Into<String>,
        role: FlowRole,
        trigger: MsgClass,
        when: &[&str],
    ) -> FlowRule {
        FlowRule {
            name: name.into(),
            provenance: provenance.into(),
            role,
            trigger,
            when: when.iter().map(|s| (*s).to_string()).collect(),
            emits: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Adds an emission.
    #[must_use]
    pub fn emit(mut self, e: FlowEmit) -> FlowRule {
        self.emits.push(e);
        self
    }

    /// Sets the successor-state set.
    #[must_use]
    pub fn to(mut self, next: &[&str]) -> FlowRule {
        self.next = next.iter().map(|s| (*s).to_string()).collect();
        self
    }

    /// Whether the rule emits a message of class `m`.
    #[must_use]
    pub fn emits_class(&self, m: MsgClass) -> bool {
        self.emits.iter().any(|e| e.msg == m)
    }
}

/// The memory-role blocked state entered by a rule that `.awaits()` a
/// supply after recalling data for a read-class miss.
pub const AWAIT_READ: &str = "awaiting-put(read)";
/// As [`AWAIT_READ`], for a write miss.
pub const AWAIT_WRITE: &str = "awaiting-put(write)";
/// The memory-role overlay state while an inv-ack gate is open.
pub const GATED: &str = "gated";

/// The name a [`GlobalState`] gets as a memory-role flow state.
#[must_use]
pub fn global_state_name(s: GlobalState) -> String {
    s.to_string()
}

/// The flow message class that triggers a table event.
#[must_use]
pub fn event_trigger(e: EventKind) -> MsgClass {
    match e {
        EventKind::ReadMiss => MsgClass::ReadReq,
        EventKind::WriteMiss => MsgClass::WriteReq,
        EventKind::Modify => MsgClass::UpgradeReq,
        EventKind::WriteThrough => MsgClass::StoreThrough,
        EventKind::DirectRead => MsgClass::DirectReadReq,
        EventKind::Supply => MsgClass::Put,
        EventKind::EjectClean => MsgClass::EjectClean,
        EventKind::EjectDirty => MsgClass::EjectDirty,
    }
}

/// The memory-role half of a scheme's flow graph, lifted mechanically
/// from its [`TransitionTable`].
///
/// * Protocol states become memory-role [`FlowState`]s (stateless
///   comparators get the single state `steady`).
/// * Each [`Rule`](crate::transitions::Rule) becomes a [`FlowRule`]
///   triggered by its event's message class, with its actions as
///   emissions: `Grant`/`ModifyGrant` aim at the initiator,
///   `Invalidate` at the other caches, `Recall` at the recorded owner.
/// * A rule that `.awaits()` a supply transitions into a *blocked*
///   state ([`AWAIT_READ`]/[`AWAIT_WRITE`]) instead of its protocol
///   state; the table's `Supply` rules are re-homed to fire from those
///   blocked states (selected by their `WaitWrite` literals), from
///   which their declared `next` states apply.
/// * The rule's declared [`OrderGuarantee`]s are copied onto its
///   non-invalidation emissions — they are the emissions the
///   guarantees *hold back* (the invalidation itself always goes out
///   first).
#[must_use]
pub fn lift_memory(table: &TransitionTable) -> (Vec<FlowState>, Vec<FlowRule>) {
    let state_name = |set: crate::transitions::StateSet| -> Vec<String> {
        if table.tracks_state {
            set.iter().map(global_state_name).collect()
        } else {
            vec!["steady".to_string()]
        }
    };
    let mut states: Vec<FlowState> = if table.tracks_state {
        GlobalState::ALL
            .into_iter()
            .map(|s| FlowState::idle(FlowRole::Memory, global_state_name(s)))
            .collect()
    } else {
        vec![FlowState::idle(FlowRole::Memory, "steady")]
    };
    let mut await_read = false;
    let mut await_write = false;
    for rule in &table.rules {
        if !rule.completes {
            match rule.event {
                EventKind::WriteMiss => await_write = true,
                _ => await_read = true,
            }
        }
    }
    if await_read {
        states.push(FlowState::blocked(
            FlowRole::Memory,
            AWAIT_READ,
            MsgClass::Put,
        ));
    }
    if await_write {
        states.push(FlowState::blocked(
            FlowRole::Memory,
            AWAIT_WRITE,
            MsgClass::Put,
        ));
    }

    let mut rules = Vec::new();
    for rule in &table.rules {
        let mut fr = FlowRule {
            name: format!("mem/{}", rule.name),
            provenance: rule.provenance(),
            role: FlowRole::Memory,
            trigger: event_trigger(rule.event),
            when: Vec::new(),
            emits: Vec::new(),
            next: Vec::new(),
        };
        // Source states: supply rules are re-homed onto the blocked
        // await states their `WaitWrite` literal selects.
        if rule.event == EventKind::Supply {
            let wait_write = rule
                .requires
                .iter()
                .find(|(c, _)| *c == Cond::WaitWrite)
                .map(|&(_, v)| v);
            match wait_write {
                Some(true) => fr.when.push(AWAIT_WRITE.to_string()),
                Some(false) => fr.when.push(AWAIT_READ.to_string()),
                None => {
                    if await_read {
                        fr.when.push(AWAIT_READ.to_string());
                    }
                    if await_write {
                        fr.when.push(AWAIT_WRITE.to_string());
                    }
                }
            }
        } else {
            fr.when = state_name(rule.when);
        }
        // Successor states: an awaiting rule parks in its blocked
        // state; otherwise the declared `next` set (empty = same).
        if rule.completes {
            if let Next::In(set) = rule.next {
                fr.next = state_name(set);
            }
        } else {
            fr.next = vec![if rule.event == EventKind::WriteMiss {
                AWAIT_WRITE.to_string()
            } else {
                AWAIT_READ.to_string()
            }];
        }
        for action in &rule.actions {
            let emit = match *action {
                ActionKind::Grant { .. } => Some(FlowEmit {
                    msg: MsgClass::Grant,
                    hint: DestHint::Initiator,
                    delivery: None,
                    guarantees: rule.guarantees.clone(),
                }),
                ActionKind::ModifyGrant { .. } => Some(FlowEmit {
                    msg: MsgClass::UpgradeAck,
                    hint: DestHint::Initiator,
                    delivery: None,
                    guarantees: rule.guarantees.clone(),
                }),
                ActionKind::Invalidate { delivery } => Some(FlowEmit {
                    msg: MsgClass::Inv,
                    hint: DestHint::Others,
                    delivery: Some(delivery),
                    guarantees: Vec::new(),
                }),
                ActionKind::Recall { delivery } => Some(FlowEmit {
                    msg: MsgClass::Recall,
                    hint: DestHint::Owner,
                    delivery: Some(delivery),
                    guarantees: rule.guarantees.clone(),
                }),
                ActionKind::WriteMemory => None,
            };
            if let Some(e) = emit {
                fr.emits.push(e);
            }
        }
        rules.push(fr);
    }
    (states, rules)
}

/// Cache-role state: no copy of the block.
pub const IDLE_INVALID: &str = "idle-invalid";
/// Cache-role state: a clean (read-only) copy.
pub const IDLE_CLEAN: &str = "idle-clean";
/// Cache-role state: an owned copy (dirty or exclusive) — the copy a
/// recall targets.
pub const IDLE_OWNER: &str = "idle-owner";
/// Cache-role blocked state: a miss request (or direct read) is out, the
/// data has not arrived.
pub const AWAITING_GRANT: &str = "awaiting-grant";
/// Cache-role blocked state: an `MREQUEST` is out.
pub const AWAITING_UPGRADE: &str = "awaiting-upgrade";

/// The name a [`CacheState`] gets as a cache-role flow state, and the
/// message class a blocked one sits waiting for. The projection is
/// many-to-one: the flow graph does not tell an exclusive line from a
/// dirty one, an uncached block from an absent one, or the three kinds
/// of awaited data apart.
#[must_use]
pub fn cache_state_name(s: CacheState) -> (&'static str, Option<MsgClass>) {
    match s {
        CacheState::Invalid | CacheState::Uncached => (IDLE_INVALID, None),
        CacheState::Clean => (IDLE_CLEAN, None),
        CacheState::Exclusive | CacheState::Dirty => (IDLE_OWNER, None),
        CacheState::AwaitRead | CacheState::AwaitWrite | CacheState::AwaitDirect => {
            (AWAITING_GRANT, Some(MsgClass::Grant))
        }
        CacheState::AwaitUpgrade => (AWAITING_UPGRADE, Some(MsgClass::UpgradeAck)),
    }
}

/// The flow message class (or local stimulus) that triggers a cache
/// table event. Both processor references are the client's request.
#[must_use]
pub fn cache_event_trigger(e: CacheEvent) -> MsgClass {
    match e {
        CacheEvent::Load | CacheEvent::Store => MsgClass::ClientReq,
        CacheEvent::Grant => MsgClass::Grant,
        CacheEvent::UpgradeReply => MsgClass::UpgradeAck,
        CacheEvent::Invalidate => MsgClass::Inv,
        CacheEvent::Recall => MsgClass::Recall,
        CacheEvent::Evict => MsgClass::Evict,
    }
}

/// The cache-role half of a flow graph, lifted mechanically from the
/// [`CacheTable`] the cache agent interprets — the twin of
/// [`lift_memory`].
///
/// * The table's declared states project onto cache-role [`FlowState`]s
///   ([`cache_state_name`]); the awaiting ones are blocked.
/// * Each rule becomes a `cache/`-prefixed [`FlowRule`] triggered by its
///   event's class. Its emissions are its [`CacheAction::Emit`]s, aimed
///   home, and a `ClientResp` to the issuer where it retires the
///   reference. [`CacheAction::MakeRoom`] emits nothing itself: the
///   replacement it may cause is the table's own `Evict` rules, lifted
///   under the local [`MsgClass::Evict`] stimulus.
/// * Successors are derived, not declared
///   ([`successor`]): a rule whose source
///   states do not all move alike lifts to one flow rule per successor
///   set, so no edge is invented between them.
#[must_use]
pub fn lift_cache(table: &CacheTable) -> (Vec<FlowState>, Vec<FlowRule>) {
    let mut states: Vec<FlowState> = Vec::new();
    for spec in &table.events {
        for s in spec.domain.iter() {
            let (name, awaits) = cache_state_name(s);
            if !states.iter().any(|known| known.name == name) {
                states.push(FlowState {
                    role: FlowRole::Cache,
                    name: name.to_string(),
                    awaits,
                    defers: false,
                });
            }
        }
    }
    let mut rules = Vec::new();
    for rule in &table.rules {
        let emits: Vec<FlowEmit> = rule
            .actions
            .iter()
            .filter_map(|action| match *action {
                CacheAction::Emit(emit) => Some(FlowEmit::new(
                    match emit {
                        Emit::ReadReq => MsgClass::ReadReq,
                        Emit::WriteReq => MsgClass::WriteReq,
                        Emit::UpgradeReq => MsgClass::UpgradeReq,
                        Emit::StoreThrough => MsgClass::StoreThrough,
                        Emit::DirectReadReq => MsgClass::DirectReadReq,
                        Emit::Put => MsgClass::Put,
                        Emit::EjectClean => MsgClass::EjectClean,
                        Emit::EjectDirty => MsgClass::EjectDirty,
                    },
                    DestHint::Home,
                )),
                CacheAction::Retire { .. } => {
                    Some(FlowEmit::new(MsgClass::ClientResp, DestHint::Issuer))
                }
                _ => None,
            })
            .collect();
        // Source states by where the rule takes them (empty: nowhere).
        let mut moves: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for from in rule.when.iter() {
            let tos = moves.entry(cache_state_name(from).0).or_default();
            let to = cache_state_name(successor(rule, from)).0;
            if !tos.contains(&to) {
                tos.push(to);
            }
        }
        let mut by_successors: Vec<(Vec<&str>, Vec<&str>)> = Vec::new();
        for (from, mut tos) in moves {
            if tos == [from] {
                tos.clear();
            }
            match by_successors.iter_mut().find(|(next, _)| *next == tos) {
                Some((_, when)) => when.push(from),
                None => by_successors.push((tos, vec![from])),
            }
        }
        for (next, when) in by_successors {
            let mut lifted = FlowRule::new(
                format!("cache/{}", rule.name),
                rule.provenance(),
                FlowRole::Cache,
                cache_event_trigger(rule.event),
                &when,
            )
            .to(&next);
            lifted.emits.clone_from(&emits);
            rules.push(lifted);
        }
    }
    (states, rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transitions::shipped_tables;

    #[test]
    fn lift_two_bit_has_await_states_and_rehomed_supplies() {
        let (states, rules) = lift_memory(crate::two_bit::program().table());
        assert!(states.iter().any(|s| s.name == AWAIT_READ && s.defers));
        assert!(states.iter().any(|s| s.name == AWAIT_WRITE));
        let supply_write = rules.iter().find(|r| r.name == "mem/supply-write").unwrap();
        assert_eq!(supply_write.when, vec![AWAIT_WRITE.to_string()]);
        assert!(supply_write.emits_class(MsgClass::Grant));
        let recall = rules
            .iter()
            .find(|r| r.name == "mem/read-miss-modified")
            .unwrap();
        assert_eq!(recall.next, vec![AWAIT_READ.to_string()]);
        assert_eq!(recall.emits[0].hint, DestHint::Owner);
    }

    #[test]
    fn lift_stateless_tables_use_one_state() {
        let (states, rules) = lift_memory(crate::classical::classical_program().table());
        assert_eq!(states.len(), 1);
        assert_eq!(states[0].name, "steady");
        assert!(rules.iter().all(|r| r.when == vec!["steady".to_string()]));
    }

    #[test]
    fn guarantees_ride_on_the_held_completion_not_the_inv() {
        let (_, rules) = lift_memory(crate::two_bit::program().table());
        let wms = rules
            .iter()
            .find(|r| r.name == "mem/write-miss-shared")
            .unwrap();
        let inv = wms.emits.iter().find(|e| e.msg == MsgClass::Inv).unwrap();
        let grant = wms.emits.iter().find(|e| e.msg == MsgClass::Grant).unwrap();
        assert!(inv.guarantees.is_empty());
        assert_eq!(grant.guarantees, vec![OrderGuarantee::AckBarrier]);
    }

    #[test]
    fn every_shipped_table_lifts() {
        for table in shipped_tables() {
            let (states, rules) = lift_memory(table);
            assert!(!states.is_empty(), "{}", table.scheme);
            assert_eq!(rules.len(), table.rules.len(), "{}", table.scheme);
        }
    }

    #[test]
    fn dest_hint_aliasing_matrix() {
        use DestHint as D;
        // Within one rule firing, the initiator is excluded from the
        // invalidation set.
        assert!(!D::Initiator.may_alias(D::Others, true));
        // Across rules, last transaction's initiator is this one's owner
        // or bystander.
        assert!(D::Initiator.may_alias(D::Others, false));
        assert!(D::Initiator.may_alias(D::Owner, false));
        assert!(D::Owner.may_alias(D::Others, false));
        assert!(!D::Home.may_alias(D::Initiator, false));
        assert!(D::Home.may_alias(D::Home, false));
    }
}
