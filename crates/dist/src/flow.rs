//! The dist layer's half of the whole-system message-flow graph.
//!
//! [`twobit_core::flow::lift_memory`] lifts a scheme's transition table
//! into memory-role flow rules, but the liveness analyses need the rest
//! of the system: the cache controller's states (including the blocked
//! `awaiting-*` windows the PR 9 livelock exploited), the client edge,
//! and the three distribution-only mechanisms this crate implements in
//! [`node`](crate::node):
//!
//! * the **inv-ack barrier** — completions for a block are withheld
//!   until every invalidation is acknowledged, later emissions for the
//!   block are withheld behind them, and commands for the block are
//!   deferred FIFO ([`MemNode::process`](crate::node::MemNode));
//! * the **WtAck hold** — a write-through's client response waits for
//!   the memory node's synthesized acknowledgment
//!   ([`CacheNode`](crate::node::CacheNode));
//! * **txn-id idempotency** — a duplicate client request is answered
//!   from the last recorded reply, or dropped while in flight or once a
//!   newer transaction has acknowledged it.
//!
//! This module states those mechanisms *declaratively*, as
//! [`FlowState`]s and [`FlowRule`]s, so `twobit-lint` can assemble one
//! graph per scheme and run the unserviced-message, wait-cycle, and
//! reorder-sensitivity analyses over it. [`GateSpec`] parameterizes the
//! ordering machinery: [`GateSpec::shipped`] is what the node code
//! does; [`GateSpec::pr9_regression`] reproduces the pre-fix barrier
//! discipline (completions held but later emissions not), the seeded
//! bug behind `lint_protocols --demo-barrier-livelock`.
//!
//! The cache/client rules are an abstraction of `CacheAgent` (see
//! `crates/core/src/agent.rs`) and the node wrappers; the honesty tests
//! at the bottom replay the key rules against the real nodes.

use twobit_core::flow::{
    lift_memory, DestHint, FlowEmit, FlowRole, FlowRule, FlowState, MsgClass, GATED,
};
use twobit_core::transitions::{EventKind, OrderGuarantee, TransitionTable};

/// Which ordering guarantees the deployment's gate and links actually
/// provide. The analyses flag every reorder-sensitive emission pair
/// that is not covered by a guarantee the spec provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateSpec {
    /// Completion messages (`Grant`, `UpgradeAck`, `WtAck`) for a block
    /// are withheld until the block's invalidations are acknowledged.
    pub holds_completions: bool,
    /// Once a gate is open, *later* emissions for the block (recalls
    /// from drained follow-up transactions) are withheld behind the
    /// held completions, and inbound commands for the block are
    /// deferred FIFO. Turning this off is exactly the PR 9 bug: a
    /// recall overtakes the withheld grant it logically follows.
    pub defers_while_gated: bool,
    /// Per-(src, dst) links deliver in emission order (the star
    /// router's FIFO channels).
    pub fifo_links: bool,
}

impl GateSpec {
    /// The discipline the shipped node code implements.
    #[must_use]
    pub fn shipped() -> GateSpec {
        GateSpec {
            holds_completions: true,
            defers_while_gated: true,
            fifo_links: true,
        }
    }

    /// The pre-fix barrier: acks are counted and completions held, but
    /// later emissions pass straight through the open gate. A `PURGE`
    /// can then overtake the withheld exclusive grant, arriving at a
    /// cache that is still `awaiting-grant` and owes no data — the
    /// controller waits forever for a `PUT` that never comes.
    #[must_use]
    pub fn pr9_regression() -> GateSpec {
        GateSpec {
            defers_while_gated: false,
            ..GateSpec::shipped()
        }
    }

    /// A deployment whose links reorder freely (no FIFO channels) —
    /// the broken fixture for the reorder-sensitivity analysis.
    #[must_use]
    pub fn unordered_links() -> GateSpec {
        GateSpec {
            fifo_links: false,
            ..GateSpec::shipped()
        }
    }

    /// Whether the deployment provides a declared guarantee.
    #[must_use]
    pub fn provides(&self, g: OrderGuarantee) -> bool {
        match g {
            OrderGuarantee::FifoLink => self.fifo_links,
            OrderGuarantee::AckBarrier => self.holds_completions,
        }
    }

    /// Whether an emission of class `m` is withheld while a gate is
    /// open on its block.
    #[must_use]
    pub fn withholds(&self, m: MsgClass) -> bool {
        match m {
            MsgClass::Grant | MsgClass::UpgradeAck | MsgClass::WtAck => self.holds_completions,
            MsgClass::Recall => self.defers_while_gated,
            _ => false,
        }
    }
}

/// Cache-role state: no copy of the block.
pub const IDLE_INVALID: &str = "idle-invalid";
/// Cache-role state: a clean (read-only) copy.
pub const IDLE_CLEAN: &str = "idle-clean";
/// Cache-role state: an owned copy (dirty or exclusive) — the copy a
/// recall targets.
pub const IDLE_OWNER: &str = "idle-owner";
/// Cache-role blocked state: a miss request is out, the fill has not
/// arrived.
pub const AWAITING_GRANT: &str = "awaiting-grant";
/// Cache-role blocked state: an `MREQUEST` is out.
pub const AWAITING_UPGRADE: &str = "awaiting-upgrade";
/// Cache-role blocked state: a write-through retired locally but its
/// client response is held for the memory node's `WtAck`.
pub const HOLDING_WT: &str = "holding-wt";
/// The client's single state: blocked on the response to its one
/// outstanding request (the client edge is blocking, at-least-once).
pub const CLIENT_WAITING: &str = "waiting";

/// What the scheme's memory half implies about its cache half: which
/// states and rules exist at all. Derived from the transition table, so
/// the cache catalog can never drift ahead of the scheme.
#[derive(Debug, Clone, Copy)]
struct Caps {
    grants: bool,
    upgrades: bool,
    invalidates: bool,
    recalls: bool,
    store_through: bool,
    direct_read: bool,
    write_req: bool,
    eject_clean: bool,
    eject_dirty: bool,
    /// An owned (dirty/exclusive) cache state exists: something can
    /// upgrade, fill exclusively, or write back dirty.
    owner: bool,
}

fn caps_of(table: &TransitionTable) -> Caps {
    let has_event = |e: EventKind| table.rules.iter().any(|r| r.event == e);
    let (_, mem_rules) = lift_memory(table);
    let emits = |m: MsgClass| mem_rules.iter().any(|r| r.emits_class(m));
    let upgrades = has_event(EventKind::Modify);
    let recalls = emits(MsgClass::Recall);
    let eject_dirty = has_event(EventKind::EjectDirty);
    Caps {
        grants: emits(MsgClass::Grant),
        upgrades,
        invalidates: emits(MsgClass::Inv),
        recalls,
        store_through: has_event(EventKind::WriteThrough),
        direct_read: has_event(EventKind::DirectRead),
        write_req: has_event(EventKind::WriteMiss),
        eject_clean: has_event(EventKind::EjectClean),
        eject_dirty,
        owner: upgrades || recalls || eject_dirty,
    }
}

macro_rules! here {
    () => {
        concat!(file!(), ":", line!())
    };
}

fn emit(msg: MsgClass, hint: DestHint) -> FlowEmit {
    FlowEmit::new(msg, hint)
}

/// The cache and client roles of one scheme's flow graph, shaped by the
/// scheme's capabilities.
fn cache_client(caps: Caps) -> (Vec<FlowState>, Vec<FlowRule>) {
    use DestHint as D;
    use FlowRole::{Cache, Client};
    use MsgClass as M;

    let mut states = vec![
        FlowState::idle(Cache, IDLE_INVALID),
        FlowState::blocked(Client, CLIENT_WAITING, M::ClientResp),
    ];
    if caps.grants {
        states.push(FlowState::idle(Cache, IDLE_CLEAN));
        states.push(FlowState::blocked(Cache, AWAITING_GRANT, M::Grant));
    }
    if caps.owner {
        states.push(FlowState::idle(Cache, IDLE_OWNER));
    }
    if caps.upgrades {
        states.push(FlowState::blocked(Cache, AWAITING_UPGRADE, M::UpgradeAck));
    }
    if caps.store_through {
        states.push(FlowState::blocked(Cache, HOLDING_WT, M::WtAck));
    }

    let copy_states: Vec<&str> = [(caps.grants, IDLE_CLEAN), (caps.owner, IDLE_OWNER)]
        .into_iter()
        .filter_map(|(on, s)| on.then_some(s))
        .collect();
    let blocked_states: Vec<&str> = [
        (caps.grants, AWAITING_GRANT),
        (caps.upgrades, AWAITING_UPGRADE),
        (caps.store_through, HOLDING_WT),
    ]
    .into_iter()
    .filter_map(|(on, s)| on.then_some(s))
    .collect();

    let mut rules = Vec::new();

    // The client edge: one blocking client per cache; each response
    // elicits the next request. Retries of the in-flight request are
    // modeled by `cache/duplicate-drop` below.
    rules.push(
        FlowRule::new(
            "client/next-request",
            here!(),
            Client,
            M::ClientResp,
            &[CLIENT_WAITING],
        )
        .emit(emit(M::ClientReq, D::Issuer))
        .to(&[CLIENT_WAITING]),
    );

    // --- ClientReq: hits complete locally, misses open a transaction.
    rules.push(
        FlowRule::new("cache/read-hit", here!(), Cache, M::ClientReq, &copy_states)
            .emit(emit(M::ClientResp, D::Issuer)),
    );
    if caps.grants {
        rules.push(
            FlowRule::new(
                "cache/read-miss",
                here!(),
                Cache,
                M::ClientReq,
                &[IDLE_INVALID],
            )
            .emit(emit(M::ReadReq, D::Home))
            .to(&[AWAITING_GRANT]),
        );
    }
    if caps.direct_read {
        rules.push(
            FlowRule::new(
                "cache/direct-read",
                here!(),
                Cache,
                M::ClientReq,
                &[IDLE_INVALID],
            )
            .emit(emit(M::DirectReadReq, D::Home))
            .to(&[AWAITING_GRANT]),
        );
    }
    if caps.write_req {
        rules.push(
            FlowRule::new(
                "cache/write-miss",
                here!(),
                Cache,
                M::ClientReq,
                &[IDLE_INVALID],
            )
            .emit(emit(M::WriteReq, D::Home))
            .to(&[AWAITING_GRANT]),
        );
    }
    if caps.upgrades {
        rules.push(
            FlowRule::new("cache/upgrade", here!(), Cache, M::ClientReq, &[IDLE_CLEAN])
                .emit(emit(M::UpgradeReq, D::Home))
                .to(&[AWAITING_UPGRADE]),
        );
    } else if caps.write_req && caps.owner && caps.grants {
        // The static scheme upgrades private clean lines silently.
        rules.push(
            FlowRule::new(
                "cache/write-hit-silent-upgrade",
                here!(),
                Cache,
                M::ClientReq,
                &[IDLE_CLEAN],
            )
            .emit(emit(M::ClientResp, D::Issuer))
            .to(&[IDLE_OWNER]),
        );
    }
    if caps.store_through {
        // Write-through stores: from a clean copy too when the scheme
        // has no write-miss path (the classical scheme never takes
        // ownership).
        let st_states: Vec<&str> = if caps.write_req {
            vec![IDLE_INVALID]
        } else {
            vec![IDLE_INVALID, IDLE_CLEAN]
        };
        rules.push(
            FlowRule::new(
                "cache/store-through",
                here!(),
                Cache,
                M::ClientReq,
                &st_states,
            )
            .emit(emit(M::StoreThrough, D::Home))
            .to(&[HOLDING_WT]),
        );
    }
    if caps.owner {
        rules.push(
            FlowRule::new(
                "cache/write-hit-owner",
                here!(),
                Cache,
                M::ClientReq,
                &[IDLE_OWNER],
            )
            .emit(emit(M::ClientResp, D::Issuer)),
        );
    }
    // Txn-id idempotency (node.rs `CacheNode::deliver`, `ClientReq`
    // arm): a retry of the in-flight transaction is dropped — the
    // answer is already on its way.
    if !blocked_states.is_empty() {
        rules.push(FlowRule::new(
            "cache/duplicate-drop",
            here!(),
            Cache,
            M::ClientReq,
            &blocked_states,
        ));
    }
    // A late retry of a transaction a newer one has acknowledged is
    // dropped wherever the block stands: nobody waits for its answer.
    let cache_states: Vec<&str> = states
        .iter()
        .filter(|s| s.role == Cache)
        .map(|s| s.name.as_str())
        .collect();
    rules.push(FlowRule::new(
        "cache/stale-drop",
        here!(),
        Cache,
        M::ClientReq,
        &cache_states,
    ));

    // --- Fills and upgrade replies.
    if caps.grants {
        let mut fill_next: Vec<&str> = vec![IDLE_CLEAN];
        if caps.owner {
            // A write miss or exclusive read fill lands owned.
            fill_next.push(IDLE_OWNER);
        }
        if caps.direct_read {
            // A direct read is consumed, never cached.
            fill_next.push(IDLE_INVALID);
        }
        rules.push(
            FlowRule::new(
                "cache/grant-fill",
                here!(),
                Cache,
                M::Grant,
                &[AWAITING_GRANT],
            )
            .emit(emit(M::ClientResp, D::Issuer))
            .to(&fill_next),
        );
    }
    if caps.upgrades {
        rules.push(
            FlowRule::new(
                "cache/upgrade-granted",
                here!(),
                Cache,
                M::UpgradeAck,
                &[AWAITING_UPGRADE],
            )
            .emit(emit(M::ClientResp, D::Issuer))
            .to(&[IDLE_OWNER]),
        );
        // Denied: the copy is gone (the invalidate ordered before this
        // reply); retry as a write miss (agent.rs `handle_mgranted`).
        rules.push(
            FlowRule::new(
                "cache/upgrade-denied",
                here!(),
                Cache,
                M::UpgradeAck,
                &[AWAITING_UPGRADE],
            )
            .emit(emit(M::WriteReq, D::Home))
            .to(&[AWAITING_GRANT]),
        );
        // Stale reply: the invalidate already converted the MREQUEST to
        // a write miss; the late MGRANTED is dropped.
        rules.push(FlowRule::new(
            "cache/upgrade-stale-reply",
            here!(),
            Cache,
            M::UpgradeAck,
            &[AWAITING_GRANT],
        ));
    }

    // --- Invalidations: every delivery is acknowledged (the dist
    // layer's barrier counts on it), whatever the local state.
    if caps.invalidates {
        rules.push(
            FlowRule::new("cache/inv-drop-copy", here!(), Cache, M::Inv, &copy_states)
                .emit(emit(M::InvAck, D::Home))
                .to(&[IDLE_INVALID]),
        );
        let mut missing: Vec<&str> = vec![IDLE_INVALID];
        if caps.grants {
            missing.push(AWAITING_GRANT);
        }
        if caps.store_through {
            missing.push(HOLDING_WT);
        }
        rules.push(
            FlowRule::new("cache/inv-while-missing", here!(), Cache, M::Inv, &missing)
                .emit(emit(M::InvAck, D::Home)),
        );
        if caps.upgrades {
            // The invalidate doubles as MGRANTED(false) (section 3.2.5,
            // agent.rs `handle_invalidate`): the pending MREQUEST is
            // converted to a write miss on the spot.
            rules.push(
                FlowRule::new(
                    "cache/inv-converts-upgrade",
                    here!(),
                    Cache,
                    M::Inv,
                    &[AWAITING_UPGRADE],
                )
                .emit(emit(M::InvAck, D::Home))
                .emit(emit(M::WriteReq, D::Home))
                .to(&[AWAITING_GRANT]),
            );
        }
    }

    // --- Recalls: only an owned copy supplies data; every other state
    // absorbs the (broadcast or misdelivered) probe without answering.
    if caps.recalls {
        rules.push(
            FlowRule::new(
                "cache/recall-owner",
                here!(),
                Cache,
                M::Recall,
                &[IDLE_OWNER],
            )
            .emit(emit(M::Put, D::Home))
            .to(&[IDLE_CLEAN, IDLE_INVALID]),
        );
        let mut bystanders: Vec<&str> = vec![IDLE_INVALID, IDLE_CLEAN];
        bystanders.extend(blocked_states.iter().copied());
        rules.push(FlowRule::new(
            "cache/recall-bystander",
            here!(),
            Cache,
            M::Recall,
            &bystanders,
        ));
    }

    // --- The WtAck hold (node.rs `CacheNode`): the held client
    // response is released by the memory node's acknowledgment.
    if caps.store_through {
        let mut wt_next: Vec<&str> = vec![IDLE_INVALID];
        if !caps.write_req {
            // Classical write-through keeps the clean copy it wrote.
            wt_next.push(IDLE_CLEAN);
        }
        rules.push(
            FlowRule::new("cache/wt-ack", here!(), Cache, M::WtAck, &[HOLDING_WT])
                .emit(emit(M::ClientResp, D::Issuer))
                .to(&wt_next),
        );
    }

    // --- Capacity pressure.
    if caps.eject_clean && caps.grants {
        rules.push(
            FlowRule::new("cache/evict-clean", here!(), Cache, M::Evict, &[IDLE_CLEAN])
                .emit(emit(M::EjectClean, D::Home))
                .to(&[IDLE_INVALID]),
        );
    }
    if caps.eject_dirty && caps.owner {
        rules.push(
            FlowRule::new("cache/evict-dirty", here!(), Cache, M::Evict, &[IDLE_OWNER])
                .emit(emit(M::EjectDirty, D::Home))
                .to(&[IDLE_INVALID]),
        );
    }

    (states, rules)
}

/// Assembles the whole-system flow graph for one scheme under a gate
/// discipline: the lifted memory role, the dist-layer overlay (WtAck
/// synthesis, the inv-ack gate state), and the cache/client catalog.
#[must_use]
pub fn assemble(table: &TransitionTable, gate: &GateSpec) -> (Vec<FlowState>, Vec<FlowRule>) {
    let caps = caps_of(table);
    let (mut states, mut rules) = lift_memory(table);

    // WtAck synthesis (node.rs `MemNode::process`): every write-through
    // earns the storing cache an acknowledgment once the store — and
    // any invalidations it broadcast — are globally visible. The
    // synthesized emission inherits the table rule's declared
    // guarantees (the classical scheme pins it behind the barrier).
    for fr in &mut rules {
        if fr.trigger == MsgClass::StoreThrough {
            let declared = table
                .rules
                .iter()
                .find(|r| format!("mem/{}", r.name) == fr.name)
                .map(|r| r.guarantees.clone())
                .unwrap_or_default();
            fr.emits.push(FlowEmit {
                msg: MsgClass::WtAck,
                hint: DestHint::Initiator,
                delivery: None,
                guarantees: declared,
            });
        }
    }

    // The inv-ack gate (node.rs `MemNode`): an invalidation-emitting
    // rule opens a gate; the memory sits gated until the last `InvAck`
    // releases it. Whether the gated window also withholds later
    // emissions and defers commands is the [`GateSpec`]'s business —
    // the state records it so the analyses see the difference.
    if caps.invalidates {
        let idle_names: Vec<String> = states
            .iter()
            .filter(|s| s.awaits.is_none())
            .map(|s| s.name.clone())
            .collect();
        let mut gated = FlowState::blocked(FlowRole::Memory, GATED, MsgClass::InvAck);
        gated.defers = gate.defers_while_gated;
        states.push(gated);
        for fr in &mut rules {
            if fr.emits_class(MsgClass::Inv) {
                fr.next = vec![GATED.to_string()];
            }
        }
        let release_next: Vec<&str> = idle_names.iter().map(String::as_str).collect();
        rules.push(
            FlowRule::new(
                "gate/release",
                here!(),
                FlowRole::Memory,
                MsgClass::InvAck,
                &[GATED],
            )
            .to(&release_next),
        );
    }

    let (cc_states, cc_rules) = cache_client(caps);
    states.extend(cc_states);
    rules.extend(cc_rules);
    (states, rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{scheme_kind, Node};
    use crate::wire::{Actor, Envelope, NodeConfig, Payload, Request, Response};
    use twobit_core::shipped_tables;
    use twobit_types::{MemRef, TxnId, Version, WordAddr};

    fn table(scheme: &str) -> &'static TransitionTable {
        shipped_tables()
            .iter()
            .find(|t| t.scheme == scheme)
            .unwrap_or_else(|| panic!("no table for {scheme}"))
    }

    /// Every cache→memory class the cache rules emit is an event the
    /// memory half declares, and every memory trigger is producible by
    /// some cache rule — the two halves close over each other.
    #[test]
    fn cache_and_memory_halves_close() {
        for t in shipped_tables() {
            let (_, rules) = assemble(t, &GateSpec::shipped());
            let mem_triggers: Vec<MsgClass> = rules
                .iter()
                .filter(|r| r.role == FlowRole::Memory)
                .map(|r| r.trigger)
                .collect();
            for r in rules.iter().filter(|r| r.role != FlowRole::Memory) {
                for e in &r.emits {
                    if e.msg.dest() == FlowRole::Memory {
                        assert!(
                            mem_triggers.contains(&e.msg),
                            "{}: {} emits {} but no memory rule consumes it",
                            t.scheme,
                            r.name,
                            e.msg
                        );
                    }
                }
            }
            for trigger in mem_triggers {
                let produced = rules
                    .iter()
                    .filter(|r| r.role != FlowRole::Memory)
                    .any(|r| r.emits_class(trigger));
                assert!(
                    produced,
                    "{t}: memory consumes {trigger} but no cache rule emits it",
                    t = t.scheme
                );
            }
        }
    }

    /// Every blocked state's awaited class is emitted by some rule of
    /// another role (nobody waits for a message that cannot exist).
    #[test]
    fn awaited_classes_are_producible() {
        for t in shipped_tables() {
            let (states, rules) = assemble(t, &GateSpec::shipped());
            for s in states.iter().filter(|s| s.awaits.is_some()) {
                let m = s.awaits.unwrap();
                assert!(
                    rules.iter().any(|r| r.role != s.role && r.emits_class(m)),
                    "{}: state {} awaits {m} which nothing emits",
                    t.scheme,
                    s.name
                );
            }
        }
    }

    #[test]
    fn gate_overlay_reroutes_invalidating_rules() {
        let (states, rules) = assemble(table("two-bit"), &GateSpec::shipped());
        let gated = states
            .iter()
            .find(|s| s.name == GATED)
            .expect("gated state");
        assert_eq!(gated.awaits, Some(MsgClass::InvAck));
        assert!(gated.defers);
        let wms = rules
            .iter()
            .find(|r| r.name == "mem/write-miss-shared")
            .unwrap();
        assert_eq!(wms.next, vec![GATED.to_string()]);
        assert!(rules.iter().any(|r| r.name == "gate/release"));
    }

    #[test]
    fn pr9_regression_gate_stops_deferring() {
        let (states, _) = assemble(table("two-bit"), &GateSpec::pr9_regression());
        let gated = states.iter().find(|s| s.name == GATED).unwrap();
        assert!(!gated.defers, "the pre-fix gate passes commands through");
        let spec = GateSpec::pr9_regression();
        assert!(spec.holds_completions, "completions were always held");
        assert!(!spec.withholds(MsgClass::Recall), "recalls leak past");
        assert!(spec.withholds(MsgClass::Grant));
    }

    #[test]
    fn wt_ack_synthesis_inherits_the_barrier_guarantee() {
        let (_, rules) = assemble(table("classical-wt"), &GateSpec::shipped());
        let wt = rules
            .iter()
            .find(|r| r.name == "mem/write-through")
            .unwrap();
        let ack = wt.emits.iter().find(|e| e.msg == MsgClass::WtAck).unwrap();
        assert_eq!(ack.guarantees, vec![OrderGuarantee::AckBarrier]);

        // The static scheme never invalidates: its WtAck rides on
        // nothing and needs to (there is no gate at all).
        let (states, rules) = assemble(table("static-sw"), &GateSpec::shipped());
        assert!(states.iter().all(|s| s.name != GATED));
        let wt = rules
            .iter()
            .find(|r| r.name == "mem/write-through")
            .unwrap();
        let ack = wt.emits.iter().find(|e| e.msg == MsgClass::WtAck).unwrap();
        assert!(ack.guarantees.is_empty());
    }

    #[test]
    fn scheme_capabilities_shape_the_cache_catalog() {
        let (states, rules) = assemble(table("two-bit"), &GateSpec::shipped());
        for s in [IDLE_OWNER, AWAITING_GRANT, AWAITING_UPGRADE] {
            assert!(states.iter().any(|st| st.name == s), "two-bit has {s}");
        }
        assert!(states.iter().all(|s| s.name != HOLDING_WT));
        assert!(rules.iter().any(|r| r.name == "cache/inv-converts-upgrade"));

        let (states, rules) = assemble(table("classical-wt"), &GateSpec::shipped());
        assert!(states.iter().any(|s| s.name == HOLDING_WT));
        assert!(states.iter().all(|s| s.name != IDLE_OWNER));
        assert!(rules.iter().all(|r| r.trigger != MsgClass::Recall));
        let st = rules
            .iter()
            .find(|r| r.name == "cache/store-through")
            .unwrap();
        assert!(
            st.when.contains(&IDLE_CLEAN.to_string()),
            "write-through stores fire from clean copies too"
        );
    }

    // ------------------------------------------------------------------
    // Honesty: the declarative rules match what the real nodes do.
    // ------------------------------------------------------------------

    fn cfg(role: Actor, scheme: &str) -> NodeConfig {
        NodeConfig {
            role,
            scheme: scheme.into(),
            caches: 2,
            modules: 1,
            sets: 8,
            assoc: 2,
            block_words: 4,
            shared_from: 1 << 32,
            bias_entries: 0,
            tlb_entries: 4,
        }
    }

    fn deliver(node: &mut Node, env: &Envelope) -> Vec<Envelope> {
        match node.handle(&Request::Deliver {
            now: 0,
            replay: false,
            env: env.clone(),
        }) {
            Response::DeliverOk { outputs, .. } => outputs,
            other => panic!("unexpected response: {other:?}"),
        }
    }

    /// `cache/duplicate-drop`: a retry of the in-flight transaction
    /// produces no traffic, exactly as the rule declares (no emissions,
    /// state unchanged).
    #[test]
    fn duplicate_drop_rule_matches_the_node() {
        assert!(scheme_kind("two-bit", 4).is_ok());
        let mut cache = Node::new(&cfg(Actor::Cache(0), "two-bit")).unwrap();
        let req = Envelope {
            src: Actor::Client(0),
            dst: Actor::Cache(0),
            payload: Payload::ClientReq {
                txn: TxnId::new(1),
                op: MemRef::read(WordAddr::new(3, 0)),
                sv: None,
            },
        };
        let first = deliver(&mut cache, &req);
        assert_eq!(first.len(), 1, "the miss goes to memory: awaiting-grant");
        assert!(
            deliver(&mut cache, &req).is_empty(),
            "cache/duplicate-drop: retry while blocked emits nothing"
        );
    }

    /// `cache/stale-drop`: a request below the floor — idle or blocked —
    /// produces no traffic and leaves the node as it was.
    #[test]
    fn stale_drop_rule_matches_the_node() {
        let (_, rules) = assemble(table("two-bit"), &GateSpec::shipped());
        let rule = rules.iter().find(|r| r.name == "cache/stale-drop").unwrap();
        assert!(rule.emits.is_empty() && rule.next.is_empty());
        for state in [IDLE_INVALID, IDLE_CLEAN, IDLE_OWNER, AWAITING_GRANT] {
            assert!(rule.when.contains(&state.to_string()), "{state}");
        }

        let mut cache = Node::new(&cfg(Actor::Cache(0), "two-bit")).unwrap();
        let req = |txn, block| Envelope {
            src: Actor::Client(0),
            dst: Actor::Cache(0),
            payload: Payload::ClientReq {
                txn: TxnId::new(txn),
                op: MemRef::read(WordAddr::new(block, 0)),
                sv: None,
            },
        };
        assert_eq!(deliver(&mut cache, &req(5, 3)).len(), 1, "awaiting-grant");
        let before = format!("{:?}", cache.handle(&Request::Checkpoint));
        assert!(
            deliver(&mut cache, &req(4, 9)).is_empty(),
            "cache/stale-drop: an acknowledged id emits nothing"
        );
        assert_eq!(before, format!("{:?}", cache.handle(&Request::Checkpoint)));
    }

    /// `cache/recall-bystander` at `awaiting-grant`: a recall reaching
    /// a cache whose fill has not arrived supplies nothing — the
    /// arrival the PR 9 gate discipline exists to prevent.
    #[test]
    fn recall_bystander_rule_matches_the_node() {
        let mut cache = Node::new(&cfg(Actor::Cache(0), "two-bit")).unwrap();
        let req = Envelope {
            src: Actor::Client(0),
            dst: Actor::Cache(0),
            payload: Payload::ClientReq {
                txn: TxnId::new(1),
                op: MemRef::write(WordAddr::new(3, 0)),
                sv: Some(Version::new(2)),
            },
        };
        deliver(&mut cache, &req); // now awaiting-grant
        let recall = Envelope {
            src: Actor::Module(0),
            dst: Actor::Cache(0),
            payload: Payload::ToCache {
                cmd: twobit_types::MemoryToCache::BroadQuery {
                    a: twobit_types::BlockAddr::new(3),
                    rw: twobit_types::AccessKind::Read,
                },
                ack: None,
            },
        };
        let out = deliver(&mut cache, &recall);
        assert!(
            out.is_empty(),
            "no PUT from a cache that owns nothing — the memory would wait forever"
        );
    }
}
