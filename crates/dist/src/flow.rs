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
//! [`FlowState`]s and [`FlowRule`]s laid over the two lifted roles, so
//! `twobit-lint` can assemble one graph per scheme and run the
//! unserviced-message, wait-cycle, and reorder-sensitivity analyses over
//! it. [`GateSpec`] parameterizes the ordering machinery:
//! [`GateSpec::shipped`] is what the node code does;
//! [`GateSpec::pr9_regression`] reproduces the pre-fix barrier
//! discipline (completions held but later emissions not), the seeded
//! bug behind `lint_protocols --demo-barrier-livelock`.
//!
//! Nothing here restates a controller. The memory role is
//! [`lift_memory`] of the table the directory executes and the cache
//! role is [`lift_cache`] of the table the cache agent interprets
//! (`crates/core/src/cache_table.rs`); [`assemble`] adds only what
//! [`node`](crate::node) adds to each — on the cache side the `InvAck`
//! every invalidation earns, the WtAck hold and its `holding-wt` state,
//! the two idempotency drops and the client ([`CACHE_OVERLAY_RULES`]).
//! The honesty tests at the bottom replay those overlay rules against the
//! real nodes.

use twobit_core::flow::{
    lift_cache, lift_memory, DestHint, FlowEmit, FlowRole, FlowRule, FlowState, MsgClass, GATED,
};
pub use twobit_core::flow::{
    AWAITING_GRANT, AWAITING_UPGRADE, IDLE_CLEAN, IDLE_INVALID, IDLE_OWNER,
};
use twobit_core::transitions::{OrderGuarantee, TransitionTable};
use twobit_core::CacheTable;

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

/// Cache-role blocked state: a write-through retired locally but its
/// client response is held for the memory node's `WtAck`.
pub const HOLDING_WT: &str = "holding-wt";
/// The client's single state: blocked on the response to its one
/// outstanding request (the client edge is blocking, at-least-once).
pub const CLIENT_WAITING: &str = "waiting";

/// The `cache/` rules [`assemble`] adds to the lifted cache role — what
/// [`CacheNode`](crate::node::CacheNode) does around its agent. Every
/// other `cache/` rule of the graph is a rule of the cache table.
pub const CACHE_OVERLAY_RULES: [&str; 4] = [
    "cache/wt-ack",
    "cache/inv-while-holding",
    "cache/duplicate-drop",
    "cache/stale-drop",
];

macro_rules! here {
    () => {
        concat!(file!(), ":", line!())
    };
}

/// The cache and client roles: the lifted cache table under the node
/// wrapper's overlay.
fn cache_role(table: &CacheTable) -> (Vec<FlowState>, Vec<FlowRule>) {
    use FlowRole::{Cache, Client};
    use MsgClass as M;
    let (mut states, mut rules) = lift_cache(table);
    let to_issuer = FlowEmit::new(M::ClientResp, DestHint::Issuer);
    let inv_ack = FlowEmit::new(M::InvAck, DestHint::Home);

    // Every invalidation delivered is acknowledged (the barrier counts
    // on it), whatever the agent did with it — and after whatever the
    // agent sent because of it (node.rs `CacheNode::deliver`).
    let acks = rules.iter().any(|r| r.trigger == M::Inv);
    for r in rules.iter_mut().filter(|r| r.trigger == M::Inv) {
        r.emits.push(inv_ack.clone());
    }

    // The WtAck hold (node.rs `CacheNode`): a fire-and-forget store
    // retires in the agent, but its client response is held until the
    // memory node's acknowledgment says it is globally visible.
    let mut released_into: Vec<String> = Vec::new();
    for r in rules.iter_mut().filter(|r| r.emits_class(M::StoreThrough)) {
        r.emits.retain(|e| e.msg != M::ClientResp);
        let lands = if r.next.is_empty() { &r.when } else { &r.next };
        released_into.extend(lands.iter().cloned());
        r.next = vec![HOLDING_WT.to_string()];
    }
    if !released_into.is_empty() {
        released_into.sort();
        released_into.dedup();
        let released_into: Vec<&str> = released_into.iter().map(String::as_str).collect();
        states.push(FlowState::blocked(Cache, HOLDING_WT, M::WtAck));
        rules.push(
            FlowRule::new("cache/wt-ack", here!(), Cache, M::WtAck, &[HOLDING_WT])
                .emit(to_issuer)
                .to(&released_into),
        );
        if acks {
            rules.push(
                FlowRule::new(
                    "cache/inv-while-holding",
                    here!(),
                    Cache,
                    M::Inv,
                    &[HOLDING_WT],
                )
                .emit(inv_ack),
            );
        }
    }

    // Txn-id idempotency (node.rs `CacheNode::deliver`, `ClientReq`
    // arm): a retry of the in-flight transaction is dropped — the answer
    // is already on its way — and so, wherever the block stands, is a
    // late retry of one a newer transaction has acknowledged.
    let in_states = |blocked_only: bool| -> Vec<&str> {
        states
            .iter()
            .filter(|s| s.awaits.is_some() || !blocked_only)
            .map(|s| s.name.as_str())
            .collect()
    };
    let drops = [
        FlowRule::new(
            "cache/duplicate-drop",
            here!(),
            Cache,
            M::ClientReq,
            &in_states(true),
        ),
        FlowRule::new(
            "cache/stale-drop",
            here!(),
            Cache,
            M::ClientReq,
            &in_states(false),
        ),
    ];
    rules.extend(drops.into_iter().filter(|r| !r.when.is_empty()));

    // The client edge: one blocking client per cache; each response
    // elicits the next request.
    states.push(FlowState::blocked(Client, CLIENT_WAITING, M::ClientResp));
    rules.push(
        FlowRule::new(
            "client/next-request",
            here!(),
            Client,
            M::ClientResp,
            &[CLIENT_WAITING],
        )
        .emit(FlowEmit::new(M::ClientReq, DestHint::Issuer))
        .to(&[CLIENT_WAITING]),
    );
    (states, rules)
}

/// Assembles the whole-system flow graph for one scheme under a gate
/// discipline: the lifted memory role with its dist-layer overlay (WtAck
/// synthesis, the inv-ack gate state), and the lifted cache role of the
/// cache table the scheme's agents run with its overlay and the client.
///
/// # Panics
///
/// Panics if `table.scheme` is not a shipped scheme: there is then no
/// cache half to assemble it with.
#[must_use]
pub fn assemble(table: &TransitionTable, gate: &GateSpec) -> (Vec<FlowState>, Vec<FlowRule>) {
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
    if rules.iter().any(|r| r.emits_class(MsgClass::Inv)) {
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

    let cache = twobit_core::cache_table_for(table.scheme)
        .unwrap_or_else(|| panic!("no cache table ships for scheme '{}'", table.scheme));
    let (cc_states, cc_rules) = cache_role(cache);
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

    /// A hand-written agent rule cannot come back: every cache-role rule
    /// of the assembled graph is a rule of the cache table the agent
    /// interprets (same name, same table entry) or one of the named
    /// node-level overlay rules.
    #[test]
    fn every_cache_rule_is_lifted_or_a_named_overlay() {
        for t in shipped_tables() {
            let cache = twobit_core::cache_table_for(t.scheme).expect("a shipped scheme");
            let (_, rules) = assemble(t, &GateSpec::shipped());
            for r in rules.iter().filter(|r| r.role == FlowRole::Cache) {
                let lifted = cache.rules.iter().any(|c| {
                    r.name == format!("cache/{}", c.name) && r.provenance == c.provenance()
                });
                assert!(
                    lifted || CACHE_OVERLAY_RULES.contains(&r.name.as_str()),
                    "{}: {} ({}) is neither a rule of the {} table nor a named overlay",
                    t.scheme,
                    r.name,
                    r.provenance,
                    cache.scheme
                );
            }
            for name in CACHE_OVERLAY_RULES {
                assert!(
                    cache
                        .rules
                        .iter()
                        .all(|c| format!("cache/{}", c.name) != name),
                    "{name} is an overlay name and a table rule"
                );
            }
        }
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
