//! Whole-system liveness analyses over the message-flow graph.
//!
//! The per-table analyses in the crate root check one role — the memory
//! module — in isolation. The liveness bug class PR 9 hit dynamically
//! lives *between* roles: a `PURGE` overtook a barrier-withheld
//! exclusive grant and landed at a cache that was still
//! `awaiting-grant`, a (state, message) pair with no rule to service
//! it. This module assembles the whole system — the lifted memory role,
//! the dist layer's gate machinery, the cache controller, the client
//! edge (see [`twobit_core::flow`] and [`twobit_dist::flow`]) — into a
//! [`FlowSystem`] and runs three analyses over it:
//!
//! * **Unserviced messages** ([`FlowSystem::check_unserviced`]) — every
//!   flow-reachable (state, message-class) arrival either fires a rule
//!   or is deferred; and every blocked wait is *productively* serviced:
//!   the emission that elicits the awaited reply must, at every state
//!   it can arrive in, either produce the reply or be deferred until it
//!   can. The PR 9 livelock is exactly a productivity hole.
//! * **Wait cycles** ([`FlowSystem::check_wait_cycles`]) — no cycle of
//!   blocked states in which each member waits for a message produced
//!   only downstream of another member. The client edge is excluded:
//!   its at-least-once retry loop is the system's progress engine, not
//!   a wait.
//! * **Reorder sensitivity** ([`FlowSystem::check_reorder`]) — every
//!   pair of memory→cache emissions that can reach the same destination
//!   and whose delivery order changes the destination's behavior must
//!   be covered by an ordering guarantee the [`GateSpec`] actually
//!   provides (the inv-ack barrier's held completions, the gated
//!   deferral of later emissions, or FIFO links), and barrier-reliant
//!   pairs must be *declared* on their table rule
//!   (`.guarded_by(OrderGuarantee::AckBarrier)`).
//!
//! The analyses are deliberately conservative in different directions:
//! arrival sets are closed under unsolicited perturbations (an `INV`
//! can convert an upgrade wait into a grant wait, so the stale
//! `MGRANTED` must be serviced at `awaiting-grant` too), while the
//! reorder swap test only compares pairs at states where both arrivals
//! are individually legal. Uncovered reorder pairs feed back into the
//! first two analyses: a recall that can overtake a withheld completion
//! extends the recall's arrival set with the completion's wait states —
//! which is how [`GateSpec::pr9_regression`] produces both the
//! unserviced-liveness finding and the await/awaiting wait cycle.
//!
//! Scope: ordering is analyzed for memory→cache emissions, the
//! direction the gate machinery governs. Cache→memory ordering is
//! absorbed by the memory role's per-block deferral discipline, which
//! the unserviced and wait-cycle analyses model directly.

use std::collections::{BTreeMap, BTreeSet};

use twobit_core::flow::{
    event_trigger, global_state_name, FlowEmit, FlowRole, FlowRule, FlowState, MsgClass,
};
use twobit_core::transitions::{EventKind, OrderGuarantee, TransitionTable};
use twobit_dist::flow::{assemble, GateSpec};
use twobit_types::GlobalState;

use crate::Finding;

/// The completion classes the inv-ack barrier withholds: solicited
/// replies whose early arrival would let a writer proceed before its
/// invalidations are globally visible.
const COMPLETIONS: [MsgClass; 3] = [MsgClass::Grant, MsgClass::UpgradeAck, MsgClass::WtAck];

/// One scheme's whole-system flow graph under a gate discipline.
#[derive(Debug, Clone)]
pub struct FlowSystem {
    /// The scheme the memory role was lifted from.
    pub scheme: String,
    /// The ordering machinery the deployment provides.
    pub gate: GateSpec,
    /// All states of all three roles.
    pub states: Vec<FlowState>,
    /// All rules of all three roles.
    pub rules: Vec<FlowRule>,
    /// Memory event domains by trigger class: the states the dynamic
    /// layer admits the event in (supply events re-homed onto the
    /// blocked await states).
    domains: BTreeMap<MsgClass, BTreeSet<String>>,
    tracks_state: bool,
}

/// Reachable (role, state) pairs and producible message classes, from
/// the three roles' initial states under client and capacity stimuli.
#[derive(Debug, Clone, Default)]
struct Reach {
    states: BTreeSet<(FlowRole, String)>,
    classes: BTreeSet<MsgClass>,
}

impl FlowSystem {
    /// Assembles the flow graph for one scheme's table under `gate`.
    #[must_use]
    pub fn build(table: &TransitionTable, gate: GateSpec) -> FlowSystem {
        let (states, rules) = assemble(table, &gate);
        let mut domains: BTreeMap<MsgClass, BTreeSet<String>> = BTreeMap::new();
        for spec in &table.events {
            let entry = domains.entry(event_trigger(spec.kind)).or_default();
            if spec.kind == EventKind::Supply {
                // Supplies are solicited: they arrive while the module
                // is parked in a blocked await state, never in the
                // protocol state the table nominally declares.
                entry.extend(
                    states
                        .iter()
                        .filter(|s| s.role == FlowRole::Memory && s.awaits == Some(MsgClass::Put))
                        .map(|s| s.name.clone()),
                );
            } else if table.tracks_state {
                entry.extend(spec.domain.iter().map(global_state_name));
            } else {
                entry.insert("steady".to_string());
            }
        }
        FlowSystem {
            scheme: table.scheme.to_string(),
            gate,
            states,
            rules,
            domains,
            tracks_state: table.tracks_state,
        }
    }

    fn state(&self, role: FlowRole, name: &str) -> Option<&FlowState> {
        self.states
            .iter()
            .find(|s| s.role == role && s.name == name)
    }

    fn rules_at(&self, role: FlowRole, trigger: MsgClass, state: &str) -> Vec<&FlowRule> {
        self.rules
            .iter()
            .filter(|r| r.role == role && r.trigger == trigger && r.when.iter().any(|w| w == state))
            .collect()
    }

    /// Fixpoint reachability from the initial states (client `waiting`,
    /// cache `idle-invalid`, memory `Absent`/`steady`) under the two
    /// root stimuli: client requests and capacity pressure.
    fn reach(&self) -> Reach {
        let mut r = Reach::default();
        r.states.insert((
            FlowRole::Client,
            twobit_dist::flow::CLIENT_WAITING.to_string(),
        ));
        r.states
            .insert((FlowRole::Cache, twobit_dist::flow::IDLE_INVALID.to_string()));
        let mem_init = if self.tracks_state {
            global_state_name(GlobalState::Absent)
        } else {
            "steady".to_string()
        };
        r.states.insert((FlowRole::Memory, mem_init));
        r.classes.insert(MsgClass::ClientReq);
        r.classes.insert(MsgClass::Evict);
        loop {
            let mut changed = false;
            for rule in &self.rules {
                if !r.classes.contains(&rule.trigger) {
                    continue;
                }
                if !rule
                    .when
                    .iter()
                    .any(|w| r.states.contains(&(rule.role, w.clone())))
                {
                    continue;
                }
                for n in &rule.next {
                    changed |= r.states.insert((rule.role, n.clone()));
                }
                for e in &rule.emits {
                    changed |= r.classes.insert(e.msg);
                }
            }
            if !changed {
                return r;
            }
        }
    }

    fn finding(&self, analysis: &'static str, rule: Option<&FlowRule>, message: String) -> Finding {
        Finding {
            analysis,
            scheme: self.scheme.clone(),
            rule: rule.map(|r| r.name.clone()),
            provenance: rule.map(|r| r.provenance.clone()),
            message,
            verdict: None,
            evidence: None,
        }
    }

    /// Runs all three analyses, reorder first (its uncovered pairs
    /// extend the arrival sets the other two analyses work from).
    #[must_use]
    pub fn analyze(&self) -> Vec<Finding> {
        let reach = self.reach();
        let (mut findings, overtakes) = self.check_reorder_inner(&reach);
        findings.extend(self.check_unserviced_inner(&reach, &overtakes));
        findings.extend(self.check_wait_cycles_inner(&reach, &overtakes));
        findings
    }

    /// Unserviced-message analysis alone (with reorder feedback).
    #[must_use]
    pub fn check_unserviced(&self) -> Vec<Finding> {
        let reach = self.reach();
        let (_, overtakes) = self.check_reorder_inner(&reach);
        self.check_unserviced_inner(&reach, &overtakes)
    }

    /// Wait-cycle analysis alone (with reorder feedback).
    #[must_use]
    pub fn check_wait_cycles(&self) -> Vec<Finding> {
        let reach = self.reach();
        let (_, overtakes) = self.check_reorder_inner(&reach);
        self.check_wait_cycles_inner(&reach, &overtakes)
    }

    /// Reorder-sensitivity analysis alone.
    #[must_use]
    pub fn check_reorder(&self) -> Vec<Finding> {
        self.check_reorder_inner(&self.reach()).0
    }

    // ------------------------------------------------------------------
    // Arrival sets
    // ------------------------------------------------------------------

    /// States a solicited cache-bound reply of class `m` can find its
    /// destination in: the blocked states awaiting it, closed under
    /// unsolicited perturbations (an `INV`/`PURGE` landing in the wait
    /// window can move the cache before the reply arrives).
    fn solicited_arrivals(&self, m: MsgClass, reach: &Reach) -> BTreeSet<String> {
        let mut set: BTreeSet<String> = self
            .states
            .iter()
            .filter(|s| {
                s.role == FlowRole::Cache
                    && s.awaits == Some(m)
                    && reach.states.contains(&(FlowRole::Cache, s.name.clone()))
            })
            .map(|s| s.name.clone())
            .collect();
        loop {
            let mut grown = set.clone();
            for s in &set {
                for unsolicited in [MsgClass::Inv, MsgClass::Recall] {
                    if !reach.classes.contains(&unsolicited) {
                        continue;
                    }
                    for rule in self.rules_at(FlowRole::Cache, unsolicited, s) {
                        grown.extend(rule.next.iter().cloned());
                    }
                }
            }
            if grown.len() == set.len() {
                return set;
            }
            set = grown;
        }
    }

    // ------------------------------------------------------------------
    // Analysis 1: unserviced messages
    // ------------------------------------------------------------------

    fn check_unserviced_inner(&self, reach: &Reach, overtakes: &BTreeSet<String>) -> Vec<Finding> {
        let mut findings = Vec::new();
        let reachable =
            |role: FlowRole, name: &str| reach.states.contains(&(role, name.to_string()));

        for &m in reach.classes.iter().collect::<Vec<_>>() {
            if m.is_local() {
                continue;
            }
            match m.dest() {
                FlowRole::Client => {
                    // The single client state awaits every response.
                }
                FlowRole::Cache => {
                    let arrivals: BTreeSet<String> = if COMPLETIONS.contains(&m) {
                        let mut a = self.solicited_arrivals(m, reach);
                        if m == MsgClass::Recall {
                            a.extend(overtakes.iter().cloned());
                        }
                        a
                    } else {
                        // Unsolicited traffic (requests, invalidations,
                        // recalls) can find the cache in any reachable
                        // state.
                        reach
                            .states
                            .iter()
                            .filter(|(r, _)| *r == FlowRole::Cache)
                            .map(|(_, n)| n.clone())
                            .collect()
                    };
                    for s in arrivals {
                        if self.rules_at(FlowRole::Cache, m, &s).is_empty() {
                            findings.push(self.finding(
                                "flow-unserviced",
                                None,
                                format!(
                                    "{m} can arrive at cache state '{s}' with no rule to \
                                     service it — the message is dropped on the floor"
                                ),
                            ));
                        }
                    }
                }
                FlowRole::Memory => {
                    let mut arrivals: BTreeSet<String> = self
                        .domains
                        .get(&m)
                        .cloned()
                        .unwrap_or_default()
                        .into_iter()
                        .filter(|s| reachable(FlowRole::Memory, s))
                        .collect();
                    if m == MsgClass::InvAck {
                        // The release message only exists while a gate
                        // is open.
                        arrivals = self
                            .states
                            .iter()
                            .filter(|s| {
                                s.role == FlowRole::Memory && s.awaits == Some(MsgClass::InvAck)
                            })
                            .map(|s| s.name.clone())
                            .collect();
                    }
                    for s in arrivals {
                        if !self.rules_at(FlowRole::Memory, m, &s).is_empty() {
                            continue;
                        }
                        let st = self.state(FlowRole::Memory, &s);
                        if st.is_some_and(|st| st.defers) {
                            continue; // deferred FIFO, serviced later
                        }
                        if st.is_some_and(|st| st.awaits.is_some()) {
                            // A non-deferring blocked state (the PR 9
                            // gate) passes commands straight through to
                            // the underlying machine; the hazard that
                            // creates is the reorder analysis's catch,
                            // not an unserviced arrival.
                            continue;
                        }
                        findings.push(self.finding(
                            "flow-unserviced",
                            None,
                            format!(
                                "{m} can arrive at memory state '{s}' with no rule to \
                                 service it and no deferral"
                            ),
                        ));
                    }
                }
            }
        }

        // Productivity: a blocked memory wait is serviced only if the
        // emission that elicits the awaited reply actually produces it
        // wherever it can arrive.
        for b in self.states.iter().filter(|s| {
            s.role == FlowRole::Memory
                && s.awaits == Some(MsgClass::Put)
                && reachable(FlowRole::Memory, &s.name)
        }) {
            // The emissions of rules that enter this blocked state are
            // what solicit the supply (the recalls).
            let eliciting: BTreeSet<MsgClass> = self
                .rules
                .iter()
                .filter(|r| r.next.iter().any(|n| n == &b.name))
                .flat_map(|r| r.emits.iter().map(|e| e.msg))
                .filter(|m| m.dest() == FlowRole::Cache)
                .collect();
            for e in eliciting {
                let nominal_producers = self
                    .rules
                    .iter()
                    .filter(|r| r.role == FlowRole::Cache && r.trigger == e)
                    .any(|r| r.emits_class(MsgClass::Put) || r.emits_class(MsgClass::EjectDirty));
                if !nominal_producers {
                    findings.push(self.finding(
                        "flow-unserviced",
                        None,
                        format!(
                            "memory wait '{}' is elicited by {e} but no cache rule \
                             answers it with a supply",
                            b.name
                        ),
                    ));
                    continue;
                }
                // Where an uncovered reorder lets the eliciting message
                // overtake a withheld completion, it arrives at the
                // completion's wait state — and must still produce the
                // supply there.
                for s in overtakes {
                    let productive = self.rules_at(FlowRole::Cache, e, s).iter().any(|r| {
                        r.emits_class(MsgClass::Put) || r.emits_class(MsgClass::EjectDirty)
                    });
                    if !productive {
                        findings.push(self.finding(
                            "flow-unserviced",
                            None,
                            format!(
                                "{e} can overtake the withheld completion and arrive at \
                                 cache state '{s}', which supplies nothing — memory wait \
                                 '{}' is never satisfied (the PR 9 livelock)",
                                b.name
                            ),
                        ));
                    }
                }
            }
        }
        findings
    }

    // ------------------------------------------------------------------
    // Analysis 2: wait cycles
    // ------------------------------------------------------------------

    fn check_wait_cycles_inner(&self, reach: &Reach, overtakes: &BTreeSet<String>) -> Vec<Finding> {
        // Nodes: reachable blocked cache and memory states. The client's
        // wait is the at-least-once retry loop — excluded by design.
        let blocked: Vec<&FlowState> = self
            .states
            .iter()
            .filter(|s| {
                s.role != FlowRole::Client
                    && s.awaits.is_some()
                    && reach.states.contains(&(s.role, s.name.clone()))
            })
            .collect();
        type StateKey = (FlowRole, String);
        let mut edges: BTreeMap<StateKey, BTreeSet<StateKey>> = BTreeMap::new();
        let mut reasons: BTreeMap<(StateKey, StateKey), String> = BTreeMap::new();

        for b in &blocked {
            let key = (b.role, b.name.clone());
            let entry = edges.entry(key.clone()).or_default();
            match b.role {
                FlowRole::Memory => {
                    // The memory's wait depends on its eliciting emission
                    // being productively serviced. If an uncovered
                    // reorder delivers it to a *blocked* cache state
                    // that supplies nothing, the wait depends on that
                    // state's own wait resolving first.
                    let eliciting: BTreeSet<MsgClass> = self
                        .rules
                        .iter()
                        .filter(|r| r.next.iter().any(|n| n == &b.name))
                        .flat_map(|r| r.emits.iter().map(|e| e.msg))
                        .filter(|m| m.dest() == FlowRole::Cache)
                        .collect();
                    let await_class = b.awaits.expect("blocked");
                    for e in eliciting {
                        for s in overtakes {
                            let Some(st) = self.state(FlowRole::Cache, s) else {
                                continue;
                            };
                            if st.awaits.is_none() {
                                continue;
                            }
                            let productive = self.rules_at(FlowRole::Cache, e, s).iter().any(|r| {
                                r.emits_class(await_class) || r.emits_class(MsgClass::EjectDirty)
                            });
                            if !productive {
                                entry.insert((FlowRole::Cache, s.clone()));
                                reasons.insert(
                                    (key.clone(), (FlowRole::Cache, s.clone())),
                                    format!("{e} arrives unproductively at '{s}'"),
                                );
                            }
                        }
                    }
                }
                FlowRole::Cache => {
                    // The cache's wait depends on the memory rule that
                    // emits the awaited reply; the request that triggers
                    // it is deferred at every deferring memory wait.
                    let m = b.awaits.expect("blocked");
                    let producers: BTreeSet<MsgClass> = self
                        .rules
                        .iter()
                        .filter(|r| r.role == FlowRole::Memory && r.emits_class(m))
                        .map(|r| r.trigger)
                        .collect();
                    if producers.is_empty() {
                        continue;
                    }
                    for s in self.states.iter().filter(|s| {
                        s.role == FlowRole::Memory
                            && s.defers
                            && reach.states.contains(&(FlowRole::Memory, s.name.clone()))
                    }) {
                        entry.insert((FlowRole::Memory, s.name.clone()));
                        reasons.insert(
                            (key.clone(), (FlowRole::Memory, s.name.clone())),
                            format!("the request producing {m} is deferred at '{}'", s.name),
                        );
                    }
                }
                FlowRole::Client => unreachable!("filtered above"),
            }
        }

        // A node on a cycle reaches itself through at least one edge.
        let mut on_cycle: Vec<(FlowRole, String)> = Vec::new();
        for b in &blocked {
            let start = (b.role, b.name.clone());
            let mut seen: BTreeSet<(FlowRole, String)> = BTreeSet::new();
            let mut stack: Vec<(FlowRole, String)> =
                edges.get(&start).into_iter().flatten().cloned().collect();
            while let Some(n) = stack.pop() {
                if n == start {
                    on_cycle.push(start.clone());
                    break;
                }
                if seen.insert(n.clone()) {
                    stack.extend(edges.get(&n).into_iter().flatten().cloned());
                }
            }
        }
        if on_cycle.is_empty() {
            return Vec::new();
        }
        let members = on_cycle
            .iter()
            .map(|(r, n)| format!("{r}/{n}"))
            .collect::<Vec<_>>()
            .join(" ↔ ");
        let why = reasons
            .iter()
            .filter(|((a, b), _)| on_cycle.contains(a) && on_cycle.contains(b))
            .map(|(_, r)| r.clone())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect::<Vec<_>>()
            .join("; ");
        vec![self.finding(
            "flow-wait-cycle",
            None,
            format!(
                "blocked states wait on each other in a cycle: {members} ({why}) — \
                 no member can make progress"
            ),
        )]
    }

    // ------------------------------------------------------------------
    // Analysis 3: reorder sensitivity
    // ------------------------------------------------------------------

    /// Returns the findings plus the set of blocked cache states an
    /// uncovered recall-class reorder can deliver into (the completion
    /// wait states the overtaken message would have released).
    fn check_reorder_inner(&self, reach: &Reach) -> (Vec<Finding>, BTreeSet<String>) {
        let mut findings = Vec::new();
        let mut overtakes: BTreeSet<String> = BTreeSet::new();
        let gated = self
            .states
            .iter()
            .any(|s| s.role == FlowRole::Memory && s.awaits == Some(MsgClass::InvAck));

        let fires = |r: &FlowRule| {
            reach.classes.contains(&r.trigger)
                && r.when
                    .iter()
                    .any(|w| reach.states.contains(&(r.role, w.clone())))
        };

        for r1 in self.rules.iter().filter(|r| r.role == FlowRole::Memory) {
            if !fires(r1) {
                continue;
            }
            let cache_emits = |r: &FlowRule| {
                r.emits
                    .iter()
                    .filter(|e| e.msg.dest() == FlowRole::Cache)
                    .cloned()
                    .collect::<Vec<_>>()
            };
            let e1s = cache_emits(r1);

            // Within-rule pairs, in emission order.
            for (i, e1) in e1s.iter().enumerate() {
                for e2 in e1s.iter().skip(i + 1) {
                    if e1.msg == MsgClass::Inv && COMPLETIONS.contains(&e2.msg) {
                        // The completion must not become visible before
                        // the invalidations: the barrier pair. Requires
                        // both the declaration and the machinery.
                        self.judge_barrier_pair(r1, e2, &mut findings);
                    } else if e1.hint.may_alias(e2.hint, true)
                        && self.swap_sensitive(e1.msg, e2.msg, reach).is_some()
                        && !self.gate.fifo_links
                    {
                        findings.push(self.finding(
                            "flow-reorder",
                            Some(r1),
                            format!(
                                "emissions {} and {} of one firing can reach the same cache \
                                 and their order matters, but links do not preserve it",
                                e1.msg, e2.msg
                            ),
                        ));
                    }
                }
            }

            // Cross-rule pairs: r2 fires in a 1-step successor of r1.
            let opens_gate = gated && r1.emits_class(MsgClass::Inv);
            let successors: Vec<String> = if r1.next.is_empty() {
                r1.when.clone()
            } else {
                r1.next.clone()
            };
            let mut r2s: Vec<&FlowRule> = Vec::new();
            for succ in &successors {
                let st = self.state(FlowRole::Memory, succ);
                let is_gate = st.is_some_and(|s| s.awaits == Some(MsgClass::InvAck));
                if is_gate && st.is_some_and(|s| s.defers) {
                    // Commands are deferred until release; no second
                    // rule fires inside the window.
                    continue;
                }
                if is_gate {
                    // The broken pass-through gate: commands reach the
                    // underlying machine in any of its states.
                    r2s.extend(self.rules.iter().filter(|r| {
                        r.role == FlowRole::Memory && r.trigger != MsgClass::InvAck && fires(r)
                    }));
                } else {
                    r2s.extend(
                        self.rules
                            .iter()
                            .filter(|r| {
                                r.role == FlowRole::Memory
                                    && r.trigger != MsgClass::InvAck
                                    && r.when.iter().any(|w| w == succ)
                            })
                            .filter(|r| fires(r)),
                    );
                }
            }
            r2s.sort_by(|a, b| a.name.cmp(&b.name));
            r2s.dedup_by(|a, b| a.name == b.name);

            for r2 in r2s {
                for e1 in &e1s {
                    for e2 in cache_emits(r2) {
                        if !e1.hint.may_alias(e2.hint, false) {
                            continue;
                        }
                        let Some(witness) = self.swap_sensitive(e1.msg, e2.msg, reach) else {
                            continue;
                        };
                        let covered = if opens_gate && self.gate.withholds(e1.msg) {
                            // e1 is withheld by the open gate; e2 is
                            // emitted inside the window and must be
                            // withheld behind it.
                            self.gate.withholds(e2.msg)
                        } else {
                            self.gate.fifo_links
                        };
                        if covered {
                            continue;
                        }
                        if e2.msg == MsgClass::Recall {
                            // Remember where the overtaking recall can
                            // land: e1's wait states.
                            overtakes.extend(
                                self.states
                                    .iter()
                                    .filter(|s| {
                                        s.role == FlowRole::Cache && s.awaits == Some(e1.msg)
                                    })
                                    .map(|s| s.name.clone()),
                            );
                        }
                        findings.push(self.finding(
                            "flow-reorder",
                            Some(r2),
                            format!(
                                "{} (from rule '{}') and a later {} can reach the same cache \
                                 and swapping them changes its behavior at '{witness}', but \
                                 no provided ordering guarantee covers the pair",
                                e1.msg, r1.name, e2.msg
                            ),
                        ));
                    }
                }
            }
        }
        (findings, overtakes)
    }

    /// The (invalidation, completion) pair of one rule firing: flagged
    /// unless the table rule declares the ack barrier *and* the
    /// deployment provides it.
    fn judge_barrier_pair(&self, r1: &FlowRule, e2: &FlowEmit, findings: &mut Vec<Finding>) {
        if !e2.guarantees.contains(&OrderGuarantee::AckBarrier) {
            findings.push(self.finding(
                "flow-reorder",
                Some(r1),
                format!(
                    "{} completes a rule that also invalidates, but the rule declares no \
                     AckBarrier guarantee — the completion could outrun the invalidations",
                    e2.msg
                ),
            ));
        } else if !self.gate.provides(OrderGuarantee::AckBarrier) {
            findings.push(self.finding(
                "flow-reorder",
                Some(r1),
                format!(
                    "{} relies on the declared AckBarrier, but this deployment does not \
                     hold completions behind invalidation acknowledgments",
                    e2.msg
                ),
            ));
        }
    }

    /// Whether delivering `e1` then `e2` at some common legal start
    /// state differs observably from the swapped order. Returns a
    /// witness start state. Pairs with no state where `e1`'s arrival is
    /// legal cannot co-occur at one destination and are skipped.
    fn swap_sensitive(&self, e1: MsgClass, e2: MsgClass, reach: &Reach) -> Option<String> {
        let starts: BTreeSet<String> = if COMPLETIONS.contains(&e1) {
            self.states
                .iter()
                .filter(|s| s.role == FlowRole::Cache && s.awaits == Some(e1))
                .map(|s| s.name.clone())
                .collect()
        } else {
            reach
                .states
                .iter()
                .filter(|(r, _)| *r == FlowRole::Cache)
                .map(|(_, n)| n.clone())
                .collect()
        };
        starts
            .into_iter()
            .find(|s| self.deliver_seq(s, &[e1, e2]) != self.deliver_seq(s, &[e2, e1]))
    }

    /// All (final state, sorted emissions) outcomes of delivering the
    /// classes of `msgs`, in order, starting at cache state `start`. An
    /// arrival with no rule is a silent drop (state unchanged); the
    /// unserviced analysis owns flagging those.
    fn deliver_seq(&self, start: &str, msgs: &[MsgClass]) -> BTreeSet<(String, Vec<MsgClass>)> {
        let mut outcomes: BTreeSet<(String, Vec<MsgClass>)> =
            BTreeSet::from([(start.to_string(), Vec::new())]);
        for &m in msgs {
            let mut next = BTreeSet::new();
            for (s, emitted) in &outcomes {
                let rules = self.rules_at(FlowRole::Cache, m, s);
                if rules.is_empty() {
                    next.insert((s.clone(), emitted.clone()));
                    continue;
                }
                for r in rules {
                    let succs: Vec<String> = if r.next.is_empty() {
                        vec![s.clone()]
                    } else {
                        r.next.clone()
                    };
                    for n in succs {
                        let mut em = emitted.clone();
                        em.extend(r.emits.iter().map(|e| e.msg));
                        em.sort();
                        next.insert((n, em));
                    }
                }
            }
            outcomes = next;
        }
        outcomes
    }
}

/// Runs the three flow analyses on one scheme's table under `gate`.
#[must_use]
pub fn lint_flow(table: &TransitionTable, gate: GateSpec) -> Vec<Finding> {
    FlowSystem::build(table, gate).analyze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_core::shipped_tables;

    fn table(scheme: &str) -> &'static TransitionTable {
        shipped_tables()
            .iter()
            .find(|t| t.scheme == scheme)
            .unwrap_or_else(|| panic!("no table for {scheme}"))
    }

    #[test]
    fn shipped_schemes_are_clean_under_the_shipped_gate() {
        for t in shipped_tables() {
            let findings = lint_flow(t, GateSpec::shipped());
            assert!(
                findings.is_empty(),
                "{}: {}",
                t.scheme,
                findings
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }

    #[test]
    fn reachability_covers_all_three_roles() {
        let sys = FlowSystem::build(table("two-bit"), GateSpec::shipped());
        let r = sys.reach();
        for (role, name) in [
            (FlowRole::Memory, "PresentM"),
            (FlowRole::Memory, twobit_core::flow::AWAIT_READ),
            (FlowRole::Memory, twobit_core::flow::GATED),
            (FlowRole::Cache, twobit_dist::flow::AWAITING_UPGRADE),
            (FlowRole::Cache, twobit_dist::flow::IDLE_OWNER),
            (FlowRole::Client, twobit_dist::flow::CLIENT_WAITING),
        ] {
            assert!(
                r.states.contains(&(role, name.to_string())),
                "{role}/{name} should be reachable"
            );
        }
        assert!(r.classes.contains(&MsgClass::Recall));
        assert!(r.classes.contains(&MsgClass::InvAck));
    }

    /// The disagreement ISSUE 23 found: the agent replaces a clean
    /// Exclusive line with `EJECT(clean)`, which only full-map+local's
    /// `eject-clean-exclusive` rule can receive — and the hand-written
    /// cache catalog the lint used to read had no such edge. The lifted
    /// graph has it, exactly there, and the three analyses stay quiet.
    #[test]
    fn a_clean_exclusive_line_is_evicted_with_eject_clean() {
        let evicts_owner_clean = |sys: &FlowSystem| {
            sys.rules.iter().any(|r| {
                r.role == FlowRole::Cache
                    && r.trigger == MsgClass::Evict
                    && r.when.iter().any(|w| w == twobit_dist::flow::IDLE_OWNER)
                    && r.emits_class(MsgClass::EjectClean)
            })
        };
        for t in shipped_tables() {
            let sys = FlowSystem::build(t, GateSpec::shipped());
            assert_eq!(
                evicts_owner_clean(&sys),
                t.scheme == "full-map+local",
                "{}",
                t.scheme
            );
        }
        let sys = FlowSystem::build(table("full-map+local"), GateSpec::shipped());
        let reach = sys.reach();
        let receiver = sys
            .rules
            .iter()
            .find(|r| r.name == "mem/eject-clean-exclusive")
            .expect("the rule that receives it");
        assert_eq!(receiver.when, ["PresentM"]);
        assert!(
            reach.classes.contains(&receiver.trigger)
                && reach
                    .states
                    .contains(&(FlowRole::Memory, "PresentM".to_string())),
            "mem/eject-clean-exclusive is reachable"
        );
        assert!(sys.analyze().is_empty());
    }

    /// Broken fixture for the unserviced analysis: drop the stale-reply
    /// rule and the perturbed `MGRANTED` arrival has nowhere to go.
    #[test]
    fn unserviced_fires_when_the_stale_reply_rule_is_removed() {
        let mut sys = FlowSystem::build(table("two-bit"), GateSpec::shipped());
        sys.rules.retain(|r| r.name != "cache/upgrade-stale-reply");
        let findings = sys.check_unserviced();
        assert!(
            findings.iter().any(|f| {
                f.analysis == "flow-unserviced"
                    && f.message.contains("upgrade-ack")
                    && f.message.contains("awaiting-grant")
            }),
            "expected the stale MGRANTED arrival to be flagged: {findings:?}"
        );
    }

    /// Broken fixture for the wait-cycle analysis: the PR 9 gate lets
    /// recalls pass the withheld grant, so the memory's supply wait and
    /// the cache's grant wait deadlock on each other.
    #[test]
    fn pr9_gate_produces_the_wait_cycle() {
        let sys = FlowSystem::build(table("two-bit"), GateSpec::pr9_regression());
        let findings = sys.check_wait_cycles();
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.analysis, "flow-wait-cycle");
        assert!(f.message.contains(twobit_core::flow::AWAIT_READ));
        assert!(f.message.contains(twobit_dist::flow::AWAITING_GRANT));
    }

    /// The PR 9 livelock class end to end: the recall overtakes the
    /// withheld grant and lands at `awaiting-grant`, which supplies
    /// nothing.
    #[test]
    fn pr9_gate_produces_the_unserviced_liveness_finding() {
        let findings = lint_flow(table("two-bit"), GateSpec::pr9_regression());
        assert!(
            findings.iter().any(|f| {
                f.analysis == "flow-unserviced"
                    && f.message.contains("overtake")
                    && f.message.contains("awaiting-grant")
            }),
            "{findings:?}"
        );
        assert!(findings.iter().any(|f| f.analysis == "flow-wait-cycle"));
        assert!(findings.iter().any(|f| f.analysis == "flow-reorder"));
    }

    /// Broken fixture for the reorder analysis: links that reorder
    /// freely break the grant-then-invalidate ordering the node code
    /// relies on, even with the gate intact.
    #[test]
    fn unordered_links_flag_the_grant_inv_pair() {
        let sys = FlowSystem::build(table("two-bit"), GateSpec::unordered_links());
        let findings = sys.check_reorder();
        assert!(
            findings.iter().any(|f| {
                f.analysis == "flow-reorder"
                    && f.message.contains("grant")
                    && f.message.contains("inv")
            }),
            "{findings:?}"
        );
    }

    /// Stripping the declared barrier from the table rule is flagged as
    /// a missing annotation even under the shipped gate.
    #[test]
    fn undeclared_barrier_is_flagged() {
        let mut t = table("two-bit").clone();
        t.rule_mut("write-miss-shared")
            .expect("rule exists")
            .guarantees
            .clear();
        let sys = FlowSystem::build(&t, GateSpec::shipped());
        let findings = sys.check_reorder();
        assert!(
            findings.iter().any(|f| f.analysis == "flow-reorder"
                && f.rule.as_deref() == Some("mem/write-miss-shared")
                && f.message.contains("declares no AckBarrier")),
            "{findings:?}"
        );
    }

    /// The stale-reply rule is what makes the (grant, upgrade-ack) pair
    /// order-insensitive — the swap test agrees.
    #[test]
    fn swap_test_is_quiet_for_the_stale_reply_pair() {
        let sys = FlowSystem::build(table("two-bit"), GateSpec::shipped());
        let reach = sys.reach();
        assert!(sys
            .swap_sensitive(MsgClass::Grant, MsgClass::UpgradeAck, &reach)
            .is_none());
        assert!(sys
            .swap_sensitive(MsgClass::Grant, MsgClass::Recall, &reach)
            .is_some());
    }
}
