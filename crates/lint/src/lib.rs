//! Static analyses over the protocols' declarative transition tables
//! (see `twobit_core::transitions`), plus a model-checker differential
//! cross-check.
//!
//! Five analyses run per table:
//!
//! * **Exhaustiveness** — every `(event, state, condition-assignment)`
//!   point in an event's declared domain is covered by at least one
//!   rule; a hole is exactly a missing `match` arm in the executable
//!   protocol.
//! * **Determinism** — no point is covered by two rules; overlapping
//!   guards make the table ambiguous about what the implementation does.
//! * **Dead rules** — every rule is enabled somewhere: its event is
//!   declared, its source states intersect the event's domain, and its
//!   guard is satisfiable over the event's condition variables.
//! * **Invariant preservation** — per-rule symbolic checks of the
//!   directory-state discipline: no transition into `PresentM` from a
//!   clean shared state without an invalidation (the paper's single
//!   exception: a fresh `MREQUEST` under `Present1`, section 3.2.4 case
//!   1), awaiting rules recall and do nothing else, supplies and dirty
//!   ejects write memory, denials don't move the state.
//! * **Broadcast necessity** — the two-bit scheme's defining economy:
//!   commands reaching non-initiator caches (invalidates, recalls)
//!   appear only on write-sharing transitions; any other occurrence is
//!   gratuitous traffic the table must justify.
//!
//! Three further analyses run over the **whole-system message-flow
//! graph** (all three roles: client, cache, memory, assembled per
//! scheme in [`flow_graph`]): unserviced-message detection, wait-cycle
//! detection, and reorder sensitivity. Candidate liveness findings can
//! be dynamically confirmed by steering the model checker toward the
//! implicated states ([`confirm`]).
//!
//! Each [`Finding`] carries the offending rule's provenance (file:line
//! of the table entry). [`lint_table`] runs everything on one table;
//! [`lint_shipped`] adds the flow analyses and deduplicates identical
//! findings across schemes; [`cross_check`] wraps the bounded model
//! checker's protocols in reconciling decorators and differentially
//! replays every explored DAG edge against the tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod confirm;
pub mod flow_graph;

use twobit_core::transitions::{
    ActionKind, Cond, EventKind, EventSpec, Next, Rule, StateSet, TransitionTable,
};
use twobit_core::ModelChecker;
use twobit_obs::json::{obj, Json, ToJson};
use twobit_types::{CacheOrg, GlobalState, MemRef, ProtocolKind, SystemConfig, WordAddr};

/// One verdict from an analysis: which check, which scheme, which rule
/// (with file:line provenance), and what is wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The analysis that produced the finding.
    pub analysis: &'static str,
    /// The scheme whose table is at fault.
    pub scheme: String,
    /// The offending rule's name, when the finding is about one rule.
    pub rule: Option<String>,
    /// `file:line` of the offending table entry, when rule-specific.
    pub provenance: Option<String>,
    /// Human-readable description of the defect.
    pub message: String,
    /// Dynamic-confirmation verdict, when the model checker was asked:
    /// `"CONFIRMED"` (the implicated window was reached; `evidence`
    /// holds the replayable timeline) or `"PLAUSIBLE"` (the search
    /// budget ran out before reaching it).
    pub verdict: Option<&'static str>,
    /// The confirmation's evidence: a replayed observation timeline of
    /// the action path that reaches the implicated window.
    pub evidence: Option<String>,
}

impl Finding {
    fn of_table(analysis: &'static str, table: &TransitionTable, message: String) -> Finding {
        Finding {
            analysis,
            scheme: table.scheme.to_string(),
            rule: None,
            provenance: None,
            message,
            verdict: None,
            evidence: None,
        }
    }

    fn of_rule(
        analysis: &'static str,
        table: &TransitionTable,
        rule: &Rule,
        message: String,
    ) -> Finding {
        Finding {
            analysis,
            scheme: table.scheme.to_string(),
            rule: Some(rule.name.to_string()),
            provenance: Some(rule.provenance()),
            message,
            verdict: None,
            evidence: None,
        }
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.analysis, self.scheme)?;
        if let Some(rule) = &self.rule {
            write!(f, " rule '{rule}'")?;
        }
        if let Some(prov) = &self.provenance {
            write!(f, " ({prov})")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(v) = self.verdict {
            write!(f, " [{v}]")?;
        }
        Ok(())
    }
}

/// Merges findings that are identical except for the scheme: analyses
/// over shared machinery (the dist-layer flow rules, the stateless
/// comparators' common shapes) repeat verbatim across tables, and one
/// line naming every affected scheme reads better than six copies. The
/// merged finding keeps the first scheme's position and accumulates the
/// others into its `scheme` field, comma-separated.
#[must_use]
pub fn dedup_findings(findings: Vec<Finding>) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    for f in findings {
        if let Some(prev) = out.iter_mut().find(|p| {
            p.analysis == f.analysis
                && p.rule == f.rule
                && p.provenance == f.provenance
                && p.message == f.message
        }) {
            if !prev.scheme.split(", ").any(|s| s == f.scheme) {
                prev.scheme.push_str(", ");
                prev.scheme.push_str(&f.scheme);
            }
            if prev.verdict.is_none() {
                prev.verdict = f.verdict;
                prev.evidence = f.evidence;
            }
            continue;
        }
        out.push(f);
    }
    out
}

/// All boolean assignments over `conds`, as `(cond, value)` vectors.
/// Three condition variables at most, so at most eight assignments.
fn assignments(conds: &[Cond]) -> Vec<Vec<(Cond, bool)>> {
    let mut out = vec![Vec::new()];
    for &cond in conds {
        out = out
            .into_iter()
            .flat_map(|base| {
                [false, true].into_iter().map(move |v| {
                    let mut next = base.clone();
                    next.push((cond, v));
                    next
                })
            })
            .collect();
    }
    out
}

/// Whether `rule` is enabled at `(state, assignment)` — the guard
/// semantics shared by every analysis. A requirement naming a condition
/// outside the assignment (an undeclared variable) never holds.
fn enabled(rule: &Rule, event: EventKind, state: GlobalState, assignment: &[(Cond, bool)]) -> bool {
    rule.event == event
        && rule.when.contains(state)
        && rule
            .requires
            .iter()
            .all(|&(cond, value)| assignment.iter().any(|&(c, v)| c == cond && v == value))
}

fn describe_point(event: EventKind, state: GlobalState, assignment: &[(Cond, bool)]) -> String {
    if assignment.is_empty() {
        format!("({event}, {state})")
    } else {
        let conds = assignment
            .iter()
            .map(|(c, v)| format!("{c}={v}"))
            .collect::<Vec<_>>()
            .join(", ");
        format!("({event}, {state}, {conds})")
    }
}

fn domain_points(spec: &EventSpec) -> Vec<(GlobalState, Vec<(Cond, bool)>)> {
    spec.domain
        .iter()
        .flat_map(|state| {
            assignments(&spec.conds)
                .into_iter()
                .map(move |a| (state, a))
        })
        .collect()
}

/// Exhaustiveness: every point of every event's domain has at least one
/// enabled rule — the static form of "no missing `match` arm".
#[must_use]
pub fn check_exhaustiveness(table: &TransitionTable) -> Vec<Finding> {
    let mut findings = Vec::new();
    for spec in &table.events {
        for (state, assignment) in domain_points(spec) {
            let hits = table
                .rules
                .iter()
                .filter(|r| enabled(r, spec.kind, state, &assignment))
                .count();
            if hits == 0 {
                findings.push(Finding::of_table(
                    "exhaustiveness",
                    table,
                    format!(
                        "no rule enabled for {} — the implementation's behavior here is undeclared",
                        describe_point(spec.kind, state, &assignment)
                    ),
                ));
            }
        }
    }
    findings
}

/// Determinism: no point of any event's domain has two enabled rules —
/// overlapping guards leave the table ambiguous.
#[must_use]
pub fn check_determinism(table: &TransitionTable) -> Vec<Finding> {
    let mut findings = Vec::new();
    for spec in &table.events {
        for (state, assignment) in domain_points(spec) {
            let hits: Vec<&Rule> = table
                .rules
                .iter()
                .filter(|r| enabled(r, spec.kind, state, &assignment))
                .collect();
            if hits.len() > 1 {
                let names = hits
                    .iter()
                    .map(|r| format!("'{}' ({})", r.name, r.provenance()))
                    .collect::<Vec<_>>()
                    .join(", ");
                findings.push(Finding::of_rule(
                    "determinism",
                    table,
                    hits[1],
                    format!(
                        "guards overlap at {}: {names} are all enabled",
                        describe_point(spec.kind, state, &assignment)
                    ),
                ));
            }
        }
    }
    findings
}

/// Dead rules: a rule that can never fire — undeclared event, source
/// states outside the event's domain, a guard over undeclared condition
/// variables, or a self-contradictory guard.
#[must_use]
pub fn check_dead_rules(table: &TransitionTable) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in &table.rules {
        let Some(spec) = table.spec(rule.event) else {
            findings.push(Finding::of_rule(
                "dead-rule",
                table,
                rule,
                format!("event {} is not declared for this scheme", rule.event),
            ));
            continue;
        };
        if rule.when.intersect(spec.domain).is_empty() {
            findings.push(Finding::of_rule(
                "dead-rule",
                table,
                rule,
                format!(
                    "source states {} never intersect the event domain {}",
                    rule.when, spec.domain
                ),
            ));
            continue;
        }
        if let Some(&(cond, _)) = rule.requires.iter().find(|(c, _)| !spec.conds.contains(c)) {
            findings.push(Finding::of_rule(
                "dead-rule",
                table,
                rule,
                format!(
                    "guard tests '{cond}', which {} does not declare",
                    rule.event
                ),
            ));
            continue;
        }
        let contradictory = rule
            .requires
            .iter()
            .any(|&(c, v)| rule.requires.iter().any(|&(c2, v2)| c2 == c && v2 != v));
        if contradictory {
            findings.push(Finding::of_rule(
                "dead-rule",
                table,
                rule,
                "guard requires a condition both true and false".to_string(),
            ));
            continue;
        }
        // Belt and braces: enumerate — a rule passing the structural
        // checks must be enabled at some point of the domain.
        let reachable = domain_points(spec)
            .iter()
            .any(|(state, assignment)| enabled(rule, spec.kind, *state, assignment));
        if !reachable {
            findings.push(Finding::of_rule(
                "dead-rule",
                table,
                rule,
                "rule is enabled at no point of its event's domain".to_string(),
            ));
        }
    }
    findings
}

fn has_invalidate(rule: &Rule) -> bool {
    rule.actions
        .iter()
        .any(|a| matches!(a, ActionKind::Invalidate { .. }))
}

fn has_recall(rule: &Rule) -> bool {
    rule.actions
        .iter()
        .any(|a| matches!(a, ActionKind::Recall { .. }))
}

fn has_write_memory(rule: &Rule) -> bool {
    rule.actions.contains(&ActionKind::WriteMemory)
}

/// The paper's one sanctioned invalidation-free path into `PresentM`: a
/// fresh `MREQUEST` under `Present1` — the sole copy *is* the
/// requester's, so there is nothing to invalidate ("this justifies
/// keeping the encoding of Present1", section 3.2.4 case 1).
fn present1_upgrade_exception(rule: &Rule) -> bool {
    rule.event == EventKind::Modify
        && rule.when == StateSet::only(GlobalState::Present1)
        && rule.requires.contains(&(Cond::Fresh, true))
}

/// Invariant preservation, symbolically per rule.
#[must_use]
pub fn check_invariants(table: &TransitionTable) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in &table.rules {
        let next_set = match rule.next {
            Next::Same => None,
            Next::In(s) => Some(s),
        };
        // inv-writer-exclusivity: entering PresentM from a clean shared
        // state must invalidate the other (potential) copies.
        if table.tracks_state {
            let enters_modified = next_set.is_some_and(|s| s.contains(GlobalState::PresentM));
            let from_shared = !rule.when.intersect(StateSet::SHARED).is_empty();
            if enters_modified
                && from_shared
                && !has_invalidate(rule)
                && !present1_upgrade_exception(rule)
            {
                findings.push(Finding::of_rule(
                    "invariant",
                    table,
                    rule,
                    format!(
                        "inv-writer-exclusivity: moves {} into PresentM with no invalidate \
                         action — stale clean copies would survive the write",
                        rule.when
                    ),
                ));
            }
        }
        // inv-await-discipline: a rule that leaves the transaction
        // waiting must recall data and do nothing else.
        if !rule.completes {
            if !has_recall(rule) {
                findings.push(Finding::of_rule(
                    "invariant",
                    table,
                    rule,
                    "inv-await-discipline: awaits a supply but sends no recall — \
                     the wait can never be satisfied"
                        .to_string(),
                ));
            }
            let premature = rule.actions.iter().any(|a| {
                matches!(
                    a,
                    ActionKind::Grant { .. }
                        | ActionKind::ModifyGrant { .. }
                        | ActionKind::WriteMemory
                )
            });
            if premature {
                findings.push(Finding::of_rule(
                    "invariant",
                    table,
                    rule,
                    "inv-await-discipline: grants or writes memory before the recalled \
                     data has arrived"
                        .to_string(),
                ));
            }
            if rule.next != Next::Same {
                findings.push(Finding::of_rule(
                    "invariant",
                    table,
                    rule,
                    "inv-await-discipline: changes the global state while the \
                     transaction is still pending"
                        .to_string(),
                ));
            }
        } else if has_recall(rule) {
            // inv-complete-no-recall: a recall with nobody waiting on the
            // answer is a protocol that drops data on the floor.
            findings.push(Finding::of_rule(
                "invariant",
                table,
                rule,
                "inv-complete-no-recall: sends a recall yet completes the transaction".to_string(),
            ));
        }
        // inv-supply-writes-memory: supplied (possibly dirty) data must
        // land in memory before anything is granted from it.
        if rule.event == EventKind::Supply && !has_write_memory(rule) {
            findings.push(Finding::of_rule(
                "invariant",
                table,
                rule,
                "inv-supply-writes-memory: consumes supplied data without writing it back"
                    .to_string(),
            ));
        }
        // inv-dirty-eject-writes-memory: a dirty eject's data must land,
        // and (for stateful schemes) the block cannot stay PresentM with
        // its sole dirty copy gone.
        if rule.event == EventKind::EjectDirty {
            if !has_write_memory(rule) {
                findings.push(Finding::of_rule(
                    "invariant",
                    table,
                    rule,
                    "inv-dirty-eject-writes-memory: discards the ejected dirty data".to_string(),
                ));
            }
            if table.tracks_state && next_set.is_none_or(|s| s.contains(GlobalState::PresentM)) {
                findings.push(Finding::of_rule(
                    "invariant",
                    table,
                    rule,
                    "inv-dirty-eject-writes-memory: block may remain PresentM after its \
                     dirty copy left"
                        .to_string(),
                ));
            }
        }
        // inv-deny-stutters: a denied MREQUEST must not move the state.
        let denies = rule
            .actions
            .contains(&ActionKind::ModifyGrant { granted: false });
        if rule.event == EventKind::Modify && denies && rule.next != Next::Same {
            findings.push(Finding::of_rule(
                "invariant",
                table,
                rule,
                "inv-deny-stutters: denies the upgrade yet changes the global state".to_string(),
            ));
        }
    }
    findings
}

/// Broadcast necessity: non-initiator commands (invalidates, recalls)
/// fire only on write-sharing transitions — the defining property of
/// the two-bit scheme's economy (and, for the stateless comparators,
/// of their write-through contract).
#[must_use]
pub fn check_broadcast_necessity(table: &TransitionTable) -> Vec<Finding> {
    let mut findings = Vec::new();
    let non_modified = StateSet::of(&[
        GlobalState::Absent,
        GlobalState::Present1,
        GlobalState::PresentStar,
    ]);
    for rule in &table.rules {
        if has_invalidate(rule) {
            let next_set = match rule.next {
                Next::Same => None,
                Next::In(s) => Some(s),
            };
            let write_sharing = table.tracks_state
                && next_set.is_some_and(|s| s.contains(GlobalState::PresentM))
                && !rule.when.intersect(StateSet::SHARED).is_empty();
            let write_through_store = !table.tracks_state && rule.event == EventKind::WriteThrough;
            if !write_sharing && !write_through_store {
                findings.push(Finding::of_rule(
                    "broadcast-necessity",
                    table,
                    rule,
                    "invalidates non-initiator caches on a transition that creates no \
                     exclusive writer"
                        .to_string(),
                ));
            }
        }
        if has_recall(rule) {
            let recalls_owner = !rule.completes && rule.when.intersect(non_modified).is_empty();
            if !recalls_owner {
                findings.push(Finding::of_rule(
                    "broadcast-necessity",
                    table,
                    rule,
                    "recalls data outside a pending-transaction-on-PresentM transition".to_string(),
                ));
            }
        }
    }
    findings
}

/// Runs all five analyses on one table, most fundamental first.
#[must_use]
pub fn lint_table(table: &TransitionTable) -> Vec<Finding> {
    let mut findings = check_exhaustiveness(table);
    findings.extend(check_determinism(table));
    findings.extend(check_dead_rules(table));
    findings.extend(check_invariants(table));
    findings.extend(check_broadcast_necessity(table));
    findings
}

/// Lints every shipped scheme's table — the five per-table analyses
/// plus the three whole-system flow analyses under the shipped gate
/// discipline — and deduplicates identical findings across schemes.
#[must_use]
pub fn lint_shipped() -> Vec<Finding> {
    let gate = twobit_dist::flow::GateSpec::shipped();
    dedup_findings(
        twobit_core::shipped_tables()
            .iter()
            .flat_map(|t| {
                let mut findings = lint_table(t);
                findings.extend(flow_graph::lint_flow(t, gate));
                findings
            })
            .collect(),
    )
}

/// The model-checked race scenarios the cross-check replays — the same
/// trio `verify_protocols` uses for its differential smoke test.
///
/// The static software scheme is special: hardware maintains no
/// coherence for private blocks (races on them are a *software*
/// contract violation, which the checker rightly reports), so its
/// scenarios race only on public blocks — numbers at or above the
/// default `static_shared_from` threshold of 2^32 — which the agents
/// handle with `DIRECTREAD`/`WRITETHRU`, the regime the null table
/// actually describes.
fn cross_check_scenarios() -> Vec<(&'static str, SystemConfig, Vec<Vec<MemRef>>)> {
    /// First public block number under the static scheme's default
    /// threshold (`twobit_core::DEFAULT_STATIC_SHARED_FROM`).
    const PUBLIC: u64 = 1 << 32;
    let rd = |b: u64| MemRef::read(WordAddr::new(b, 0));
    let wr = |b: u64| MemRef::write(WordAddr::new(b, 0));
    let mut scenarios = Vec::new();
    for kind in [
        ProtocolKind::TwoBit,
        ProtocolKind::TwoBitTlb { entries: 2 },
        ProtocolKind::FullMap,
        ProtocolKind::FullMapLocal,
        ProtocolKind::ClassicalWriteThrough,
    ] {
        scenarios.push((
            "3.2.5 write race",
            SystemConfig::with_defaults(2).with_protocol(kind),
            vec![vec![rd(1), wr(1)], vec![rd(1), wr(1)]],
        ));
        let mut conflict = SystemConfig::with_defaults(2).with_protocol(kind);
        conflict.cache = CacheOrg::new(2, 1, 4).expect("valid 2-set direct-mapped cache");
        scenarios.push((
            "replacement/recall race",
            conflict,
            vec![vec![wr(1), rd(9)], vec![rd(1)]],
        ));
        scenarios.push((
            "upgrade + third reader",
            SystemConfig::with_defaults(3).with_protocol(kind),
            vec![vec![rd(1), wr(1)], vec![wr(1)], vec![rd(1)]],
        ));
    }
    let static_sw = ProtocolKind::StaticSoftware;
    scenarios.push((
        "public-block write race",
        SystemConfig::with_defaults(2).with_protocol(static_sw),
        vec![vec![rd(PUBLIC), wr(PUBLIC)], vec![rd(PUBLIC), wr(PUBLIC)]],
    ));
    let mut conflict = SystemConfig::with_defaults(2).with_protocol(static_sw);
    conflict.cache = CacheOrg::new(2, 1, 4).expect("valid 2-set direct-mapped cache");
    scenarios.push((
        "private replacement + public race",
        conflict,
        vec![vec![wr(1), rd(9), wr(PUBLIC)], vec![rd(PUBLIC)]],
    ));
    scenarios.push((
        "public upgrade + third reader",
        SystemConfig::with_defaults(3).with_protocol(static_sw),
        vec![
            vec![rd(PUBLIC), wr(PUBLIC)],
            vec![wr(PUBLIC)],
            vec![rd(PUBLIC)],
        ],
    ));
    scenarios
}

/// Differential cross-check: explores each race scenario under each of
/// the six schemes with every directory decision reconciled against the
/// scheme's table. Any edge the table cannot explain — and any protocol
/// violation the checker itself finds — becomes a finding.
#[must_use]
pub fn cross_check(budget: u64, jobs: usize) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (label, config, script) in cross_check_scenarios() {
        let scheme = format!("{}", config.protocol);
        let mut mc = match ModelChecker::new(config, script) {
            Ok(mc) => mc,
            Err(e) => {
                findings.push(Finding {
                    analysis: "cross-check",
                    scheme,
                    rule: None,
                    provenance: None,
                    message: format!("{label}: checker rejected the scenario: {e}"),
                    verdict: None,
                    evidence: None,
                });
                continue;
            }
        };
        let sink = mc.reconcile_tables();
        match mc.explore_dedup(budget, jobs) {
            Ok(_) => {}
            Err(cex) => {
                findings.push(Finding {
                    analysis: "cross-check",
                    scheme: scheme.clone(),
                    rule: None,
                    provenance: None,
                    message: format!(
                        "{label}: model checker found a protocol violation: {}",
                        cex.error
                    ),
                    verdict: None,
                    evidence: None,
                });
            }
        }
        for violation in sink.take() {
            findings.push(Finding {
                analysis: "cross-check",
                scheme: scheme.clone(),
                rule: None,
                provenance: None,
                message: format!("{label}: {violation}"),
                verdict: None,
                evidence: None,
            });
        }
    }
    findings
}

/// Renders findings for terminals: one line per finding (confirmation
/// evidence indented beneath it) plus a summary.
#[must_use]
pub fn render_human(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_string());
        out.push('\n');
        if let Some(evidence) = &f.evidence {
            for line in evidence.lines() {
                out.push_str("    ");
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    if findings.is_empty() {
        out.push_str("no findings\n");
    } else {
        out.push_str(&format!("{} finding(s)\n", findings.len()));
    }
    out
}

/// An object of the seven fields, absent ones `null`. Write-only: the
/// `&'static str` analysis and verdict names cannot be read back.
impl ToJson for Finding {
    fn json(&self) -> Json {
        obj([
            ("analysis", self.analysis.json()),
            ("scheme", self.scheme.json()),
            ("rule", self.rule.json()),
            ("provenance", self.provenance.json()),
            ("message", self.message.json()),
            ("verdict", self.verdict.json()),
            ("evidence", self.evidence.json()),
        ])
    }
}

/// Renders findings as an indented JSON document, keys sorted. Schema
/// `twobit-lint/v2`: `{"count", "findings": [{"analysis", "evidence",
/// "message", "provenance", "rule", "scheme", "verdict"}], "schema":
/// "twobit-lint/v2"}` — v2 added the top-level `schema` tag and the
/// per-finding dynamic confirmation fields (`verdict`:
/// `"CONFIRMED"`/`"PLAUSIBLE"`/null, `evidence`: the replayed timeline
/// or null).
#[must_use]
pub fn render_json(findings: &[Finding]) -> String {
    let mut text = obj([
        ("schema", "twobit-lint/v2".json()),
        ("findings", findings.json()),
        ("count", findings.len().json()),
    ])
    .to_json_pretty();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignments_enumerate_the_hypercube() {
        assert_eq!(assignments(&[]).len(), 1);
        assert_eq!(assignments(&[Cond::Fresh]).len(), 2);
        assert_eq!(assignments(&[Cond::WaitWrite, Cond::Retains]).len(), 4);
    }

    #[test]
    fn json_document_shape() {
        let doc = render_json(&[]);
        assert!(doc.contains("\"schema\": \"twobit-lint/v2\""));
        assert!(doc.contains("\"findings\": []"));
        assert!(doc.contains("\"count\": 0"));
    }

    #[test]
    fn json_findings_carry_the_v2_fields() {
        let mut f = Finding::of_table(
            "flow-unserviced",
            twobit_core::shipped_tables().first().unwrap(),
            "m".to_string(),
        );
        f.verdict = Some("CONFIRMED");
        f.evidence = Some("timeline".to_string());
        let doc = render_json(&[f]);
        assert!(doc.contains("\"verdict\": \"CONFIRMED\""));
        assert!(doc.contains("\"evidence\": \"timeline\""));
    }

    #[test]
    fn dedup_merges_identical_findings_across_schemes() {
        let tables = twobit_core::shipped_tables();
        let a = Finding::of_table("flow-unserviced", tables[0], "same".to_string());
        let b = Finding::of_table("flow-unserviced", tables[1], "same".to_string());
        let c = Finding::of_table("flow-unserviced", tables[0], "different".to_string());
        let out = dedup_findings(vec![a, b, c]);
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0].scheme,
            format!("{}, {}", tables[0].scheme, tables[1].scheme)
        );
    }
}
