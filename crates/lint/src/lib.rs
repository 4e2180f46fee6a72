//! Static analyses over the protocols' transition tables (see
//! `twobit_core::transitions`) — the very tables the one directory and
//! the one cache agent execute in the simulator, the model checker and
//! the distributed nodes, so a finding here is a finding about what runs.
//!
//! Three structural analyses run on every table of either vocabulary —
//! the six directory tables and the four cache tables
//! (`twobit_core::cache_table`) — and two more on the directory tables:
//!
//! * **Exhaustiveness** — every `(event, state, condition-assignment)`
//!   point in an event's declared domain is covered by at least one
//!   rule; a hole is a point where the directory would have nothing to
//!   execute (`Program::compile` refuses such a table).
//! * **Determinism** — no point is covered by two rules; overlapping
//!   guards leave the table ambiguous about what to execute (refused
//!   likewise).
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
//! of the table entry). [`lint_structure`] runs the first three on a
//! table of any vocabulary, [`lint_table`] all five on a directory table;
//! [`lint_each`] covers every shipped table of both kinds and adds the
//! flow analyses; [`lint_shipped`] deduplicates identical findings
//! across schemes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod confirm;
pub mod flow_graph;

use twobit_core::transitions::{
    ActionKind, Cond, EventKind, Next, Rule, StateSet, Table, TransitionTable, Vocabulary,
};
use twobit_obs::json::{obj, Sink, ToJson};
use twobit_types::GlobalState;

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
    fn of_table<V: Vocabulary>(
        analysis: &'static str,
        table: &Table<V>,
        message: String,
    ) -> Finding {
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

    fn of_rule<V: Vocabulary>(
        analysis: &'static str,
        table: &Table<V>,
        rule: &Rule<V>,
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

/// Exhaustiveness: every point of every event's domain has at least one
/// enabled rule — there is always something to execute.
#[must_use]
pub fn check_exhaustiveness<V: Vocabulary>(table: &Table<V>) -> Vec<Finding> {
    table
        .coverage()
        .iter()
        .filter(|point| point.rules.is_empty())
        .map(|point| {
            Finding::of_table(
                "exhaustiveness",
                table,
                format!(
                    "no rule enabled for {point} — the controller's behavior here is undeclared"
                ),
            )
        })
        .collect()
}

/// Determinism: no point of any event's domain has two enabled rules —
/// overlapping guards leave the table ambiguous.
#[must_use]
pub fn check_determinism<V: Vocabulary>(table: &Table<V>) -> Vec<Finding> {
    table
        .coverage()
        .iter()
        .filter(|point| point.rules.len() > 1)
        .map(|point| {
            let names = point
                .rules
                .iter()
                .map(|&r| {
                    format!(
                        "'{}' ({})",
                        table.rules[r].name,
                        table.rules[r].provenance()
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            Finding::of_rule(
                "determinism",
                table,
                &table.rules[point.rules[1]],
                format!("guards overlap at {point}: {names} are all enabled"),
            )
        })
        .collect()
}

/// Dead rules: a rule that can never fire — undeclared event, source
/// states outside the event's domain, a guard over undeclared condition
/// variables, or a self-contradictory guard.
#[must_use]
pub fn check_dead_rules<V: Vocabulary>(table: &Table<V>) -> Vec<Finding> {
    let coverage = table.coverage();
    let mut findings = Vec::new();
    for (index, rule) in table.rules.iter().enumerate() {
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
        if !coverage.iter().any(|point| point.rules.contains(&index)) {
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

/// Runs the three structural analyses — exhaustiveness, determinism,
/// dead rules — on one table of either vocabulary, most fundamental
/// first.
#[must_use]
pub fn lint_structure<V: Vocabulary>(table: &Table<V>) -> Vec<Finding> {
    let mut findings = check_exhaustiveness(table);
    findings.extend(check_determinism(table));
    findings.extend(check_dead_rules(table));
    findings
}

/// Runs all five analyses on one directory table, most fundamental
/// first.
#[must_use]
pub fn lint_table(table: &TransitionTable) -> Vec<Finding> {
    let mut findings = lint_structure(table);
    findings.extend(check_invariants(table));
    findings.extend(check_broadcast_necessity(table));
    findings
}

/// The shipped two-bit table — the one the seeded-bug demos and fixtures
/// break copies of.
///
/// # Panics
///
/// Panics if `twobit-core` stops shipping a scheme named `two-bit`.
#[must_use]
pub fn two_bit_table() -> &'static TransitionTable {
    twobit_core::shipped_tables()
        .into_iter()
        .find(|t| t.scheme == "two-bit")
        .expect("two-bit ships a table")
}

/// Every shipped table with its rule count and findings: each scheme's
/// directory table under the five per-table analyses plus the three
/// whole-system flow analyses of its scheme under the shipped gate
/// discipline, then each cache table under the three structural ones.
#[must_use]
pub fn lint_each() -> Vec<(&'static str, usize, Vec<Finding>)> {
    let gate = twobit_dist::flow::GateSpec::shipped();
    let memory = twobit_core::shipped_tables().map(|t| {
        let mut findings = lint_table(t);
        findings.extend(flow_graph::lint_flow(t, gate));
        (t.scheme, t.rules.len(), findings)
    });
    let cache =
        twobit_core::shipped_cache_tables().map(|t| (t.scheme, t.rules.len(), lint_structure(t)));
    memory.into_iter().chain(cache).collect()
}

/// [`lint_each`], with identical findings deduplicated across tables.
#[must_use]
pub fn lint_shipped() -> Vec<Finding> {
    dedup_findings(lint_each().into_iter().flat_map(|t| t.2).collect())
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
    fn emit<S: Sink>(&self, out: &mut S) {
        out.object(|o| {
            o.member("analysis", &self.analysis);
            o.member("scheme", &self.scheme);
            o.member("rule", &self.rule);
            o.member("provenance", &self.provenance);
            o.member("message", &self.message);
            o.member("verdict", &self.verdict);
            o.member("evidence", &self.evidence);
        });
    }
}

/// Renders findings as an indented JSON document, keys sorted. Schema
/// `twobit-lint/v2`: `{"count", "findings": [{"analysis", "evidence",
/// "message", "provenance", "rule", "scheme", "verdict"}], "schema":
/// "twobit-lint/v2", "tables": [{"rules", "table"}]}` — v2 added the
/// top-level `schema` tag and the per-finding dynamic confirmation fields
/// (`verdict`: `"CONFIRMED"`/`"PLAUSIBLE"`/null, `evidence`: the
/// replayed timeline or null). `tables` (an added key; no existing key
/// changed meaning, so still v2) names every table analysed — directory
/// and, since the cache half became tables, cache — with its rule count.
#[must_use]
pub fn render_json(findings: &[Finding]) -> String {
    let memory = twobit_core::shipped_tables().map(|t| (t.scheme, t.rules.len()));
    let cache = twobit_core::shipped_cache_tables().map(|t| (t.scheme, t.rules.len()));
    let tables = memory
        .into_iter()
        .chain(cache)
        .map(|(table, rules)| obj([("table", table.json()), ("rules", rules.json())]))
        .collect();
    let mut text = obj([
        ("schema", "twobit-lint/v2".json()),
        ("tables", tables),
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
