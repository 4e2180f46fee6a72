//! The assembled whole-system flow graph of every shipped scheme, as
//! text, against the recording made from the parent of ISSUE 23 — the
//! last commit where the cache half of the graph was a hand-written
//! catalog (`dist::flow::cache_client`) beside a hand-written agent.
//!
//! `flow_edges/<scheme>.txt` holds the parent's graph under the three
//! [`GateSpec`]s: one `state` line per flow state and one edge line
//! `role | trigger | from | emits | to` per (rule, source state,
//! successor state), sorted. Since ISSUE 23 the cache half is lifted from
//! the table the one `CacheAgent` interprets, so a line that differs is a
//! place where the catalog and the agent disagreed. [`DIFFERENCES`] lists
//! every one with the statement that was wrong; anything else that moves
//! fails the test.

use std::collections::BTreeSet;

use twobit_core::flow::FlowEmit;
use twobit_core::transitions::TransitionTable;
use twobit_dist::flow::{assemble, GateSpec};

fn emit_text(e: &FlowEmit) -> String {
    let mut text = format!("{}>{}", e.msg, e.hint);
    if let Some(delivery) = e.delivery {
        text.push_str(&format!("/{delivery:?}").to_lowercase());
    }
    for g in &e.guarantees {
        text.push_str(&format!("!{g}"));
    }
    text
}

fn graph(table: &TransitionTable, gate: &GateSpec) -> BTreeSet<String> {
    let (states, rules) = assemble(table, gate);
    let mut lines = BTreeSet::new();
    for s in &states {
        lines.insert(format!(
            "state {} | {} | awaits {} | {}",
            s.role,
            s.name,
            s.awaits.map_or("-".to_string(), |m| m.to_string()),
            if s.defers { "defers" } else { "-" }
        ));
    }
    for r in &rules {
        let emits = if r.emits.is_empty() {
            "-".to_string()
        } else {
            r.emits.iter().map(emit_text).collect::<Vec<_>>().join(" ")
        };
        for from in &r.when {
            let same = [from.clone()];
            let tos = if r.next.is_empty() {
                &same[..]
            } else {
                &r.next
            };
            for to in tos {
                lines.insert(format!(
                    "{} | {} | {from} | {emits} | {to}",
                    r.role, r.trigger
                ));
            }
        }
    }
    lines
}

/// One scheme's graph under the three gates, in the form of its file.
fn render(table: &TransitionTable) -> String {
    let gates = [
        ("shipped", GateSpec::shipped()),
        ("pr9_regression", GateSpec::pr9_regression()),
        ("unordered_links", GateSpec::unordered_links()),
    ];
    let mut text = String::new();
    for (name, gate) in gates {
        text.push_str(&format!("[{name}]\n"));
        for line in graph(table, &gate) {
            text.push_str(&line);
            text.push('\n');
        }
    }
    text
}

/// `(schemes, removed line, added line, which statement was wrong)` — a
/// `-` line of the parent's recording and the `+` line that replaces it
/// (either may be empty), under every gate.
type Difference = (
    &'static [&'static str],
    &'static str,
    &'static str,
    &'static str,
);

const UPGRADING: &[&str] = &["two-bit", "two-bit+tlb", "full-map", "full-map+local"];
const STATELESS: &[&str] = &["classical-wt", "static-sw"];

const DIFFERENCES: &[Difference] = &[
    (
        &["full-map+local"],
        "",
        "cache | evict | idle-owner | eject-clean>home | idle-invalid",
        "the catalog: it evicted an owned line only as EJECT(dirty), but the agent replaces a \
         clean Exclusive line with EJECT(clean) — what mem/eject-clean-exclusive exists to \
         receive, and what the lint therefore never saw arrive",
    ),
    (
        UPGRADING,
        "cache | inv | awaiting-upgrade | inv-ack>home write-req>home | awaiting-grant",
        "cache | inv | awaiting-upgrade | write-req>home inv-ack>home | awaiting-grant",
        "the catalog: the node acknowledges an invalidation after whatever the agent sent \
         because of it (node.rs `CacheNode::deliver`), so the converted write miss leaves first",
    ),
    (
        UPGRADING,
        "",
        "cache | upgrade-ack | idle-clean | - | idle-clean",
        "the catalog: it declared the stale-MGRANTED drop at awaiting-grant only; the agent \
         drops one wherever the block stands",
    ),
    (
        UPGRADING,
        "",
        "cache | upgrade-ack | idle-invalid | - | idle-invalid",
        "as above",
    ),
    (
        UPGRADING,
        "",
        "cache | upgrade-ack | idle-owner | - | idle-owner",
        "as above",
    ),
    (
        STATELESS,
        "cache | evict | idle-clean | eject-clean>home | idle-invalid",
        "cache | evict | idle-clean | - | idle-invalid",
        "the catalog: it had write-through and static caches announce a clean replacement \
         because their memory tables declared eject-clean; the agent replaces a clean line \
         silently under both",
    ),
    (
        STATELESS,
        "memory | eject-clean | steady | - | steady",
        "",
        "the memory tables: with the true cache half nothing emits eject-clean at these two \
         schemes, so their `eject-clean` rules were dead and are removed",
    ),
];

fn expected(scheme: &str, recorded: &str) -> String {
    let mut lines: Vec<Vec<String>> = Vec::new();
    for line in recorded.lines() {
        if line.starts_with('[') {
            lines.push(vec![line.to_string()]);
        } else {
            lines
                .last_mut()
                .expect("a section header")
                .push(line.to_string());
        }
    }
    let mut text = String::new();
    for mut section in lines {
        let header = section.remove(0);
        let mut set: BTreeSet<String> = section.into_iter().collect();
        for (schemes, removed, added, _why) in DIFFERENCES {
            if !schemes.contains(&scheme) {
                continue;
            }
            if !removed.is_empty() {
                assert!(
                    set.remove(*removed),
                    "{scheme} {header}: the recording has no line '{removed}'"
                );
            }
            if !added.is_empty() {
                assert!(
                    set.insert(added.to_string()),
                    "{scheme} {header}: the recording already has '{added}'"
                );
            }
        }
        text.push_str(&header);
        text.push('\n');
        for line in set {
            text.push_str(&line);
            text.push('\n');
        }
    }
    text
}

#[test]
fn the_flow_graph_is_the_parents_except_where_listed() {
    for table in twobit_core::shipped_tables() {
        let path = format!(
            "{}/tests/flow_edges/{}.txt",
            env!("CARGO_MANIFEST_DIR"),
            table.scheme
        );
        let recorded = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let now = render(table);
        assert_eq!(
            now,
            expected(table.scheme, &recorded),
            "{}: the flow graph moved; it is now:\n{now}",
            table.scheme
        );
    }
}
