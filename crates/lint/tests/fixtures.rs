//! One deliberately broken fixture table per analysis — each asserted
//! flagged by exactly the analysis it targets — plus a golden run
//! asserting every shipped scheme lints clean. The three structural
//! analyses serve both vocabularies, so their cases also take a broken
//! *cache* table: the shipped write-back table with one thing wrong.

use twobit_core::cache_table::{CacheCond, CacheEvent, CacheState};
use twobit_core::rule;
use twobit_core::transitions::{
    ActionKind, Cond, Delivery, EventKind, EventSpec, Set, StateSet, TransitionTable,
};
use twobit_core::CacheTable;
use twobit_lint::{
    check_broadcast_necessity, check_dead_rules, check_determinism, check_exhaustiveness,
    check_invariants, lint_table, two_bit_table,
};
use twobit_types::GlobalState;

use GlobalState::{Absent, Present1, PresentM, PresentStar};

/// The shipped plain write-back cache table, to break a copy of.
fn write_back() -> CacheTable {
    let table = twobit_core::shipped_cache_tables()[0].clone();
    assert_eq!(table.scheme, "write-back");
    table
}

/// A fixture with a hole: read-miss is declared over all four states
/// but no rule handles `PresentM` — the missing `match` arm.
#[test]
fn exhaustiveness_flags_a_missing_arm() {
    let table = TransitionTable {
        scheme: "fixture-missing-arm",
        tracks_state: true,
        events: vec![EventSpec::new(EventKind::ReadMiss, StateSet::ALL, &[])],
        rules: vec![
            rule!(
                "read-miss-absent",
                EventKind::ReadMiss,
                StateSet::only(Absent)
            )
            .action(ActionKind::Grant { exclusive: false })
            .to(StateSet::only(Present1)),
            rule!("read-miss-shared", EventKind::ReadMiss, StateSet::SHARED)
                .action(ActionKind::Grant { exclusive: false })
                .to(StateSet::only(PresentStar)),
            // No rule for PresentM.
        ],
    };
    let findings = check_exhaustiveness(&table);
    assert_eq!(findings.len(), 1, "exactly the PresentM hole: {findings:?}");
    assert!(findings[0].message.contains("PresentM"), "{}", findings[0]);

    // The cache side: a cache that forgot what to do with a recall it
    // owes nothing for.
    let mut cache = write_back();
    cache.rules.retain(|r| r.name != "recall-bystander");
    let findings = check_exhaustiveness(&cache);
    assert_eq!(
        findings.len(),
        10,
        "five bystander states × for-write: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("(recall, await-write, for-write=true)")),
        "{findings:?}"
    );
    assert!(check_determinism(&cache).is_empty() && check_dead_rules(&cache).is_empty());
}

/// A fixture with overlapping guards: two rules both enabled for a
/// write miss on `Present*`.
#[test]
fn determinism_flags_overlapping_guards() {
    let table = TransitionTable {
        scheme: "fixture-overlap",
        tracks_state: true,
        events: vec![EventSpec::new(EventKind::WriteMiss, StateSet::SHARED, &[])],
        rules: vec![
            rule!("write-miss-shared", EventKind::WriteMiss, StateSet::SHARED)
                .action(ActionKind::Invalidate {
                    delivery: Delivery::Broadcast,
                })
                .action(ActionKind::Grant { exclusive: true })
                .to(StateSet::only(PresentM)),
            rule!(
                "write-miss-pstar",
                EventKind::WriteMiss,
                StateSet::only(PresentStar)
            )
            .action(ActionKind::Invalidate {
                delivery: Delivery::Broadcast,
            })
            .action(ActionKind::Grant { exclusive: true })
            .to(StateSet::only(PresentM)),
        ],
    };
    let findings = check_determinism(&table);
    assert!(!findings.is_empty(), "the Present* overlap must be flagged");
    assert!(
        findings
            .iter()
            .all(|f| f.message.contains("write-miss-shared")
                && f.message.contains("write-miss-pstar")),
        "{findings:?}"
    );
    // The overlap is only at Present*; Present1 has a single rule.
    assert_eq!(findings.len(), 1, "{findings:?}");

    // The cache side: "nothing to invalidate" widened over a state that
    // has something.
    let mut cache = write_back();
    let missing = cache.rule_mut("inv-while-missing").expect("declared");
    missing.when = missing.when.union(Set::only(CacheState::Clean));
    let findings = check_determinism(&cache);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("(invalidate, clean)")
            && findings[0].message.contains("inv-drop-copy")
            && findings[0].message.contains("inv-while-missing"),
        "{}",
        findings[0]
    );
    assert!(check_exhaustiveness(&cache).is_empty());
}

/// A fixture with two dead rules: one whose source states fall outside
/// its event's domain, one guarding on a condition variable the event
/// does not declare.
#[test]
fn dead_rules_are_flagged_with_provenance() {
    let table = TransitionTable {
        scheme: "fixture-dead",
        tracks_state: true,
        events: vec![
            EventSpec::new(EventKind::ReadMiss, StateSet::SHARED, &[]),
            EventSpec::new(EventKind::Modify, StateSet::ALL, &[]),
        ],
        rules: vec![
            rule!("read-miss-live", EventKind::ReadMiss, StateSet::SHARED)
                .action(ActionKind::Grant { exclusive: false })
                .to(StateSet::only(PresentStar)),
            rule!(
                "read-miss-outside-domain",
                EventKind::ReadMiss,
                StateSet::only(PresentM)
            )
            .action(ActionKind::Grant { exclusive: false }),
            rule!("modify-undeclared-cond", EventKind::Modify, StateSet::ALL)
                .requires(Cond::Fresh, true)
                .action(ActionKind::ModifyGrant { granted: true })
                .to(StateSet::only(PresentM)),
        ],
    };
    let findings = check_dead_rules(&table);
    assert_eq!(findings.len(), 2, "{findings:?}");
    let flagged: Vec<&str> = findings.iter().filter_map(|f| f.rule.as_deref()).collect();
    assert!(
        flagged.contains(&"read-miss-outside-domain"),
        "{findings:?}"
    );
    assert!(flagged.contains(&"modify-undeclared-cond"), "{findings:?}");
    assert!(
        findings.iter().all(|f| f
            .provenance
            .as_deref()
            .is_some_and(|p| p.contains("fixtures.rs"))),
        "dead-rule findings must carry file:line provenance: {findings:?}"
    );

    // The cache side: a plain write-back cache never holds an Exclusive
    // line, and a load carries no condition.
    let mut cache = write_back();
    cache.rules.push(rule!(
        "read-hit-exclusive",
        CacheEvent::Load,
        Set::only(CacheState::Exclusive)
    ));
    cache.rules.push(
        rule!(
            "read-miss-granted",
            CacheEvent::Load,
            Set::only(CacheState::Invalid)
        )
        .requires(CacheCond::Granted, true),
    );
    let findings = check_dead_rules(&cache);
    let flagged: Vec<&str> = findings.iter().filter_map(|f| f.rule.as_deref()).collect();
    assert_eq!(
        flagged,
        ["read-hit-exclusive", "read-miss-granted"],
        "{findings:?}"
    );
    assert!(
        findings[0].message.contains("never intersect"),
        "{}",
        findings[0]
    );
    assert!(findings[1].message.contains("'granted'"), "{}", findings[1]);
}

/// The classic seeded directory bug: the write-hit upgrade on
/// `Present*` loses its invalidate. The writer-exclusivity invariant
/// must flag it — a stale clean copy would survive the write.
#[test]
fn invariant_flags_the_dropped_invalidate() {
    let mut table = two_bit_table().clone();
    assert!(
        check_invariants(&table).is_empty(),
        "the unmodified table is clean"
    );
    table
        .rule_mut("modify-fresh-shared")
        .expect("two-bit declares the shared-upgrade rule")
        .actions
        .retain(|a| !matches!(a, ActionKind::Invalidate { .. }));
    let findings = check_invariants(&table);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(
        findings[0].message.contains("inv-writer-exclusivity"),
        "{}",
        findings[0]
    );
    assert_eq!(findings[0].rule.as_deref(), Some("modify-fresh-shared"));
    assert!(
        findings[0]
            .provenance
            .as_deref()
            .is_some_and(|p| p.contains("two_bit.rs")),
        "{findings:?}"
    );
}

/// The `Present1` upgrade is the paper's sanctioned invalidation-free
/// path into `PresentM` — dropping *that* rule's (nonexistent)
/// invalidate must not be flagged, which the golden test covers; here
/// we assert the exception is load-bearing by widening the rule.
#[test]
fn invariant_exception_is_limited_to_present1() {
    let mut table = two_bit_table().clone();
    // Widen the invalidation-free Present1 upgrade to also claim
    // Present*: now it is an unsanctioned path and must be flagged.
    table
        .rule_mut("modify-fresh-present1")
        .expect("two-bit declares the sole-copy upgrade rule")
        .when = StateSet::SHARED;
    let findings = check_invariants(&table);
    assert!(
        findings
            .iter()
            .any(|f| f.rule.as_deref() == Some("modify-fresh-present1")
                && f.message.contains("inv-writer-exclusivity")),
        "{findings:?}"
    );
}

/// A fixture that invalidates on a pure read miss — gratuitous
/// non-initiator traffic the broadcast-necessity analysis must reject.
#[test]
fn broadcast_necessity_flags_gratuitous_commands() {
    let table = TransitionTable {
        scheme: "fixture-chatty",
        tracks_state: true,
        events: vec![
            EventSpec::new(EventKind::ReadMiss, StateSet::ALL, &[]),
            EventSpec::new(EventKind::EjectClean, StateSet::ALL, &[]),
        ],
        rules: vec![
            rule!(
                "read-miss-paranoid",
                EventKind::ReadMiss,
                StateSet::of(&[Absent])
            )
            .action(ActionKind::Invalidate {
                delivery: Delivery::Broadcast,
            })
            .action(ActionKind::Grant { exclusive: false })
            .to(StateSet::only(Present1)),
            rule!(
                "eject-clean-recall",
                EventKind::EjectClean,
                StateSet::only(Present1)
            )
            .action(ActionKind::Recall {
                delivery: Delivery::Broadcast,
            })
            .awaits(),
        ],
    };
    let findings = check_broadcast_necessity(&table);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(
        findings
            .iter()
            .any(|f| f.rule.as_deref() == Some("read-miss-paranoid")
                && f.message.contains("no exclusive writer")),
        "{findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule.as_deref() == Some("eject-clean-recall")),
        "{findings:?}"
    );
}

/// Golden run: every shipped cache table passes the structural analyses.
#[test]
fn shipped_cache_tables_lint_clean() {
    for table in twobit_core::shipped_cache_tables() {
        let findings = twobit_lint::lint_structure(table);
        assert!(findings.is_empty(), "{}: {findings:?}", table.scheme);
    }
}

/// Golden run: every shipped scheme's table passes every analysis.
#[test]
fn shipped_tables_lint_clean() {
    for table in twobit_core::shipped_tables() {
        let findings = lint_table(table);
        assert!(
            findings.is_empty(),
            "{} must lint clean:\n{}",
            table.scheme,
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Golden run for the whole pipeline the binary executes by default:
/// five per-table analyses plus the three flow analyses under the
/// shipped gate, deduplicated — still zero findings.
#[test]
fn lint_shipped_including_flow_analyses_is_clean() {
    let findings = twobit_lint::lint_shipped();
    assert!(
        findings.is_empty(),
        "lint_shipped findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The `--demo-barrier-livelock` path end to end: the pre-fix gate
/// discipline produces the PR 9 unserviced-liveness finding statically,
/// and the guided model-checker search confirms the implicated race
/// window with a replayable timeline.
#[test]
fn demo_barrier_livelock_is_flagged_and_confirmed() {
    let table = twobit_core::shipped_tables()
        .into_iter()
        .find(|t| t.scheme == "two-bit")
        .expect("two-bit ships");
    let mut findings =
        twobit_lint::flow_graph::lint_flow(table, twobit_dist::flow::GateSpec::pr9_regression());
    twobit_lint::confirm::confirm_livelock_findings(&mut findings, 500_000, 2);
    let livelock = findings
        .iter()
        .find(|f| f.analysis == "flow-unserviced" && f.message.contains("overtake"))
        .expect("the PR 9 livelock class must be flagged");
    assert_eq!(livelock.verdict, Some("CONFIRMED"), "{livelock}");
    let evidence = livelock.evidence.as_deref().expect("evidence attached");
    assert!(
        evidence.contains("timeline for blk:"),
        "evidence must carry the replayed obs timeline:\n{evidence}"
    );
    assert!(findings.iter().any(|f| f.analysis == "flow-wait-cycle"));
}
