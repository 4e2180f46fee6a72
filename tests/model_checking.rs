//! Model checking through the umbrella API: the section 3.2.5 races,
//! verified over every delivery interleaving, as a user of the published
//! crate would run them.

use twobit::core::ModelChecker;
use twobit::types::{MemRef, ProtocolKind, SystemConfig, WordAddr};

fn rd(b: u64) -> MemRef {
    MemRef::read(WordAddr::new(b, 0))
}

fn wr(b: u64) -> MemRef {
    MemRef::write(WordAddr::new(b, 0))
}

#[test]
fn simultaneous_mrequests_verified_exhaustively() {
    // The paper's own example: "Cache i and cache j hold copies of a. 'At
    // the same time' processor i wants to execute STORE(a,d_i) and
    // processor j wants to execute STORE(a,d_j)."
    for protocol in [ProtocolKind::TwoBit, ProtocolKind::FullMap] {
        let config = SystemConfig::with_defaults(2).with_protocol(protocol);
        let checker =
            ModelChecker::new(config, vec![vec![rd(1), wr(1)], vec![rd(1), wr(1)]]).unwrap();
        let result = checker.explore_exhaustive(1_000_000).unwrap();
        assert!(!result.truncated, "{protocol}: must be fully exhaustive");
        assert!(
            result.interleavings > 1_000,
            "{protocol}: {}",
            result.interleavings
        );
    }
}

/// Differential check across all five directory-style protocols: the
/// deduplicating DAG search must agree exactly with the original tree
/// search wherever both complete — same verdict, same interleaving
/// count, same stale-read total — while expanding far fewer states.
#[test]
fn dedup_search_reconciles_with_tree_search_on_all_protocols() {
    let protocols = [
        ProtocolKind::TwoBit,
        ProtocolKind::TwoBitTlb { entries: 2 },
        ProtocolKind::FullMap,
        ProtocolKind::FullMapLocal,
        ProtocolKind::ClassicalWriteThrough,
    ];
    for protocol in protocols {
        let config = SystemConfig::with_defaults(2).with_protocol(protocol);
        let checker =
            ModelChecker::new(config, vec![vec![rd(1), wr(1)], vec![rd(1), wr(1)]]).unwrap();
        let tree = checker.explore_exhaustive(2_000_000).unwrap();
        let dag = checker.explore_dedup(2_000_000, 2).unwrap();
        assert!(!tree.truncated && !dag.truncated, "{protocol}");
        assert_eq!(
            dag.interleavings, tree.interleavings,
            "{protocol}: interleaving counts must reconcile"
        );
        assert_eq!(
            dag.stale_reads_observed, tree.stale_reads_observed,
            "{protocol}: stale-read totals must reconcile"
        );
        assert!(
            dag.states_visited < tree.states_visited,
            "{protocol}: dedup must expand fewer states ({} vs {})",
            dag.states_visited,
            tree.states_visited
        );
        assert!(dag.distinct_states <= dag.states_visited + dag.abandoned_frontier);
    }
}

/// The scaling claim: a script whose interleaving tree the old search
/// cannot finish within a 1M-node budget is covered exhaustively by the
/// dedup search in a few thousand expansions.
#[test]
fn dedup_search_finishes_where_tree_search_cannot() {
    let config = SystemConfig::with_defaults(3).with_protocol(ProtocolKind::TwoBit);
    let script = vec![vec![rd(1), wr(1)], vec![wr(1)], vec![rd(1)]];
    let checker = ModelChecker::new(config, script).unwrap();
    let tree = checker.explore_exhaustive(1_000_000).unwrap();
    assert!(
        tree.truncated,
        "the tree search must exhaust a 1M-node budget on this script"
    );
    let dag = checker.explore_dedup(1_000_000, 2).unwrap();
    assert!(!dag.truncated, "the dedup search completes exhaustively");
    assert!(
        dag.interleavings > 1_000_000,
        "the full interleaving count ({}) dwarfs the tree budget",
        dag.interleavings
    );
    assert!(
        dag.states_visited < 100_000,
        "dedup covers it in few expansions ({})",
        dag.states_visited
    );
}

/// Fault injection end to end: arming `fail_on_stale_reads` turns the
/// section 3.2.5 ack-free staleness window into a counterexample whose
/// exact action path replays from the initial state through
/// `ModelChecker::step` to the reported violation.
#[test]
fn injected_stale_read_counterexample_replays_exactly() {
    let config = SystemConfig::with_defaults(2).with_protocol(ProtocolKind::TwoBit);
    let mut checker =
        ModelChecker::new(config, vec![vec![rd(1), wr(1)], vec![rd(1), rd(1)]]).unwrap();
    checker.fail_on_stale_reads(true);
    let cex = *checker.explore_dedup(1_000_000, 2).unwrap_err();
    // Step the path by hand: every prefix action is enabled and applies
    // cleanly; the final action reproduces the recorded violation.
    let mut state = checker.initial_state();
    for (i, &action) in cex.path.iter().enumerate() {
        assert!(
            checker.enabled(&state).contains(&action),
            "path action {i} must be enabled"
        );
        match checker.step(state, action) {
            Ok(next) => {
                assert!(i + 1 < cex.path.len(), "only the final action may fail");
                state = next;
            }
            Err(e) => {
                assert_eq!(i + 1, cex.path.len(), "failure is the path's last action");
                assert_eq!(e, cex.error, "replay reproduces the recorded violation");
                return;
            }
        }
    }
    panic!("replay completed without reproducing the violation");
}

/// Regression for the `seed | 1` aliasing bug: adjacent random-walk
/// seeds must explore different walks.
#[test]
fn adjacent_random_seeds_explore_differently() {
    let config = SystemConfig::with_defaults(3).with_protocol(ProtocolKind::TwoBit);
    let checker = ModelChecker::new(
        config,
        vec![
            vec![wr(1), rd(2), wr(2)],
            vec![rd(1), wr(1), rd(2)],
            vec![wr(2), rd(1), wr(1)],
        ],
    )
    .unwrap();
    for seed in [0u64, 42, 0xfeed] {
        let even = checker.explore_random(50, seed).unwrap();
        let odd = checker.explore_random(50, seed + 1).unwrap();
        assert_ne!(
            even,
            odd,
            "seeds {seed} and {} must not explore identical walks",
            seed + 1
        );
    }
}

#[test]
fn random_walks_on_a_bigger_mix() {
    let config = SystemConfig::with_defaults(3).with_protocol(ProtocolKind::TwoBit);
    let checker = ModelChecker::new(
        config,
        vec![
            vec![wr(1), rd(2), wr(2)],
            vec![rd(1), wr(1), rd(2)],
            vec![wr(2), rd(1), wr(1)],
        ],
    )
    .unwrap();
    let result = checker.explore_random(500, 0xfeed).unwrap();
    assert_eq!(
        result.interleavings, 500,
        "every walk must reach clean quiescence"
    );
}

/// Smoke over the one list of race scripts `verify_protocols` (and CI's
/// model-check gate) runs, all six schemes, at a small budget: every
/// script explores to completion with no violation.
#[test]
fn every_race_scenario_explores_clean() {
    let scenarios = twobit::core::model_check::race_scenarios();
    assert_eq!(
        scenarios.len(),
        26,
        "4 scripts x 5 coherent schemes + 1 x the 3 that survive it + 3 for static-sw"
    );
    for (label, config, script) in scenarios {
        let protocol = config.protocol;
        let checker = ModelChecker::new(config, script).unwrap();
        let result = checker
            .explore_dedup(30_000, 2)
            .unwrap_or_else(|cex| panic!("{label} / {protocol}: {}", cex.error));
        assert!(!result.truncated, "{label} / {protocol}: truncated");
    }
}

/// A known defect of the two-bit table, pinned so that it stays visible
/// and so that fixing it means editing this test (ROADMAP item 9). Rule
/// coverage asked for a script in which a clean-eject notice is delayed;
/// under the two-bit schemes that script is not survived: C0 reads and
/// silently replaces block 1, C1 writes it and writes it back, C2 reads
/// it (`Present1` — C2's copy), and only then C0's `EJECT(clean)`
/// arrives: `eject-clean-present1` cannot tell whose notice it is and
/// takes the block to `Absent` under C2's live copy. The next write miss
/// would be granted without a broadcast. The schemes that keep holder
/// identities survive the same script (`race_scenarios` runs it for
/// them).
#[test]
fn a_delayed_clean_eject_breaks_two_bit_present1() {
    use twobit::core::model_check::delayed_clean_eject_script;
    use twobit::types::{CacheOrg, ProtocolError};
    for protocol in [ProtocolKind::TwoBit, ProtocolKind::TwoBitTlb { entries: 2 }] {
        let mut config = SystemConfig::with_defaults(3).with_protocol(protocol);
        config.cache = CacheOrg::new(2, 1, 4).unwrap();
        let checker = ModelChecker::new(config, delayed_clean_eject_script()).unwrap();
        let cex = checker
            .explore_dedup(30_000, 2)
            .expect_err("fixed? then run the script under these schemes in race_scenarios");
        assert!(
            matches!(&cex.error, ProtocolError::DirectoryInconsistent { detail, .. }
                if detail.contains("state Absent does not admit 1 clean")),
            "{protocol}: {}",
            cex.error
        );
        checker
            .replay(&cex.path)
            .expect_err("the counterexample replays");
    }
}
