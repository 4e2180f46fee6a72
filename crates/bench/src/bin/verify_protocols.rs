//! Verify-Protocols: run the bounded model checker over the canonical
//! race scripts (`twobit_core::model_check::race_scenarios`, the one
//! list) for all six directory schemes and print exploration statistics — the mechanized answer to the paper's closing "the
//! protocols … need to be refined (and proven correct)".
//!
//! Exploration uses the parallel, state-deduplicating DAG search
//! (`ModelChecker::explore_dedup_observed`): states reachable along many
//! interleavings are expanded once, with exact interleaving accounting.
//! `--jobs <n>` sets the worker count (default: one per core, capped),
//! `--budget <n>` the per-script node budget (default 500k expanded
//! states). If the checker ever reports a violation, the **exact** action
//! path from the initial state is rendered as per-block timelines before
//! exiting non-zero — a replayable counterexample, not a ring-buffer dump
//! of interleaved search branches.
//!
//! It also reports rule coverage: per scheme, how many rules of its
//! directory table and of its cache table fired anywhere in that
//! exploration or in the 4,000-reference stream of
//! `tests/transcript_digests.rs`
//! (`FunctionalSystem::transcript_stream`), one `coverage:` line per
//! scheme and one `unfired: <table>/<rule>` line per rule that never did.
//! An unfired shipped rule is a finding — the scripts are too weak or the
//! rule is dead — unless [`EXPECTED_UNFIRED`] says why it cannot fire;
//! any other exits non-zero.

use twobit_bench::obs_cli::{self, ObsArgs};
use twobit_bench::sweep;
use twobit_core::model_check::race_scenarios;
use twobit_core::transitions::{Table, Vocabulary};
use twobit_core::{Fired, FunctionalSystem, ModelChecker};
use twobit_obs::Metrics;
use twobit_types::{MemRef, ProtocolKind, SystemConfig, WordAddr};

/// Default node budget per (script, protocol) exploration.
const DEFAULT_BUDGET: u64 = 500_000;

/// Shipped rules no fault-free run over FIFO links can fire, as
/// `(table, rule, why)`. Kept because a table must say what its
/// controller does at every point of its declared domain, reachable from
/// a socket or not; everything else unfired fails the run.
const EXPECTED_UNFIRED: &[(&str, &str, &str)] = &[
    (
        "write-back",
        "upgrade-denied",
        "a denial is sent after the invalidation that made the copy stale, and links are \
         FIFO: the invalidation arrives first and converts the MREQUEST (inv-converts-upgrade), \
         so the denial finds await-write (upgrade-stale-reply)",
    ),
    (
        "write-back+exclusive",
        "upgrade-denied",
        "as for write-back",
    ),
];

fn unfired<V: Vocabulary>(table: &Table<V>, fired: u64) -> Vec<&'static str> {
    let rules = table.rules.iter().enumerate();
    rules
        .filter(|(i, _)| fired & (1 << i) == 0)
        .map(|(_, rule)| rule.name)
        .collect()
}

/// Prints one `unfired:` line per name; returns how many are not in
/// [`EXPECTED_UNFIRED`].
fn report_unfired(table: &str, rules: Vec<&str>) -> usize {
    let mut unexpected = 0;
    for rule in rules {
        match EXPECTED_UNFIRED
            .iter()
            .find(|e| (e.0, e.1) == (table, rule))
        {
            Some((.., why)) => println!("unfired: {table}/{rule} (expected: {why})"),
            None => {
                println!("unfired: {table}/{rule}");
                unexpected += 1;
            }
        }
    }
    unexpected
}

fn rd(b: u64) -> MemRef {
    MemRef::read(WordAddr::new(b, 0))
}

fn wr(b: u64) -> MemRef {
    MemRef::write(WordAddr::new(b, 0))
}

/// The section 3.2.5 staleness window, turned into a rendered
/// counterexample: arm `fail_on_stale_reads` on a read-after-write
/// script and print the exact action path the dedup search reconstructs.
fn demo_stale(jobs: usize, budget: u64) {
    let config = SystemConfig::with_defaults(2).with_protocol(ProtocolKind::TwoBit);
    let mut checker = ModelChecker::new(config, vec![vec![rd(1), wr(1)], vec![rd(1), rd(1)]])
        .expect("valid checker");
    checker.fail_on_stale_reads(true);
    println!(
        "Stale-read injection demo: two-bit, script [rd 1, wr 1] / [rd 1, rd 1], \
         fail_on_stale_reads armed."
    );
    match checker.explore_dedup(budget, jobs) {
        Err(cex) => {
            println!(
                "Found the ack-free staleness window as a violation: {}",
                cex.error
            );
            print!("{}", checker.render_counterexample(&cex));
            println!(
                "The path above replays deterministically from the initial state \
                 through ModelChecker::step."
            );
        }
        Ok(result) => println!(
            "No stale read found within the budget ({} states expanded) — unexpected \
             for this script.",
            result.states_visited
        ),
    }
}

fn main() {
    let obs = ObsArgs::from_env();
    let jobs = obs.jobs.unwrap_or_else(sweep::default_threads).max(1);
    let budget = obs.budget.unwrap_or(DEFAULT_BUDGET);
    if std::env::args().any(|a| a == "--demo-stale") {
        demo_stale(jobs, budget);
        return;
    }
    let scenarios = race_scenarios();

    let mut table = twobit_types::Table::new(
        format!(
            "Verify-Protocols: deduplicated interleaving exploration \
             (budget {budget} states/script, {jobs} job(s))"
        ),
        vec![
            "script".into(),
            "protocol".into(),
            "interleavings".into(),
            "expanded".into(),
            "distinct".into(),
            "dedup hits".into(),
            "complete".into(),
            "stale-window reads".into(),
        ],
    );

    let mut stat_lines: Vec<String> = Vec::new();
    // Per scheme, in first-seen order: what fired in its explorations.
    let mut coverage: Vec<(ProtocolKind, Fired)> = Vec::new();
    for (label, config, script) in &scenarios {
        let protocol = config.protocol;
        let checker = ModelChecker::new(*config, script.clone()).expect("valid checker");
        let mut metrics = Metrics::new(script.len(), 0);
        let result = match checker.explore_dedup_observed(budget, jobs, Some(&mut metrics)) {
            Ok(result) => result,
            Err(cex) => {
                eprintln!(
                    "VIOLATION in script \"{label}\" under {protocol}: {}",
                    cex.error
                );
                eprint!("{}", checker.render_counterexample(&cex));
                std::process::exit(1);
            }
        };
        match coverage.iter_mut().find(|(p, _)| *p == protocol) {
            Some((_, fired)) => fired.merge(result.fired),
            None => coverage.push((protocol, result.fired)),
        }
        let search = metrics.search();
        stat_lines.push(format!(
            "dedup: {label} / {protocol}: hit-rate {:.1}%, {:.0} states/sec, \
             peak frontier {}, max depth {}",
            search.dedup_hit_rate() * 100.0,
            search.states_per_sec(),
            metrics.frontier.peak(),
            search.max_depth,
        ));
        table.push_row(vec![
            (*label).to_string(),
            protocol.to_string(),
            result.interleavings.to_string(),
            result.states_visited.to_string(),
            result.distinct_states.to_string(),
            result.dedup_hits.to_string(),
            if result.truncated { "truncated" } else { "yes" }.to_string(),
            result.stale_reads_observed.to_string(),
        ]);
    }

    print!("{table}");

    println!();
    println!("Search statistics (dedup collapses the interleaving tree into a state DAG):");
    for line in &stat_lines {
        println!("  {line}");
    }

    println!();
    println!(
        "Rule coverage (the explorations above plus the 4,000-reference transcript stream; \
         the cache table is the one the scheme's agents interpret):"
    );
    // A cache table serves several schemes: a rule of it is live if it
    // fired under any of them.
    let mut unexpected = 0;
    let mut cache_tables = std::collections::BTreeMap::new();
    for (protocol, mut fired) in coverage {
        let (mut system, refs) = FunctionalSystem::transcript_stream(protocol);
        system.run(refs).expect("the transcript stream is coherent");
        fired.merge(system.fired());
        let memory = system.controllers()[0].protocol().table();
        let cache = system.agents()[0].table();
        let dead = unfired(memory, fired.memory);
        println!(
            "coverage: {}: memory {}/{} cache {}/{} ({})",
            memory.scheme,
            memory.rules.len() - dead.len(),
            memory.rules.len(),
            cache.rules.len() - unfired(cache, fired.cache).len(),
            cache.rules.len(),
            cache.scheme,
        );
        unexpected += report_unfired(memory.scheme, dead);
        cache_tables.entry(cache.scheme).or_insert((cache, 0)).1 |= fired.cache;
    }
    for (cache, fired) in cache_tables.into_values() {
        unexpected += report_unfired(cache.scheme, unfired(cache, fired));
    }
    if unexpected > 0 {
        eprintln!("{unexpected} shipped rule(s) never fired and are not on the expected list");
        std::process::exit(1);
    }

    if let Some(path) = &obs.trace_out {
        let (label, config, script) = &scenarios[0];
        let checker = ModelChecker::new(*config, script.clone()).expect("valid checker");
        let mut tracer = obs_cli::jsonl_file_tracer(path).expect("create trace file");
        checker
            .explore_exhaustive_traced(budget, tracer.as_mut())
            .expect("no violations");
        tracer.flush();
        println!();
        println!(
            "JSONL action trace of \"{label}\" under two-bit written to {} (events are \
             DFS-ordered and stamped with an action counter, not a clock)",
            path.display()
        );
    }

    println!();
    println!(
        "Every explored interleaving reached quiescence with all references retired and all \
         invariants intact (deadlock-freedom + consistency). \"Stale-window reads\" counts the \
         transient staleness the paper's ack-free invalidation admits (grants are not delayed \
         until invalidations are acknowledged) — a measured property of the published design, \
         not an implementation defect."
    );
}
