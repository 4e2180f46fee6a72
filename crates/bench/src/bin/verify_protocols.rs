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

use twobit_bench::obs_cli::{self, ObsArgs};
use twobit_bench::sweep;
use twobit_core::model_check::race_scenarios;
use twobit_core::ModelChecker;
use twobit_obs::Metrics;
use twobit_types::{MemRef, ProtocolKind, SystemConfig, Table, WordAddr};

/// Default node budget per (script, protocol) exploration.
const DEFAULT_BUDGET: u64 = 500_000;

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

    let mut table = Table::new(
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
