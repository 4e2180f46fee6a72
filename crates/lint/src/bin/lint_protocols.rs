//! Lints every shipped transition table: each scheme's directory table
//! (the five per-table analyses plus the three whole-system flow
//! analyses — unserviced messages, wait cycles, reorder sensitivity)
//! and each cache table (exhaustiveness, determinism, dead rules). The
//! tables are the ones the directory and the cache agent execute, so
//! there is nothing to cross-check them against; `verify_protocols`
//! model-checks them. Exits nonzero on any finding.
//!
//! ```text
//! lint_protocols [--json PATH] [--demo-drop-invalidate]
//!                [--demo-barrier-livelock [--budget N] [--jobs N]]
//! ```

#![forbid(unsafe_code)]

use std::process::ExitCode;

use twobit_core::transitions::ActionKind;
use twobit_dist::flow::GateSpec;
use twobit_lint::confirm::confirm_livelock_findings;
use twobit_lint::flow_graph::lint_flow;
use twobit_lint::{
    dedup_findings, lint_each, lint_table, render_human, render_json, two_bit_table, Finding,
};

struct Options {
    json: Option<String>,
    budget: u64,
    jobs: usize,
    demo_drop_invalidate: bool,
    demo_barrier_livelock: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        json: None,
        budget: 150_000,
        jobs: 2,
        demo_drop_invalidate: false,
        demo_barrier_livelock: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                opts.json = Some(args.next().ok_or("--json requires a path")?);
            }
            "--budget" => {
                let v = args.next().ok_or("--budget requires a number")?;
                opts.budget = v.parse().map_err(|_| format!("bad --budget value '{v}'"))?;
            }
            "--jobs" => {
                let v = args.next().ok_or("--jobs requires a number")?;
                opts.jobs = v.parse().map_err(|_| format!("bad --jobs value '{v}'"))?;
            }
            "--demo-drop-invalidate" => opts.demo_drop_invalidate = true,
            "--demo-barrier-livelock" => opts.demo_barrier_livelock = true,
            "--help" | "-h" => {
                return Err(
                    "usage: lint_protocols [--json PATH] [--demo-drop-invalidate] \
                     [--demo-barrier-livelock [--budget N] [--jobs N]]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(opts)
}

/// Seeds the classic directory bug — dropping the invalidation from the
/// write-hit-on-Present* upgrade — into a copy of the two-bit table and
/// lints it, demonstrating what the analyses catch.
fn demo_drop_invalidate() -> Vec<Finding> {
    let mut table = two_bit_table().clone();
    let rule = table
        .rule_mut("modify-fresh-shared")
        .expect("two-bit declares the shared-upgrade rule");
    rule.actions
        .retain(|a| !matches!(a, ActionKind::Invalidate { .. }));
    println!("seeded bug: removed the invalidate from rule 'modify-fresh-shared'");
    println!("(a write hit on a Present* block now upgrades without BROADINV)\n");
    lint_table(&table)
}

/// Seeds the PR 9 livelock — the pre-fix inv-ack gate that held
/// completions but let later recalls pass straight through — and runs
/// the flow analyses over the two-bit scheme under it. The resulting
/// unserviced-liveness finding is then confirmed dynamically: a guided
/// model-checker search is steered toward the implicated race window
/// and the reaching path rendered as a replayable timeline.
fn demo_barrier_livelock(budget: u64, jobs: usize) -> Vec<Finding> {
    let table = two_bit_table();
    println!("seeded bug: gate discipline set to the pre-fix barrier");
    println!("(completions are withheld for inv-acks, but later recalls pass the open gate)\n");
    let mut findings = lint_flow(table, GateSpec::pr9_regression());
    confirm_livelock_findings(&mut findings, budget, jobs);
    findings
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut findings = Vec::new();
    if opts.demo_drop_invalidate {
        findings.extend(demo_drop_invalidate());
    }
    if opts.demo_barrier_livelock {
        findings.extend(demo_barrier_livelock(opts.budget, opts.jobs));
    }
    if !opts.demo_drop_invalidate && !opts.demo_barrier_livelock {
        for (table, rules, these) in lint_each() {
            println!(
                "lint {table:<20} {rules} rule(s), {} finding(s)",
                these.len()
            );
            findings.extend(these);
        }
        findings = dedup_findings(findings);
    }

    print!("{}", render_human(&findings));

    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, render_json(&findings)) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }

    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
