//! Migration-Effects: process migration as pure coherence traffic
//! (sections 2.2 and 4.2).
//!
//! The paper folds migration into "the level of sharing"; this experiment
//! isolates it: a workload with **zero logical sharing** whose processes
//! rotate across CPUs, measured across migration frequencies.

use twobit_bench::sweep;
use twobit_core::parallel_map;
use twobit_sim::System;
use twobit_types::{fmt3, ProtocolKind, SystemConfig, Table};
use twobit_workload::scenarios::ProcessMigration;

fn main() {
    let n = 8;
    let refs_per_cpu = 20_000;
    let phases: Vec<u64> = vec![u64::MAX / 2, 10_000, 2_000, 500, 100];

    let mut grid = Vec::new();
    for &phase in &phases {
        for protocol in [ProtocolKind::TwoBit, ProtocolKind::FullMap] {
            grid.push((phase, protocol));
        }
    }

    let results = parallel_map(grid, sweep::default_threads(), |(phase, protocol)| {
        let config = SystemConfig::with_defaults(n).with_protocol(protocol);
        let workload = ProcessMigration::new(n, 48, phase, 0x316).expect("valid workload");
        let mut system = System::build(config).expect("valid system");
        let report = system.run(workload, refs_per_cpu).expect("run completes");
        (phase, protocol, report)
    });

    let mut table = Table::new(
        format!(
            "Migration-Effects: coherence cost of process migration with zero logical sharing \
             (n={n}, 48-block working sets, {refs_per_cpu} refs/cpu)"
        ),
        vec![
            "refs between migrations".into(),
            "protocol".into(),
            "cmds/ref".into(),
            "hit ratio".into(),
            "write-backs/ref".into(),
        ],
    );

    for (phase, protocol, report) in &results {
        let refs = report.stats.total_references() as f64;
        let writebacks: u64 = report
            .stats
            .controllers
            .iter()
            .map(|c| c.memory_writes.get())
            .sum();
        let phase_label = if *phase > refs_per_cpu {
            "never".to_string()
        } else {
            phase.to_string()
        };
        table.push_row(vec![
            phase_label,
            protocol.to_string(),
            fmt3(report.commands_per_reference()),
            fmt3(report.hit_ratio()),
            fmt3(writebacks as f64 / refs),
        ]);
    }

    print!("{table}");
    println!();
    println!(
        "With no migration the columns are near zero (no sharing → no coherence). Each \
         migration forces the new host to pull the working set out of the old host's cache: \
         commands and write-backs scale with migration frequency — the effect the paper says to \
         model \"by adjusting the level of sharing\". The static software scheme cannot run \
         this workload at all (see failure_injection tests: it goes incoherent)."
    );
}
