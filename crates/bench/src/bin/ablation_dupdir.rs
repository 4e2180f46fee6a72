//! Abl-DupDir: the section 4.4 parallel cache controller (duplicate
//! directory) ablation.
//!
//! "Duplicate copies of the cache directory are kept, allowing cache
//! directory searches to be completed without slowing the cache. Only
//! when the broadcast block is present in the cache would the cache lose
//! a cycle… However, this alternative does nothing to reduce the
//! potentially prohibitive bus traffic."

use twobit_bench::sweep;
use twobit_core::parallel_map;
use twobit_sim::System;
use twobit_types::{fmt3, ProtocolKind, SystemConfig, Table};
use twobit_workload::{SharingModel, SharingParams};

fn main() {
    let refs_per_cpu = 25_000;
    let cases: [(&str, SharingParams); 3] = [
        ("low", SharingParams::low()),
        ("moderate", SharingParams::moderate()),
        ("high", SharingParams::high()),
    ];
    let n = 8;

    let mut grid = Vec::new();
    for (label, params) in cases {
        for dup in [false, true] {
            grid.push((label, params, dup));
        }
    }

    let results = parallel_map(grid, sweep::default_threads(), |(label, params, dup)| {
        let mut config = SystemConfig::with_defaults(n).with_protocol(ProtocolKind::TwoBit);
        config.duplicate_directory = dup;
        let workload = SharingModel::new(params, n, 0xd0b).expect("valid workload");
        let mut system = System::build(config).expect("valid system");
        let report = system.run(workload, refs_per_cpu).expect("run completes");
        (label, dup, report)
    });

    let mut table = Table::new(
        format!("Abl-DupDir: duplicate-directory ablation (n={n}, {refs_per_cpu} refs/cpu)"),
        vec![
            "sharing".into(),
            "dup dir".into(),
            "stolen cycles/ref".into(),
            "cmds received/ref".into(),
            "deliveries/ref".into(),
        ],
    );

    for (label, dup, report) in &results {
        table.push_row(vec![
            (*label).to_string(),
            if *dup { "yes" } else { "no" }.to_string(),
            fmt3(report.stolen_per_reference()),
            fmt3(report.commands_per_reference()),
            fmt3(report.deliveries_per_reference()),
        ]);
    }

    print!("{table}");
    println!();
    println!(
        "The duplicate directory cuts stolen cycles to the matching fraction but leaves commands \
         and network deliveries untouched — exactly why the paper calls its improvement limited."
    );
}
