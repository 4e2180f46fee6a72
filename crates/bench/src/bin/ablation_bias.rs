//! Abl-BIAS: the section 2.3 BIAS memory on the classical write-through
//! scheme.
//!
//! "The number of cache cycles spent in processing invalidation requests
//! can be minimized by a 'BIAS memory' which filters out repeated
//! invalidation requests for the same block."

use twobit_bench::sweep;
use twobit_core::parallel_map;
use twobit_sim::System;
use twobit_types::{fmt3, AddressMap, ProtocolKind, SystemConfig, Table};
use twobit_workload::{SharingModel, SharingParams};

fn main() {
    let n = 8;
    let refs_per_cpu = 25_000;
    // Write-heavy sharing on a small pool: the same blocks are
    // invalidated over and over — BIAS's best case.
    let params = SharingParams {
        q: 0.10,
        w: 0.5,
        shared_blocks: 4,
        ..SharingParams::high()
    };

    // Small capacities catch only the hot shared blocks; large ones also
    // absorb the repeats for *other CPUs' private* blocks (never resident
    // here, invalidated on every one of their stores) — where the filter
    // approaches total absorption.
    let capacities: Vec<u32> = vec![0, 1, 2, 4, 8, 32, 128, 1024];
    let results = parallel_map(capacities.clone(), sweep::default_threads(), |bias| {
        let mut config =
            SystemConfig::with_defaults(n).with_protocol(ProtocolKind::ClassicalWriteThrough);
        config.address_map = AddressMap::interleaved(1);
        config.bias_entries = bias;
        let workload = SharingModel::new(params, n, 0xb1a5).expect("valid workload");
        let mut system = System::build(config).expect("valid system");
        system.run(workload, refs_per_cpu).expect("run completes")
    });

    let mut table = Table::new(
        format!(
            "Abl-BIAS: classical write-through with a BIAS memory \
             (n={n}, q=0.1, w=0.5, 4 shared blocks, {refs_per_cpu} refs/cpu)"
        ),
        vec![
            "bias entries".into(),
            "cmds received/ref".into(),
            "filtered/ref".into(),
            "stolen cycles/ref".into(),
        ],
    );

    for (bias, report) in capacities.iter().zip(&results) {
        let refs = report.stats.total_references() as f64;
        let filtered: u64 = report
            .stats
            .caches
            .iter()
            .map(|c| c.bias_filtered.get())
            .sum();
        table.push_row(vec![
            bias.to_string(),
            fmt3(report.commands_per_reference()),
            fmt3(filtered as f64 / refs),
            fmt3(report.stolen_per_reference()),
        ]);
    }

    print!("{table}");
    println!();
    println!(
        "Received commands are unchanged (the broadcasts still arrive); the BIAS filter absorbs \
         repeats without a directory search, cutting stolen cycles — the effect the paper's \
         section 2.3 cites from the 370/3033 literature."
    );
}
