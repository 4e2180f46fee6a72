//! Abl-Concurrency: the two controller disciplines of section 3.2.5,
//! measured in time.
//!
//! "Allow the controller to treat only one command at a time. This
//! restriction seems too stringent and could lead to important
//! performance degradation." vs. "Oblige the controller to treat commands
//! related to a given block only one at a time."

use twobit_bench::sweep;
use twobit_core::parallel_map;
use twobit_sim::System;
use twobit_types::{fmt3, ControllerConcurrency, ProtocolKind, SystemConfig, Table};
use twobit_workload::{scenarios::LockContention, SharingModel, SharingParams, Workload};

fn main() {
    let n = 8;
    let refs_per_cpu = 20_000;

    let mut grid: Vec<(&str, ControllerConcurrency)> = Vec::new();
    for concurrency in [
        ControllerConcurrency::SingleCommand,
        ControllerConcurrency::PerBlock,
    ] {
        grid.push(("sharing-model (moderate)", concurrency));
        grid.push(("lock-contention", concurrency));
    }

    let results = parallel_map(grid, sweep::default_threads(), |(label, concurrency)| {
        let mut config = SystemConfig::with_defaults(n).with_protocol(ProtocolKind::TwoBit);
        config.concurrency = concurrency;
        // Concentrate memory traffic: a single module makes the
        // controller the bottleneck the discipline choice governs.
        config.address_map = twobit_types::AddressMap::interleaved(1);
        let workload: Box<dyn Workload> = if label.starts_with("lock") {
            Box::new(LockContention::new(n, 2, 0xc0).expect("valid scenario"))
        } else {
            Box::new(SharingModel::new(SharingParams::moderate(), n, 0xc0).expect("valid"))
        };
        let mut system = System::build(config).expect("valid system");
        let report = system.run(workload, refs_per_cpu).expect("run completes");
        (label, concurrency, report)
    });

    let mut table = Table::new(
        format!(
            "Abl-Concurrency: section 3.2.5 controller disciplines \
             (n={n}, one memory module, {refs_per_cpu} refs/cpu)"
        ),
        vec![
            "workload".into(),
            "discipline".into(),
            "cycles/ref".into(),
            "queued conflicts/ref".into(),
            "queue peak".into(),
        ],
    );

    for (label, concurrency, report) in &results {
        let refs = report.stats.total_references() as f64;
        let totals = report.stats.controller_totals();
        table.push_row(vec![
            (*label).to_string(),
            concurrency.to_string(),
            fmt3(report.cycles_per_reference()),
            fmt3(totals.conflicts_queued.as_f64() / refs),
            totals.queue_peak.to_string(),
        ]);
    }

    print!("{table}");
    println!();
    println!(
        "Single-command serialization queues every request behind any in-flight wait; the \
         per-block (multiprogrammed) controller only queues true block conflicts — the paper's \
         preference, quantified."
    );
}
