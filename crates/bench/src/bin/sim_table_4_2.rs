//! Sim-4-2: the simulated analog of Table 4-2, using the paper's concrete
//! configuration — 128-block caches, 16 shared blocks, uniform 1/16
//! access — and measuring total commands received per cache per memory
//! reference under the two-bit scheme.

use twobit_bench::obs_cli::{self, ObsArgs};
use twobit_bench::sweep;
use twobit_core::parallel_map;
use twobit_sim::System;
use twobit_types::{fmt3, CacheOrg, ProtocolKind, SystemConfig, Table};
use twobit_workload::{SharingModel, SharingParams};

/// The paper's concrete system for one grid cell.
fn table_4_2_system(n: usize) -> System {
    let mut config = SystemConfig::with_defaults(n).with_protocol(ProtocolKind::TwoBit);
    // The paper's cache: 128 blocks (2-way here).
    config.cache = CacheOrg::new(64, 2, 4).expect("valid organization");
    System::build(config).expect("valid system")
}

fn main() {
    let obs = ObsArgs::from_env();
    let full = std::env::args().any(|a| a == "--full");
    let ns: &[usize] = if full { &[4, 8, 16, 32] } else { &[4, 8, 16] };
    let refs_per_cpu: u64 = if full { 30_000 } else { 20_000 };
    let qs = [0.01, 0.05, 0.10];
    let ws = [0.1, 0.2, 0.3, 0.4];

    let mut grid = Vec::new();
    for &q in &qs {
        for &w in &ws {
            for &n in ns {
                grid.push((q, w, n));
            }
        }
    }
    let cells = grid.clone();

    let results = parallel_map(grid, sweep::default_threads(), |(q, w, n)| {
        let params = SharingParams::table4_2(q, w);
        let workload = SharingModel::new(params, n, 0x42_0000 + n as u64).expect("valid workload");
        let mut system = table_4_2_system(n);
        system.run(workload, refs_per_cpu).expect("run completes")
    });

    let mut headers = vec!["w \\ n".to_string()];
    headers.extend(ns.iter().map(ToString::to_string));
    let mut table = Table::new(
        format!(
            "Sim-4-2: commands received per cache per memory reference, two-bit scheme \
             (128-block caches, 16 shared blocks, uniform; {refs_per_cpu} refs/cpu)"
        ),
        headers,
    );

    let mut cursor = 0;
    for &q in &qs {
        table.push_section(format!("q = {q}:"));
        for &w in &ws {
            let mut row = vec![format!("w = {w:.1}")];
            for _ in ns {
                row.push(fmt3(results[cursor].commands_per_reference()));
                cursor += 1;
            }
            table.push_row(row);
        }
    }

    print!("{table}");

    if obs.metrics {
        println!();
        println!("Observability (latency in cycles; peakQ = controller queue):");
        for (&(q, w, n), report) in cells.iter().zip(&results) {
            print!(
                "{}",
                obs_cli::metrics_block(&format!("q={q} w={w:.1} n={n}"), report)
            );
        }
    }

    if let Some(path) = &obs.trace_out {
        let tracer = obs_cli::jsonl_file_tracer(path).expect("create trace file");
        let workload = SharingModel::new(SharingParams::table4_2(0.05, 0.2), 4, 0x42_0004)
            .expect("valid workload");
        let mut system = table_4_2_system(4);
        system.set_tracer(tracer);
        system.run(workload, 200).expect("traced run");
        drop(system.take_tracer());
        println!();
        println!(
            "JSONL trace of a representative cell (q=0.05, w=0.2, n=4, 200 refs/cpu) \
             written to {}",
            path.display()
        );
    }

    println!();
    println!(
        "Compare the paper's Table 4-2 ((n-1)*T_R): growth with n, w, and q and the saturation \
         with n should match; absolute values depend on the eviction behaviour of [3]'s model."
    );
}
