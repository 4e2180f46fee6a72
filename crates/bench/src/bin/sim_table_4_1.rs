//! Sim-4-1: the simulated analog of Table 4-1.
//!
//! For each sharing level and write fraction, runs the two-bit scheme and
//! the full map over the *same* workload (same seed) and reports the
//! measured extra commands received per cache per memory reference,
//! alongside the model-predicted `T_SUM` (the Markov chain supplies the
//! emergent `h` and state probabilities; the section 4.2 closed form
//! converts them — see EXPERIMENTS.md on why `T_SUM`, not `(n-1)·T_SUM`,
//! is the per-cache received rate).
//!
//! Pass `--full` to include n = 32 (slower); the default grid covers
//! n ∈ {4, 8, 16}.

use twobit_bench::obs_cli::{self, ObsArgs};
use twobit_bench::sweep;
use twobit_bench::{extra_commands_per_reference, predicted_overhead, run_protocol};
use twobit_core::parallel_map;
use twobit_types::{fmt3, ProtocolKind, Table};
use twobit_workload::SharingParams;

struct Cell {
    label: &'static str,
    params: SharingParams,
    n: usize,
    w: f64,
}

fn main() {
    let obs = ObsArgs::from_env();
    let full = std::env::args().any(|a| a == "--full");
    let ns: &[usize] = if full { &[4, 8, 16, 32] } else { &[4, 8, 16] };
    let refs_per_cpu: u64 = if full { 30_000 } else { 20_000 };

    let cases: [(&'static str, SharingParams); 3] = [
        ("case 1 (low, q=0.01)", SharingParams::low()),
        ("case 2 (moderate, q=0.05)", SharingParams::moderate()),
        ("case 3 (high, q=0.10)", SharingParams::high()),
    ];
    let ws = [0.1, 0.2, 0.3, 0.4];

    let mut grid = Vec::new();
    for (label, params) in cases {
        for &w in &ws {
            for &n in ns {
                grid.push(Cell {
                    label,
                    params: params.with_w(w),
                    n,
                    w,
                });
            }
        }
    }

    let results = parallel_map(grid, sweep::default_threads(), |cell| {
        let seed = 0x07ab_1e41 + cell.n as u64;
        let two_bit = run_protocol(
            ProtocolKind::TwoBit,
            cell.params,
            cell.n,
            seed,
            refs_per_cpu,
        )
        .expect("two-bit run");
        let full_map = run_protocol(
            ProtocolKind::FullMap,
            cell.params,
            cell.n,
            seed,
            refs_per_cpu,
        )
        .expect("full-map run");
        let measured = extra_commands_per_reference(&two_bit, &full_map);
        let predicted = predicted_overhead(&cell.params, cell.n).expect("model solves");
        (cell.label, cell.w, cell.n, measured, predicted, two_bit)
    });

    let mut headers = vec!["w \\ n".to_string()];
    headers.extend(ns.iter().map(|n| format!("{n} meas (pred)")));
    let mut table = Table::new(
        format!(
            "Sim-4-1: measured extra commands/reference, two-bit minus full map \
             ({refs_per_cpu} refs/cpu)"
        ),
        headers,
    );

    let mut cursor = 0;
    for (label, _) in [
        ("case 1 (low, q=0.01)", ()),
        ("case 2 (moderate, q=0.05)", ()),
        ("case 3 (high, q=0.10)", ()),
    ] {
        table.push_section(format!("{label}:"));
        for &w in &ws {
            let mut row = vec![format!("w = {w:.1}")];
            for _ in ns {
                let (_, _, _, measured, predicted, _) = &results[cursor];
                row.push(format!("{} ({})", fmt3(*measured), fmt3(*predicted)));
                cursor += 1;
            }
            table.push_row(row);
        }
    }

    print!("{table}");

    if obs.metrics {
        println!();
        println!("Observability, two-bit runs (latency in cycles; peakQ = controller queue):");
        for (label, w, n, _, _, two_bit) in &results {
            print!(
                "{}",
                obs_cli::metrics_block(&format!("{label} w={w:.1} n={n}"), two_bit)
            );
        }
    }

    if let Some(path) = &obs.trace_out {
        let tracer = obs_cli::jsonl_file_tracer(path).expect("create trace file");
        twobit_bench::run_protocol_traced(
            ProtocolKind::TwoBit,
            SharingParams::moderate().with_w(0.2),
            4,
            0x07ab_1e41 + 4,
            200,
            tracer,
        )
        .expect("traced run");
        println!();
        println!(
            "JSONL trace of a representative cell (two-bit, moderate w=0.2, n=4, 200 \
             refs/cpu) written to {}",
            path.display()
        );
    }

    println!();
    println!(
        "Predictions are T_SUM evaluated at the Markov model's emergent h and state \
         probabilities. Note the normalization: the physically received rate is T_SUM, \
         not the paper's (n-1)*T_SUM (see EXPERIMENTS.md)."
    );
}
