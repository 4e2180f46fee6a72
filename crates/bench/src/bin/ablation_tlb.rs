//! Abl-TLB: the section 4.4 translation-buffer enhancement, swept over
//! buffer capacity.
//!
//! "If a 90% hit ratio on this translation buffer could be maintained,
//! 90% of the added overhead resulting from the broadcasts is
//! eliminated. In general the performance can achieve any desired
//! approximation of the full bit map approach by ensuring that the hit
//! ratio in the translation buffer is sufficiently high."

use twobit_analytic::enhancements;
use twobit_bench::obs_cli::{self, ObsArgs};
use twobit_bench::sweep;
use twobit_bench::{extra_commands_per_reference, run_protocol};
use twobit_core::parallel_map;
use twobit_types::{fmt3, ProtocolKind, Table};
use twobit_workload::SharingParams;

fn main() {
    let obs = ObsArgs::from_env();
    let n = 8;
    let refs_per_cpu = 25_000;
    let params = SharingParams::moderate().with_w(0.3);
    let seed = 0x71b;

    let baselines = parallel_map(
        vec![ProtocolKind::TwoBit, ProtocolKind::FullMap],
        2,
        |protocol| run_protocol(protocol, params, n, seed, refs_per_cpu).expect("baseline run"),
    );
    let two_bit = &baselines[0];
    let full_map = &baselines[1];
    let base_extra = extra_commands_per_reference(two_bit, full_map);

    let capacities: Vec<u32> = vec![1, 2, 4, 8, 16, 32, 64];
    let runs = parallel_map(capacities.clone(), sweep::default_threads(), |entries| {
        run_protocol(
            ProtocolKind::TwoBitTlb { entries },
            params,
            n,
            seed,
            refs_per_cpu,
        )
        .expect("tlb run")
    });

    let mut table = Table::new(
        format!(
            "Abl-TLB: translation-buffer sweep (n={n}, moderate sharing, w=0.3, \
             {refs_per_cpu} refs/cpu); two-bit extra = {}",
            fmt3(base_extra)
        ),
        vec![
            "tlb entries".into(),
            "hit ratio".into(),
            "extra cmds/ref".into(),
            "eliminated".into(),
            "paper model".into(),
        ],
    );

    for (entries, report) in capacities.iter().zip(&runs) {
        let extra = extra_commands_per_reference(report, full_map);
        let controller_totals = report.stats.controller_totals();
        let hit_ratio = controller_totals.tlb_hit_ratio();
        let eliminated = if base_extra > 0.0 {
            1.0 - extra / base_extra
        } else {
            0.0
        };
        let paper_model =
            enhancements::tlb_residual_overhead(base_extra, hit_ratio).expect("valid hit ratio");
        table.push_row(vec![
            entries.to_string(),
            fmt3(hit_ratio),
            fmt3(extra),
            format!("{:.0}%", eliminated * 100.0),
            fmt3(paper_model),
        ]);
    }

    print!("{table}");

    if obs.metrics {
        println!();
        println!("Observability (latency percentiles in cycles; peakQ = controller queue):");
        print!("{}", obs_cli::metrics_block("two-bit (no tlb)", two_bit));
        for (entries, report) in capacities.iter().zip(&runs) {
            print!(
                "{}",
                obs_cli::metrics_block(&format!("tlb={entries}"), report)
            );
        }
        print!("{}", obs_cli::metrics_block("full-map", full_map));
    }

    if let Some(path) = &obs.trace_out {
        let tracer = obs_cli::jsonl_file_tracer(path).expect("create trace file");
        twobit_bench::run_protocol_traced(
            ProtocolKind::TwoBitTlb { entries: 16 },
            params,
            4,
            seed,
            200,
            tracer,
        )
        .expect("traced run");
        println!();
        println!(
            "JSONL trace of a representative run (two-bit+tlb(16), n=4, 200 refs/cpu) \
             written to {}",
            path.display()
        );
    }

    println!();
    println!(
        "\"paper model\" is base_extra x (1 - hit_ratio): the section 4.4 claim that the \
         eliminated fraction equals the buffer hit ratio. Capacity >= the shared working set \
         approaches the full map (extra -> 0)."
    );
}
