//! Proto-Zoo: section 2's qualitative spectrum made quantitative — every
//! implemented scheme on common workloads, in common units.

use twobit_bench::obs_cli::{self, ObsArgs};
use twobit_bench::run_protocol;
use twobit_bench::sweep;
use twobit_core::parallel_map;
use twobit_types::{fmt3, ProtocolKind, Table};
use twobit_workload::SharingParams;

fn main() {
    let obs = ObsArgs::from_env();
    let refs_per_cpu = 20_000;
    let n = 8;
    let protocols = [
        ProtocolKind::StaticSoftware,
        ProtocolKind::ClassicalWriteThrough,
        ProtocolKind::FullMap,
        ProtocolKind::FullMapLocal,
        ProtocolKind::TwoBit,
        ProtocolKind::TwoBitTlb { entries: 16 },
        ProtocolKind::WriteOnce,
        ProtocolKind::Illinois,
    ];
    let cases: [(&str, SharingParams); 3] = [
        ("low", SharingParams::low()),
        ("moderate", SharingParams::moderate()),
        ("high", SharingParams::high()),
    ];

    let mut grid = Vec::new();
    for (label, params) in cases {
        for protocol in protocols {
            grid.push((label, params, protocol));
        }
    }

    let results = parallel_map(
        grid,
        sweep::default_threads(),
        |(label, params, protocol)| {
            let report =
                run_protocol(protocol, params, n, 0x200, refs_per_cpu).expect("protocol run");
            (label, protocol, report)
        },
    );

    let mut table = Table::new(
        format!("Proto-Zoo: the section 2 spectrum (n={n}, {refs_per_cpu} refs/cpu)"),
        vec![
            "protocol".into(),
            "cmds/ref".into(),
            "useless/ref".into(),
            "stolen/ref".into(),
            "deliveries/ref".into(),
            "hit ratio".into(),
        ],
    );

    let mut current = "";
    for (label, protocol, report) in &results {
        if *label != current {
            table.push_section(format!("{label} sharing:"));
            current = label;
        }
        table.push_row(vec![
            protocol.to_string(),
            fmt3(report.commands_per_reference()),
            fmt3(report.useless_per_reference()),
            fmt3(report.stolen_per_reference()),
            fmt3(report.deliveries_per_reference()),
            fmt3(report.hit_ratio()),
        ]);
    }

    print!("{table}");

    if obs.metrics {
        println!();
        println!("Observability (latency percentiles in cycles; peakQ = controller queue):");
        for (label, protocol, report) in &results {
            print!(
                "{}",
                obs_cli::metrics_block(&format!("{label}/{protocol}"), report)
            );
        }
    }

    if let Some(path) = &obs.trace_out {
        let tracer = obs_cli::jsonl_file_tracer(path).expect("create trace file");
        twobit_bench::run_protocol_traced(
            ProtocolKind::TwoBit,
            SharingParams::moderate(),
            4,
            0x200,
            200,
            tracer,
        )
        .expect("traced run");
        println!();
        println!(
            "JSONL trace of a representative run (two-bit, moderate sharing, n=4, 200 \
             refs/cpu) written to {}",
            path.display()
        );
    }

    println!();
    println!("Expected shape (section 2's qualitative claims, now measured):");
    println!(" - static-sw: zero coherence commands, but shared accesses never hit;");
    println!(" - classical-wt: commands scale with *all* stores, worst of the directory class;");
    println!(" - full-map family: minimal targeted commands (the baseline);");
    println!(" - two-bit: full-map + broadcasts on sharing events; tlb recovers most of the gap;");
    println!(" - bus schemes: every miss snooped by everyone — cheap at low n, unscalable.");
}
