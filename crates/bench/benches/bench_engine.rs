//! Criterion bench of the raw simulation machinery: functional executor
//! throughput, timed-engine throughput, and workload generation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use twobit_core::FunctionalSystem;
use twobit_obs::{JsonlTracer, RingTracer, Tracer};
use twobit_sim::System;
use twobit_types::{CacheId, ProtocolKind, SystemConfig};
use twobit_workload::{SharingModel, SharingParams, Workload};

const REFS: u64 = 5_000;

fn functional_executor(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/functional");
    group.throughput(Throughput::Elements(REFS * 4));
    group.bench_function("two_bit_4cpu", |b| {
        b.iter(|| {
            let config = SystemConfig::with_defaults(4);
            let mut sys = FunctionalSystem::new(config).expect("system");
            let mut workload =
                SharingModel::new(SharingParams::moderate(), 4, 11).expect("workload");
            for _ in 0..REFS {
                for k in CacheId::all(4) {
                    sys.do_ref(k, workload.next_ref(k)).expect("coherent");
                }
            }
            black_box(sys.stats())
        });
    });
    group.finish();
}

fn timed_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/timed");
    group.throughput(Throughput::Elements(REFS * 4));
    group.bench_function("two_bit_4cpu", |b| {
        b.iter(|| {
            let config = SystemConfig::with_defaults(4).with_protocol(ProtocolKind::TwoBit);
            let workload = SharingModel::new(SharingParams::moderate(), 4, 11).expect("workload");
            let mut system = System::build(config).expect("system");
            black_box(system.run(workload, REFS).expect("run"))
        });
    });
    // The event loop at eight cpus.
    group.throughput(Throughput::Elements(REFS * 8));
    group.bench_function("two_bit_8cpu", |b| {
        b.iter(|| {
            let workload = SharingModel::new(SharingParams::moderate(), 8, 11).expect("workload");
            let mut system = System::build(SystemConfig::with_defaults(8)).expect("system");
            black_box(system.run(workload, REFS).expect("run"))
        });
    });
    group.finish();
}

type SinkFactory = fn() -> Box<dyn Tracer>;

fn tracer_overhead(c: &mut Criterion) {
    // The zero-cost claim, measured: a run with the default NullTracer
    // must not be meaningfully slower than `engine/timed` above, while
    // ring and JSONL sinks show what full tracing costs.
    let mut group = c.benchmark_group("engine/tracer");
    group.throughput(Throughput::Elements(REFS * 4));
    let sinks: [(&str, SinkFactory); 3] = [
        ("null", || Box::new(twobit_obs::NullTracer)),
        ("ring_4k", || Box::new(RingTracer::new(4096))),
        ("jsonl_sink", || Box::new(JsonlTracer::new(std::io::sink()))),
    ];
    for (name, make) in sinks {
        group.bench_function(name, |b| {
            b.iter(|| {
                let config = SystemConfig::with_defaults(4).with_protocol(ProtocolKind::TwoBit);
                let workload =
                    SharingModel::new(SharingParams::moderate(), 4, 11).expect("workload");
                let mut system = System::build(config).expect("system");
                system.set_tracer(make());
                black_box(system.run(workload, REFS).expect("run"))
            });
        });
    }
    group.finish();
}

fn metrics_overhead(c: &mut Criterion) {
    // The metrics registry's cost, measured across gauge sampling
    // cadences: the default (64-cycle) cadence should sit on top of
    // `engine/timed`, and even every-cycle sampling should stay cheap —
    // the registry is counters plus a fixed histogram bucketing.
    let mut group = c.benchmark_group("engine/metrics");
    group.throughput(Throughput::Elements(REFS * 4));
    for (name, cadence) in [("cadence_64_default", 64u64), ("cadence_1_every_cycle", 1)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let config = SystemConfig::with_defaults(4).with_protocol(ProtocolKind::TwoBit);
                let workload =
                    SharingModel::new(SharingParams::moderate(), 4, 11).expect("workload");
                let mut system = System::build(config).expect("system");
                system.set_metrics_cadence(cadence);
                black_box(system.run(workload, REFS).expect("run"))
            });
        });
    }
    group.finish();
}

fn span_overhead(c: &mut Criterion) {
    // The disabled-span-API claim, measured two ways.
    //
    // `run_profiling_{off,on}`: a full run with profiling off must match
    // `engine/timed` — without the `perf-spans` feature both arms are
    // identical no-ops (the Profiler is a ZST); with it, the `on` arm
    // shows what attribution costs.
    let mut group = c.benchmark_group("engine/spans");
    group.throughput(Throughput::Elements(REFS * 4));
    for (name, profile) in [("run_profiling_off", false), ("run_profiling_on", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let config = SystemConfig::with_defaults(4).with_protocol(ProtocolKind::TwoBit);
                let workload =
                    SharingModel::new(SharingParams::moderate(), 4, 11).expect("workload");
                let mut system = System::build(config).expect("system");
                system.set_profiling(profile);
                black_box(system.run(workload, REFS).expect("run"))
            });
        });
    }
    // `begin_end_disabled`: the raw API on a runtime-disabled profiler —
    // the per-call price every hot path pays when built with
    // `perf-spans` but run without `--profile`.
    group.throughput(Throughput::Elements(1_000_000));
    group.bench_function("begin_end_disabled", |b| {
        b.iter(|| {
            let mut perf = twobit_obs::Profiler::disabled();
            for _ in 0..1_000_000u32 {
                perf.begin("bench.noop");
                perf.end("bench.noop");
            }
            black_box(perf.report())
        });
    });
    group.finish();
}

fn workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine/workload");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("sharing_model", |b| {
        b.iter(|| {
            let mut w = SharingModel::new(SharingParams::high(), 4, 13).expect("workload");
            let mut acc = 0u64;
            for i in 0..100_000u64 {
                let k = CacheId::new((i % 4) as usize);
                acc = acc.wrapping_add(w.next_ref(k).addr.block.number());
            }
            black_box(acc)
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = functional_executor, timed_engine, tracer_overhead, metrics_overhead, span_overhead,
        workload_generation
}
criterion_main!(benches);
