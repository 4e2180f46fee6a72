//! Integration tests for the timed engine's determinism contract:
//! [`DirectorySim::run`] and [`DirectorySim::run_jobs`] at any worker
//! count produce the same cycle count, event count, per-cache
//! statistics, latency histograms, gauges, and (when a tracer is
//! installed) the same JSONL trace byte-for-byte — and all of it equals
//! the digests frozen below.
//!
//! The digests were recorded from the `BinaryHeap` event loop this
//! repository used to ship beside the sharded round loop (its
//! `DirectorySim::run`, at the commit before that loop was deleted,
//! built with `--release`): one global queue, events popped in canonical
//! key order, gauges observed per event. They are what "exactly the
//! single-threaded simulation" means now that no second engine is left
//! to compare against. A change that moves one changes simulated
//! behaviour and must say why. They hold in every build profile — at that
//! commit a debug build counted extra `tag_probes` for three debug
//! assertions in the cache agent, which now look without counting.
//!
//! These tests call `DirectorySim::run_jobs` directly with explicit
//! worker counts (the `System` facade clamps to the machine's available
//! parallelism, which on a small CI box would silently reduce every case
//! to one worker), so real threads, mailboxes, and barriers are
//! exercised even on a single-core host.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write;
use std::rc::Rc;

use twobit_obs::{JsonlTracer, Metrics, SimEvent, TxnClass};
use twobit_sim::{DirectorySim, Report, System};
use twobit_types::{
    AddressMap, CacheId, CacheOrg, Fingerprinter, LatencyConfig, MemRef, ProtocolKind, SystemConfig,
};
use twobit_workload::{scenarios, SharingModel, SharingParams, Workload};

/// Every directory scheme in the paper's spectrum.
const SCHEMES: [ProtocolKind; 6] = [
    ProtocolKind::TwoBit,
    ProtocolKind::TwoBitTlb { entries: 8 },
    ProtocolKind::FullMap,
    ProtocolKind::FullMapLocal,
    ProtocolKind::ClassicalWriteThrough,
    ProtocolKind::StaticSoftware,
];

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// [`run_digest`] per scheme (in [`SCHEMES`] order): 8 caches,
/// `SharingParams::high()`, seed 11, 200 references per cpu.
const GOLDEN_RUNS: [u128; 6] = [
    0x9c0c_5da2_4a74_f66c_e543_c024_e22d_5f96,
    0x9098_49e1_8496_e8a7_b6e7_0f9f_74a2_1b03,
    0xb75c_99de_cf84_2253_3a36_cf84_5e2d_c1f7,
    0xec6d_b2b0_56bb_7c7a_1d2c_25cc_f643_b3c6,
    0x8c27_aed0_c8bd_f301_5e89_8498_57a2_bb90,
    0x4d35_4e0b_20f0_4dcc_9224_3df6_17dd_3fe8,
];

/// [`digest`] of the JSONL trace bytes per scheme: 8 caches, seed 3,
/// 80 references per cpu.
const GOLDEN_TRACES: [u128; 6] = [
    0xa88a_718e_a26a_5cf2_7360_f1e4_01fa_ccf2,
    0xb4d0_2585_191c_9a2c_36b5_7871_4ceb_451d,
    0xefd0_e045_5f1a_cc16_93bd_743a_ef98_303f,
    0xa2bb_3e76_8140_cbb0_36be_270f_2bda_cb66,
    0x7701_dc3d_4fbe_9a3c_af23_27e6_c23c_887f,
    0xbc15_c555_3d2d_23f5_1b9a_d35f_2157_e87f,
];

/// [`run_digest`]: two-bit, 4 caches on one memory module (one shard),
/// seed 9, 150 references per cpu.
const GOLDEN_SINGLE_MODULE: u128 = 0x2ad1_d20d_d3c8_6ca9_a70c_e34d_ba36_702d;

/// [`run_digest`]: two-bit, 4 caches, `LatencyConfig::zero()` and no think
/// time (no lookahead, so per-event delivery), seed 41, 500 references
/// per cpu.
const GOLDEN_ZERO_LATENCY: u128 = 0x4084_606b_0370_239e_e2ca_a955_238f_1b30;

/// [`report_digest`] through `System::run`: two-bit, 8 caches, a boxed
/// `Migratory::new(8, 4, 16, 4)`, 300 references per cpu.
const GOLDEN_BOXED_SCENARIO: u128 = 0x1bb7_0903_088a_30cd_3ccb_f2b1_632b_a25c;

/// [`report_digest`] through the `System` facade: two-bit, 4 caches,
/// seed 5, 100 references per cpu.
const GOLDEN_FACADE: u128 = 0xd07c_6fe2_2a4b_b4bf_4c1a_704e_2c5d_4e98;

fn config(n: usize, protocol: ProtocolKind) -> SystemConfig {
    SystemConfig::with_defaults(n).with_protocol(protocol)
}

fn workload(n: usize, seed: u64) -> SharingModel {
    SharingModel::new(SharingParams::high(), n, seed).unwrap()
}

/// A 128-bit digest of `bytes`: their length, then the bytes as
/// little-endian words (the last one zero-padded).
fn digest(bytes: &[u8]) -> u128 {
    let mut f = Fingerprinter::new();
    f.write_usize(bytes.len());
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        f.write_u64(u64::from_le_bytes(word));
    }
    f.finish()
}

/// Everything a [`Report`] carries, gauges included.
fn report_text(report: &Report) -> String {
    format!(
        "cycles={} events={} stats={:?} obs={:?}",
        report.cycles, report.events, report.stats, report.obs
    )
}

fn report_digest(report: &Report) -> u128 {
    digest(report_text(report).as_bytes())
}

/// The report plus every latency histogram, bucket by bucket.
fn run_digest(report: &Report, metrics: &Metrics) -> u128 {
    let mut text = report_text(report);
    for class in TxnClass::ALL {
        write!(text, " {class}={:?}", metrics.latency(class)).unwrap();
    }
    digest(text.as_bytes())
}

/// How a test enters the engine.
#[derive(Debug, Clone, Copy)]
enum Entry {
    Run,
    Jobs(usize),
}

/// `run`, then `run_jobs` at every worker count.
fn entries() -> impl Iterator<Item = Entry> {
    std::iter::once(Entry::Run).chain(WORKER_COUNTS.into_iter().map(Entry::Jobs))
}

fn run_via(cfg: SystemConfig, seed: u64, refs: u64, entry: Entry) -> u128 {
    let mut sim = DirectorySim::build(cfg).unwrap();
    let workload = workload(cfg.caches, seed);
    let report = match entry {
        Entry::Run => sim.run(workload, refs),
        Entry::Jobs(jobs) => sim.run_jobs(workload, refs, jobs),
    }
    .unwrap();
    run_digest(&report, sim.metrics())
}

#[test]
fn sharded_rounds_reproduce_the_frozen_digests_for_all_schemes() {
    for (protocol, golden) in SCHEMES.into_iter().zip(GOLDEN_RUNS) {
        for entry in entries() {
            assert_eq!(
                run_via(config(8, protocol), 11, 200, entry),
                golden,
                "{protocol} via {entry:?}"
            );
        }
    }
}

#[test]
fn worker_count_is_invisible_in_results() {
    for protocol in [ProtocolKind::TwoBit, ProtocolKind::FullMap] {
        let baseline = run_via(config(8, protocol), 42, 250, Entry::Run);
        for jobs in WORKER_COUNTS {
            assert_eq!(
                run_via(config(8, protocol), 42, 250, Entry::Jobs(jobs)),
                baseline,
                "{protocol}: jobs={jobs} diverged from run"
            );
        }
    }
}

#[test]
fn reruns_are_bit_stable() {
    // Thread scheduling varies between reruns; results must not.
    let first = run_via(config(8, ProtocolKind::TwoBit), 7, 300, Entry::Jobs(8));
    for _ in 0..3 {
        let again = run_via(config(8, ProtocolKind::TwoBit), 7, 300, Entry::Jobs(8));
        assert_eq!(again, first);
    }
}

/// A `Write` sink whose bytes stay reachable after the tracer is boxed
/// behind `dyn Tracer`.
#[derive(Debug, Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The JSONL trace bytes and the run digest of 8 caches, seed 3, 80
/// references per cpu.
fn traced_run(protocol: ProtocolKind, entry: Entry) -> (Vec<u8>, u128) {
    let buf = SharedBuf::default();
    let mut sim = DirectorySim::build(config(8, protocol)).unwrap();
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    let report = match entry {
        Entry::Run => sim.run(workload(8, 3), 80),
        Entry::Jobs(jobs) => sim.run_jobs(workload(8, 3), 80, jobs),
    }
    .unwrap();
    drop(sim.take_tracer());
    let bytes = buf.0.borrow().clone();
    (bytes, run_digest(&report, sim.metrics()))
}

#[test]
fn sharded_jsonl_traces_are_valid_and_reproduce_the_frozen_digests() {
    for (protocol, golden) in SCHEMES.into_iter().zip(GOLDEN_TRACES) {
        let (trace, run) = traced_run(protocol, Entry::Run);
        assert_eq!(digest(&trace), golden, "{protocol} via run");
        for jobs in WORKER_COUNTS {
            let (again, run_again) = traced_run(protocol, Entry::Jobs(jobs));
            assert!(again == trace, "{protocol}, {jobs} workers: trace bytes");
            assert_eq!(run_again, run, "{protocol}, {jobs} workers: traced report");
        }
        // The stream is also valid JSONL, line by line.
        let text = String::from_utf8(trace).unwrap();
        for line in text.lines() {
            assert!(
                SimEvent::from_jsonl(line).is_some(),
                "{protocol}: unparseable trace line: {line}"
            );
        }
        assert!(text.lines().count() > 100, "{protocol}: substantial trace");
    }
}

#[test]
fn facade_run_and_run_jobs_cover_both_backends() {
    // Directory backend: both entries reproduce the frozen digest.
    let mut a = System::build(config(4, ProtocolKind::TwoBit)).unwrap();
    let ra = a.run(workload(4, 5), 100).unwrap();
    assert_eq!(report_digest(&ra), GOLDEN_FACADE, "System::run");
    let mut b = System::build(config(4, ProtocolKind::TwoBit)).unwrap();
    let rb = b.run_jobs(workload(4, 5), 100, 8).unwrap();
    assert_eq!(report_digest(&rb), GOLDEN_FACADE, "System::run_jobs");

    // Bus backend ignores `jobs` and still completes.
    let mut cfg = config(4, ProtocolKind::Illinois);
    cfg.address_map = AddressMap::interleaved(1);
    let mut bus = System::build(cfg).unwrap();
    let report = bus.run_jobs(workload(4, 5), 100, 8).unwrap();
    assert_eq!(report.stats.total_references(), 400);
}

#[test]
fn single_module_map_collapses_to_one_shard_and_reproduces_its_digest() {
    // One memory module means one shard: the serial per-event path.
    let mut cfg = config(4, ProtocolKind::TwoBit);
    cfg.address_map = AddressMap::interleaved(1);
    for entry in entries() {
        assert_eq!(
            run_via(cfg, 9, 150, entry),
            GOLDEN_SINGLE_MODULE,
            "{entry:?}"
        );
    }
}

#[test]
fn zero_latency_network_reproduces_its_digest() {
    // No lookahead: one shard, per-event delivery, whatever the map.
    let mut cfg = config(4, ProtocolKind::TwoBit);
    cfg.latency = LatencyConfig::zero();
    cfg.think_time = 0;
    for entry in entries() {
        assert_eq!(
            run_via(cfg, 41, 500, entry),
            GOLDEN_ZERO_LATENCY,
            "{entry:?}"
        );
    }
}

#[test]
fn boxed_scenario_through_system_run_reproduces_its_digest() {
    // `Box<dyn Workload>` is neither `Clone` nor `Send`: `run` must take
    // it, and ask it shard by shard for what a global event order would.
    let boxed: Box<dyn Workload> = Box::new(scenarios::Migratory::new(8, 4, 16, 4).unwrap());
    let mut system = System::build(config(8, ProtocolKind::TwoBit)).unwrap();
    let report = system.run(boxed, 300).unwrap();
    assert_eq!(report_digest(&report), GOLDEN_BOXED_SCENARIO);
}

#[test]
fn gauges_are_run_wide_for_any_worker_count() {
    // The Table 4-2 cell at n = 16: every processor cold-misses at cycle
    // 0, so 16 transactions are open at once — a count no single shard
    // (one cache each here) ever sees.
    let mut cfg = config(16, ProtocolKind::TwoBit);
    cfg.cache = CacheOrg::new(64, 2, 4).unwrap();
    let table_4_2 =
        || SharingModel::new(SharingParams::table4_2(0.10, 0.4), 16, 0x42_0010).unwrap();
    let mut sim = DirectorySim::build(cfg).unwrap();
    let baseline = sim.run(table_4_2(), 2_000).unwrap().obs.unwrap();
    assert_eq!(baseline.peak_outstanding, 16);
    assert!(baseline.mean_outstanding > 1.0, "{baseline:?}");
    for jobs in [1, 4] {
        let mut sim = DirectorySim::build(cfg).unwrap();
        let obs = sim.run_jobs(table_4_2(), 2_000, jobs).unwrap().obs;
        assert_eq!(obs, Some(baseline.clone()), "{jobs} workers");
    }
}

/// A workload wrapper that panics if it is asked for a cpu of a shard
/// another worker owns — each worker holds one instance and lends it to
/// its own shards only, which is why `Workload::next_ref(k)` may depend
/// on nothing but `k`'s own earlier calls.
#[derive(Debug, Clone)]
struct OwnShardsOnly {
    inner: SharingModel,
    n_shards: usize,
    n_workers: usize,
    /// The worker holding this instance, discovered from its first query.
    worker: Option<usize>,
}

impl Workload for OwnShardsOnly {
    fn next_ref(&mut self, k: CacheId) -> MemRef {
        // Cache `k` lives on shard `k mod S`, shard `s` with worker
        // `s mod workers`.
        let worker = k.index() % self.n_shards % self.n_workers;
        assert_eq!(
            *self.worker.get_or_insert(worker),
            worker,
            "a worker's instance was asked for {k:?}, a cpu of another worker's shard"
        );
        self.inner.next_ref(k)
    }

    fn name(&self) -> &'static str {
        "own-shards-only"
    }
}

#[test]
fn each_worker_queries_only_cpus_of_its_own_shards() {
    let cfg = config(8, ProtocolKind::TwoBit);
    let n_shards = cfg.address_map.modules();
    assert!(n_shards >= 4, "default map must shard");
    for n_workers in [1, 2, 4] {
        let wrapped = OwnShardsOnly {
            inner: workload(8, 21),
            n_shards,
            n_workers,
            worker: None,
        };
        let mut sim = DirectorySim::build(cfg).unwrap();
        let report = sim.run_jobs(wrapped, 100, n_workers).unwrap();
        assert_eq!(report.stats.total_references(), 800);
    }
}
