//! Integration tests for the timed engine's determinism contract:
//! [`DirectorySim::run`] produces the cycle count, event count, per-cache
//! statistics, latency histograms, gauges, and (when a tracer is
//! installed) the JSONL trace byte-for-byte that the digests frozen below
//! record.
//!
//! The digests were recorded from a `BinaryHeap` event loop this
//! repository once shipped (one global queue, events popped in canonical
//! key order, gauges observed per event, built with `--release`); the
//! multi-worker round engine that later ran beside today's loop
//! reproduced them at 1, 2, 4 and 8 workers before it was deleted. A
//! change that moves one changes simulated behaviour and must say why.
//! They hold in every build profile — when they were recorded a debug
//! build counted extra `tag_probes` for three debug assertions in the
//! cache agent, which now look without counting. The trace the rounds
//! buffered and sorted now streams to the tracer in event order, with
//! the same bytes.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write;
use std::rc::Rc;

use twobit_obs::{JsonlTracer, Metrics, SimEvent, TxnClass};
use twobit_sim::{DirectorySim, Report, System};
use twobit_types::{
    AddressMap, CacheOrg, Fingerprinter, LatencyConfig, ProtocolKind, SystemConfig,
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

/// [`run_digest`] for two schemes at 32 caches and 32 modules (96 event
/// ranks, so two occupancy words per calendar slot): seed 11, 200
/// references per cpu. Recorded from the sorted-bucket calendar the
/// ranked ring replaced.
const GOLDEN_WIDE: [(ProtocolKind, u128); 2] = [
    (
        ProtocolKind::TwoBit,
        0x92e5_8d89_eafb_b1a5_eda0_5a28_2722_40e6,
    ),
    (
        ProtocolKind::ClassicalWriteThrough,
        0x7212_0a52_1bc2_040b_9420_5a33_2f38_d7f0,
    ),
];

/// [`run_digest`]: two-bit, 4 caches on one memory module, seed 9, 150
/// references per cpu.
const GOLDEN_SINGLE_MODULE: u128 = 0x2ad1_d20d_d3c8_6ca9_a70c_e34d_ba36_702d;

/// [`run_digest`]: two-bit, 4 caches, `LatencyConfig::zero()` and no think
/// time (deliveries and reissues at the cycle that caused them), seed 41,
/// 500 references per cpu.
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

fn run_via(cfg: SystemConfig, seed: u64, refs: u64) -> u128 {
    let mut sim = DirectorySim::build(cfg).unwrap();
    let report = sim.run(workload(cfg.caches, seed), refs).unwrap();
    run_digest(&report, sim.metrics())
}

#[test]
fn runs_reproduce_the_frozen_digests_for_all_schemes() {
    for (protocol, golden) in SCHEMES.into_iter().zip(GOLDEN_RUNS) {
        assert_eq!(run_via(config(8, protocol), 11, 200), golden, "{protocol}");
    }
}

#[test]
fn wide_runs_reproduce_their_digests() {
    for (protocol, golden) in GOLDEN_WIDE {
        let cfg = config(32, protocol);
        assert_eq!(cfg.address_map.modules(), 32);
        assert_eq!(run_via(cfg, 11, 200), golden, "{protocol}");
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

/// The JSONL trace bytes of 8 caches, seed 3, 80 references per cpu.
fn traced_run(protocol: ProtocolKind) -> Vec<u8> {
    let buf = SharedBuf::default();
    let mut sim = DirectorySim::build(config(8, protocol)).unwrap();
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    sim.run(workload(8, 3), 80).unwrap();
    drop(sim.take_tracer());
    buf.0.take()
}

#[test]
fn jsonl_traces_are_valid_and_reproduce_the_frozen_digests() {
    for (protocol, golden) in SCHEMES.into_iter().zip(GOLDEN_TRACES) {
        let trace = traced_run(protocol);
        assert_eq!(digest(&trace), golden, "{protocol}: trace bytes");
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
fn facade_covers_both_backends() {
    // Directory backend: `run`, and the `run_jobs` shim, which ignores
    // `jobs`, reproduce the frozen digest.
    let mut a = System::build(config(4, ProtocolKind::TwoBit)).unwrap();
    let ra = a.run(workload(4, 5), 100).unwrap();
    assert_eq!(report_digest(&ra), GOLDEN_FACADE, "System::run");
    let mut b = System::build(config(4, ProtocolKind::TwoBit)).unwrap();
    let rb = b.run_jobs(workload(4, 5), 100, 8).unwrap();
    assert_eq!(report_digest(&rb), GOLDEN_FACADE, "System::run_jobs");

    let mut cfg = config(4, ProtocolKind::Illinois);
    cfg.address_map = AddressMap::interleaved(1);
    let mut bus = System::build(cfg).unwrap();
    let report = bus.run(workload(4, 5), 100).unwrap();
    assert_eq!(report.stats.total_references(), 400);
}

#[test]
fn single_module_map_reproduces_its_digest() {
    let mut cfg = config(4, ProtocolKind::TwoBit);
    cfg.address_map = AddressMap::interleaved(1);
    assert_eq!(run_via(cfg, 9, 150), GOLDEN_SINGLE_MODULE);
}

#[test]
fn zero_latency_network_reproduces_its_digest() {
    let mut cfg = config(4, ProtocolKind::TwoBit);
    cfg.latency = LatencyConfig::zero();
    cfg.think_time = 0;
    assert_eq!(run_via(cfg, 41, 500), GOLDEN_ZERO_LATENCY);
}

#[test]
fn boxed_scenario_through_system_run_reproduces_its_digest() {
    // `Box<dyn Workload>` is neither `Clone` nor `Send`: `run` takes it.
    let boxed: Box<dyn Workload> = Box::new(scenarios::Migratory::new(8, 4, 16, 4).unwrap());
    let mut system = System::build(config(8, ProtocolKind::TwoBit)).unwrap();
    let report = system.run(boxed, 300).unwrap();
    assert_eq!(report_digest(&report), GOLDEN_BOXED_SCENARIO);
}

#[test]
fn gauges_are_run_wide() {
    // The Table 4-2 cell at n = 16: every processor cold-misses at cycle
    // 0, so 16 transactions are open at once.
    let mut cfg = config(16, ProtocolKind::TwoBit);
    cfg.cache = CacheOrg::new(64, 2, 4).unwrap();
    let table_4_2 = SharingModel::new(SharingParams::table4_2(0.10, 0.4), 16, 0x42_0010).unwrap();
    let mut sim = DirectorySim::build(cfg).unwrap();
    let obs = sim.run(table_4_2, 2_000).unwrap().obs.unwrap();
    assert_eq!(obs.peak_outstanding, 16);
    assert!(obs.mean_outstanding > 1.0, "{obs:?}");
}
