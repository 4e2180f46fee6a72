//! Trace round-trip and replay determinism: experiment inputs are
//! replayable artifacts.

use twobit::core::FunctionalSystem;
use twobit::types::{ProtocolKind, SystemConfig};
use twobit::workload::{SharingModel, SharingParams, Trace};

#[test]
fn recorded_trace_replays_identically_through_encode_decode() {
    let n = 4;
    let mut gen = SharingModel::new(SharingParams::high(), n, 0xace).unwrap();
    let trace = Trace::record(&mut gen, n, 2_000);

    // Round-trip through the binary format.
    let decoded = Trace::decode(&trace.encode()).unwrap();
    assert_eq!(trace, decoded);

    // Replaying the original and the decoded trace produces identical
    // system statistics.
    let run = |t: &Trace| {
        let config = SystemConfig::with_defaults(n).with_protocol(ProtocolKind::TwoBit);
        let mut system = FunctionalSystem::new(config).unwrap();
        system.run(t.iter()).unwrap();
        system.stats()
    };
    assert_eq!(run(&trace), run(&decoded));
}

#[test]
fn same_trace_same_stats_across_protocol_reruns() {
    let n = 3;
    let mut gen = SharingModel::new(SharingParams::moderate(), n, 9).unwrap();
    let trace = Trace::record(&mut gen, n, 1_500);
    for protocol in [
        ProtocolKind::TwoBit,
        ProtocolKind::FullMap,
        ProtocolKind::FullMapLocal,
    ] {
        let run = || {
            let config = SystemConfig::with_defaults(n).with_protocol(protocol);
            let mut system = FunctionalSystem::new(config).unwrap();
            system.run(trace.iter()).unwrap();
            system.stats()
        };
        assert_eq!(run(), run(), "{protocol}: replay must be deterministic");
    }
}

#[test]
fn protocols_agree_on_final_memory_image() {
    // The differential test DESIGN.md promises: after the same serial
    // trace, every write-back directory protocol leaves the same set of
    // dirty blocks and the same oracle-visible values (reads during the
    // run already validated against the shared oracle).
    let n = 4;
    let mut gen = SharingModel::new(SharingParams::high().with_w(0.4), n, 0xf00d).unwrap();
    let trace = Trace::record(&mut gen, n, 2_000);

    let mut images = Vec::new();
    for protocol in [
        ProtocolKind::TwoBit,
        ProtocolKind::TwoBitTlb { entries: 8 },
        ProtocolKind::FullMap,
        ProtocolKind::FullMapLocal,
    ] {
        let config = SystemConfig::with_defaults(n).with_protocol(protocol);
        let mut system = FunctionalSystem::new(config).unwrap();
        system.run(trace.iter()).unwrap();
        // Logical memory image = oracle expectation for every block the
        // trace wrote.
        let mut image: Vec<(u64, u64)> = trace
            .entries()
            .iter()
            .filter(|e| e.op.kind.is_write())
            .map(|e| e.op.addr.block)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|a| (a.number(), system.oracle().expected(a).raw()))
            .collect();
        image.sort_unstable();
        images.push((protocol, image));
    }
    let (reference_protocol, reference) = &images[0];
    for (protocol, image) in &images[1..] {
        assert_eq!(
            image, reference,
            "{protocol} diverged from {reference_protocol} on the final memory image"
        );
    }
}
