//! Directory-level transcript digests for all six schemes.
//!
//! The digests were recorded from the hand-written per-scheme automata
//! the day before they were deleted (PR 15), through API that exists on
//! both sides of that change: a fixed seeded stream of references over
//! 4 caches × 2 modules with a 4-block cache — so clean and dirty
//! ejects, recalls, upgrades, denied upgrades and translation-buffer
//! evictions (two entries) all occur — driven through
//! [`FunctionalSystem`] with invariants on (the stream is
//! [`FunctionalSystem::transcript_stream`], which `verify_protocols`
//! also counts rule coverage over). After every reference, each
//! controller's view of every block touched so far (`global_state`,
//! `holders`) and its `ControllerStats` are folded into a
//! [`Fingerprinter`]. A digest that moves means the table interpreter no
//! longer decides what the automata decided.

use std::collections::BTreeSet;
use twobit_core::FunctionalSystem;
use twobit_types::{BlockAddr, ControllerStats, Fingerprinter, ProtocolKind};

fn fold_stats(fp: &mut Fingerprinter, s: &ControllerStats) {
    for c in [
        s.requests,
        s.mrequests,
        s.ejects,
        s.broadcasts_sent,
        s.unicasts_sent,
        s.deliveries,
        s.memory_reads,
        s.memory_writes,
        s.tlb_hits,
        s.tlb_misses,
        s.conflicts_queued,
        s.queue_peak,
    ] {
        fp.write_u64(c.get());
    }
}

fn transcript(protocol: ProtocolKind) -> String {
    let (mut sys, refs) = FunctionalSystem::transcript_stream(protocol);

    let mut fp = Fingerprinter::new();
    let mut touched: BTreeSet<u64> = BTreeSet::new();
    for (i, (k, op)) in refs.enumerate() {
        let block = op.addr.block.number();
        sys.do_ref(k, op)
            .unwrap_or_else(|e| panic!("{protocol}: reference {i} failed: {e}"));
        touched.insert(block);

        for controller in sys.controllers() {
            for &b in &touched {
                let a = BlockAddr::new(b);
                fp.write_u64(u64::from(controller.protocol().global_state(a).bits()));
                match controller.protocol().holders(a) {
                    None => fp.write_tag(0),
                    Some(set) => {
                        fp.write_tag(1);
                        fp.write_usize(set.len());
                        for id in set.iter() {
                            fp.write_usize(id.index());
                        }
                    }
                }
            }
            fold_stats(&mut fp, &controller.stats());
        }
    }

    // The stream must reach the paths the digest is meant to pin.
    let stats = sys.stats();
    let total = |f: fn(&ControllerStats) -> u64| stats.controllers.iter().map(f).sum::<u64>();
    // Write-through lines are replaced silently; every other scheme
    // announces its replacements.
    if protocol != ProtocolKind::ClassicalWriteThrough {
        assert!(total(|c| c.ejects.get()) > 100, "{protocol}: ejects occur");
    }
    assert!(
        total(|c| c.memory_writes.get()) > 100,
        "{protocol}: write-backs or write-throughs land"
    );
    if let ProtocolKind::TwoBitTlb { .. } = protocol {
        assert!(total(|c| c.tlb_hits.get()) > 0 && total(|c| c.tlb_misses.get()) > 0);
    }
    format!("{:?}", fp.finish())
}

/// Prints the digests in the form of [`GOLDEN`] (run with `--nocapture`
/// to regenerate after an intended behaviour change).
fn render(digests: &[(ProtocolKind, String)]) -> String {
    digests
        .iter()
        .map(|(p, d)| format!("    (\"{p}\", \"{d}\"),\n"))
        .collect()
}

const SCHEMES: [ProtocolKind; 6] = [
    ProtocolKind::TwoBit,
    ProtocolKind::TwoBitTlb { entries: 2 },
    ProtocolKind::FullMap,
    ProtocolKind::FullMapLocal,
    ProtocolKind::ClassicalWriteThrough,
    ProtocolKind::StaticSoftware,
];

/// Recorded at commit 1c72a47 (PR 14), from the six hand-written
/// `impl DirectoryProtocol` automata.
const GOLDEN: [(&str, &str); 6] = [
    ("two-bit", "59437060250383252123891963540175809910"),
    ("two-bit+tlb(2)", "15899583349075013634505029932093361878"),
    ("full-map", "14837426365440147877279584067546012015"),
    ("full-map+local", "166164140585554301384263561687683655119"),
    ("classical-wt", "289543852017141914749163740181082558016"),
    ("static-sw", "101392569070311516457351222987551580777"),
];

#[test]
fn every_scheme_decides_what_its_automaton_decided() {
    let digests: Vec<(ProtocolKind, String)> =
        SCHEMES.into_iter().map(|p| (p, transcript(p))).collect();
    let rendered = render(&digests);
    println!("{rendered}");
    for ((protocol, digest), (name, golden)) in digests.iter().zip(GOLDEN) {
        assert_eq!(protocol.to_string(), name);
        assert_eq!(digest, golden, "{protocol} transcript moved:\n{rendered}");
    }
}
