//! Directory-level transcript digests for all six schemes.
//!
//! The digests were recorded from the hand-written per-scheme automata
//! the day before they were deleted (PR 15), through API that exists on
//! both sides of that change: a fixed seeded stream of references over
//! 4 caches × 2 modules with a 4-block cache — so clean and dirty
//! ejects, recalls, upgrades, denied upgrades and translation-buffer
//! evictions (two entries) all occur — driven through
//! [`FunctionalSystem`] with invariants on. After every reference, each
//! controller's view of every block touched so far (`global_state`,
//! `holders`) and its `ControllerStats` are folded into a
//! [`Fingerprinter`]. A digest that moves means the table interpreter no
//! longer decides what the automata decided.

use std::collections::BTreeSet;
use twobit_core::FunctionalSystem;
use twobit_types::{
    AddressMap, BlockAddr, CacheId, CacheOrg, ControllerStats, Fingerprinter, MemRef, ProtocolKind,
    SystemConfig, WordAddr,
};

const REFS: usize = 4000;

/// First public block under the static scheme's contract; blocks below
/// are private to one cache.
const SHARED_FROM: u64 = 32;

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
    let config = SystemConfig {
        address_map: AddressMap::interleaved(2),
        cache: CacheOrg::new(2, 2, 4).expect("valid 4-block cache"),
        ..SystemConfig::with_defaults(4)
    }
    .with_protocol(protocol);
    let static_split = protocol == ProtocolKind::StaticSoftware;
    let mut sys = FunctionalSystem::with_static_threshold(config, SHARED_FROM).expect("valid");
    sys.set_check_invariants(true);

    let mut fp = Fingerprinter::new();
    let mut touched: BTreeSet<u64> = BTreeSet::new();
    let mut x = 0x0dd0_15ea_5e5c_a1e5_u64;
    for i in 0..REFS {
        // splitmix64
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let k = CacheId::new(((z >> 40) % 4) as usize);
        let block = if static_split {
            if z & 1 == 0 {
                (k.index() as u64) * 8 + (z >> 8) % 8 // private to cache k
            } else {
                SHARED_FROM + (z >> 8) % 6 // public, never cached
            }
        } else {
            (z >> 8) % 20
        };
        let addr = WordAddr::new(block, 0);
        let op = if (z >> 20) % 5 < 2 {
            MemRef::write(addr)
        } else {
            MemRef::read(addr)
        };
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
