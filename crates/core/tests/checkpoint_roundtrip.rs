//! Checkpoint/restore round-trips across all six directory schemes.
//!
//! The distributed runner (`twobit-dist`) crash-restarts nodes from these
//! documents, so the contract tested here is strict: for every scheme,
//! serializing an agent or controller to its JSON checkpoint, parsing the
//! *textual* form back (the document crosses a process boundary as text),
//! and restoring into a freshly constructed instance must reproduce the
//! exact state — same fingerprint, same statistics, and identical future
//! behavior.

use twobit_core::{
    build_policy_for, build_protocol_for, CacheAgent, Controller, CtrlEmit, FunctionalSystem,
    Observer,
};
use twobit_obs::json::parse;
use twobit_types::{
    AccessKind, AddressMap, CacheId, CacheToMemory, Fingerprint, Fingerprinter, MemRef,
    MemoryToCache, ProtocolKind, SystemConfig, Version, WordAddr,
};

const ALL_SCHEMES: [ProtocolKind; 6] = [
    ProtocolKind::TwoBit,
    ProtocolKind::TwoBitTlb { entries: 2 },
    ProtocolKind::FullMap,
    ProtocolKind::FullMapLocal,
    ProtocolKind::ClassicalWriteThrough,
    ProtocolKind::StaticSoftware,
];

/// First public block for the static software scheme's workload
/// contract: blocks below are private (touched by one cache only),
/// blocks at or above are public (never cached).
const SHARED_FROM: u64 = 16;

/// A small sharing-heavy workload: every cache touches a mix of common
/// and private blocks, with enough writes to exercise every directory
/// state and enough distinct blocks to force evictions. With
/// `static_split` the mix honors the static scheme's contract instead:
/// per-cache-disjoint private blocks plus public blocks at
/// [`SHARED_FROM`] and up.
fn drive(sys: &mut FunctionalSystem, refs: usize, static_split: bool) {
    let caches = sys.config().caches;
    let mut x = 0x1234_5678_9abc_def0_u64;
    for i in 0..refs {
        // splitmix64 — deterministic, no external RNG dependency.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let k = CacheId::new(i % caches);
        let block = if static_split {
            if z & 1 == 0 {
                (k.index() as u64) * 4 + z % 4 // private to cache k
            } else {
                SHARED_FROM + z % 8 // public, uncached
            }
        } else {
            z % 24
        };
        let op = if z & 0x100 != 0 {
            MemRef::write(WordAddr::new(block, 0))
        } else {
            MemRef::read(WordAddr::new(block, 0))
        };
        sys.do_ref(k, op).unwrap();
    }
}

fn fingerprint_agent(a: &CacheAgent) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    a.fingerprint(&mut fp);
    fp.finish()
}

fn fingerprint_controller(c: &Controller) -> Fingerprint {
    let mut fp = Fingerprinter::new();
    c.fingerprint(&mut fp);
    fp.finish()
}

/// What `ctrl` sends on the commands in `cmds`, which it must accept.
fn emitted(ctrl: &mut Controller, cmds: &[CacheToMemory]) -> Vec<CtrlEmit> {
    let mut emits = Vec::new();
    for &cmd in cmds {
        ctrl.submit(cmd, Observer::none(), &mut emits).unwrap();
    }
    emits
}

/// The commands `agent` sends on the deliveries in `msgs`, which it must
/// accept.
fn answered(agent: &mut CacheAgent, msgs: &[MemoryToCache]) -> Vec<CacheToMemory> {
    let mut sends = Vec::new();
    for &msg in msgs {
        agent.on_network(msg, &mut sends).unwrap();
    }
    sends
}

fn config_for(protocol: ProtocolKind) -> SystemConfig {
    let mut cfg = SystemConfig::with_defaults(3).with_protocol(protocol);
    cfg.bias_entries = 2; // exercise the BIAS filter in checkpoints
    cfg
}

#[test]
fn agents_and_controllers_roundtrip_across_all_schemes() {
    for protocol in ALL_SCHEMES {
        let cfg = config_for(protocol);
        let is_static = protocol == ProtocolKind::StaticSoftware;
        let mut sys = FunctionalSystem::with_static_threshold(cfg, SHARED_FROM).unwrap();
        drive(&mut sys, 200, is_static);

        for agent in sys.agents() {
            let doc = parse(&agent.save_state().to_json()).unwrap();
            let mut fresh = CacheAgent::new(
                agent.id(),
                cfg.cache,
                build_policy_for(protocol, SHARED_FROM),
                cfg.duplicate_directory,
            );
            fresh.set_bias_entries(cfg.bias_entries);
            fresh.restore_state(&doc).unwrap();
            assert_eq!(
                fingerprint_agent(&fresh),
                fingerprint_agent(agent),
                "{protocol:?}: agent {} fingerprint diverged after restore",
                agent.id()
            );
            assert_eq!(fresh.stats(), agent.stats(), "{protocol:?}: stats diverged");
        }

        for ctrl in sys.controllers() {
            let doc = parse(&ctrl.save_state().to_json()).unwrap();
            let mut fresh = Controller::new(
                ctrl.module(),
                cfg.address_map,
                build_protocol_for(&cfg),
                cfg.caches,
                cfg.concurrency,
            );
            fresh.restore_state(&doc).unwrap();
            assert_eq!(
                fingerprint_controller(&fresh),
                fingerprint_controller(ctrl),
                "{protocol:?}: controller {} fingerprint diverged after restore",
                ctrl.module()
            );
            assert_eq!(fresh.stats(), ctrl.stats(), "{protocol:?}: stats diverged");
        }
    }
}

/// Mid-transaction state survives: stall an agent on a write miss, leave
/// the controller awaiting the matching transaction, checkpoint both,
/// restore, and complete the transaction on the restored pair.
#[test]
fn mid_transaction_checkpoint_resumes_correctly() {
    let cfg = config_for(ProtocolKind::TwoBit);
    let policy = build_policy_for(
        ProtocolKind::TwoBit,
        twobit_core::DEFAULT_STATIC_SHARED_FROM,
    );

    // Cache 0 holds block 5 dirty; cache 1 then write-misses on it. The
    // controller must query cache 0 and is left awaiting the supply.
    let mut a0 = CacheAgent::new(CacheId::new(0), cfg.cache, policy, false);
    let mut a1 = CacheAgent::new(CacheId::new(1), cfg.cache, policy, false);
    let mut ctrl = Controller::new(
        twobit_types::ModuleId::new(0),
        AddressMap::interleaved(1),
        build_protocol_for(&cfg),
        2,
        cfg.concurrency,
    );

    let w0 = MemRef::write(WordAddr::new(5, 0));
    let mut sends = Vec::new();
    a0.start(w0, Version::new(1), &mut sends);
    for emit in emitted(&mut ctrl, &sends) {
        if let CtrlEmit::Unicast { to, cmd, .. } = emit {
            assert_eq!(to, CacheId::new(0));
            answered(&mut a0, &[cmd]);
        }
    }
    assert!(!a0.is_stalled());

    let w1 = MemRef::write(WordAddr::new(5, 0));
    sends.clear();
    a1.start(w1, Version::new(2), &mut sends);
    let mut queries = Vec::new();
    for emit in emitted(&mut ctrl, &sends) {
        match emit {
            CtrlEmit::Unicast { cmd, .. } => queries.push(cmd),
            CtrlEmit::Broadcast { cmd, exclude, .. } => {
                assert_ne!(exclude, CacheId::new(0));
                queries.push(cmd);
            }
        }
    }
    assert!(a1.is_stalled(), "write miss should stall cache 1");
    assert!(ctrl.busy(), "controller should be awaiting the supply");

    // Checkpoint everything mid-transaction, through the textual form.
    let ctrl_doc = parse(&ctrl.save_state().to_json()).unwrap();
    let a0_doc = parse(&a0.save_state().to_json()).unwrap();
    let a1_doc = parse(&a1.save_state().to_json()).unwrap();

    let mut ctrl2 = Controller::new(
        twobit_types::ModuleId::new(0),
        AddressMap::interleaved(1),
        build_protocol_for(&cfg),
        2,
        cfg.concurrency,
    );
    ctrl2.restore_state(&ctrl_doc).unwrap();
    let mut a0r = CacheAgent::new(CacheId::new(0), cfg.cache, policy, false);
    a0r.restore_state(&a0_doc).unwrap();
    let mut a1r = CacheAgent::new(CacheId::new(1), cfg.cache, policy, false);
    a1r.restore_state(&a1_doc).unwrap();
    assert_eq!(
        fingerprint_controller(&ctrl2),
        fingerprint_controller(&ctrl)
    );
    assert_eq!(fingerprint_agent(&a0r), fingerprint_agent(&a0));
    assert_eq!(fingerprint_agent(&a1r), fingerprint_agent(&a1));
    assert!(a1r.is_stalled());

    // Complete the transaction on the restored trio: deliver the held
    // query to cache 0, route its supply to the controller, and deliver
    // the resulting grant to cache 1.
    let to_ctrl = answered(&mut a0r, &queries);
    assert!(
        to_ctrl
            .iter()
            .any(|c| matches!(c, CacheToMemory::PutData { .. })),
        "dirty owner must supply the block"
    );
    let mut grants = Vec::new();
    for emit in emitted(&mut ctrl2, &to_ctrl) {
        if let CtrlEmit::Unicast { to, cmd, .. } = emit {
            assert_eq!(to, CacheId::new(1));
            grants.push(cmd);
        }
    }
    let mut completion = None;
    for cmd in grants {
        let out = a1r.on_network(cmd, &mut sends).unwrap();
        if let Some(c) = out.completed {
            completion = Some(c);
        }
    }
    let c = completion.expect("write must retire on the restored agent");
    assert_eq!(c.observed, Version::new(2));
    assert_eq!(c.op.kind, AccessKind::Write);
    assert!(!ctrl2.busy());
}

/// Restore rejects checkpoints for the wrong identity or scheme instead
/// of silently corrupting state.
#[test]
fn restore_rejects_mismatched_checkpoints() {
    let cfg = config_for(ProtocolKind::TwoBit);
    let policy = build_policy_for(
        ProtocolKind::TwoBit,
        twobit_core::DEFAULT_STATIC_SHARED_FROM,
    );
    let a0 = CacheAgent::new(CacheId::new(0), cfg.cache, policy, false);
    let doc = parse(&a0.save_state().to_json()).unwrap();
    let mut a1 = CacheAgent::new(CacheId::new(1), cfg.cache, policy, false);
    assert!(a1.restore_state(&doc).is_err(), "wrong cache id must fail");

    let ctrl = Controller::new(
        twobit_types::ModuleId::new(0),
        AddressMap::interleaved(1),
        build_protocol_for(&cfg),
        2,
        cfg.concurrency,
    );
    let doc = parse(&ctrl.save_state().to_json()).unwrap();
    let full_map_cfg = cfg.with_protocol(ProtocolKind::FullMap);
    let mut other = Controller::new(
        twobit_types::ModuleId::new(0),
        AddressMap::interleaved(1),
        build_protocol_for(&full_map_cfg),
        2,
        full_map_cfg.concurrency,
    );
    assert!(other.restore_state(&doc).is_err(), "wrong scheme must fail");
}

/// A directory checkpoint whose identity store is not the running
/// directory's — another presence-vector width (zero included), another
/// buffer capacity, more buffer entries than the buffer holds — is
/// refused, and the controller left as it was.
#[test]
fn restore_refuses_another_identity_store() {
    let saved_by = |protocol: ProtocolKind, caches: usize| {
        let mut cfg = config_for(protocol);
        cfg.caches = caches;
        let mut sys = FunctionalSystem::with_static_threshold(cfg, SHARED_FROM).unwrap();
        drive(&mut sys, 60, false);
        sys.controllers()[0].save_state().to_json()
    };
    let refuses = |protocol: ProtocolKind, text: &str, why: &str| {
        let cfg = config_for(protocol);
        let mut ctrl = Controller::new(
            twobit_types::ModuleId::new(0),
            cfg.address_map,
            build_protocol_for(&cfg),
            cfg.caches,
            cfg.concurrency,
        );
        let before = fingerprint_controller(&ctrl);
        let err = ctrl.restore_state(&parse(text).unwrap()).unwrap_err();
        assert!(err.contains(why), "{protocol}: {err}");
        assert_eq!(fingerprint_controller(&ctrl), before, "{protocol}");
    };

    // `config_for` runs three caches; these were saved by four.
    let full_map = saved_by(ProtocolKind::FullMap, 4);
    refuses(ProtocolKind::FullMap, &full_map, "width mismatch");
    let zero = full_map.replace("\"o\":[4,", "\"o\":[0,");
    assert_ne!(zero, full_map);
    refuses(ProtocolKind::FullMap, &zero, "exceeds set width 0");

    let two = ProtocolKind::TwoBitTlb { entries: 2 };
    refuses(two, &saved_by(two, 4), "capacity or width mismatch");
    let four = saved_by(ProtocolKind::TwoBitTlb { entries: 4 }, 3);
    refuses(two, &four, "capacity or width mismatch");
    let overfull = four.replace("\"capacity\":4", "\"capacity\":2");
    assert_ne!(overfull, four);
    refuses(two, &overfull, "exceeds its own capacity");
}

/// Module 1 of 3 after [`spread_run`], as the parent of the commit that
/// keyed the per-block tables by module-local slot wrote it (tables paged
/// by global block number): blocks up to 583, so ten of its pages and
/// four of this commit's.
const PARENT_TWO_BIT_M1: &str = r#"{"awaiting":[],"eject_announced":[],"eject_locked":[],"memory":[[169,4],[184,27]],"module":1,"protocol":{"states":[{"a":10,"s":3},{"a":46,"s":1},{"a":52,"s":3},{"a":61,"s":3},{"a":64,"s":3},{"a":88,"s":3},{"a":97,"s":3},{"a":172,"s":3},{"a":184,"s":3},{"a":190,"s":1},{"a":211,"s":3},{"a":229,"s":1},{"a":241,"s":3},{"a":262,"s":3},{"a":298,"s":3},{"a":316,"s":3},{"a":322,"s":3},{"a":325,"s":3},{"a":361,"s":1},{"a":367,"s":3},{"a":370,"s":3},{"a":406,"s":3},{"a":421,"s":3},{"a":451,"s":1},{"a":457,"s":3},{"a":460,"s":3},{"a":514,"s":3},{"a":538,"s":3},{"a":547,"s":3},{"a":550,"s":3},{"a":553,"s":3},{"a":583,"s":1}],"waiting":[]},"queue":[],"scheme":"two-bit","stats":{"broadcasts_sent":1,"conflicts_queued":0,"deliveries":36,"ejects":1,"memory_reads":33,"memory_writes":2,"mrequests":0,"queue_peak":0,"requests":34,"tlb_hits":0,"tlb_misses":0,"unicasts_sent":34}}"#;
const PARENT_FULL_MAP_M1: &str = r#"{"awaiting":[],"eject_announced":[],"eject_locked":[],"memory":[[169,4],[184,27]],"module":1,"protocol":{"holders":[{"a":10,"o":[3,2]},{"a":46,"o":[3,2]},{"a":52,"o":[3,1]},{"a":61,"o":[3,2]},{"a":64,"o":[3,2]},{"a":88,"o":[3,0]},{"a":97,"o":[3,1]},{"a":172,"o":[3,0]},{"a":184,"o":[3,1]},{"a":190,"o":[3,2]},{"a":211,"o":[3,2]},{"a":229,"o":[3,0]},{"a":241,"o":[3,2]},{"a":262,"o":[3,1]},{"a":298,"o":[3,1]},{"a":316,"o":[3,0]},{"a":322,"o":[3,2]},{"a":325,"o":[3,0]},{"a":361,"o":[3,0]},{"a":367,"o":[3,0]},{"a":370,"o":[3,2]},{"a":406,"o":[3,1]},{"a":421,"o":[3,2]},{"a":451,"o":[3,0]},{"a":457,"o":[3,2]},{"a":460,"o":[3,2]},{"a":514,"o":[3,1]},{"a":538,"o":[3,1]},{"a":547,"o":[3,1]},{"a":550,"o":[3,2]},{"a":553,"o":[3,0]},{"a":583,"o":[3,0]}],"states":[{"a":10,"s":3},{"a":46,"s":1},{"a":52,"s":3},{"a":61,"s":3},{"a":64,"s":3},{"a":88,"s":3},{"a":97,"s":3},{"a":172,"s":3},{"a":184,"s":3},{"a":190,"s":1},{"a":211,"s":3},{"a":229,"s":1},{"a":241,"s":3},{"a":262,"s":3},{"a":298,"s":3},{"a":316,"s":3},{"a":322,"s":3},{"a":325,"s":3},{"a":361,"s":1},{"a":367,"s":3},{"a":370,"s":3},{"a":406,"s":3},{"a":421,"s":3},{"a":451,"s":1},{"a":457,"s":3},{"a":460,"s":3},{"a":514,"s":3},{"a":538,"s":3},{"a":547,"s":3},{"a":550,"s":3},{"a":553,"s":3},{"a":583,"s":1}],"waiting":[]},"queue":[],"scheme":"full-map","stats":{"broadcasts_sent":0,"conflicts_queued":0,"deliveries":35,"ejects":1,"memory_reads":33,"memory_writes":2,"mrequests":0,"queue_peak":0,"requests":34,"tlb_hits":0,"tlb_misses":0,"unicasts_sent":35}}"#;

/// Ninety references from three caches over 600 blocks of a 3-module
/// memory: few blocks per page, many pages.
fn spread_run(protocol: ProtocolKind) -> FunctionalSystem {
    let cfg = SystemConfig::with_defaults(3).with_protocol(protocol);
    let mut sys = FunctionalSystem::new(cfg).unwrap();
    let mut x = 0x2468_ace0_1357_9bdf_u64;
    for i in 0..90 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let addr = WordAddr::new(z % 600, 0);
        let op = if z & 0x300 != 0 {
            MemRef::write(addr)
        } else {
            MemRef::read(addr)
        };
        sys.do_ref(CacheId::new(i % 3), op).unwrap();
    }
    sys
}

/// How a table is keyed is not in a checkpoint, so checkpoints cross the
/// commit that changed it in both directions: what this commit writes is
/// byte for byte what its parent wrote for the same state (which the
/// parent restores), and the parent's text restores here to that state.
#[test]
fn checkpoints_cross_the_table_keying_change_both_ways() {
    for (protocol, parent_text) in [
        (ProtocolKind::TwoBit, PARENT_TWO_BIT_M1),
        (ProtocolKind::FullMap, PARENT_FULL_MAP_M1),
    ] {
        let sys = spread_run(protocol);
        let ctrl = &sys.controllers()[1];
        assert_eq!(ctrl.save_state().to_json(), parent_text, "{protocol}");
        let cfg = *sys.config();
        let mut fresh = Controller::new(
            ctrl.module(),
            cfg.address_map,
            build_protocol_for(&cfg),
            cfg.caches,
            cfg.concurrency,
        );
        fresh.restore_state(&parse(parent_text).unwrap()).unwrap();
        assert_eq!(
            fingerprint_controller(&fresh),
            fingerprint_controller(ctrl),
            "{protocol}"
        );
        assert_eq!(fresh.save_state().to_json(), parent_text, "{protocol}");
    }
}
