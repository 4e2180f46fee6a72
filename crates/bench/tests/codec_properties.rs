//! The one place the text codecs are tested: `twobit_obs::json`, the
//! `ToJson`/`FromJson` impls over it (wire frames, checkpoints, JSONL
//! trace events) and the binary `Trace` format.
//!
//! Three kinds of test:
//!
//! * **Frozen text.** Every request/response frame of [`requests`] and
//!   [`responses`], and the mid-transaction controller and agent
//!   checkpoints, must be reproduced byte for byte; the literals were
//!   printed by this file's `request_line`/`response_line`/`save_state`
//!   calls on the commit before the codecs were ported to the traits
//!   (CHANGES.md, PR 14, says how).
//! * **Fixed points.** encode → decode → encode returns the first text,
//!   for every command variant, envelope, control message, event and
//!   trace.
//! * **One statement, two sinks.** For generated envelopes, control
//!   messages, events and checkpoint documents, the text sink writes
//!   what the tree writes, and parsing it gives the tree back.
//! * **Statements in key order.** Every frame and every line the driver
//!   writes is stated with its members in sorted-key order, so the
//!   canonical writer never has to re-sort one on the hot path.
//! * **Two sources, one answer.** Each `FromJson` statement reads the
//!   text through a `json::Reader` and the tree of `json::parse`; for
//!   generated values and for seeded mutations of the frozen text, both
//!   give the same value or the same error.
//! * **Hostile input.** Arbitrary bytes, every prefix of a valid frame
//!   and every single-bit flip of one go to every decoder, which must
//!   answer `Err`/`None` or a value — never panic, never overflow the
//!   stack.

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use twobit_core::{
    build_policy_for, build_protocol_for, CacheAgent, Controller, CtrlEmit, FunctionalSystem,
    MemoryImage, Observer, OwnerSet,
};
use twobit_dist::driver::{DeliveryLine, LivelockLine, RestartLine};
use twobit_dist::node::Node;
use twobit_dist::wire::{
    request_from_line, request_line, response_from_line, response_line, Actor, Envelope,
    NodeConfig, Payload, Request, Response,
};
use twobit_obs::json::{self, FromJson, Json, Reader, Text, ToJson};
use twobit_obs::{ActorId, SimEvent};
use twobit_types::{
    AccessKind, AddressMap, BlockAddr, CacheId, CacheOrg, CacheStats, CacheToMemory, CommandClass,
    ControllerStats, Fingerprinter, GlobalState, LineState, MemRef, MemoryToCache, ModuleId,
    ProtocolKind, SystemConfig, TxnId, Version, WordAddr, WritebackKind,
};
use twobit_workload::Trace;

// ---------------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------------

fn c2m_variants() -> Vec<CacheToMemory> {
    let (k, a, v) = (CacheId::new(3), BlockAddr::new(0x2a), Version::new(7));
    vec![
        CacheToMemory::Request {
            k,
            a,
            rw: AccessKind::Write,
        },
        CacheToMemory::MRequest { k, a, version: v },
        CacheToMemory::Eject {
            k,
            olda: a,
            wb: WritebackKind::Dirty,
        },
        CacheToMemory::PutData {
            from: k,
            a,
            version: v,
        },
        CacheToMemory::WriteThrough { k, a, version: v },
        CacheToMemory::DirectRead { k, a },
    ]
}

fn m2c_variants() -> Vec<MemoryToCache> {
    let (k, a, v) = (CacheId::new(1), BlockAddr::new(1 << 40), Version::new(9));
    vec![
        MemoryToCache::GetData {
            k,
            a,
            version: v,
            exclusive: true,
        },
        MemoryToCache::BroadInv { a, exclude: k },
        MemoryToCache::BroadQuery {
            a,
            rw: AccessKind::Read,
        },
        MemoryToCache::MGranted {
            k,
            a,
            granted: false,
        },
        MemoryToCache::Inv { a, to: k },
        MemoryToCache::Purge {
            a,
            to: k,
            rw: AccessKind::Write,
        },
    ]
}

/// One envelope per payload variant and per command variant.
fn envelopes() -> Vec<Envelope> {
    let mut envs = vec![
        Envelope {
            src: Actor::Client(1),
            dst: Actor::Cache(1),
            payload: Payload::ClientReq {
                txn: TxnId::new(7),
                op: MemRef::write(WordAddr::new(5, 3)),
                sv: Some(Version::new(3)),
            },
        },
        Envelope {
            src: Actor::Client(0),
            dst: Actor::Cache(0),
            payload: Payload::ClientReq {
                txn: TxnId::new(8),
                op: MemRef::read(WordAddr::new(1 << 33, 0)),
                sv: None,
            },
        },
        Envelope {
            src: Actor::Cache(1),
            dst: Actor::Client(1),
            payload: Payload::ClientResp {
                txn: TxnId::new(7),
                observed: Version::new(3),
                was_hit: false,
            },
        },
        Envelope {
            src: Actor::Cache(2),
            dst: Actor::Module(1),
            payload: Payload::InvAck { barrier: 4 },
        },
        Envelope {
            src: Actor::Module(1),
            dst: Actor::Cache(0),
            payload: Payload::WtAck {
                sv: Version::new(8),
            },
        },
    ];
    envs.extend(c2m_variants().into_iter().map(|cmd| Envelope {
        src: Actor::Cache(3),
        dst: Actor::Module(0),
        payload: Payload::ToMemory { cmd },
    }));
    envs.extend(
        m2c_variants()
            .into_iter()
            .enumerate()
            .map(|(i, cmd)| Envelope {
                src: Actor::Module(13),
                dst: Actor::Cache(1),
                payload: Payload::ToCache {
                    cmd,
                    ack: (i % 2 == 0).then_some(40 + i as u64),
                },
            }),
    );
    envs
}

fn node_config() -> NodeConfig {
    NodeConfig {
        role: Actor::Module(0),
        scheme: "two-bit+tlb".into(),
        caches: 4,
        modules: 2,
        sets: 8,
        assoc: 2,
        block_words: 4,
        shared_from: 1 << 32,
        bias_entries: 3,
        tlb_entries: 16,
    }
}

/// A mid-transaction two-bit trio on 4-set caches: cache 0 holds block 5
/// dirty; cache 1, which already read block 9, write-misses on block 5;
/// the controller has queried cache 0 and awaits the supply, and cache
/// 2's request for the same block sits in its conflict queue.
fn mid_transaction() -> (Controller, CacheAgent) {
    let mut cfg = SystemConfig::with_defaults(3).with_protocol(ProtocolKind::TwoBit);
    cfg.cache = CacheOrg::new(4, 2, 4).unwrap();
    let policy = build_policy_for(
        ProtocolKind::TwoBit,
        twobit_core::DEFAULT_STATIC_SHARED_FROM,
    );
    let agent = |k| {
        let mut a = CacheAgent::new(CacheId::new(k), cfg.cache, policy, false);
        a.set_bias_entries(2);
        a
    };
    let (mut a0, mut a1, mut a2) = (agent(0), agent(1), agent(2));
    let mut ctrl = Controller::new(
        ModuleId::new(0),
        AddressMap::interleaved(1),
        build_protocol_for(&cfg),
        3,
        cfg.concurrency,
    );
    // Starts `op` at `agent` and hands what it sends to the controller;
    // the unicast replies, if wanted, go straight back to the agent.
    let mut issue = |agent: &mut CacheAgent, op, v, deliver_replies: bool| {
        let (mut sends, mut emits) = (Vec::new(), Vec::new());
        agent.start(op, Version::new(v), &mut sends);
        for cmd in sends.drain(..) {
            ctrl.submit(cmd, Observer::none(), &mut emits).unwrap();
        }
        for emit in emits.into_iter().filter(|_| deliver_replies) {
            if let CtrlEmit::Unicast { cmd, .. } = emit {
                agent.on_network(cmd, &mut sends).unwrap();
            }
        }
    };
    // Two misses that nobody else holds: request, grant, done.
    let w = MemRef::write(WordAddr::new(5, 0));
    issue(&mut a0, w, 1, true);
    issue(&mut a1, MemRef::read(WordAddr::new(9, 2)), 0, true);
    issue(&mut a1, w, 2, false);
    issue(&mut a2, MemRef::read(WordAddr::new(5, 1)), 0, false);
    assert!(a1.is_stalled() && ctrl.busy() && ctrl.queued() == 1);
    (ctrl, a1)
}

fn requests() -> Vec<Request> {
    let mut reqs = vec![
        Request::Init(Box::new(node_config())),
        Request::Checkpoint,
        Request::Restore {
            state: mid_transaction().0.save_state(),
        },
        Request::Shutdown,
    ];
    reqs.extend(
        envelopes()
            .into_iter()
            .enumerate()
            .map(|(i, env)| Request::Deliver {
                now: 100 + i as u64,
                replay: i % 3 == 0,
                env,
            }),
    );
    reqs
}

fn events() -> Vec<SimEvent> {
    vec![
        SimEvent::new(0, ActorId::Network, BlockAddr::new(0), "noop"),
        SimEvent::new(
            1234,
            ActorId::Module(ModuleId::new(1)),
            BlockAddr::new(0x40),
            "MREQUEST(C3, blk:0x40, v7) \"quoted\\slash\"\ttab\nline \u{1}",
        )
        .class(CommandClass::MRequest)
        .global(GlobalState::PresentStar, GlobalState::PresentM)
        .local(LineState::Clean, LineState::Dirty)
        .txn(TxnId::new(99))
        .useless(true),
        SimEvent::new(5, ActorId::Cache(CacheId::new(0)), BlockAddr::new(1), "é→x")
            .global(GlobalState::Present1, GlobalState::PresentStar),
    ]
}

fn responses() -> Vec<Response> {
    vec![
        Response::InitOk,
        Response::DeliverOk {
            outputs: vec![],
            events: vec![],
        },
        Response::DeliverOk {
            outputs: envelopes(),
            events: events().iter().map(SimEvent::to_jsonl).collect(),
        },
        Response::CheckpointOk {
            state: mid_transaction().1.save_state(),
        },
        Response::RestoreOk,
        Response::ShutdownOk,
        Response::Error {
            msg: "bad request: \"x\"\n".into(),
        },
    ]
}

fn trace() -> Trace {
    let mut t = Trace::new();
    t.push(CacheId::new(0), MemRef::read(WordAddr::new(5, 0)));
    t.push(CacheId::new(3), MemRef::write(WordAddr::new(1 << 40, 0)));
    t.push(
        CacheId::new(65_535),
        MemRef::read(WordAddr::new(u64::MAX, 0)),
    );
    t
}

/// A 128-bit digest of `text`: its length, then its bytes as
/// little-endian words (the scheme of `crates/sim/tests/determinism.rs`).
fn digest(text: &str) -> String {
    let mut f = Fingerprinter::new();
    f.write_usize(text.len());
    for chunk in text.as_bytes().chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        f.write_u64(u64::from_le_bytes(w));
    }
    format!("{:?}", f.finish())
}

/// Agent 0's and controller 0's checkpoint text after 120 references of
/// a sharing-heavy mix on 3 caches with a 2-entry BIAS filter, per
/// scheme (the static scheme gets its private/public split).
fn checkpoint_texts(protocol: ProtocolKind) -> (String, String) {
    let (agent, ctrl) = checkpoints(protocol, 0x1234_5678_9abc_def0, 120);
    (agent.to_json(), ctrl.to_json())
}

/// The two checkpoint documents of [`checkpoint_texts`], for any seed
/// and length of the reference stream.
fn checkpoints(protocol: ProtocolKind, seed: u64, refs: usize) -> (Json, Json) {
    const SHARED_FROM: u64 = 16;
    let mut cfg = SystemConfig::with_defaults(3).with_protocol(protocol);
    cfg.bias_entries = 2;
    let mut sys = FunctionalSystem::with_static_threshold(cfg, SHARED_FROM).unwrap();
    let mut x = seed;
    for i in 0..refs {
        // splitmix64, as in crates/core/tests/checkpoint_roundtrip.rs.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let k = CacheId::new(i % 3);
        let block = if protocol != ProtocolKind::StaticSoftware {
            z % 24
        } else if z & 1 == 0 {
            (k.index() as u64) * 4 + z % 4
        } else {
            SHARED_FROM + z % 8
        };
        let addr = WordAddr::new(block, 0);
        let op = if z & 0x100 != 0 {
            MemRef::write(addr)
        } else {
            MemRef::read(addr)
        };
        sys.do_ref(k, op).unwrap();
    }
    (
        sys.agents()[0].save_state(),
        sys.controllers()[0].save_state(),
    )
}

const ALL_SCHEMES: [ProtocolKind; 6] = [
    ProtocolKind::TwoBit,
    ProtocolKind::TwoBitTlb { entries: 2 },
    ProtocolKind::FullMap,
    ProtocolKind::FullMapLocal,
    ProtocolKind::ClassicalWriteThrough,
    ProtocolKind::StaticSoftware,
];

// ---------------------------------------------------------------------------
// Frozen text, recorded from the parent commit
// ---------------------------------------------------------------------------

/// `request_line` of each of [`requests`], in order.
const REQUEST_FRAMES: [&str; 21] = [
    "{\"config\":{\"assoc\":2,\"bias_entries\":3,\"block_words\":4,\"caches\":4,\"modules\":2,\"role\":\"M0\",\"scheme\":\"two-bit+tlb\",\"sets\":8,\"shared_from\":4294967296,\"tlb_entries\":16},\"t\":\"init\"}",
    "{\"t\":\"checkpoint\"}",
    "{\"state\":{\"awaiting\":[{\"a\":5,\"rw\":\"write\"}],\"eject_announced\":[],\"eject_locked\":[],\"memory\":[],\"module\":0,\"protocol\":{\"states\":[{\"a\":5,\"s\":3},{\"a\":9,\"s\":1}],\"waiting\":[{\"a\":5,\"k\":1,\"w\":true}]},\"queue\":[{\"a\":5,\"k\":2,\"rw\":\"read\",\"t\":\"REQUEST\"}],\"scheme\":\"two-bit\",\"stats\":{\"broadcasts_sent\":1,\"conflicts_queued\":1,\"deliveries\":4,\"ejects\":0,\"memory_reads\":2,\"memory_writes\":0,\"mrequests\":0,\"queue_peak\":1,\"requests\":3,\"tlb_hits\":0,\"tlb_misses\":0,\"unicasts_sent\":2}},\"t\":\"restore\"}",
    "{\"t\":\"shutdown\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"op\":{\"a\":5,\"d\":3,\"rw\":\"write\"},\"sv\":3,\"t\":\"client_req\",\"txn\":7},\"src\":\"L1\"},\"now\":100,\"replay\":true,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C0\",\"payload\":{\"op\":{\"a\":8589934592,\"d\":0,\"rw\":\"read\"},\"sv\":null,\"t\":\"client_req\",\"txn\":8},\"src\":\"L0\"},\"now\":101,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"L1\",\"payload\":{\"hit\":false,\"observed\":3,\"t\":\"client_resp\",\"txn\":7},\"src\":\"C1\"},\"now\":102,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M1\",\"payload\":{\"barrier\":4,\"t\":\"inv_ack\"},\"src\":\"C2\"},\"now\":103,\"replay\":true,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C0\",\"payload\":{\"sv\":8,\"t\":\"wt_ack\"},\"src\":\"M1\"},\"now\":104,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"rw\":\"write\",\"t\":\"REQUEST\"},\"t\":\"to_mem\"},\"src\":\"C3\"},\"now\":105,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"MREQUEST\",\"v\":7},\"t\":\"to_mem\"},\"src\":\"C3\"},\"now\":106,\"replay\":true,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"EJECT\",\"wb\":\"dirty\"},\"t\":\"to_mem\"},\"src\":\"C3\"},\"now\":107,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"PUT\",\"v\":7},\"t\":\"to_mem\"},\"src\":\"C3\"},\"now\":108,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"WRITETHRU\",\"v\":7},\"t\":\"to_mem\"},\"src\":\"C3\"},\"now\":109,\"replay\":true,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"DIRECTREAD\"},\"t\":\"to_mem\"},\"src\":\"C3\"},\"now\":110,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"ack\":40,\"cmd\":{\"a\":1099511627776,\"k\":1,\"t\":\"GET\",\"v\":9,\"x\":true},\"t\":\"to_cache\"},\"src\":\"M13\"},\"now\":111,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"ack\":null,\"cmd\":{\"a\":1099511627776,\"k\":1,\"t\":\"BROADINV\"},\"t\":\"to_cache\"},\"src\":\"M13\"},\"now\":112,\"replay\":true,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"ack\":42,\"cmd\":{\"a\":1099511627776,\"rw\":\"read\",\"t\":\"BROADQUERY\"},\"t\":\"to_cache\"},\"src\":\"M13\"},\"now\":113,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"ack\":null,\"cmd\":{\"a\":1099511627776,\"k\":1,\"t\":\"MGRANTED\",\"y\":false},\"t\":\"to_cache\"},\"src\":\"M13\"},\"now\":114,\"replay\":false,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"ack\":44,\"cmd\":{\"a\":1099511627776,\"k\":1,\"t\":\"INV\"},\"t\":\"to_cache\"},\"src\":\"M13\"},\"now\":115,\"replay\":true,\"t\":\"deliver\"}",
    "{\"env\":{\"dst\":\"C1\",\"payload\":{\"ack\":null,\"cmd\":{\"a\":1099511627776,\"k\":1,\"rw\":\"write\",\"t\":\"PURGE\"},\"t\":\"to_cache\"},\"src\":\"M13\"},\"now\":116,\"replay\":false,\"t\":\"deliver\"}",
];

/// `response_line` of each of [`responses`], in order.
const RESPONSE_FRAMES: [&str; 7] = [
    "{\"t\":\"init_ok\"}",
    "{\"events\":[],\"outputs\":[],\"t\":\"deliver_ok\"}",
    "{\"events\":[\"{\\\"t\\\":0,\\\"actor\\\":\\\"NET\\\",\\\"block\\\":0,\\\"cmd\\\":\\\"noop\\\",\\\"useless\\\":false}\",\"{\\\"t\\\":1234,\\\"actor\\\":\\\"M1\\\",\\\"block\\\":64,\\\"cmd\\\":\\\"MREQUEST(C3, blk:0x40, v7) \\\\\\\"quoted\\\\\\\\slash\\\\\\\"\\\\ttab\\\\nline \\\\u0001\\\",\\\"class\\\":\\\"MREQUEST\\\",\\\"global\\\":\\\"Present*>PresentM\\\",\\\"local\\\":\\\"Clean>Dirty\\\",\\\"txn\\\":99,\\\"useless\\\":true}\",\"{\\\"t\\\":5,\\\"actor\\\":\\\"C0\\\",\\\"block\\\":1,\\\"cmd\\\":\\\"é→x\\\",\\\"global\\\":\\\"Present1>Present*\\\",\\\"useless\\\":false}\"],\"outputs\":[{\"dst\":\"C1\",\"payload\":{\"op\":{\"a\":5,\"d\":3,\"rw\":\"write\"},\"sv\":3,\"t\":\"client_req\",\"txn\":7},\"src\":\"L1\"},{\"dst\":\"C0\",\"payload\":{\"op\":{\"a\":8589934592,\"d\":0,\"rw\":\"read\"},\"sv\":null,\"t\":\"client_req\",\"txn\":8},\"src\":\"L0\"},{\"dst\":\"L1\",\"payload\":{\"hit\":false,\"observed\":3,\"t\":\"client_resp\",\"txn\":7},\"src\":\"C1\"},{\"dst\":\"M1\",\"payload\":{\"barrier\":4,\"t\":\"inv_ack\"},\"src\":\"C2\"},{\"dst\":\"C0\",\"payload\":{\"sv\":8,\"t\":\"wt_ack\"},\"src\":\"M1\"},{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"rw\":\"write\",\"t\":\"REQUEST\"},\"t\":\"to_mem\"},\"src\":\"C3\"},{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"MREQUEST\",\"v\":7},\"t\":\"to_mem\"},\"src\":\"C3\"},{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"EJECT\",\"wb\":\"dirty\"},\"t\":\"to_mem\"},\"src\":\"C3\"},{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"PUT\",\"v\":7},\"t\":\"to_mem\"},\"src\":\"C3\"},{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"WRITETHRU\",\"v\":7},\"t\":\"to_mem\"},\"src\":\"C3\"},{\"dst\":\"M0\",\"payload\":{\"cmd\":{\"a\":42,\"k\":3,\"t\":\"DIRECTREAD\"},\"t\":\"to_mem\"},\"src\":\"C3\"},{\"dst\":\"C1\",\"payload\":{\"ack\":40,\"cmd\":{\"a\":1099511627776,\"k\":1,\"t\":\"GET\",\"v\":9,\"x\":true},\"t\":\"to_cache\"},\"src\":\"M13\"},{\"dst\":\"C1\",\"payload\":{\"ack\":null,\"cmd\":{\"a\":1099511627776,\"k\":1,\"t\":\"BROADINV\"},\"t\":\"to_cache\"},\"src\":\"M13\"},{\"dst\":\"C1\",\"payload\":{\"ack\":42,\"cmd\":{\"a\":1099511627776,\"rw\":\"read\",\"t\":\"BROADQUERY\"},\"t\":\"to_cache\"},\"src\":\"M13\"},{\"dst\":\"C1\",\"payload\":{\"ack\":null,\"cmd\":{\"a\":1099511627776,\"k\":1,\"t\":\"MGRANTED\",\"y\":false},\"t\":\"to_cache\"},\"src\":\"M13\"},{\"dst\":\"C1\",\"payload\":{\"ack\":44,\"cmd\":{\"a\":1099511627776,\"k\":1,\"t\":\"INV\"},\"t\":\"to_cache\"},\"src\":\"M13\"},{\"dst\":\"C1\",\"payload\":{\"ack\":null,\"cmd\":{\"a\":1099511627776,\"k\":1,\"rw\":\"write\",\"t\":\"PURGE\"},\"t\":\"to_cache\"},\"src\":\"M13\"}],\"t\":\"deliver_ok\"}",
    "{\"state\":{\"bias\":{\"capacity\":2,\"cursor\":0,\"entries\":[]},\"cache\":{\"clock\":1,\"lines\":[{\"a\":9,\"ins\":1,\"s\":\"S\",\"slot\":2,\"use\":1,\"v\":0}],\"probes\":5,\"rngs\":[\"0000000000000001\",\"9e3779b97f4a7c15\",\"3c6ef372fe94f82b\",\"daa66d2c7ddf743f\"]},\"id\":1,\"pending\":{\"a\":5,\"kind\":\"write_miss\",\"op\":{\"a\":5,\"d\":0,\"rw\":\"write\"},\"sv\":2},\"stats\":{\"bias_filtered\":0,\"blocks_supplied\":0,\"commands_received\":0,\"effective_commands\":0,\"evictions_clean\":0,\"evictions_dirty\":0,\"invalidated_lines\":0,\"read_hits\":0,\"read_misses\":1,\"reads\":1,\"stolen_cycles\":0,\"tag_probes\":0,\"useless_commands\":0,\"write_hits_clean\":0,\"write_hits_dirty\":0,\"write_misses\":1,\"writes\":1}},\"t\":\"checkpoint_ok\"}",
    "{\"t\":\"restore_ok\"}",
    "{\"t\":\"shutdown_ok\"}",
    "{\"msg\":\"bad request: \\\"x\\\"\\n\",\"t\":\"error\"}",
];

/// `save_state().to_json()` of [`mid_transaction`]'s controller.
const CONTROLLER_CHECKPOINT: &str = "{\"awaiting\":[{\"a\":5,\"rw\":\"write\"}],\"eject_announced\":[],\"eject_locked\":[],\"memory\":[],\"module\":0,\"protocol\":{\"states\":[{\"a\":5,\"s\":3},{\"a\":9,\"s\":1}],\"waiting\":[{\"a\":5,\"k\":1,\"w\":true}]},\"queue\":[{\"a\":5,\"k\":2,\"rw\":\"read\",\"t\":\"REQUEST\"}],\"scheme\":\"two-bit\",\"stats\":{\"broadcasts_sent\":1,\"conflicts_queued\":1,\"deliveries\":4,\"ejects\":0,\"memory_reads\":2,\"memory_writes\":0,\"mrequests\":0,\"queue_peak\":1,\"requests\":3,\"tlb_hits\":0,\"tlb_misses\":0,\"unicasts_sent\":2}}";

/// `save_state().to_json()` of [`mid_transaction`]'s stalled agent.
const AGENT_CHECKPOINT: &str = "{\"bias\":{\"capacity\":2,\"cursor\":0,\"entries\":[]},\"cache\":{\"clock\":1,\"lines\":[{\"a\":9,\"ins\":1,\"s\":\"S\",\"slot\":2,\"use\":1,\"v\":0}],\"probes\":5,\"rngs\":[\"0000000000000001\",\"9e3779b97f4a7c15\",\"3c6ef372fe94f82b\",\"daa66d2c7ddf743f\"]},\"id\":1,\"pending\":{\"a\":5,\"kind\":\"write_miss\",\"op\":{\"a\":5,\"d\":0,\"rw\":\"write\"},\"sv\":2},\"stats\":{\"bias_filtered\":0,\"blocks_supplied\":0,\"commands_received\":0,\"effective_commands\":0,\"evictions_clean\":0,\"evictions_dirty\":0,\"invalidated_lines\":0,\"read_hits\":0,\"read_misses\":1,\"reads\":1,\"stolen_cycles\":0,\"tag_probes\":0,\"useless_commands\":0,\"write_hits_clean\":0,\"write_hits_dirty\":0,\"write_misses\":1,\"writes\":1}}";

/// `to_jsonl` of each of [`events`], in order.
const EVENT_LINES: [&str; 3] = [
    "{\"t\":0,\"actor\":\"NET\",\"block\":0,\"cmd\":\"noop\",\"useless\":false}",
    "{\"t\":1234,\"actor\":\"M1\",\"block\":64,\"cmd\":\"MREQUEST(C3, blk:0x40, v7) \\\"quoted\\\\slash\\\"\\ttab\\nline \\u0001\",\"class\":\"MREQUEST\",\"global\":\"Present*>PresentM\",\"local\":\"Clean>Dirty\",\"txn\":99,\"useless\":true}",
    "{\"t\":5,\"actor\":\"C0\",\"block\":1,\"cmd\":\"é→x\",\"global\":\"Present1>Present*\",\"useless\":false}",
];

/// `encode` of [`trace`].
const TRACE_BYTES: [u8; 44] = [
    1, 0, 84, 73, 66, 79, 87, 84, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 3, 0, 1, 0, 0, 0, 0, 0, 0, 1,
    0, 0, 255, 255, 0, 0, 255, 255, 255, 255, 255, 255, 255, 255,
];

/// [`digest`]s of [`checkpoint_texts`] per scheme: (agent 0, controller 0).
/// The agent digests and the two-bit controller digest are the parent
/// commit's of PR 14; the other five controller digests were regenerated
/// in PR 15, when the directory checkpoint became one document for the
/// one `Directory` (`{states, waiting}` plus `buffer` or `holders`) — for
/// a directory that keeps no identities that is the two-bit text as it
/// was.
const CHECKPOINT_DIGESTS: [(&str, &str); 6] = [
    (
        "336230422959535974094518726298432064963",
        "121136245812924172914406259475387465115",
    ), // two-bit (2232 + 508 bytes)
    (
        "15777109898060804870811450887004838833",
        "146548747760433957787577440370295538174",
    ), // two-bit+tlb(2) (2232 + 649 bytes)
    (
        "89129977443270180655616588621143304587",
        "63653564736708831022499555043966963558",
    ), // full-map (2231 + 676 bytes)
    (
        "75224393987249601674502155518610213914",
        "50931219616528674139453600469242673245",
    ), // full-map+local (2232 + 689 bytes)
    (
        "17988510131017568140411806222755108577",
        "91469672265140299439625969034532692041",
    ), // classical-wt (2078 + 407 bytes)
    (
        "6331553534159124459766072687914126501",
        "303692391326507489656676482160452558850",
    ), // static-sw (1758 + 359 bytes)
];

#[test]
fn wire_and_trace_text_matches_the_parent_commit() {
    let frames: Vec<String> = requests().iter().map(request_line).collect();
    assert_eq!(frames, REQUEST_FRAMES);
    let frames: Vec<String> = responses().iter().map(response_line).collect();
    assert_eq!(frames, RESPONSE_FRAMES);
    let lines: Vec<String> = events().iter().map(SimEvent::to_jsonl).collect();
    assert_eq!(lines, EVENT_LINES);
    assert_eq!(trace().encode(), TRACE_BYTES);
}

#[test]
fn checkpoint_text_matches_the_parent_commit() {
    let (ctrl, agent) = mid_transaction();
    assert_eq!(ctrl.save_state().to_json(), CONTROLLER_CHECKPOINT);
    assert_eq!(agent.save_state().to_json(), AGENT_CHECKPOINT);
    for (protocol, (agent, ctrl)) in ALL_SCHEMES.into_iter().zip(CHECKPOINT_DIGESTS) {
        let (a, c) = checkpoint_texts(protocol);
        assert_eq!(digest(&a), agent, "{protocol}: agent 0 checkpoint");
        assert_eq!(digest(&c), ctrl, "{protocol}: controller 0 checkpoint");
    }
}

// ---------------------------------------------------------------------------
// Fixed points
// ---------------------------------------------------------------------------

/// Value → text → value → text: the value and the text both come back.
fn fixed_point<T: ToJson + FromJson + PartialEq + std::fmt::Debug>(value: &T) {
    let text = value.json().to_json();
    let back = T::from_json(&json::parse(&text).unwrap()).unwrap();
    assert_eq!(&back, value);
    assert_eq!(back.json().to_json(), text);
}

#[test]
fn encode_decode_encode_is_a_fixed_point() {
    c2m_variants().iter().for_each(fixed_point);
    m2c_variants().iter().for_each(fixed_point);
    envelopes().iter().for_each(fixed_point);
    requests().iter().for_each(fixed_point);
    responses().iter().for_each(fixed_point);
    fixed_point(&node_config());
    for r in requests() {
        assert_eq!(request_from_line(&request_line(&r)).unwrap(), r);
    }
    for r in responses() {
        assert_eq!(response_from_line(&response_line(&r)).unwrap(), r);
    }
    for (event, line) in events().iter().zip(EVENT_LINES) {
        let back = SimEvent::from_jsonl(line).unwrap();
        assert_eq!(&back, event);
        assert_eq!(back.to_jsonl(), line);
    }
    let back = Trace::decode(&TRACE_BYTES).unwrap();
    assert_eq!(back, trace());
    assert_eq!(back.encode(), TRACE_BYTES);
}

/// A checkpoint restored from its text writes the same text again.
#[test]
fn restored_checkpoints_write_the_same_text() {
    let cfg = SystemConfig::with_defaults(3).with_protocol(ProtocolKind::TwoBit);
    let mut ctrl = Controller::new(
        ModuleId::new(0),
        AddressMap::interleaved(1),
        build_protocol_for(&cfg),
        3,
        cfg.concurrency,
    );
    ctrl.restore_state(&json::parse(CONTROLLER_CHECKPOINT).unwrap())
        .unwrap();
    assert_eq!(ctrl.save_state().to_json(), CONTROLLER_CHECKPOINT);
    let policy = build_policy_for(
        ProtocolKind::TwoBit,
        twobit_core::DEFAULT_STATIC_SHARED_FROM,
    );
    let org = CacheOrg::new(4, 2, 4).unwrap();
    let mut agent = CacheAgent::new(CacheId::new(1), org, policy, false);
    agent
        .restore_state(&json::parse(AGENT_CHECKPOINT).unwrap())
        .unwrap();
    assert_eq!(agent.save_state().to_json(), AGENT_CHECKPOINT);
}

// ---------------------------------------------------------------------------
// One statement, two sinks
// ---------------------------------------------------------------------------

/// The text sink writes what the tree writes, and the text parses back
/// to the tree.
fn sinks_agree<T: ToJson + ?Sized>(value: &T) {
    let tree = value.json();
    let text = json::to_text(value);
    assert_eq!(text, tree.to_json());
    assert_eq!(json::parse(&text).unwrap(), tree);
}

/// `value`'s statement lists every object's members in sorted-key order:
/// written as stated, it is already the canonical text.
fn stated_in_key_order<T: ToJson + ?Sized>(value: &T) {
    assert_eq!(Text::new().write(value), value.json().to_json());
}

/// Builds values out of drawn words: every field from the stream, the
/// variant from the stream too.
struct Draw(std::vec::IntoIter<u64>);

impl Draw {
    fn word(&mut self) -> u64 {
        self.0.next().unwrap_or(0)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.word() % n as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.word() & 1 == 1
    }

    fn cache(&mut self) -> CacheId {
        CacheId::new(self.pick(1 << 16))
    }

    fn block(&mut self) -> BlockAddr {
        BlockAddr::new(self.word())
    }

    fn version(&mut self) -> Version {
        Version::new(self.word())
    }

    fn rw(&mut self) -> AccessKind {
        [AccessKind::Read, AccessKind::Write][self.pick(2)]
    }

    fn actor(&mut self) -> Actor {
        let n = self.word() as usize;
        [Actor::Cache(n), Actor::Module(n), Actor::Client(n)][self.pick(3)]
    }

    /// Text with everything the escaper rewrites in it.
    fn text(&mut self) -> String {
        const PIECES: [&str; 8] = [
            "deliver ", "\"", "\\", "\n", "\t\r", "\u{1}", "é→", "GET(C3)",
        ];
        (0..self.pick(6)).map(|_| PIECES[self.pick(8)]).collect()
    }

    fn c2m(&mut self) -> CacheToMemory {
        let (k, a, version) = (self.cache(), self.block(), self.version());
        match self.pick(6) {
            0 => CacheToMemory::Request {
                k,
                a,
                rw: self.rw(),
            },
            1 => CacheToMemory::MRequest { k, a, version },
            2 => CacheToMemory::Eject {
                k,
                olda: a,
                wb: [WritebackKind::Clean, WritebackKind::Dirty][self.pick(2)],
            },
            3 => CacheToMemory::PutData {
                from: k,
                a,
                version,
            },
            4 => CacheToMemory::WriteThrough { k, a, version },
            _ => CacheToMemory::DirectRead { k, a },
        }
    }

    fn m2c(&mut self) -> MemoryToCache {
        let (k, a) = (self.cache(), self.block());
        match self.pick(6) {
            0 => MemoryToCache::GetData {
                k,
                a,
                version: self.version(),
                exclusive: self.flag(),
            },
            1 => MemoryToCache::BroadInv { a, exclude: k },
            2 => MemoryToCache::BroadQuery { a, rw: self.rw() },
            3 => MemoryToCache::MGranted {
                k,
                a,
                granted: self.flag(),
            },
            4 => MemoryToCache::Inv { a, to: k },
            _ => MemoryToCache::Purge {
                a,
                to: k,
                rw: self.rw(),
            },
        }
    }

    fn envelope(&mut self) -> Envelope {
        let payload = match self.pick(6) {
            0 => Payload::ClientReq {
                txn: TxnId::new(self.word()),
                op: MemRef {
                    addr: WordAddr::new(self.word(), self.word() as u16),
                    kind: self.rw(),
                },
                sv: self.flag().then(|| self.version()),
            },
            1 => Payload::ClientResp {
                txn: TxnId::new(self.word()),
                observed: self.version(),
                was_hit: self.flag(),
            },
            2 => Payload::ToMemory { cmd: self.c2m() },
            3 => Payload::ToCache {
                cmd: self.m2c(),
                ack: self.flag().then(|| self.word()),
            },
            4 => Payload::InvAck {
                barrier: self.word(),
            },
            _ => Payload::WtAck { sv: self.version() },
        };
        Envelope {
            src: self.actor(),
            dst: self.actor(),
            payload,
        }
    }

    fn event(&mut self) -> SimEvent {
        let actor = match self.pick(3) {
            0 => ActorId::Cache(self.cache()),
            1 => ActorId::Module(ModuleId::new(self.pick(1 << 16))),
            _ => ActorId::Network,
        };
        let mut e = SimEvent::new(self.word(), actor, self.block(), self.text());
        if self.flag() {
            e = e.class(CommandClass::ALL[self.pick(12)]);
        }
        if self.flag() {
            e = e.global(
                GlobalState::ALL[self.pick(4)],
                GlobalState::ALL[self.pick(4)],
            );
        }
        if self.flag() {
            const LINE: [LineState; 3] = [LineState::Invalid, LineState::Clean, LineState::Dirty];
            e = e.local(LINE[self.pick(3)], LINE[self.pick(3)]);
        }
        if self.flag() {
            e = e.txn(TxnId::new(self.word()));
        }
        e.useless(self.flag())
    }

    fn checkpoint(&mut self) -> Json {
        let protocol = ALL_SCHEMES[self.pick(6)];
        let (agent, ctrl) = checkpoints(protocol, self.word(), self.pick(60));
        if self.flag() {
            agent
        } else {
            ctrl
        }
    }

    fn request(&mut self) -> Request {
        match self.pick(5) {
            0 => Request::Init(Box::new(NodeConfig {
                role: self.actor(),
                scheme: self.text(),
                caches: self.word() as usize,
                modules: self.word() as usize,
                sets: self.word() as u32,
                assoc: self.word() as u32,
                block_words: self.word() as u32,
                shared_from: self.word(),
                bias_entries: self.word() as u32,
                tlb_entries: self.word() as u32,
            })),
            1 => Request::Deliver {
                now: self.word(),
                replay: self.flag(),
                env: self.envelope(),
            },
            2 => Request::Checkpoint,
            3 => Request::Restore {
                state: self.checkpoint(),
            },
            _ => Request::Shutdown,
        }
    }

    fn response(&mut self) -> Response {
        match self.pick(6) {
            0 => Response::InitOk,
            1 => Response::DeliverOk {
                outputs: (0..self.pick(4)).map(|_| self.envelope()).collect(),
                events: (0..self.pick(3)).map(|_| self.event().to_jsonl()).collect(),
            },
            2 => Response::CheckpointOk {
                state: self.checkpoint(),
            },
            3 => Response::RestoreOk,
            4 => Response::ShutdownOk,
            _ => Response::Error { msg: self.text() },
        }
    }
}

proptest! {
    /// Words of every magnitude — small ids, 32-bit edges, values past
    /// what a double holds — so the sinks are compared on each number
    /// path.
    #[test]
    fn the_text_sink_writes_what_the_tree_writes(
        words in prop::collection::vec(
            prop_oneof![any::<u64>(), 0u64..70_000, (1u64 << 53) - 2..(1u64 << 53) + 2],
            128..129,
        ),
    ) {
        let mut d = Draw(words.into_iter());
        let env = d.envelope();
        sinks_agree(&env);
        stated_in_key_order(&env);
        let request = d.request();
        sinks_agree(&request);
        stated_in_key_order(&request);
        let response = d.response();
        sinks_agree(&response);
        stated_in_key_order(&response);
        sinks_agree(&d.checkpoint());
        // An event has its own stated order, which is the JSONL line: the
        // same members as the tree, so compared by parsed value; and the
        // line reads back.
        let event = d.event();
        let line = event.to_jsonl();
        prop_assert_eq!(json::parse(&line).unwrap(), event.json());
        // Beyond 2^53 a number in the line is no longer the field's.
        let exact = |n: u64| n < 1 << 53;
        if exact(event.t) && exact(event.block.number()) && event.txn.is_none_or(|t| exact(t.raw())) {
            prop_assert_eq!(SimEvent::from_jsonl(&line), Some(event));
        }
        // The driver's own lines, from words the values above left over.
        let t = d.word();
        stated_in_key_order(&DeliveryLine { t, env: &env });
        stated_in_key_order(&RestartLine { t, node: d.actor() });
        let done: Vec<usize> = (0..d.pick(5)).map(|_| d.word() as usize).collect();
        stated_in_key_order(&LivelockLine { t, events: d.word(), done: &done });
    }
}

// ---------------------------------------------------------------------------
// Two sources, one answer
// ---------------------------------------------------------------------------

/// What `reader` makes of `text` is what the tree decoder makes of
/// `parse(text)`: the same value, or the same error. Returns whether it
/// was a value.
fn sources_agree<T: FromJson + PartialEq + std::fmt::Debug>(
    reader: &mut Reader,
    text: &str,
) -> bool {
    let from_tree = json::parse(text).and_then(|j| T::from_json(&j));
    let from_text = reader.read::<T>(text);
    assert_eq!(from_text, from_tree, "{text:?}");
    from_text.is_ok()
}

proptest! {
    #[test]
    fn the_text_decoder_reads_what_the_tree_decoder_reads(
        words in prop::collection::vec(
            prop_oneof![any::<u64>(), 0u64..70_000, (1u64 << 53) - 2..(1u64 << 53) + 2],
            128..129,
        ),
    ) {
        let mut d = Draw(words.into_iter());
        let mut reader = Reader::default();
        sources_agree::<Envelope>(&mut reader, &json::to_text(&d.envelope()));
        sources_agree::<Request>(&mut reader, &request_line(&d.request()));
        sources_agree::<Response>(&mut reader, &response_line(&d.response()));
        sources_agree::<SimEvent>(&mut reader, &d.event().to_jsonl());
    }
}

/// Every text decoder, from text and from the tree, on one text; the
/// number that accepted it.
fn all_sources_agree(reader: &mut Reader, text: &str) -> usize {
    [
        sources_agree::<Request>(reader, text),
        sources_agree::<Response>(reader, text),
        sources_agree::<SimEvent>(reader, text),
        sources_agree::<Envelope>(reader, text),
        sources_agree::<Payload>(reader, text),
        sources_agree::<NodeConfig>(reader, text),
        sources_agree::<CacheToMemory>(reader, text),
        sources_agree::<MemoryToCache>(reader, text),
        sources_agree::<MemRef>(reader, text),
        sources_agree::<CacheStats>(reader, text),
        sources_agree::<ControllerStats>(reader, text),
        sources_agree::<MemoryImage>(reader, text),
        sources_agree::<OwnerSet>(reader, text),
        sources_agree::<Vec<Option<u64>>>(reader, text),
        sources_agree::<String>(reader, text),
    ]
    .into_iter()
    .filter(|&ok| ok)
    .count()
}

/// splitmix64: the mutation loop's one stream.
struct Mix(u64);

impl Mix {
    fn word(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.word() % n.max(1) as u64) as usize
    }

    /// A char boundary of `s`, `s.len()` included.
    fn cut(&mut self, s: &str) -> usize {
        let mut at = self.pick(s.len() + 1);
        while !s.is_char_boundary(at) {
            at -= 1;
        }
        at
    }
}

/// The numbers at the edges of what a field holds.
const EDGE_NUMBERS: [&str; 8] = [
    "9007199254740992",
    "9007199254740991",
    "-1",
    "18446744073709551615",
    "0",
    "4294967296",
    "65536",
    "1.5",
];

/// `j` as text, every object's members in a drawn order; with `dup`,
/// one object in three also repeats one of its keys, with another value,
/// before or after the member it repeats.
fn shuffled(j: &Json, mix: &mut Mix, dup: bool, out: &mut String) {
    match j {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                shuffled(item, mix, dup, out);
            }
            out.push(']');
        }
        Json::Obj(map) => {
            let mut members: Vec<(&String, Json)> =
                map.iter().map(|(k, v)| (k, v.clone())).collect();
            for i in (1..members.len()).rev() {
                members.swap(i, mix.pick(i + 1));
            }
            if dup && !members.is_empty() && mix.pick(3) == 0 {
                let i = mix.pick(members.len());
                let other = match &members[i].1 {
                    Json::Num(n) => Json::Num(n + 1.0),
                    Json::Str(s) => Json::Str(format!("{s}x")),
                    Json::Bool(b) => Json::Bool(!b),
                    Json::Null => Json::Num(0.0),
                    _ => Json::Null,
                };
                let at = i + mix.pick(2);
                members.insert(at, (members[i].0, other));
            }
            out.push('{');
            for (i, (k, v)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_string(out, k);
                out.push(':');
                shuffled(v, mix, dup, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_json()),
    }
}

/// How deep `j` nests arrays and objects.
fn depth(j: &Json) -> usize {
    match j {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(map) => 1 + map.values().map(depth).max().unwrap_or(0),
        _ => 0,
    }
}

/// A drawn value somewhere inside `j`.
fn inner<'j>(j: &'j Json, mix: &mut Mix) -> &'j Json {
    let children: Vec<&Json> = match j {
        Json::Arr(items) => items.iter().collect(),
        Json::Obj(map) => map.values().collect(),
        _ => Vec::new(),
    };
    if children.is_empty() || mix.pick(3) == 0 {
        j
    } else {
        let child = children[mix.pick(children.len())];
        inner(child, mix)
    }
}

/// One drawn mutation of a drawn corpus entry.
fn mutate(corpus: &[String], mix: &mut Mix) -> String {
    let text = &corpus[mix.pick(corpus.len())];
    let tree = json::parse(text).ok();
    match (mix.pick(8), tree) {
        (0, _) => {
            let mut bytes = text.clone().into_bytes();
            let at = mix.pick(bytes.len());
            bytes[at] ^= 1 << mix.pick(8);
            String::from_utf8_lossy(&bytes).into_owned()
        }
        (1, _) => text[..mix.cut(text)].to_owned(),
        (2, _) => {
            let other = &corpus[mix.pick(corpus.len())];
            format!("{}{}", &text[..mix.cut(text)], &other[mix.cut(other)..])
        }
        (3, Some(tree)) => {
            let mut out = String::new();
            shuffled(&tree, mix, false, &mut out);
            out
        }
        (4, Some(tree)) => {
            let mut out = String::new();
            shuffled(&tree, mix, true, &mut out);
            out
        }
        (5, _) => {
            let runs: Vec<(usize, usize)> = text
                .match_indices(|c: char| c.is_ascii_digit())
                .map(|(i, _)| i)
                .filter(|&i| i == 0 || !text.as_bytes()[i - 1].is_ascii_digit())
                .map(|i| {
                    (
                        i,
                        i + text[i..].bytes().take_while(u8::is_ascii_digit).count(),
                    )
                })
                .collect();
            let Some(&(start, end)) = runs.get(mix.pick(runs.len())) else {
                return text.clone();
            };
            let edge = EDGE_NUMBERS[mix.pick(EDGE_NUMBERS.len())];
            format!("{}{edge}{}", &text[..start], &text[end..])
        }
        (6, tree) => {
            // Nested to 63, 64 or 65 levels in all.
            let within = tree.as_ref().map_or(0, depth);
            let wrap = (63 + mix.pick(3)).saturating_sub(within);
            format!("{}{text}{}", "[".repeat(wrap), "]".repeat(wrap))
        }
        (_, Some(tree)) => inner(&tree, mix).to_json(),
        (_, None) => text.clone(),
    }
}

/// The frozen frames, lines and checkpoints, and the checkpoint texts of
/// every scheme.
fn corpus() -> Vec<String> {
    every_frame()
        .map(str::to_owned)
        .chain(ALL_SCHEMES.into_iter().flat_map(|p| {
            let (agent, ctrl) = checkpoint_texts(p);
            [agent, ctrl]
        }))
        .collect()
}

/// A seeded mutation fuzzer over every text decoder: byte flips,
/// truncations, splices, reordered members, repeated keys, numbers at
/// the edges, nesting at the depth bound, and values cut out of their
/// documents. The reader and the tree must accept the same texts with
/// equal values and refuse the same texts with equal errors, and no text
/// may panic either.
#[test]
fn mutated_text_decodes_alike_from_text_and_tree() {
    const SEED: u64 = 0x2b17_0d3c_0de5;
    const ROUNDS: usize = 4_000;
    let corpus = corpus();
    let mut mix = Mix(SEED);
    // One reader for every text, as a node and the driver keep one.
    let mut reader = Reader::default();
    let (mut accepted, mut texts_accepted) = (0, 0);
    for round in 0..ROUNDS {
        let text = mutate(&corpus, &mut mix);
        let decoded = catch_unwind(AssertUnwindSafe(|| all_sources_agree(&mut reader, &text)))
            .unwrap_or_else(|_| panic!("round {round}: {text:?}"));
        accepted += decoded;
        texts_accepted += usize::from(decoded > 0);
    }
    println!("{ROUNDS} mutants: {texts_accepted} accepted by some decoder, {accepted} decodes");
    // The mutations keep enough texts valid that values, not only
    // errors, are compared.
    assert!(texts_accepted > ROUNDS / 4, "{texts_accepted} of {ROUNDS}");
}

// ---------------------------------------------------------------------------
// Hostile input
// ---------------------------------------------------------------------------

/// Hands `text` to every text decoder. What one accepts must survive its
/// own round trip; nothing may panic.
fn decode_everything(text: &str) {
    if let Ok(j) = json::parse(text) {
        assert_eq!(json::parse(&j.to_json()).unwrap(), j, "{text:?}");
    }
    if let Ok(r) = request_from_line(text) {
        assert_eq!(request_from_line(&request_line(&r)).unwrap(), r, "{text:?}");
    }
    if let Ok(r) = response_from_line(text) {
        assert_eq!(
            response_from_line(&response_line(&r)).unwrap(),
            r,
            "{text:?}"
        );
    }
    if let Some(e) = SimEvent::from_jsonl(text) {
        assert_eq!(SimEvent::from_jsonl(&e.to_jsonl()), Some(e), "{text:?}");
    }
}

fn every_frame() -> impl Iterator<Item = &'static str> {
    REQUEST_FRAMES
        .into_iter()
        .chain(RESPONSE_FRAMES)
        .chain(EVENT_LINES)
        .chain([CONTROLLER_CHECKPOINT, AGENT_CHECKPOINT])
}

#[test]
fn every_truncation_is_refused() {
    for frame in every_frame() {
        for cut in (0..frame.len()).filter(|&i| frame.is_char_boundary(i)) {
            let prefix = &frame[..cut];
            assert!(json::parse(prefix).is_err(), "{prefix:?}");
            assert!(request_from_line(prefix).is_err(), "{prefix:?}");
            assert!(response_from_line(prefix).is_err(), "{prefix:?}");
            assert!(SimEvent::from_jsonl(prefix).is_none(), "{prefix:?}");
        }
    }
    for cut in 0..TRACE_BYTES.len() {
        // A cut on a record boundary is a shorter trace, not a torn one.
        let whole_records = cut >= 8 && (cut - 8) % 12 == 0;
        assert_eq!(Trace::decode(&TRACE_BYTES[..cut]).is_ok(), whole_records);
    }
}

#[test]
fn every_single_bit_flip_is_survived() {
    for frame in every_frame() {
        let mut bytes = frame.as_bytes().to_vec();
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            // The transports refuse a frame that is not UTF-8 before any
            // decoder sees it.
            if let Ok(text) = std::str::from_utf8(&bytes) {
                decode_everything(text);
            }
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }
    let mut bytes = TRACE_BYTES;
    for bit in 0..bytes.len() * 8 {
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Unused flag bits are dropped, so compare values, not bytes.
        if let Ok(t) = Trace::decode(&bytes) {
            assert_eq!(Trace::decode(&t.encode()).unwrap(), t);
        }
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

/// The characters JSON is made of, so that random soup gets past the
/// first byte of the parser far more often than random bytes do.
const JSON_ALPHABET: &[u8] = b"[]{}\",:\\ 0123456789.-+eEtrufalsn\tx";

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        soup in prop::collection::vec(0..JSON_ALPHABET.len(), 0..96),
    ) {
        let _ = Trace::decode(&bytes);
        decode_everything(&String::from_utf8_lossy(&bytes));
        let soup: Vec<u8> = soup.into_iter().map(|i| JSON_ALPHABET[i]).collect();
        decode_everything(std::str::from_utf8(&soup).unwrap());
    }

    /// A frame whose numbers are replaced by arbitrary ones decodes to a
    /// value holding exactly those numbers, or is refused: a number never
    /// wraps into a narrower field.
    #[test]
    fn out_of_range_numbers_are_refused_not_wrapped(
        n in prop_oneof![any::<u64>(), 0u64..70_000, (1u64 << 32) - 2..(1u64 << 32) + 2],
    ) {
        let exact = n < 1 << 53;
        let config = request_line(&Request::Init(Box::new(node_config())));
        let init = request_from_line(&config.replace("\"sets\":8", &format!("\"sets\":{n}")));
        match init {
            Ok(Request::Init(c)) => prop_assert_eq!(u64::from(c.sets), n),
            Ok(other) => panic!("init decoded as {other:?}"),
            Err(_) => prop_assert!(n > u64::from(u32::MAX)),
        }
        let op = json::parse(&format!("{{\"a\":{n},\"d\":{n},\"rw\":\"read\"}}")).unwrap();
        match MemRef::from_json(&op) {
            Ok(op) => prop_assert_eq!((op.addr.block.number(), u64::from(op.addr.offset)), (n, n)),
            Err(_) => prop_assert!(n > u64::from(u16::MAX)),
        }
        let id = json::parse(&n.to_string()).unwrap();
        prop_assert_eq!(CacheId::from_json(&id).is_ok(), n <= u64::from(u16::MAX));
        prop_assert_eq!(BlockAddr::from_json(&id).is_ok(), exact);
        let event = format!("{{\"t\":{n},\"actor\":\"C{n}\",\"block\":1,\"cmd\":\"x\",\"useless\":false}}");
        prop_assert_eq!(SimEvent::from_jsonl(&event).is_some(), n <= u64::from(u16::MAX));
    }
}

/// The two defects ISSUE 14 shows, at the library boundary.
#[test]
fn deep_nesting_and_wide_numbers_are_typed_errors() {
    // 2 MB of `[` used to overflow the stack of whatever parsed it.
    let deep = "[".repeat(2_000_000);
    assert!(json::parse(&deep).unwrap_err().contains("nested deeper"));
    assert!(request_from_line(&deep).is_err());
    assert!(response_from_line(&deep).is_err());
    assert!(SimEvent::from_jsonl(&deep).is_none());
    let at_limit = "[".repeat(json::MAX_DEPTH) + &"]".repeat(json::MAX_DEPTH);
    assert!(json::parse(&at_limit).is_ok());
    assert!(json::parse(&format!("[{at_limit}]")).is_err());

    // `"sets":4294967297` used to be accepted as `sets = 1`.
    let init = REQUEST_FRAMES[0].replace("\"sets\":8", "\"sets\":4294967297");
    assert!(request_from_line(&init).unwrap_err().contains("\"sets\""));
    // Word offset 65536 used to decode as offset 0.
    let op = json::parse(r#"{"a":1,"d":65536,"rw":"read"}"#).unwrap();
    assert!(MemRef::from_json(&op).is_err());
    // And a node refuses a configuration it cannot build, instead of
    // panicking on it.
    for (old, new) in [
        ("\"modules\":2", "\"modules\":0"),
        ("\"modules\":2", "\"modules\":70000"),
        ("\"caches\":4", "\"caches\":70000"),
    ] {
        let Ok(Request::Init(config)) = request_from_line(&REQUEST_FRAMES[0].replace(old, new))
        else {
            panic!("{new} should decode");
        };
        assert!(Node::new(&config).is_err(), "{new}");
    }
}
