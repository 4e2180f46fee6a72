//! The real `dist_node` binary against the frames that used to take it
//! down or fool it: a 2 MB run of `[`, which overflowed the parser's
//! stack (SIGABRT), and an `init` whose `sets` does not fit 32 bits, which
//! wrapped to 1 and was answered `init_ok` (ISSUE 14); then two `init`s
//! whose cache organization sized the tag-store allocation unchecked
//! (ISSUE 15) — 2^31 sets × (2^32 − 1) ways died with `capacity overflow`,
//! 2^31 sets × 1 way aborted on allocation failure. Each must now get an
//! error reply, and the node must keep serving afterwards. Last, client
//! requests whose transaction ids are repeated, stale or early (ISSUE 21):
//! none is executed twice, only the early one is an error. And well-formed
//! commands a node's table declares no rule for (ISSUE 23): an `error`
//! reply from either interpreter, where the memory node used to exit 101
//! — and a command for a block another module owns (ISSUE 24), which a
//! memory node used to serve as if the block were its own. The binary is
//! driven as the fleet runs it, `dist_node --tcp ADDR` dialing a local
//! listener; run with no address it must refuse to start.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener};
use std::process::Command;
use std::time::Duration;

use twobit_dist::node::Node;
use twobit_dist::wire::{
    request_line, response_from_line, response_line, Actor, Envelope, NodeConfig, Payload, Request,
    Response,
};
use twobit_interconnect::transport::tcp_accept;
use twobit_types::{
    AccessKind, BlockAddr, CacheId, CacheToMemory, MemRef, MemoryToCache, TxnId, Version, WordAddr,
};

#[test]
fn hostile_frames_get_error_replies_from_the_binary() {
    let good = request_line(&Request::Init(Box::new(NodeConfig {
        role: Actor::Cache(0),
        scheme: "two-bit".into(),
        caches: 2,
        modules: 1,
        sets: 8,
        assoc: 2,
        block_words: 4,
        shared_from: 1 << 32,
        bias_entries: 0,
        tlb_entries: 0,
    })));
    let wide = good.replace("\"sets\":8", "\"sets\":4294967297");
    assert_ne!(wide, good);
    let overflowing = good
        .replace("\"sets\":8", "\"sets\":2147483648")
        .replace("\"assoc\":2", "\"assoc\":4294967295");
    let huge = overflowing.replace("\"assoc\":4294967295", "\"assoc\":1");
    assert!(overflowing != good && huge != overflowing);
    let frames = [
        "[".repeat(2_000_000),
        wide,
        overflowing,
        huge,
        good,
        request_line(&Request::Shutdown),
    ];

    let replies: Vec<Response> = replies_of(&frames)
        .iter()
        .map(|line| response_from_line(line).expect("a response frame"))
        .collect();
    match replies.as_slice() {
        [Response::Error { msg: deep }, Response::Error { msg: wide }, Response::Error { msg: overflowing }, Response::Error { msg: huge }, Response::InitOk, Response::ShutdownOk] =>
        {
            assert!(deep.contains("nested deeper"), "{deep}");
            assert!(wide.contains("\"sets\""), "{wide}");
            for msg in [overflowing, huge] {
                assert!(msg.contains("bad cache organization"), "{msg}");
            }
        }
        other => panic!("unexpected replies: {other:?}"),
    }
}

/// Writes `frames` to a fresh `dist_node --tcp` dialing a local
/// listener, ends the connection's write half and returns the node's
/// reply lines.
fn replies_of(frames: &[String]) -> Vec<String> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dist_node"))
        .arg("--tcp")
        .arg(listener.local_addr().expect("addr").to_string())
        .spawn()
        .expect("spawn dist_node");
    let mut stream = tcp_accept(&listener, Duration::from_secs(10)).expect("the node dials back");
    let mut bytes = Vec::new();
    for frame in frames {
        writeln!(bytes, "{frame}").expect("write frame");
    }
    // The node answers while it reads, and its replies are short lines
    // that the socket buffers hold, so writing everything first cannot
    // deadlock.
    stream.write_all(&bytes).expect("write frames");
    stream.shutdown(Shutdown::Write).expect("end the requests");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("UTF-8 replies");
    let status = child.wait().expect("wait for dist_node");
    assert!(status.success(), "dist_node exited with {status}");
    text.lines().map(str::to_string).collect()
}

/// Run with no argument, the node serves nothing: it names the one way
/// to run it and fails.
#[test]
fn without_an_address_the_binary_prints_its_usage_and_fails() {
    let out = Command::new(env!("CARGO_BIN_EXE_dist_node"))
        .output()
        .expect("run dist_node");
    assert!(
        !out.status.success(),
        "dist_node exited with {}",
        out.status
    );
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
    assert!(stderr.contains("--tcp ADDR"), "{stderr}");
}

/// A client that repeats, reorders or runs ahead of its transaction ids.
/// What a cache node does with each is decided in-process first (the node
/// is deterministic); the binary must answer the same frames with the
/// same bytes.
#[test]
fn repeated_stale_and_early_transaction_ids_are_never_executed_twice() {
    let mut cfg = NodeConfig {
        role: Actor::Cache(0),
        scheme: "two-bit".into(),
        caches: 2,
        modules: 1,
        sets: 8,
        assoc: 2,
        block_words: 4,
        shared_from: 1 << 32,
        bias_entries: 0,
        tlb_entries: 0,
    };
    let init = Request::Init(Box::new(cfg.clone()));
    let mut cache = Node::new(&cfg).unwrap();
    cfg.role = Actor::Module(0);
    let mut module = Node::new(&cfg).unwrap();

    let deliver = |env: Envelope| Request::Deliver {
        now: 0,
        replay: false,
        env,
    };
    let read = |txn, block| {
        deliver(Envelope {
            src: Actor::Client(0),
            dst: Actor::Cache(0),
            payload: Payload::ClientReq {
                txn: TxnId::new(txn),
                op: MemRef::read(WordAddr::new(block, 0)),
                sv: None,
            },
        })
    };
    let outputs = |resp: Response| match resp {
        Response::DeliverOk { outputs, .. } => outputs,
        other => panic!("unexpected response: {other:?}"),
    };

    // Each request goes to the in-process node now and to the binary
    // afterwards.
    let mut frames = vec![request_line(&init)];
    let mut expected = vec![response_line(&Response::InitOk)];
    let mut step = |req: Request| {
        let resp = cache.handle(&req);
        frames.push(request_line(&req));
        expected.push(response_line(&resp));
        resp
    };
    // Transaction 5 misses; memory's grant completes it.
    let to_mem = outputs(step(read(5, 4)));
    let grant = outputs(module.handle(&deliver(to_mem[0].clone())));
    for req in [
        deliver(grant[0].clone()),
        Request::Checkpoint, // 2: idle, 5 recorded
        read(5, 4),          // 3: duplicate of the last completed: replayed
        read(3, 9),          // 4: below the floor, idle: dropped
        Request::Checkpoint, // 5
        read(8, 6),          // 6: new: a miss
        Request::Checkpoint, // 7: busy with 8
        read(8, 6),          // 8: duplicate of the in-flight one: dropped
        read(2, 9),          // 9: below the floor, busy: dropped
        read(7, 9),          // 10: never seen, still below the floor: dropped
        Request::Checkpoint, // 11
        read(9, 9),          // 12: above the floor while busy: an error
        Request::Checkpoint, // 13
        Request::Shutdown,
    ] {
        step(req);
    }
    let got = replies_of(&frames);
    assert_eq!(got, expected);

    // And what those bytes say.
    let reply = |i: usize| response_from_line(&got[i + 1]).expect("a response frame");
    let resp_5 = outputs(reply(1));
    assert!(matches!(resp_5[0].payload, Payload::ClientResp { txn, .. } if txn.raw() == 5));
    assert_eq!(outputs(reply(3)), resp_5, "replayed, nothing to memory");
    for dropped in [4, 8, 9, 10] {
        assert!(outputs(reply(dropped)).is_empty(), "request {dropped}");
    }
    assert_eq!(got[2 + 1], got[5 + 1], "no state change while idle");
    assert_eq!(got[7 + 1], got[11 + 1], "no state change while busy");
    match reply(12) {
        Response::Error { msg } => assert_eq!(msg, "C0: new txn 9 while 8 in flight"),
        other => panic!("unexpected response: {other:?}"),
    }
    assert_eq!(
        got[7 + 1],
        got[13 + 1],
        "the refused request changed nothing"
    );
}

fn two_bit(role: Actor, modules: usize) -> String {
    request_line(&Request::Init(Box::new(NodeConfig {
        role,
        scheme: "two-bit".into(),
        caches: 4,
        modules,
        sets: 8,
        assoc: 2,
        block_words: 4,
        shared_from: 1 << 32,
        bias_entries: 0,
        tlb_entries: 0,
    })))
}

fn error_of(reply: &str) -> String {
    match response_from_line(reply).expect("a response frame") {
        Response::Error { msg } => msg,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

/// A well-formed command the scheme's table declares no event for
/// (ISSUE 23): one `WRITETHRU` frame at a two-bit memory node used to
/// kill the process — `Directory::fire` panicked, exit 101, no reply. It
/// is now a typed protocol error: an `error` reply naming scheme, event
/// and state, and the node keeps serving.
#[test]
fn an_undeclared_event_is_an_error_reply_not_a_crash() {
    let writethru = r#"{"env":{"dst":"M0","payload":{"cmd":{"a":42,"k":3,"t":"WRITETHRU","v":7},"t":"to_mem"},"src":"C3"},"now":109,"replay":false,"t":"deliver"}"#;
    let checkpoint = request_line(&Request::Checkpoint);
    let got = replies_of(&[
        two_bit(Actor::Module(0), 1),
        checkpoint.clone(),
        writethru.to_string(),
        checkpoint,
        request_line(&Request::Shutdown),
    ]);
    assert_eq!(got.len(), 5, "{got:?}");
    assert_eq!(got[0], response_line(&Response::InitOk));
    assert_eq!(
        error_of(&got[2]),
        "M0: unexpected command write-through(C3, blk:0x2a) in state two-bit: the table \
         declares no write-through in Absent"
    );
    assert_eq!(got[1], got[3], "the refused command changed nothing");
    assert_eq!(got[4], response_line(&Response::ShutdownOk));
}

/// A well-formed `REQUEST` for a block of another module (ISSUE 24): `M0`
/// of four owns the blocks `n ≡ 0 (mod 4)`, and cache nodes route by the
/// same rule, so block 5 at `M0` is a misrouting peer. It used to open a
/// transaction — two modules could both "own" the block; it is refused
/// with a typed error naming module and block before any table is
/// touched.
#[test]
fn a_command_for_another_modules_block_is_refused_not_served() {
    let request = |block| {
        request_line(&Request::Deliver {
            now: 3,
            replay: false,
            env: Envelope {
                src: Actor::Cache(1),
                dst: Actor::Module(0),
                payload: Payload::ToMemory {
                    cmd: CacheToMemory::Request {
                        k: CacheId::new(1),
                        a: BlockAddr::new(block),
                        rw: AccessKind::Read,
                    },
                },
            },
        })
    };
    let checkpoint = request_line(&Request::Checkpoint);
    let got = replies_of(&[
        two_bit(Actor::Module(0), 4),
        checkpoint.clone(),
        request(5),
        checkpoint,
        request(8),
        request_line(&Request::Shutdown),
    ]);
    assert_eq!(got.len(), 6, "{got:?}");
    assert_eq!(got[0], response_line(&Response::InitOk));
    assert_eq!(
        error_of(&got[2]),
        "M0: unexpected command REQUEST(C1, blk:0x5, read) in state M0 serving only its own \
         blocks (blk:0x5 is M1's)"
    );
    assert_eq!(got[1], got[3], "the refused command changed nothing");
    match response_from_line(&got[4]).expect("a response frame") {
        Response::DeliverOk { outputs, .. } => assert_eq!(outputs.len(), 1, "{outputs:?}"),
        other => panic!("M0 serves its own block 8, not {other:?}"),
    }
    assert_eq!(got[5], response_line(&Response::ShutdownOk));
}

/// The cache-side twin: a `GET` the agent is not waiting for is outside
/// its table's declared domain — an `error` reply, as it always was, now
/// also naming table, event and state — while a stale `MGRANTED` is a
/// declared rule and stays a silent drop.
#[test]
fn an_unsolicited_grant_is_an_error_and_a_stale_mgranted_a_silent_drop() {
    let deliver = |cmd: MemoryToCache| {
        request_line(&Request::Deliver {
            now: 7,
            replay: false,
            env: Envelope {
                src: Actor::Module(0),
                dst: Actor::Cache(0),
                payload: Payload::ToCache { cmd, ack: None },
            },
        })
    };
    let (k, a) = (CacheId::new(0), BlockAddr::new(42));
    let checkpoint = request_line(&Request::Checkpoint);
    let got = replies_of(&[
        two_bit(Actor::Cache(0), 1),
        checkpoint.clone(),
        deliver(MemoryToCache::GetData {
            k,
            a,
            version: Version::new(7),
            exclusive: false,
        }),
        deliver(MemoryToCache::MGranted {
            k,
            a,
            granted: false,
        }),
        checkpoint,
        request_line(&Request::Shutdown),
    ]);
    assert_eq!(got.len(), 6, "{got:?}");
    let msg = error_of(&got[2]);
    assert!(
        msg.starts_with("C0: unexpected command get(blk:0x2a) in state C0 idle"),
        "{msg}"
    );
    assert!(
        msg.ends_with("(write-back: the table declares no grant in invalid)"),
        "{msg}"
    );
    match response_from_line(&got[3]).expect("a response frame") {
        Response::DeliverOk { outputs, .. } => assert!(outputs.is_empty(), "{outputs:?}"),
        other => panic!("a stale MGRANTED is dropped, not {other:?}"),
    }
    assert_eq!(got[1], got[4], "neither frame changed the agent");
    assert_eq!(got[5], response_line(&Response::ShutdownOk));
}

/// An actor name that is not a tag and plain decimal: `é1` put the split
/// inside a character and took the process down (a panic, no reply), and
/// `C+1` was read as `C1`. Each is now an `error` reply naming the name,
/// and the node keeps serving.
#[test]
fn an_actor_name_that_is_not_one_is_an_error_reply() {
    let read = request_line(&Request::Deliver {
        now: 1,
        replay: false,
        env: Envelope {
            src: Actor::Client(0),
            dst: Actor::Cache(0),
            payload: Payload::ClientReq {
                txn: TxnId::new(1),
                op: MemRef::read(WordAddr::new(4, 0)),
                sv: None,
            },
        },
    });
    let checkpoint = request_line(&Request::Checkpoint);
    let named = |src: &str| read.replace("\"src\":\"L0\"", &format!("\"src\":\"{src}\""));
    assert_ne!(named("é1"), read);
    let got = replies_of(&[
        two_bit(Actor::Cache(0), 1),
        checkpoint.clone(),
        named("é1"),
        named("C+1"),
        checkpoint,
        read,
        request_line(&Request::Shutdown),
    ]);
    assert_eq!(got.len(), 7, "{got:?}");
    for (reply, name) in [(&got[2], "é1"), (&got[3], "C+1")] {
        let msg = error_of(reply);
        assert!(msg.contains(&format!("bad actor `{name}`")), "{msg}");
    }
    assert_eq!(got[1], got[4], "the refused frames changed nothing");
    match response_from_line(&got[5]).expect("a response frame") {
        Response::DeliverOk { outputs, .. } => assert_eq!(outputs.len(), 1, "{outputs:?}"),
        other => panic!("C0 still serves its client, not {other:?}"),
    }
    assert_eq!(got[6], response_line(&Response::ShutdownOk));
}
