//! The real `dist_node` binary against the frames that used to take it
//! down or fool it: a 2 MB run of `[`, which overflowed the parser's
//! stack (SIGABRT), and an `init` whose `sets` does not fit 32 bits, which
//! wrapped to 1 and was answered `init_ok` (ISSUE 14); then two `init`s
//! whose cache organization sized the tag-store allocation unchecked
//! (ISSUE 15) — 2^31 sets × (2^32 − 1) ways died with `capacity overflow`,
//! 2^31 sets × 1 way aborted on allocation failure. Each must now get an
//! error reply, and the node must keep serving afterwards.

use std::io::Write;
use std::process::{Command, Stdio};

use twobit_dist::wire::{request_line, response_from_line, Actor, NodeConfig, Request, Response};

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

    let mut child = Command::new(env!("CARGO_BIN_EXE_dist_node"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn dist_node");
    let mut stdin = child.stdin.take().expect("piped stdin");
    // The replies are six short lines, far below a pipe buffer, so
    // writing everything before reading anything cannot deadlock.
    for frame in &frames {
        writeln!(stdin, "{frame}").expect("write frame");
    }
    drop(stdin);
    let out = child.wait_with_output().expect("wait for dist_node");
    assert!(out.status.success(), "dist_node exited with {}", out.status);

    let replies: Vec<Response> = String::from_utf8(out.stdout)
        .expect("UTF-8 replies")
        .lines()
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
