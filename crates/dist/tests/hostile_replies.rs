//! The driver against a child whose reply routes an envelope to an actor
//! the fleet does not have. An output to `C99` reached an
//! `expect("known node")` and one to `L99` indexed the clients out of
//! range: a child could take the driver down with one frame. Such a
//! reply is now refused when it is received, with an `Err` naming the
//! child. So is an event line holding a newline, which the timeline,
//! kept as newline-terminated text, cannot keep as one line.
//!
//! The child is this binary: run as `--tcp ADDR`, it is a stub node that
//! dials the driver, answers `init` and `shutdown` as a node does and
//! every delivery with the reply that `HOSTILE_REPLY` names. Run without
//! arguments it is the test, so it has no libtest harness and prints
//! what one would.

use std::process::ExitCode;
use std::time::Instant;

use twobit_dist::driver::{run, Mode, RunConfig};
use twobit_dist::wire::{
    request_from_line, response_line, Actor, Envelope, Payload, Request, Response,
};
use twobit_interconnect::transport::{tcp_connect, Transport};

const TEST: &str = "a_reply_routed_to_an_actor_the_fleet_lacks_is_an_error";

/// Names the reply the stub gives every delivery.
const REPLY_VAR: &str = "HOSTILE_REPLY";

/// The reply named `name`: an output routed to that actor, or an event
/// line of two lines.
fn reply(name: &str) -> Response {
    let dst = match name {
        "two_lines" => {
            return Response::DeliverOk {
                outputs: Vec::new(),
                events: vec!["{}\n{}".into()],
            }
        }
        name => Actor::parse(name).expect("an actor name"),
    };
    Response::DeliverOk {
        outputs: vec![Envelope {
            src: Actor::Cache(0),
            dst,
            payload: Payload::InvAck { barrier: 1 },
        }],
        events: Vec::new(),
    }
}

/// The stub node.
fn serve(addr: &str) {
    let hostile = reply(&std::env::var(REPLY_VAR).expect("the reply to give"));
    let mut io = tcp_connect(addr).expect("dial the driver");
    while let Some(line) = io.recv().expect("a request") {
        let answer = match request_from_line(&line).expect("a request frame") {
            Request::Init(_) => Response::InitOk,
            Request::Deliver { .. } => hostile.clone(),
            _ => Response::ShutdownOk,
        };
        io.send(&response_line(&answer)).expect("answer");
        if answer == Response::ShutdownOk {
            return;
        }
    }
}

/// A one-cache, one-module fleet of stubs answering every delivery with
/// the reply `name`: the error its run ends with.
fn run_against(name: &str) -> String {
    let mut cfg = RunConfig::quick("two-bit", 7);
    (cfg.caches, cfg.modules, cfg.refs_per_client) = (1, 1, 1);
    cfg.mode = Mode::Tcp {
        node_bin: std::env::current_exe().expect("this binary"),
    };
    // The children inherit it; nothing else runs in this process.
    std::env::set_var(REPLY_VAR, name);
    run(&cfg).expect_err("the reply cannot be taken")
}

fn a_reply_routed_to_an_actor_the_fleet_lacks_is_an_error() {
    for name in ["C99", "L99"] {
        let err = run_against(name);
        assert!(
            err.starts_with("C0: ") && err.contains(&format!("from C0 to {name}")),
            "{err}"
        );
    }
    let err = run_against("two_lines");
    assert!(
        err.starts_with("C0: ") && err.contains("event line holds a newline"),
        "{err}"
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, addr] = args.as_slice() {
        if flag == "--tcp" {
            serve(addr);
            return ExitCode::SUCCESS;
        }
    }
    // As libtest would: `--list` names the test, and `--ignored`, a
    // filter that is not part of its name or a `--skip` that is runs
    // nothing.
    let (mut filters, mut skips, mut ignored) = (Vec::new(), Vec::new(), false);
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        match arg {
            "--list" => {
                println!("{TEST}: test\n\n1 test, 0 benchmarks");
                return ExitCode::SUCCESS;
            }
            "--ignored" => ignored = true,
            "--skip" => skips.extend(rest.next()),
            "--test-threads" | "--format" | "--color" | "--logfile" | "-Z" => {
                rest.next();
            }
            flag if flag.starts_with('-') => {}
            filter => filters.push(filter),
        }
    }
    let chosen = !ignored
        && (filters.is_empty() || filters.iter().any(|f| TEST.contains(f)))
        && !skips.iter().any(|s| TEST.contains(s));
    let (passed, failed, filtered) = if chosen {
        println!("\nrunning 1 test");
        let start = Instant::now();
        let ok = std::panic::catch_unwind(a_reply_routed_to_an_actor_the_fleet_lacks_is_an_error)
            .is_ok();
        println!("test {TEST} ... {}", if ok { "ok" } else { "FAILED" });
        let secs = start.elapsed().as_secs_f64();
        (
            u8::from(ok),
            u8::from(!ok),
            format!("0 filtered out; finished in {secs:.2}s"),
        )
    } else {
        println!("\nrunning 0 tests");
        (0, 0, "1 filtered out; finished in 0.00s".to_string())
    };
    let verdict = if failed == 0 { "ok" } else { "FAILED" };
    println!(
        "\ntest result: {verdict}. {passed} passed; {failed} failed; 0 ignored; 0 measured; \
         {filtered}\n"
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
