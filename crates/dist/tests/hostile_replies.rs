//! The driver against a child whose reply routes an envelope to an actor
//! the fleet does not have. An output to `C99` reached an
//! `expect("known node")` and one to `L99` indexed the clients out of
//! range: a child could take the driver down with one frame. Such a
//! reply is now refused when it is received, with an `Err` naming the
//! child. So is an event line holding a newline, which the timeline,
//! kept as newline-terminated text, cannot keep as one line.
//!
//! And the driver against a child that rejects `init` and then hangs
//! on: the run fails, and the child must not outlive it — killed and
//! reaped, so no `/proc/<pid>` is left.
//!
//! The child is this binary: run as `--tcp ADDR`, it is a stub node that
//! dials the driver, answers `init` and `shutdown` as a node does and
//! every delivery with the reply that `HOSTILE_REPLY` names — or, when
//! that is `reject_init`, writes its pid to the file `HOSTILE_PID_FILE`
//! names, answers `init` with an error and sleeps without reading. Run
//! without arguments it is the test, so it has no libtest harness and
//! prints what one would.

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use twobit_dist::driver::{run, Mode, RunConfig};
use twobit_dist::wire::{
    request_from_line, response_line, Actor, Envelope, Payload, Request, Response,
};
use twobit_interconnect::transport::{tcp_connect, Transport};

/// The tests, by name.
const TESTS: [(&str, fn()); 2] = [
    (
        "a_reply_routed_to_an_actor_the_fleet_lacks_is_an_error",
        a_reply_routed_to_an_actor_the_fleet_lacks_is_an_error,
    ),
    (
        "a_node_whose_init_is_rejected_does_not_outlive_the_run",
        a_node_whose_init_is_rejected_does_not_outlive_the_run,
    ),
];

/// Names the reply the stub gives every delivery.
const REPLY_VAR: &str = "HOSTILE_REPLY";

/// Names the file a stub that rejects `init` writes its pid to.
const PID_VAR: &str = "HOSTILE_PID_FILE";

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
    let name = std::env::var(REPLY_VAR).expect("the reply to give");
    let mut io = tcp_connect(addr).expect("dial the driver");
    if name == "reject_init" {
        let pid_file = std::env::var(PID_VAR).expect("where to write the pid");
        std::fs::write(pid_file, std::process::id().to_string()).expect("write the pid");
        io.recv().expect("a request").expect("the init request");
        let no = Response::Error {
            msg: "init refused".into(),
        };
        io.send(&response_line(&no)).expect("answer");
        std::thread::sleep(Duration::from_secs(30));
        return;
    }
    let hostile = reply(&name);
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

fn a_node_whose_init_is_rejected_does_not_outlive_the_run() {
    let pid_file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("hostile_replies_init.pid");
    let _ = std::fs::remove_file(&pid_file);
    std::env::set_var(PID_VAR, &pid_file);
    let err = run_against("reject_init");
    assert!(err.starts_with("C0: init rejected: init refused"), "{err}");
    let pid = std::fs::read_to_string(&pid_file).expect("the stub wrote its pid");
    let proc = format!("/proc/{}", pid.trim());
    assert!(
        !Path::new(&proc).exists(),
        "the rejected node {pid} is still there after the run"
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
    // As libtest would: `--list` names the tests, and `--ignored`, a
    // filter that is not part of a name or a `--skip` that is leaves that
    // test out.
    let (mut filters, mut skips, mut ignored) = (Vec::new(), Vec::new(), false);
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        match arg {
            "--list" => {
                for (name, _) in TESTS {
                    println!("{name}: test");
                }
                println!("\n{} tests, 0 benchmarks", TESTS.len());
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
    let chosen: Vec<_> = TESTS
        .into_iter()
        .filter(|(name, _)| {
            !ignored
                && (filters.is_empty() || filters.iter().any(|f| name.contains(f)))
                && !skips.iter().any(|s| name.contains(s))
        })
        .collect();
    let start = Instant::now();
    println!(
        "\nrunning {} test{}",
        chosen.len(),
        if chosen.len() == 1 { "" } else { "s" }
    );
    let mut failed = 0;
    for (name, test) in &chosen {
        let ok = std::panic::catch_unwind(test).is_ok();
        println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
        failed += usize::from(!ok);
    }
    let verdict = if failed == 0 { "ok" } else { "FAILED" };
    println!(
        "\ntest result: {verdict}. {} passed; {failed} failed; 0 ignored; 0 measured; \
         {} filtered out; finished in {:.2}s\n",
        chosen.len() - failed,
        TESTS.len() - chosen.len(),
        start.elapsed().as_secs_f64()
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
