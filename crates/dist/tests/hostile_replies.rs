//! The driver against a child whose reply routes an envelope to an actor
//! the fleet does not have. An output to `C99` reached an
//! `expect("known node")` and one to `L99` indexed the clients out of
//! range: a child could take the driver down with one frame. Such a
//! reply is now refused when it is received, with an `Err` naming the
//! child.
//!
//! The child is a stub: a shell script standing in for `dist_node`,
//! which answers `init` and `shutdown` as a node does and every delivery
//! with the one reply under test. It is the only test in this binary, so
//! no other thread forks while the script file is open for writing (an
//! inherited descriptor would make its exec fail with `ETXTBSY`).

#![cfg(unix)]

use std::os::unix::fs::PermissionsExt;
use std::path::PathBuf;

use twobit_dist::driver::{run, Mode, RunConfig};
use twobit_dist::wire::{response_line, Actor, Envelope, Payload, Response};

/// Writes the stub that answers every delivery with `reply`.
fn stub(name: &str, reply: &Response) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("stub_node_{name}.sh"));
    let script = format!(
        "#!/bin/sh\n\
         while read -r frame; do\n\
         \x20 case \"$frame\" in\n\
         \x20   *'\"t\":\"init\"'*) echo '{init_ok}' ;;\n\
         \x20   *'\"t\":\"deliver\"'*) echo '{reply}' ;;\n\
         \x20   *) echo '{shutdown_ok}'; exit 0 ;;\n\
         \x20 esac\n\
         done\n",
        init_ok = response_line(&Response::InitOk),
        reply = response_line(reply),
        shutdown_ok = response_line(&Response::ShutdownOk),
    );
    std::fs::write(&path, script).expect("write the stub");
    std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    path
}

#[test]
fn a_reply_routed_to_an_actor_the_fleet_lacks_is_an_error() {
    for (dst, name) in [(Actor::Cache(99), "C99"), (Actor::Client(99), "L99")] {
        let reply = Response::DeliverOk {
            outputs: vec![Envelope {
                src: Actor::Cache(0),
                dst,
                payload: Payload::InvAck { barrier: 1 },
            }],
            events: Vec::new(),
        };
        let mut cfg = RunConfig::quick("two-bit", 7);
        (cfg.caches, cfg.modules, cfg.refs_per_client) = (1, 1, 1);
        cfg.mode = Mode::Process {
            node_bin: stub(name, &reply),
        };
        let err = run(&cfg).expect_err("the reply cannot be routed");
        assert!(
            err.starts_with("C0: ") && err.contains(&format!("from C0 to {name}")),
            "{err}"
        );
    }
}
