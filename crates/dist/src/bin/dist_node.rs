//! A single fleet node: one cache controller or one memory module.
//!
//! Spawned by the driver. Speaks the JSONL control protocol on
//! stdin/stdout by default, or over TCP with `--tcp ADDR` (the node
//! connects to the listening driver). The first frame must be `init`;
//! after that the node answers one response per request, in request
//! order, until EOF or `shutdown`. Replies are queued and leave together
//! when the node has no request left to read (the transport writes them
//! out before it blocks), so a batch of requests that arrived in one read
//! is answered in one write.

use std::process::ExitCode;

use twobit_dist::node::Node;
use twobit_dist::wire::{Lines, Request, Response};
use twobit_interconnect::transport::{stdio, tcp_connect, Transport};
use twobit_obs::json::{Reader, Text};

fn serve(io: &mut dyn Transport) -> Result<(), String> {
    let mut node: Option<Node> = None;
    // Every request frame is read here, and every reply frame is written
    // here and copied out by the transport.
    let mut reader = Reader::default();
    let mut text = Text::canonical();
    // A delivery's event lines, kept from one delivery to the next.
    let mut events = Lines::new();
    while let Some(line) = io.recv().map_err(|e| format!("recv: {e}"))? {
        let resp = match reader.read::<Request>(&line) {
            Err(e) => Response::Error {
                msg: format!("bad request: {e}"),
            },
            Ok(Request::Init(cfg)) => match (&node, Node::new(&cfg)) {
                (Some(_), _) => Response::Error {
                    msg: "already initialized".into(),
                },
                (None, Ok(n)) => {
                    node = Some(n);
                    Response::InitOk
                }
                (None, Err(e)) => Response::Error { msg: e },
            },
            Ok(req) => match &mut node {
                None => Response::Error {
                    msg: "first request must be init".into(),
                },
                Some(n) => match req {
                    Request::Deliver { now, env, .. } => n.deliver_response(now, &env, &mut events),
                    req => n.handle(&req),
                },
            },
        };
        let line = text.write(&resp);
        if matches!(resp, Response::ShutdownOk) {
            // No read follows to carry it out.
            return io.send(line).map_err(|e| format!("send: {e}"));
        }
        io.queue(line).map_err(|e| format!("send: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let result = match args.get(1).map(String::as_str) {
        Some("--tcp") => match args.get(2) {
            Some(addr) => match tcp_connect(addr.as_str()) {
                Ok(mut io) => serve(&mut io),
                Err(e) => Err(format!("connect {addr}: {e}")),
            },
            None => Err("--tcp needs an address".into()),
        },
        Some(other) => Err(format!("unknown argument `{other}` (only --tcp ADDR)")),
        None => serve(&mut stdio()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dist_node: {e}");
            ExitCode::FAILURE
        }
    }
}
