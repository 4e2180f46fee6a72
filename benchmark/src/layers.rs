//! Each layer timed alone, through its public calls: the workload
//! generator, a bare cache, the untimed functional system, the crossbar,
//! the line transports and the wire codec.

use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use twobit_cache::Cache;
use twobit_core::FunctionalSystem;
use twobit_dist::wire::{
    request_from_line, request_line, response_from_line, response_line, Actor, Envelope, Payload,
    Request, Response,
};
use twobit_interconnect::poll::PollTransport;
use twobit_interconnect::transport::{loopback, Transport};
use twobit_interconnect::{Crossbar, MessageSize, Network, NodeId};
use twobit_types::{
    AccessKind, BlockAddr, CacheId, CacheOrg, CacheToMemory, LineState, MemRef, MemoryToCache,
    ModuleId, SystemConfig, TxnId, Version, WordAddr,
};
use twobit_workload::{SharingModel, SharingParams, Workload};

use crate::sim::CACHES;
use crate::spans::SpanLog;

/// The longest prefix of a workload's stream the layer replays keep in
/// memory, per processor.
const STREAM_REFS_PER_CPU: u64 = 100_000;

/// A prefix of the reference stream the end-to-end run consumed, in the
/// round-robin order the functional system executes it.
pub struct Stream {
    pub refs: Vec<(CacheId, MemRef)>,
    /// Host nanoseconds `SharingModel::next_ref` alone takes per reference.
    pub gen_ns_per_ref: f64,
}

impl Stream {
    /// Times generation alone, then generates the same prefix again to
    /// keep it.
    ///
    /// # Errors
    ///
    /// Invalid workload parameters.
    pub fn generate(
        params: SharingParams,
        seed: u64,
        refs_per_cpu: u64,
        log: &mut SpanLog,
    ) -> Result<Self, String> {
        let per_cpu = refs_per_cpu.min(STREAM_REFS_PER_CPU);
        let model = || SharingModel::new(params, CACHES, seed).map_err(|e| e.to_string());
        let mut timed = model()?;
        let ((), secs) = log.time("workload.next_ref", || {
            for _ in 0..per_cpu {
                for k in CacheId::all(CACHES) {
                    black_box(timed.next_ref(k));
                }
            }
        });
        let mut kept = model()?;
        let mut refs = Vec::with_capacity(per_cpu as usize * CACHES);
        for _ in 0..per_cpu {
            for k in CacheId::all(CACHES) {
                refs.push((k, kept.next_ref(k)));
            }
        }
        Ok(Stream {
            gen_ns_per_ref: secs * 1e9 / refs.len() as f64,
            refs,
        })
    }

    /// Share of the references that go to shared blocks.
    pub fn shared_share(&self) -> f64 {
        let shared = self
            .refs
            .iter()
            .filter(|(_, op)| SharingModel::is_shared(op.addr.block))
            .count();
        shared as f64 / self.refs.len() as f64
    }
}

/// Host nanoseconds per reference of the tag-store work alone: each
/// reference probes its processor's bare cache and touches the line on a
/// hit or inserts it on a miss.
pub fn cache_probe_ns(org: CacheOrg, stream: &Stream, log: &mut SpanLog) -> f64 {
    let mut caches: Vec<Cache<LineState>> = (0..CACHES).map(|_| Cache::new(org)).collect();
    let ((), secs) = log.time("cache.probe_replay", || {
        for (k, op) in &stream.refs {
            let cache = &mut caches[k.index()];
            let block = op.addr.block;
            if cache.contains(block) {
                cache.touch(block);
            } else {
                black_box(cache.insert(block, LineState::Clean, Version::initial()));
            }
        }
    });
    black_box(&caches);
    secs * 1e9 / stream.refs.len() as f64
}

/// Host nanoseconds per reference of `FunctionalSystem::do_ref`: agent,
/// controller, protocol and cache, with no timing model.
///
/// # Errors
///
/// A configuration or protocol error.
pub fn functional_ns_per_ref(
    config: SystemConfig,
    stream: &Stream,
    log: &mut SpanLog,
) -> Result<f64, String> {
    let mut system = FunctionalSystem::new(config).map_err(|e| e.to_string())?;
    let (result, secs) = log.time("core.do_ref_replay", || {
        for &(k, op) in &stream.refs {
            black_box(system.do_ref(k, op)?);
        }
        Ok::<(), twobit_types::ProtocolError>(())
    });
    result.map_err(|e| format!("functional replay: {e}"))?;
    Ok(secs * 1e9 / stream.refs.len() as f64)
}

/// Host nanoseconds per `Crossbar::schedule`, over a mix of a command to
/// a module, a data reply to a cache and a broadcast to the other caches.
pub fn crossbar_schedule_ns(config: &SystemConfig, log: &mut SpanLog) -> f64 {
    const ROUNDS: u64 = 200_000;
    let mut net = Crossbar::new(config.latency.net_command, config.latency.net_data, 1);
    let n = config.caches;
    let ((), secs) = log.time("interconnect.schedule_mix", || {
        for now in 0..ROUNDS {
            let cache = NodeId::Cache(CacheId::new(now as usize % n));
            let module = NodeId::Module(ModuleId::new((now as usize / 3) % n));
            black_box(net.schedule(cache, module, MessageSize::Command, now));
            black_box(net.schedule(module, cache, MessageSize::Data, now));
            for other in CacheId::all(n).map(NodeId::Cache).filter(|c| *c != cache) {
                black_box(net.schedule(module, other, MessageSize::Command, now));
            }
        }
    });
    let calls = ROUNDS * (n as u64 + 1);
    debug_assert_eq!(net.stats().deliveries.get(), calls);
    secs * 1e9 / calls as f64
}

/// One envelope of every [`Payload`] kind.
fn envelopes() -> Vec<Envelope> {
    let block = BlockAddr::new(9);
    let env = |src, dst, payload| Envelope { src, dst, payload };
    vec![
        env(
            Actor::Client(1),
            Actor::Cache(1),
            Payload::ClientReq {
                txn: TxnId::new(7),
                op: MemRef::write(WordAddr::new(9, 0)),
                sv: Some(Version::new(3)),
            },
        ),
        env(
            Actor::Cache(1),
            Actor::Client(1),
            Payload::ClientResp {
                txn: TxnId::new(7),
                observed: Version::new(3),
                was_hit: false,
            },
        ),
        env(
            Actor::Cache(0),
            Actor::Module(1),
            Payload::ToMemory {
                cmd: CacheToMemory::Request {
                    k: CacheId::new(0),
                    a: block,
                    rw: AccessKind::Read,
                },
            },
        ),
        env(
            Actor::Module(1),
            Actor::Cache(2),
            Payload::ToCache {
                cmd: MemoryToCache::BroadInv {
                    a: block,
                    exclude: CacheId::new(0),
                },
                ack: Some(4),
            },
        ),
        env(
            Actor::Cache(2),
            Actor::Module(1),
            Payload::InvAck { barrier: 4 },
        ),
        env(
            Actor::Module(1),
            Actor::Cache(0),
            Payload::WtAck {
                sv: Version::new(8),
            },
        ),
    ]
}

/// What the wire codec costs per message.
pub struct WireCost {
    pub encode_ns_per_msg: f64,
    pub decode_ns_per_msg: f64,
    pub bytes_per_msg: f64,
}

/// Times `request_line`/`response_line` and their decoders over a fixed
/// mix: each payload kind once as a delivery request and once as the
/// output of a delivery reply.
///
/// # Errors
///
/// A line that does not decode back to its message.
pub fn wire_codec(log: &mut SpanLog) -> Result<WireCost, String> {
    const ROUNDS: usize = 5_000;
    let requests: Vec<Request> = envelopes()
        .into_iter()
        .enumerate()
        .map(|(i, env)| Request::Deliver {
            now: 1_000 + i as u64,
            replay: false,
            env,
        })
        .collect();
    let responses: Vec<Response> = envelopes()
        .into_iter()
        .map(|env| Response::DeliverOk {
            outputs: vec![env],
            events: Vec::new(),
        })
        .collect();
    let request_lines: Vec<String> = requests.iter().map(request_line).collect();
    let response_lines: Vec<String> = responses.iter().map(response_line).collect();
    for (line, want) in request_lines.iter().zip(&requests) {
        if request_from_line(line).as_ref() != Ok(want) {
            return Err(format!("request does not round-trip: {line}"));
        }
    }
    for (line, want) in response_lines.iter().zip(&responses) {
        if response_from_line(line).as_ref() != Ok(want) {
            return Err(format!("response does not round-trip: {line}"));
        }
    }
    let msgs = (ROUNDS * (requests.len() + responses.len())) as f64;

    let ((), encode) = log.time("dist.wire.encode", || {
        for _ in 0..ROUNDS {
            for r in &requests {
                black_box(request_line(r));
            }
            for r in &responses {
                black_box(response_line(r));
            }
        }
    });
    let ((), decode) = log.time("dist.wire.decode", || {
        for _ in 0..ROUNDS {
            for line in &request_lines {
                let _ = black_box(request_from_line(line));
            }
            for line in &response_lines {
                let _ = black_box(response_from_line(line));
            }
        }
    });
    let bytes: usize = request_lines
        .iter()
        .chain(&response_lines)
        .map(|l| l.len() + 1)
        .sum();
    Ok(WireCost {
        encode_ns_per_msg: encode * 1e9 / msgs,
        decode_ns_per_msg: decode * 1e9 / msgs,
        bytes_per_msg: bytes as f64 / (requests.len() + responses.len()) as f64,
    })
}

/// A typical frame: one delivery request.
fn sample_frame() -> String {
    request_line(&Request::Deliver {
        now: 1_000,
        replay: false,
        env: envelopes().swap_remove(2),
    })
}

/// Host nanoseconds per frame sent and received through the in-memory
/// `loopback()` line transport (framing alone, no socket).
///
/// # Errors
///
/// A transport error or a frame that comes back changed.
pub fn line_transport_ns_per_frame(log: &mut SpanLog) -> Result<f64, String> {
    const FRAMES: usize = 50_000;
    let frame = sample_frame();
    let (mut a, mut b) = loopback();
    let (result, secs) = log.time("interconnect.loopback_frames", || {
        for _ in 0..FRAMES {
            a.send(&frame).map_err(|e| e.to_string())?;
            if b.recv().map_err(|e| e.to_string())?.as_deref() != Some(frame.as_str()) {
                return Err("loopback changed a frame".to_string());
            }
        }
        Ok(())
    });
    result?;
    Ok(secs * 1e9 / FRAMES as f64)
}

/// Echoes every line back until the peer closes.
fn echo(stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    for line in BufReader::new(stream).lines() {
        let mut line = line?;
        line.push('\n');
        writer.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Host nanoseconds per `PollTransport` round trip to an echo peer on
/// localhost: framing, the socket and a thread switch each way. The echo
/// peer is the one extra thread the traced `dist_tcp` run starts.
///
/// # Errors
///
/// A socket or transport error.
pub fn poll_tcp_ns_per_frame(log: &mut SpanLog) -> Result<f64, String> {
    const FRAMES: usize = 20_000;
    let frame = sample_frame();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    std::thread::scope(|scope| {
        let peer = scope.spawn(move || echo(listener.accept()?.0));
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut poll = PollTransport::new();
        let token = poll.register_tcp(stream).map_err(|e| e.to_string())?;
        let (result, secs) = log.time("interconnect.poll_tcp_frames", || {
            for _ in 0..FRAMES {
                poll.send(token, &frame).map_err(|e| e.to_string())?;
                let back = poll
                    .recv_deadline(token, Duration::from_secs(10))
                    .map_err(|e| e.to_string())?;
                if back.as_deref() != Some(frame.as_str()) {
                    return Err("echo peer changed a frame".to_string());
                }
            }
            Ok(())
        });
        // Closing our end is the peer's end-of-stream.
        poll.deregister(token);
        drop(poll);
        let joined = peer.join().map_err(|_| "echo peer panicked".to_string())?;
        joined.map_err(|e| format!("echo peer: {e}"))?;
        result?;
        Ok(secs * 1e9 / FRAMES as f64)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::ProtocolKind;

    fn log() -> SpanLog {
        SpanLog::new("test", true)
    }

    #[test]
    fn stream_is_the_model_prefix_in_round_robin_order() {
        let mut log = log();
        let s = Stream::generate(SharingParams::high(), 42, 50, &mut log).unwrap();
        assert_eq!(s.refs.len(), 50 * CACHES);
        let mut model = SharingModel::new(SharingParams::high(), CACHES, 42).unwrap();
        for (k, op) in &s.refs[..CACHES * 2] {
            assert_eq!(model.next_ref(*k), *op);
        }
        assert!(s.gen_ns_per_ref > 0.0);
        assert!((0.0..0.3).contains(&s.shared_share()));
    }

    #[test]
    fn layers_run_on_a_small_stream() {
        let mut log = log();
        let s = Stream::generate(SharingParams::moderate(), 7, 500, &mut log).unwrap();
        let config =
            SystemConfig::with_defaults(CACHES).with_protocol(ProtocolKind::ClassicalWriteThrough);
        assert!(cache_probe_ns(config.cache, &s, &mut log) > 0.0);
        assert!(functional_ns_per_ref(config, &s, &mut log).unwrap() > 0.0);
        assert!(crossbar_schedule_ns(&config, &mut log) > 0.0);
    }

    #[test]
    fn transports_and_codec_round_trip() {
        let mut log = log();
        let wire = wire_codec(&mut log).unwrap();
        assert!(wire.bytes_per_msg > 20.0);
        assert!(wire.encode_ns_per_msg > 0.0 && wire.decode_ns_per_msg > 0.0);
        assert!(line_transport_ns_per_frame(&mut log).unwrap() > 0.0);
        assert!(poll_tcp_ns_per_frame(&mut log).unwrap() > 0.0);
    }
}
