//! The wire vocabulary of the distributed fleet.
//!
//! Two message families share the JSONL framing of
//! [`twobit_interconnect::transport`]:
//!
//! * **Control** ([`Request`]/[`Response`]) — the driver↔node RPC. Every
//!   exchange is strict request/response: the driver sends one line and
//!   blocks for exactly one reply line, which is what makes virtual-time
//!   execution deterministic regardless of OS scheduling.
//! * **Envelopes** ([`Envelope`]/[`Payload`]) — node-to-node messages,
//!   always routed *through* the driver (star topology), never directly
//!   between nodes. The driver owns delivery time, ordering, and the
//!   fault plan; nodes only see `Deliver` calls.
//!
//! Every type here states its frame text once, as a
//! [`twobit_obs::json`] `ToJson`/`FromJson` pair; coherence commands
//! inside envelopes use the pairs `twobit-obs` gives the command set,
//! the same ones checkpoints use, so the wire format and the checkpoint
//! format cannot drift apart. A frame arrives from a socket: decoding
//! range-checks every number and answers malformed input with an `Err`.

use std::fmt;
use twobit_obs::json::{parse, to_text, FromJson, Json, Sink, ToJson};
use twobit_obs::json_struct;
use twobit_types::{CacheToMemory, MemRef, MemoryToCache, TxnId, Version};

/// A fleet endpoint: a cache-controller node, a memory-module node, or
/// the (driver-resident) client that drives one cache's processor side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Actor {
    /// Cache-controller node `C_k` (one process per cache).
    Cache(usize),
    /// Memory-module node `K_j`+`M_j` (one process per module).
    Module(usize),
    /// The workload client attached to cache `k`. Lives inside the
    /// driver; only the `C_k`↔client edge is lossy.
    Client(usize),
}

impl fmt::Display for Actor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name(&mut [0; NAME_BYTES]))
    }
}

/// The longest name: a tag and the 20 digits of `usize::MAX`.
const NAME_BYTES: usize = 21;

impl Actor {
    /// Parses the `Display` form (`C0`, `M1`, `L2`): a tag and an index
    /// in plain decimal, so every accepted name is the one `Display`
    /// writes.
    pub fn parse(s: &str) -> Result<Actor, String> {
        let bad = || format!("bad actor `{s}`");
        let (tag, idx) = s.split_at_checked(1).ok_or_else(bad)?;
        let plain = idx.bytes().all(|b| b.is_ascii_digit()) && !idx.starts_with('0');
        if !(plain || idx == "0") {
            return Err(bad());
        }
        let n: usize = idx.parse().map_err(|_| bad())?;
        match tag {
            "C" => Ok(Actor::Cache(n)),
            "M" => Ok(Actor::Module(n)),
            "L" => Ok(Actor::Client(n)),
            _ => Err(bad()),
        }
    }

    /// The `Display` form, written into `buf` without `fmt`.
    fn name(self, buf: &mut [u8; NAME_BYTES]) -> &str {
        let (tag, mut n) = match self {
            Actor::Cache(k) => (b'C', k),
            Actor::Module(j) => (b'M', j),
            Actor::Client(k) => (b'L', k),
        };
        let mut at = NAME_BYTES;
        loop {
            at -= 1;
            buf[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        at -= 1;
        buf[at] = tag;
        std::str::from_utf8(&buf[at..]).expect("ASCII")
    }
}

/// A routed node-to-node message.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Sender.
    pub src: Actor,
    /// Recipient.
    pub dst: Actor,
    /// Content.
    pub payload: Payload,
}

/// What an envelope carries.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Client → cache node: one processor reference. Retries reuse the
    /// same `txn` *and* the same `sv` (the pre-assigned store version),
    /// so a node that already serviced the transaction can answer from
    /// the reply it recorded without re-executing.
    ClientReq {
        /// Idempotency key, unique per logical reference.
        txn: TxnId,
        /// The reference.
        op: MemRef,
        /// Pre-assigned store version (writes only) — the driver's
        /// oracle hands out globally unique versions at issue time.
        sv: Option<Version>,
    },
    /// Cache node → client: the reference retired.
    ClientResp {
        /// Echoed idempotency key.
        txn: TxnId,
        /// Data version observed (loads) or written (stores).
        observed: Version,
        /// Whether it was satisfied without a directory transaction.
        was_hit: bool,
    },
    /// Cache node → memory node: a coherence command.
    ToMemory {
        /// The command.
        cmd: CacheToMemory,
    },
    /// Memory node → cache node: a coherence command. `ack` carries a
    /// barrier id when the memory node needs delivery confirmed (the
    /// invalidation-acknowledgment barrier of DESIGN.md §9).
    ToCache {
        /// The command.
        cmd: MemoryToCache,
        /// Barrier to acknowledge after processing, if any.
        ack: Option<u64>,
    },
    /// Cache node → memory node: invalidation processed.
    InvAck {
        /// The barrier being acknowledged.
        barrier: u64,
    },
    /// Memory node → cache node: a write-through (or public store) with
    /// store version `sv` is globally visible; the held client response
    /// may be released.
    WtAck {
        /// The store version whose write is now visible.
        sv: Version,
    },
}

impl Payload {
    /// Short tag for timeline rendering.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::ClientReq { .. } => "client_req",
            Payload::ClientResp { .. } => "client_resp",
            Payload::ToMemory { .. } => "to_mem",
            Payload::ToCache { .. } => "to_cache",
            Payload::InvAck { .. } => "inv_ack",
            Payload::WtAck { .. } => "wt_ack",
        }
    }
}

/// Everything a node needs to build its half of the system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeConfig {
    /// This node's identity ([`Actor::Cache`] or [`Actor::Module`]).
    pub role: Actor,
    /// Scheme name as in [`twobit_core::Directory::name`].
    pub scheme: String,
    /// Number of caches in the fleet.
    pub caches: usize,
    /// Number of memory modules (interleaved address map).
    pub modules: usize,
    /// Cache organization: sets.
    pub sets: u32,
    /// Cache organization: associativity.
    pub assoc: u32,
    /// Cache organization: words per block.
    pub block_words: u32,
    /// First public block (static software scheme contract).
    pub shared_from: u64,
    /// BIAS filter capacity (0 disables).
    pub bias_entries: u32,
    /// Translation-buffer capacity for `two-bit+tlb`.
    pub tlb_entries: u32,
}

/// Driver → node control messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// First message on every connection: who the node is and how to
    /// build its core objects. (The Maelstrom `init` shape — see
    /// DESIGN.md §9.)
    Init(Box<NodeConfig>),
    /// Deliver one envelope at virtual time `now`. With `replay` the
    /// node executes identically but the driver discards the reply's
    /// outputs (they were already delivered before the crash).
    Deliver {
        /// Virtual delivery time.
        now: u64,
        /// Whether this is a crash-recovery replay.
        replay: bool,
        /// The message.
        env: Envelope,
    },
    /// Serialize complete node state.
    Checkpoint,
    /// Replace node state with a checkpoint document.
    Restore {
        /// The document from a previous `CheckpointOk`.
        state: Json,
    },
    /// Exit cleanly after replying.
    Shutdown,
}

/// Node → driver control replies.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Init accepted.
    InitOk,
    /// Delivery processed.
    DeliverOk {
        /// Envelopes to send, in issue order.
        outputs: Vec<Envelope>,
        /// Node-local trace events (SimEvent JSONL lines).
        events: Vec<String>,
    },
    /// Checkpoint document.
    CheckpointOk {
        /// Complete node state.
        state: Json,
    },
    /// Restore accepted.
    RestoreOk,
    /// About to exit.
    ShutdownOk,
    /// The node cannot continue (protocol violation, malformed input).
    Error {
        /// What happened.
        msg: String,
    },
}

// ---------------------------------------------------------------------------
// Codecs
// ---------------------------------------------------------------------------

/// The `Display` form, as a string.
impl ToJson for Actor {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.str(self.name(&mut [0; NAME_BYTES]));
    }
}

impl FromJson for Actor {
    fn from_json(j: &Json) -> Result<Self, String> {
        Actor::parse(j.as_str().ok_or("actor is not a string")?)
    }
}

/// A `"t"`-tagged object, fields inline, stated in key order (as every
/// statement here is).
impl ToJson for Payload {
    fn emit<S: Sink>(&self, out: &mut S) {
        let t = self.kind();
        out.object(|o| match self {
            Payload::ClientReq { txn, op, sv } => {
                o.member("op", op);
                o.member("sv", sv);
                o.member("t", t);
                o.member("txn", txn);
            }
            Payload::ClientResp {
                txn,
                observed,
                was_hit,
            } => {
                o.member("hit", was_hit);
                o.member("observed", observed);
                o.member("t", t);
                o.member("txn", txn);
            }
            Payload::ToMemory { cmd } => {
                o.member("cmd", cmd);
                o.member("t", t);
            }
            Payload::ToCache { cmd, ack } => {
                o.member("ack", ack);
                o.member("cmd", cmd);
                o.member("t", t);
            }
            Payload::InvAck { barrier } => {
                o.member("barrier", barrier);
                o.member("t", t);
            }
            Payload::WtAck { sv } => {
                o.member("sv", sv);
                o.member("t", t);
            }
        });
    }
}

impl FromJson for Payload {
    fn from_json(p: &Json) -> Result<Self, String> {
        Ok(match p.req_str("t")? {
            "client_req" => Payload::ClientReq {
                txn: p.field("txn")?,
                op: p.field("op")?,
                sv: p.field("sv")?,
            },
            "client_resp" => Payload::ClientResp {
                txn: p.field("txn")?,
                observed: p.field("observed")?,
                was_hit: p.field("hit")?,
            },
            "to_mem" => Payload::ToMemory {
                cmd: p.field("cmd")?,
            },
            "to_cache" => Payload::ToCache {
                cmd: p.field("cmd")?,
                ack: p.field("ack")?,
            },
            "inv_ack" => Payload::InvAck {
                barrier: p.field("barrier")?,
            },
            "wt_ack" => Payload::WtAck { sv: p.field("sv")? },
            other => return Err(format!("bad payload tag {other:?}")),
        })
    }
}

json_struct!(Envelope { dst, payload, src });

json_struct!(NodeConfig {
    assoc,
    bias_entries,
    block_words,
    caches,
    modules,
    role,
    scheme,
    sets,
    shared_from,
    tlb_entries,
});

/// A `"t"`-tagged object, fields inline.
impl ToJson for Request {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.object(|o| match self {
            Request::Init(config) => {
                o.member("config", config.as_ref());
                o.member("t", "init");
            }
            Request::Deliver { now, replay, env } => {
                o.member("env", env);
                o.member("now", now);
                o.member("replay", replay);
                o.member("t", "deliver");
            }
            Request::Checkpoint => o.member("t", "checkpoint"),
            Request::Restore { state } => {
                o.member("state", state);
                o.member("t", "restore");
            }
            Request::Shutdown => o.member("t", "shutdown"),
        });
    }
}

impl FromJson for Request {
    fn from_json(j: &Json) -> Result<Self, String> {
        Ok(match j.req_str("t")? {
            "init" => Request::Init(Box::new(j.field("config")?)),
            "deliver" => Request::Deliver {
                now: j.field("now")?,
                replay: j.field("replay")?,
                env: j.field("env")?,
            },
            "checkpoint" => Request::Checkpoint,
            "restore" => Request::Restore {
                state: j.member("state")?.clone(),
            },
            "shutdown" => Request::Shutdown,
            other => return Err(format!("bad request tag {other:?}")),
        })
    }
}

/// A `"t"`-tagged object, fields inline.
impl ToJson for Response {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.object(|o| match self {
            Response::InitOk => o.member("t", "init_ok"),
            Response::DeliverOk { outputs, events } => {
                o.member("events", events);
                o.member("outputs", outputs);
                o.member("t", "deliver_ok");
            }
            Response::CheckpointOk { state } => {
                o.member("state", state);
                o.member("t", "checkpoint_ok");
            }
            Response::RestoreOk => o.member("t", "restore_ok"),
            Response::ShutdownOk => o.member("t", "shutdown_ok"),
            Response::Error { msg } => {
                o.member("msg", msg);
                o.member("t", "error");
            }
        });
    }
}

impl FromJson for Response {
    fn from_json(j: &Json) -> Result<Self, String> {
        Ok(match j.req_str("t")? {
            "init_ok" => Response::InitOk,
            "deliver_ok" => Response::DeliverOk {
                outputs: j.field("outputs")?,
                events: j.field("events")?,
            },
            "checkpoint_ok" => Response::CheckpointOk {
                state: j.member("state")?.clone(),
            },
            "restore_ok" => Response::RestoreOk,
            "shutdown_ok" => Response::ShutdownOk,
            "error" => Response::Error {
                msg: j.field("msg")?,
            },
            other => return Err(format!("bad response tag {other:?}")),
        })
    }
}

/// Renders a request as one frame.
#[must_use]
pub fn request_line(r: &Request) -> String {
    to_text(r)
}

/// Parses one frame as a request.
pub fn request_from_line(line: &str) -> Result<Request, String> {
    Request::from_json(&parse(line)?)
}

/// Renders a response as one frame.
#[must_use]
pub fn response_line(r: &Response) -> String {
    to_text(r)
}

/// Parses one frame as a response.
pub fn response_from_line(line: &str) -> Result<Response, String> {
    Response::from_json(&parse(line)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::{AccessKind, BlockAddr, CacheId, WordAddr};

    #[test]
    fn actor_display_parse_roundtrip() {
        for a in [
            Actor::Cache(0),
            Actor::Module(13),
            Actor::Client(2),
            Actor::Cache(usize::MAX),
        ] {
            assert_eq!(Actor::parse(&a.to_string()).unwrap(), a);
        }
        assert!(Actor::parse("X1").is_err());
        assert!(Actor::parse("").is_err());
    }

    /// A name comes off a socket: what is not a tag and plain decimal is
    /// an error, never a panic, and what is accepted is what `Display`
    /// writes.
    #[test]
    fn actor_parse_accepts_only_display_forms() {
        for bad in [
            "é1", "C+1", "C", "C-1", "C 1", "C1 ", "C٣", "1C", "C01", "Cé",
        ] {
            assert!(Actor::parse(bad).is_err(), "{bad:?} accepted");
        }
        let wide = format!("C{}0", usize::MAX);
        for s in [
            "C0",
            "M7",
            "L42",
            "C01",
            "M00",
            "L9",
            &wide,
            "C18446744073709551615",
        ] {
            if let Ok(a) = Actor::parse(s) {
                assert_eq!(a.to_string(), s);
            }
        }
        assert!(Actor::parse(&wide).is_err());
    }

    #[test]
    fn envelope_roundtrips_every_payload() {
        let envs = vec![
            Envelope {
                src: Actor::Client(1),
                dst: Actor::Cache(1),
                payload: Payload::ClientReq {
                    txn: TxnId::new(7),
                    op: MemRef::write(WordAddr::new(5, 0)),
                    sv: Some(Version::new(3)),
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
                src: Actor::Cache(0),
                dst: Actor::Module(1),
                payload: Payload::ToMemory {
                    cmd: CacheToMemory::Request {
                        k: CacheId::new(0),
                        a: BlockAddr::new(9),
                        rw: AccessKind::Read,
                    },
                },
            },
            Envelope {
                src: Actor::Module(1),
                dst: Actor::Cache(2),
                payload: Payload::ToCache {
                    cmd: MemoryToCache::BroadInv {
                        a: BlockAddr::new(9),
                        exclude: CacheId::new(0),
                    },
                    ack: Some(4),
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
        for env in envs {
            let line = env.json().to_json();
            let back = Envelope::from_json(&parse(&line).unwrap()).unwrap();
            assert_eq!(back, env);
        }
    }

    #[test]
    fn control_messages_roundtrip() {
        let reqs = vec![
            Request::Init(Box::new(NodeConfig {
                role: Actor::Module(0),
                scheme: "two-bit".into(),
                caches: 4,
                modules: 2,
                sets: 8,
                assoc: 2,
                block_words: 4,
                shared_from: 1 << 32,
                bias_entries: 0,
                tlb_entries: 0,
            })),
            Request::Checkpoint,
            Request::Restore { state: Json::Null },
            Request::Shutdown,
        ];
        for r in reqs {
            assert_eq!(request_from_line(&request_line(&r)).unwrap(), r);
        }
        let resps = vec![
            Response::InitOk,
            Response::DeliverOk {
                outputs: vec![],
                events: vec!["{}".into()],
            },
            Response::CheckpointOk { state: Json::Null },
            Response::RestoreOk,
            Response::ShutdownOk,
            Response::Error { msg: "boom".into() },
        ];
        for r in resps {
            assert_eq!(response_from_line(&response_line(&r)).unwrap(), r);
        }
    }
}
