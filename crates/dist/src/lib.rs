//! Distributed coherence service: the six directory schemes of the
//! Archibald & Baer reproduction, run over real processes.
//!
//! The shared-memory simulator (`twobit-core`, `twobit-sim`) executes
//! every controller in one address space; this crate distributes the
//! same protocol objects across a fleet — one process (or in-process
//! node) per cache controller and per memory module — connected only by
//! JSONL messages, and asks the hard question the paper could take for
//! granted: *is the protocol still coherent when the interconnect
//! delays, reorders, partitions, and the nodes crash?*
//!
//! The pieces:
//!
//! * [`wire`] — envelopes, control RPC, and their JSON codecs.
//! * [`node`] — [`node::CacheNode`] / [`node::MemNode`]: the simulator's
//!   `CacheAgent`/`Controller` wrapped in deterministic step functions,
//!   plus the two distribution-only mechanisms (client-edge idempotency,
//!   the invalidation-acknowledgment barrier).
//! * [`faults`] — the seeded fault plan: delay, jitter, retransmitted
//!   drops, a truly lossy client edge, partitions, crashes.
//! * [`driver`] — the virtual-time star router that hosts clients,
//!   injects faults, checkpoints and restarts nodes, and records the
//!   global history and merged timeline.
//! * [`history`] — the per-block linearizability checker, cross-checked
//!   against the simulator's coherence oracle.
//!
//! Transport framing lives in [`twobit_interconnect::transport`];
//! checkpoint codecs live in [`twobit_core::snapshot`]. DESIGN.md §9
//! documents the protocol; `README.md` has the quickstart.

#![deny(rustdoc::broken_intra_doc_links)]
#![warn(missing_docs)]

mod calendar;
pub mod driver;
pub mod faults;
pub mod flow;
pub mod history;
pub mod node;
pub mod wire;

pub use driver::{run, Mode, RunConfig, RunReport};
pub use history::{check_history, LinearizationReport, OpRecord};
