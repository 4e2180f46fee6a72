//! Observability for the `twobit` cache-coherence simulator.
//!
//! Three layers, all independent of the protocol logic:
//!
//! * **Tracing** ([`Tracer`], [`SimEvent`]) — a structured record of every
//!   protocol step (command issued, command delivered, directory state
//!   transition), with three sinks: [`NullTracer`] (the zero-cost
//!   default), [`RingTracer`] (a bounded buffer for post-mortem dumps
//!   when an invariant trips), and [`JsonlTracer`] (streams one JSON
//!   object per event to any writer).
//! * **Metrics** ([`Metrics`]) — fixed-bucket latency histograms per
//!   transaction class and sampled queue-depth / outstanding-transaction
//!   gauges; a summary adds the command totals of the run's
//!   [`twobit_types::CacheStats`].
//! * **Timelines** ([`render_block_timeline`]) — per-block lane diagrams
//!   of the traced events, the tool for *seeing* the section 3.2.5 races
//!   (stale `MREQUEST` crossing a `BROADINV`, replacement crossing a
//!   recall) instead of inferring them from aggregate counters.
//! * **Span timers** ([`Profiler`], [`PerfReport`]) — hierarchical
//!   wall-clock attribution over the simulator's hot paths (event
//!   dispatch, controller steps, queue ops, network scheduling),
//!   compiled to no-ops unless the `perf-spans` feature is enabled. The
//!   repository benchmark's `trace` build (`benchmark/`) is what enables
//!   it; CI also tests this crate and `twobit-sim` with it on.
//!
//! The crate depends only on `twobit-types`; every other crate in the
//! workspace can layer it in without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
pub mod event;
pub mod json;
pub mod metrics;
pub mod perf;
pub mod timeline;
pub mod tracer;

pub use event::{ActorId, SimEvent, StateChange};
pub use metrics::{Gauge, Histogram, LatencySummary, Metrics, MetricsSummary, TxnClass};
pub use perf::{PerfReport, Profiler, SpanStat};
pub use timeline::render_block_timeline;
pub use tracer::{JsonlTracer, NullTracer, RingTracer, Tracer};
