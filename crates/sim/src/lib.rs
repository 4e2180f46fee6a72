//! The discrete-event multiprocessor simulator of Figure 3-1.
//!
//! The paper evaluates the two-bit scheme analytically and explicitly
//! defers simulation: "Short of simulation, there are few alternatives to
//! determine the effects of this traffic. This will be investigated in
//! future studies." This crate is that future study: it drives the very
//! same protocol machines as the functional executor in `twobit-core` —
//! the [`CacheAgent`](twobit_core::CacheAgent)s and
//! [`Controller`](twobit_core::Controller)s — but with latencies,
//! per-destination network contention, controller queueing under real
//! concurrency, and per-processor think time, so transactions genuinely
//! interleave and the section 3.2.5 races actually happen in flight.
//!
//! [`System`] is the facade: it runs directory protocols on the timed
//! engine — one event loop on the calling thread, events popped in a
//! canonical order — and the section 2.5 bus protocols on
//! [`twobit_bus::BusSystem`], reporting through one [`Report`] type so
//! every scheme in the paper's spectrum is measured in the same units
//! (commands received per cache per memory reference, stolen cycles,
//! network traffic, elapsed cycles).
//!
//! # Example
//!
//! ```
//! use twobit_sim::System;
//! use twobit_types::{ProtocolKind, SystemConfig};
//! use twobit_workload::{SharingModel, SharingParams};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SystemConfig::with_defaults(4).with_protocol(ProtocolKind::TwoBit);
//! let workload = SharingModel::new(SharingParams::moderate(), 4, 7)?;
//! let mut system = System::build(config)?;
//! let report = system.run(workload, 2_000)?;
//! assert_eq!(report.stats.total_references(), 8_000);
//! assert!(report.cycles > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bus_sim;
mod calendar;
mod directory_sim;
mod engine;
mod report;
mod system;

pub use bus_sim::BusSim;
pub use directory_sim::DirectorySim;
pub use engine::Event;
pub use report::Report;
pub use system::{simulate, System};
