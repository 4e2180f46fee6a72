//! The worker count for parameter sweeps.
//!
//! Experiment grids (protocol × sharing level × `n` × `w`) are
//! embarrassingly parallel and individually deterministic; the
//! experiment binaries fan them out with [`twobit_core::parallel_map`].

/// A reasonable worker count for sweeps on this machine.
#[must_use]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get().min(16))
}
