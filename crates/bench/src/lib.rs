//! Experiment harness: the code that regenerates every table and figure
//! in the paper's evaluation, plus the simulation studies it defers to
//! future work.
//!
//! Each experiment has a runnable binary (see `src/bin/`):
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table_3_1` | Table 3-1: the command set, as implemented |
//! | `table_4_1` | Table 4-1: analytic `(n-1)·T_SUM` grid |
//! | `table_4_2` | Table 4-2: reconstructed Dubois–Briggs `(n-1)·T_R` grid vs paper |
//! | `sim_table_4_1` | Sim-4-1: measured two-bit extra commands vs model prediction |
//! | `sim_table_4_2` | Sim-4-2: measured commands/reference in the Table 4-2 configuration |
//! | `ablation_tlb` | Abl-TLB: translation-buffer capacity sweep |
//! | `ablation_dupdir` | Abl-DupDir: duplicate-directory stolen-cycle ablation |
//! | `protocol_comparison` | Proto-Zoo: all section 2 schemes on common workloads |
//! | `acceptability` | Section 4.3 acceptability thresholds |
//! | `directory_cost` | Directory storage: full map vs two bits |
//! | `figure_overhead_curves` | Overhead vs system size, as TSV series |
//! | `migration_effects` | Process migration as coherence traffic |
//! | `ablation_concurrency` | Abl-Concurrency: the section 3.2.5 controller disciplines |
//! | `ablation_bias` | Abl-BIAS: the section 2.3 BIAS memory on write-through |
//!
//! Every one of them, and the deterministic gate ([`throughput`]: what
//! every directory scheme simulates on four workloads), is frozen as
//! text under `golden/` and compared byte for byte by `tests/golden.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod obs_cli;
pub mod sweep;
pub mod throughput;

pub use experiments::{
    extra_commands_per_reference, predicted_overhead, run_protocol, run_protocol_traced,
};
pub use obs_cli::ObsArgs;
pub use throughput::{run_suite, BenchDoc};
