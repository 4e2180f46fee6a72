//! The paper's contribution: the **two-bit directory cache-coherence
//! scheme** of Archibald & Baer (ISCA 1984), together with the directory
//! schemes it is evaluated against and the memory-controller machinery
//! that runs them.
//!
//! # Layout
//!
//! * Protocol decision logic — six guarded-action [`TransitionTable`]s,
//!   one per scheme ([`shipped_tables`]): two-bit (section 3), two-bit
//!   with section 4.4's translation buffer, the full map
//!   (section 2.4.2), the full map with local state (section 2.4.3),
//!   classical write-through (section 2.3) and the static software
//!   scheme (section 2.2) — each compiled once into a
//!   [`transitions::Program`] and *executed* by the one pure, untimed
//!   [`Directory`]. The table the linter analyzes is the table that
//!   runs; [`build_protocol_for`] is the only place a scheme is chosen.
//! * [`Controller`] — the memory-module controller `K_j`: request queue
//!   with per-block conflict serialization and MREQUEST cancellation
//!   (section 3.2.5), module storage, race resolution for replacements
//!   crossing recalls.
//! * [`CacheAgent`] — the cache controller `C_k`: hit/miss
//!   classification, the replacement protocol (section 3.2.1), snoop
//!   servicing, and the BROADINV-as-MGRANTED(false) conversion.
//! * [`FunctionalSystem`] — an untimed whole-system executor with a
//!   coherence [`Oracle`]; the reference semantics that the timed
//!   simulator in `twobit-sim` must agree with.
//! * [`invariants`] — SWMR and directory-soundness checking.
//!
//! # Example: the section 3.2.5 write race, end to end
//!
//! ```
//! use twobit_core::FunctionalSystem;
//! use twobit_types::{CacheId, MemRef, SystemConfig, WordAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut system = FunctionalSystem::new(SystemConfig::with_defaults(2))?;
//! let (c0, c1) = (CacheId::new(0), CacheId::new(1));
//! let a = WordAddr::new(0x40, 0);
//! // Both caches read, then both write "at the same time".
//! system.do_ref(c0, MemRef::read(a))?;
//! system.do_ref(c1, MemRef::read(a))?;
//! system.do_ref(c0, MemRef::write(a))?;
//! system.do_ref(c1, MemRef::write(a))?;
//! // Coherent: the second write won.
//! let fin = system.do_ref(c0, MemRef::read(a))?;
//! assert_eq!(fin.observed.raw(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod blockmap;
pub mod cache_table;
mod classical;
mod controller;
mod directory;
mod exec;
pub mod flow;
mod fp;
mod full_map;
mod full_map_local;
pub mod invariants;
mod local;
mod memory;
pub mod model_check;
mod owner_set;
mod parallel;
pub mod snapshot;
mod tlb;
pub mod transitions;
mod two_bit;

pub use agent::{AgentPolicy, CacheAgent, Completion, NetOutcome, StartOutcome};
pub use blockmap::{BlockMap, BlockSet};
pub use cache_table::{shipped_cache_tables, CacheTable};
pub use controller::{Controller, CtrlEmit, Observer};
pub use directory::{DirSend, DirStep, Directory, OpenKind, SendCost};
pub use exec::{
    build_policy_for, build_protocol_for, cache_table_for, Fired, FunctionalSystem, Oracle,
    DEFAULT_STATIC_SHARED_FROM,
};
pub use local::LocalState;
pub use memory::MemoryImage;
pub use model_check::{Action, Counterexample, Exploration, FlightMsg, ModelChecker, Node, State};
pub use owner_set::OwnerSet;
pub use parallel::parallel_map;
pub use tlb::TranslationBuffer;
pub use transitions::{
    shipped_tables, ActionKind, Cond, Delivery, EventKind, EventSpec, Next, OrderGuarantee, Rule,
    StateSet, TransitionTable,
};
