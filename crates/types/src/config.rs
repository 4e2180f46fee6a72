//! System configuration: cache organization, latencies, protocol choice,
//! and the controller-concurrency discipline of section 3.2.5.

use crate::addr::AddressMap;
use crate::error::ConfigError;
use std::fmt;

/// Replacement policy of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the default; what the era's designs used).
    #[default]
    Lru,
    /// First-in first-out.
    Fifo,
    /// Pseudo-random (deterministic xorshift keyed by set index and a
    /// per-cache counter, so simulations stay reproducible).
    Random,
}

impl fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplacementPolicy::Lru => "LRU",
            ReplacementPolicy::Fifo => "FIFO",
            ReplacementPolicy::Random => "random",
        })
    }
}

/// Organization of a private cache.
///
/// ```
/// use twobit_types::CacheOrg;
/// // The Table 4-2 configuration: 128 blocks, here 2-way associative.
/// let org = CacheOrg::new(64, 2, 4).unwrap();
/// assert_eq!(org.total_blocks(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheOrg {
    /// Number of sets (must be a power of two so set indexing is a mask).
    pub sets: u32,
    /// Associativity (lines per set).
    pub assoc: u32,
    /// Words per block (used only for traffic accounting of data
    /// transfers; the protocols are block-granular).
    pub words_per_block: u32,
    /// Victim selection policy.
    pub replacement: ReplacementPolicy,
}

impl CacheOrg {
    /// Creates a cache organization.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `sets` is zero or not a power of two, or
    /// if `assoc` or `words_per_block` is zero.
    pub fn new(sets: u32, assoc: u32, words_per_block: u32) -> Result<Self, ConfigError> {
        if sets == 0 || !sets.is_power_of_two() {
            return Err(ConfigError::new(format!(
                "cache sets must be a nonzero power of two, got {sets}"
            )));
        }
        if assoc == 0 {
            return Err(ConfigError::new("cache associativity must be nonzero"));
        }
        if words_per_block == 0 {
            return Err(ConfigError::new("block size must be nonzero"));
        }
        Ok(CacheOrg {
            sets,
            assoc,
            words_per_block,
            replacement: ReplacementPolicy::Lru,
        })
    }

    /// Same organization with a different replacement policy.
    #[must_use]
    pub fn with_replacement(mut self, replacement: ReplacementPolicy) -> Self {
        self.replacement = replacement;
        self
    }

    /// Total capacity in blocks.
    #[must_use]
    pub fn total_blocks(self) -> u64 {
        u64::from(self.sets) * u64::from(self.assoc)
    }

    /// The set index of a block address (low bits of the block number).
    #[must_use]
    pub fn set_of(self, block_number: u64) -> u32 {
        (block_number & u64::from(self.sets - 1)) as u32
    }
}

/// Latencies (in cycles) of the primitive operations of the Figure 3-1
/// system. All the paper's comparisons assume "time to write-back or load a
/// block are the same, as are cache hit ratios and other system
/// characteristics" (section 4.1); keeping latencies in one struct makes
/// that ceteris-paribus assumption explicit and enforceable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyConfig {
    /// Cache hit service time.
    pub cache_hit: u64,
    /// One-way network traversal of a control command.
    pub net_command: u64,
    /// One-way network traversal of a block data transfer (`put`/`get`).
    pub net_data: u64,
    /// Memory-module read or write of a block.
    pub memory: u64,
    /// Controller decision time (map lookup + FSM step).
    pub controller: u64,
    /// Cache cycles stolen by servicing one received coherence command
    /// (the directory search; reduced to match-only with the duplicate
    /// directory of section 4.4).
    pub snoop_service: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        // Small integers of the right relative magnitude for an early-80s
        // tightly coupled machine: memory ~10x cache, network a few cycles.
        LatencyConfig {
            cache_hit: 1,
            net_command: 2,
            net_data: 4,
            memory: 10,
            controller: 1,
            snoop_service: 1,
        }
    }
}

impl LatencyConfig {
    /// A zero-latency configuration: every operation completes in the same
    /// cycle it is issued. Useful for functional (untimed) validation runs
    /// where only command *counts* matter — exactly the quantity the
    /// paper's tables report.
    #[must_use]
    pub fn zero() -> Self {
        LatencyConfig {
            cache_hit: 0,
            net_command: 0,
            net_data: 0,
            memory: 0,
            controller: 0,
            snoop_service: 0,
        }
    }
}

/// The controller-concurrency discipline of section 3.2.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ControllerConcurrency {
    /// "Allow the controller to treat only one command at a time. This
    /// restriction seems too stringent and could lead to important
    /// performance degradation."
    SingleCommand,
    /// "Oblige the controller to treat commands related to a given block
    /// only one at a time" — the multiprogrammed controller with per-block
    /// conflict queuing. The default, as the paper recommends.
    #[default]
    PerBlock,
}

impl fmt::Display for ControllerConcurrency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ControllerConcurrency::SingleCommand => "single-command",
            ControllerConcurrency::PerBlock => "per-block",
        })
    }
}

/// Which coherence protocol a system runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The paper's contribution (section 3): two-bit global directory.
    TwoBit,
    /// Two-bit plus the section 4.4 translation buffer of owner
    /// identities, with the given number of entries per controller.
    TwoBitTlb {
        /// Translation-buffer capacity in block entries.
        entries: u32,
    },
    /// Full distributed map, n+1 bits per block (section 2.4.2,
    /// Censier–Feautrier).
    FullMap,
    /// Full map with the added local Exclusive state (section 2.4.3,
    /// Yen–Fu): writes to unshared clean blocks need no directory trip.
    FullMapLocal,
    /// The classical solution (section 2.3): write-through caches, every
    /// write broadcast to all other caches for invalidation.
    ClassicalWriteThrough,
    /// The static software scheme (section 2.2): shared-writeable blocks
    /// are never cached; reads/writes to them go straight to memory.
    StaticSoftware,
    /// Goodman's write-once snooping protocol (section 2.5) — requires the
    /// shared-bus interconnect.
    WriteOnce,
    /// Papamarcos & Patel's Illinois protocol (MESI) (section 2.5) —
    /// requires the shared-bus interconnect.
    Illinois,
}

impl ProtocolKind {
    /// `true` for the protocols that assume a shared-bus interconnect and
    /// snooping caches (section 2.5).
    #[must_use]
    pub fn is_bus_based(self) -> bool {
        matches!(self, ProtocolKind::WriteOnce | ProtocolKind::Illinois)
    }

    /// Short stable name used in reports and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::TwoBit => "two-bit",
            ProtocolKind::TwoBitTlb { .. } => "two-bit+tlb",
            ProtocolKind::FullMap => "full-map",
            ProtocolKind::FullMapLocal => "full-map+local",
            ProtocolKind::ClassicalWriteThrough => "classical-wt",
            ProtocolKind::StaticSoftware => "static-sw",
            ProtocolKind::WriteOnce => "write-once",
            ProtocolKind::Illinois => "illinois",
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::TwoBitTlb { entries } => write!(f, "two-bit+tlb({entries})"),
            other => f.write_str(other.name()),
        }
    }
}

/// Complete configuration of a Figure 3-1 system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of processor–cache pairs `n`.
    pub caches: usize,
    /// Block→module mapping (also fixes the module count `m`).
    pub address_map: AddressMap,
    /// Private-cache organization (identical for all caches, as the
    /// paper's analysis assumes).
    pub cache: CacheOrg,
    /// The coherence protocol.
    pub protocol: ProtocolKind,
    /// Operation latencies.
    pub latency: LatencyConfig,
    /// Controller concurrency discipline (section 3.2.5).
    pub concurrency: ControllerConcurrency,
    /// Whether caches have the duplicate-directory (parallel controller)
    /// enhancement of section 4.4: received commands steal a cache cycle
    /// only when the block is actually present.
    pub duplicate_directory: bool,
    /// Mean processor think time between references, in cycles. The paper
    /// notes "in most caches a substantial number of cache cycles (to 50%)
    /// are spent in an idle state"; nonzero think time creates that
    /// idleness so stolen cycles can hide.
    pub think_time: u64,
    /// Capacity of the per-cache BIAS memory (section 2.3: "a 'BIAS
    /// memory' which filters out repeated invalidation requests for the
    /// same block"), in block entries; 0 disables the filter.
    pub bias_entries: u32,
}

impl SystemConfig {
    /// A reasonable starting configuration for `caches` processor–cache
    /// pairs running the two-bit protocol: as many interleaved memory
    /// modules as caches, 128-block 2-way caches with 4-word blocks,
    /// default latencies, per-block controller concurrency.
    ///
    /// # Panics
    ///
    /// Panics if `caches` is zero.
    #[must_use]
    pub fn with_defaults(caches: usize) -> Self {
        assert!(caches > 0, "a system needs at least one cache");
        SystemConfig {
            caches,
            address_map: AddressMap::interleaved(caches),
            cache: CacheOrg::new(64, 2, 4).expect("static organization is valid"),
            protocol: ProtocolKind::TwoBit,
            latency: LatencyConfig::default(),
            concurrency: ControllerConcurrency::PerBlock,
            duplicate_directory: false,
            think_time: 1,
            bias_entries: 0,
        }
    }

    /// Same configuration with a different protocol.
    #[must_use]
    pub fn with_protocol(mut self, protocol: ProtocolKind) -> Self {
        self.protocol = protocol;
        self
    }

    /// Validates cross-field consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is internally
    /// inconsistent (zero caches, bus protocol with multiple modules where
    /// a single bus is required, etc.).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.caches == 0 {
            return Err(ConfigError::new("a system needs at least one cache"));
        }
        if self.caches > u16::MAX as usize {
            return Err(ConfigError::new("cache count out of range"));
        }
        if self.protocol.is_bus_based() && self.address_map.modules() != 1 {
            return Err(ConfigError::new(
                "bus-based protocols model memory behind a single shared bus; use one module",
            ));
        }
        if let ProtocolKind::TwoBitTlb { entries } = self.protocol {
            if entries == 0 {
                return Err(ConfigError::new(
                    "a zero-entry translation buffer is plain two-bit; use ProtocolKind::TwoBit",
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_org_validation() {
        assert!(CacheOrg::new(0, 1, 4).is_err());
        assert!(
            CacheOrg::new(3, 1, 4).is_err(),
            "non-power-of-two sets rejected"
        );
        assert!(CacheOrg::new(4, 0, 4).is_err());
        assert!(CacheOrg::new(4, 2, 0).is_err());
        assert!(CacheOrg::new(4, 2, 4).is_ok());
    }

    #[test]
    fn cache_org_capacity_and_indexing() {
        let org = CacheOrg::new(8, 4, 16).unwrap();
        assert_eq!(org.total_blocks(), 32);
        assert_eq!(org.set_of(0), 0);
        assert_eq!(org.set_of(8), 0);
        assert_eq!(org.set_of(13), 5);
    }

    #[test]
    fn latency_zero_is_all_zero() {
        let z = LatencyConfig::zero();
        assert_eq!(
            z.cache_hit + z.net_command + z.net_data + z.memory + z.controller,
            0
        );
    }

    #[test]
    fn protocol_classification() {
        assert!(ProtocolKind::WriteOnce.is_bus_based());
        assert!(ProtocolKind::Illinois.is_bus_based());
        assert!(!ProtocolKind::ClassicalWriteThrough.is_bus_based());
    }

    #[test]
    fn protocol_display_includes_tlb_size() {
        assert_eq!(
            ProtocolKind::TwoBitTlb { entries: 16 }.to_string(),
            "two-bit+tlb(16)"
        );
        assert_eq!(ProtocolKind::TwoBit.to_string(), "two-bit");
    }

    #[test]
    fn default_system_config_is_valid() {
        for n in [1, 4, 8, 64] {
            SystemConfig::with_defaults(n).validate().unwrap();
        }
    }

    #[test]
    fn bus_protocol_requires_single_module() {
        let mut cfg = SystemConfig::with_defaults(4).with_protocol(ProtocolKind::Illinois);
        assert!(cfg.validate().is_err());
        cfg.address_map = AddressMap::interleaved(1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn zero_entry_tlb_rejected() {
        let cfg =
            SystemConfig::with_defaults(4).with_protocol(ProtocolKind::TwoBitTlb { entries: 0 });
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn concurrency_default_is_per_block() {
        assert_eq!(
            ControllerConcurrency::default(),
            ControllerConcurrency::PerBlock
        );
    }
}
