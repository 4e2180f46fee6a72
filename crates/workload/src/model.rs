//! The merged private/shared reference stream (section 4.2's model).

use crate::params::SharingParams;
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use twobit_types::{BlockAddr, CacheId, ConfigError, MemRef, WordAddr};

/// First shared (public, writeable) block number. Blocks below are
/// per-CPU private; the static software scheme uses this very threshold
/// as its compile-time tag.
pub const SHARED_BASE: u64 = 1 << 32;

/// Stride between consecutive CPUs' private regions.
const PRIVATE_REGION_STRIDE: u64 = 1 << 20;

/// A source of memory references, one stream per CPU.
///
/// Implementations must be deterministic given their construction seed:
/// every experiment in the repository is replayable.
///
/// # Per-CPU independence
///
/// What `next_ref(k)` returns may depend only on the construction
/// parameters and on how many times `next_ref(k)` was called before for
/// that same `k` — never on calls for other CPUs, nor on the order in
/// which calls for different CPUs interleave. The executors rely on it:
/// the functional executor asks round-robin, one reference per CPU in
/// turn, while the timed simulator asks in event order, when each CPU's
/// previous reference retires — so the two run the same per-CPU streams
/// only because neither order is visible in them. Per-CPU state (an RNG,
/// a cursor, a counter per CPU) is the way to comply; state shared across
/// CPUs — one RNG for all, a global reference count — is not.
pub trait Workload {
    /// Produces the next reference for CPU `k`, as a function of `k`'s own
    /// earlier calls only (see the trait docs).
    fn next_ref(&mut self, k: CacheId) -> MemRef;

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn next_ref(&mut self, k: CacheId) -> MemRef {
        (**self).next_ref(k)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

impl<W: Workload + ?Sized> Workload for &mut W {
    fn next_ref(&mut self, k: CacheId) -> MemRef {
        (**self).next_ref(k)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The paper's parameterized sharing workload.
///
/// Per reference: with probability `q` pick a block from the global
/// shared pool (uniform or Zipf) and write it with probability `w`;
/// otherwise pick from the CPU's private pool (uniform) and write it with
/// probability `private_write_prob`.
#[derive(Debug, Clone)]
pub struct SharingModel {
    params: SharingParams,
    zipf: Option<Zipf>,
    rngs: Vec<StdRng>,
}

impl SharingModel {
    /// Builds the model for `cpus` processors with a deterministic `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the parameters are invalid, `cpus` is
    /// zero, or a private pool cannot fit its region.
    pub fn new(params: SharingParams, cpus: usize, seed: u64) -> Result<Self, ConfigError> {
        params.validate()?;
        if cpus == 0 {
            return Err(ConfigError::new("a workload needs at least one cpu"));
        }
        if params.private_blocks > PRIVATE_REGION_STRIDE {
            return Err(ConfigError::new(format!(
                "private pool {} exceeds the per-cpu region of {PRIVATE_REGION_STRIDE} blocks",
                params.private_blocks
            )));
        }
        if SHARED_BASE / PRIVATE_REGION_STRIDE < cpus as u64 {
            return Err(ConfigError::new(
                "too many cpus for the private address layout",
            ));
        }
        let zipf = params
            .shared_zipf_s
            .map(|s| Zipf::new(params.shared_blocks as usize, s));
        // One RNG per CPU, decorrelated by a large odd multiplier, so a
        // CPU's stream does not depend on how streams are interleaved.
        let rngs = (0..cpus)
            .map(|i| StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .collect();
        Ok(SharingModel { params, zipf, rngs })
    }

    /// The model's parameters.
    #[must_use]
    pub fn params(&self) -> &SharingParams {
        &self.params
    }

    /// The shared block with pool index `i`.
    #[must_use]
    pub fn shared_block(i: u64) -> BlockAddr {
        BlockAddr::new(SHARED_BASE + i)
    }

    /// The private block with pool index `i` belonging to CPU `k`.
    #[must_use]
    pub fn private_block(k: CacheId, i: u64) -> BlockAddr {
        BlockAddr::new((k.index() as u64) * PRIVATE_REGION_STRIDE + i)
    }

    /// `true` if `a` is in the shared region.
    #[must_use]
    pub fn is_shared(a: BlockAddr) -> bool {
        a.number() >= SHARED_BASE
    }
}

impl Workload for SharingModel {
    fn next_ref(&mut self, k: CacheId) -> MemRef {
        let params = self.params;
        let rng = &mut self.rngs[k.index()];
        let shared = rng.gen_bool(params.q);
        let (block, write) = if shared {
            let idx = match &self.zipf {
                Some(z) => z.sample(rng) as u64,
                None => rng.gen_range(0..params.shared_blocks),
            };
            (Self::shared_block(idx), rng.gen_bool(params.w))
        } else {
            let idx = rng.gen_range(0..params.private_blocks);
            (
                Self::private_block(k, idx),
                rng.gen_bool(params.private_write_prob),
            )
        };
        let addr = WordAddr { block, offset: 0 };
        if write {
            MemRef::write(addr)
        } else {
            MemRef::read(addr)
        }
    }

    fn name(&self) -> &'static str {
        "sharing-model"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twobit_types::AccessKind;

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = SharingModel::new(SharingParams::moderate(), 2, 7).unwrap();
        let mut b = SharingModel::new(SharingParams::moderate(), 2, 7).unwrap();
        for i in 0..1000 {
            let k = CacheId::new(i % 2);
            assert_eq!(a.next_ref(k), b.next_ref(k));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SharingModel::new(SharingParams::moderate(), 1, 1).unwrap();
        let mut b = SharingModel::new(SharingParams::moderate(), 1, 2).unwrap();
        let k = CacheId::new(0);
        let same = (0..100).filter(|_| a.next_ref(k) == b.next_ref(k)).count();
        assert!(same < 100, "identical streams from different seeds");
    }

    #[test]
    fn cpu_streams_are_independent_of_interleaving() {
        let mut together = SharingModel::new(SharingParams::high(), 2, 3).unwrap();
        let mut alone = SharingModel::new(SharingParams::high(), 2, 3).unwrap();
        // Drive CPU 0 with CPU 1 interleaved vs. CPU 0 alone.
        let mut seq_a = Vec::new();
        for _ in 0..100 {
            seq_a.push(together.next_ref(CacheId::new(0)));
            together.next_ref(CacheId::new(1));
        }
        let seq_b: Vec<_> = (0..100).map(|_| alone.next_ref(CacheId::new(0))).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn shared_fraction_approximates_q() {
        let params = SharingParams {
            q: 0.10,
            ..SharingParams::high()
        };
        let mut w = SharingModel::new(params, 1, 11).unwrap();
        let k = CacheId::new(0);
        let n = 50_000;
        let shared = (0..n)
            .filter(|_| SharingModel::is_shared(w.next_ref(k).addr.block))
            .count();
        let frac = shared as f64 / n as f64;
        assert!((frac - 0.10).abs() < 0.01, "shared fraction {frac}");
    }

    #[test]
    fn write_fraction_of_shared_refs_approximates_w() {
        let params = SharingParams {
            q: 0.5,
            w: 0.3,
            ..SharingParams::high()
        };
        let mut wl = SharingModel::new(params, 1, 13).unwrap();
        let k = CacheId::new(0);
        let mut shared = 0usize;
        let mut shared_writes = 0usize;
        for _ in 0..50_000 {
            let r = wl.next_ref(k);
            if SharingModel::is_shared(r.addr.block) {
                shared += 1;
                if r.kind == AccessKind::Write {
                    shared_writes += 1;
                }
            }
        }
        let frac = shared_writes as f64 / shared as f64;
        assert!((frac - 0.3).abs() < 0.02, "shared write fraction {frac}");
    }

    #[test]
    fn private_regions_are_disjoint_per_cpu() {
        let mut w = SharingModel::new(SharingParams::low(), 4, 5).unwrap();
        for i in 0..4usize {
            let k = CacheId::new(i);
            for _ in 0..200 {
                let r = w.next_ref(k);
                let b = r.addr.block;
                if !SharingModel::is_shared(b) {
                    let region = b.number() / PRIVATE_REGION_STRIDE;
                    assert_eq!(region as usize, i, "cpu {i} touched region {region}");
                }
            }
        }
    }

    #[test]
    fn shared_pool_is_bounded() {
        let params = SharingParams {
            q: 1.0,
            shared_blocks: 16,
            ..SharingParams::high()
        };
        let mut w = SharingModel::new(params, 1, 17).unwrap();
        for _ in 0..1000 {
            let b = w.next_ref(CacheId::new(0)).addr.block.number();
            assert!((SHARED_BASE..SHARED_BASE + 16).contains(&b));
        }
    }

    #[test]
    fn zipf_pool_prefers_popular_blocks() {
        let params = SharingParams {
            q: 1.0,
            shared_zipf_s: Some(1.2),
            ..SharingParams::high()
        };
        let mut w = SharingModel::new(params, 1, 19).unwrap();
        let mut first = 0usize;
        for _ in 0..5000 {
            if w.next_ref(CacheId::new(0)).addr.block.number() == SHARED_BASE {
                first += 1;
            }
        }
        assert!(
            first > 5000 / 16,
            "block 0 should be over-represented, got {first}"
        );
    }

    #[test]
    fn construction_validates() {
        assert!(SharingModel::new(SharingParams::low(), 0, 1).is_err());
        let bad = SharingParams {
            q: 2.0,
            ..SharingParams::low()
        };
        assert!(SharingModel::new(bad, 1, 1).is_err());
    }
}
