//! The section 4.2 overhead derivation.
//!
//! "Extra commands necessitated by the two-bit scheme can be viewed as a
//! check for the absence of a block in a cache since the number of
//! 'forced' write-backs and invalidations are independent of the mapping
//! method." The three contributions, in commands per memory request:
//!
//! ```text
//! T_RM = (n-2)·q·(1-w)·(1-h)·P(PM)
//! T_WM = (n-2)·q·w·(1-h)·(P(PM)+P(P1)) + (n-1)·q·w·(1-h)·P(P*)
//! T_WH = (n-1)·q·w·h·P(P*) / (P(P1)+P(PM)+P(P*))
//! ```
//!
//! and the per-cache figure reported in Table 4-1 is `(n-1)·T_SUM` with
//! `T_SUM = T_RM + T_WM + T_WH`.

use twobit_types::ConfigError;

/// Inputs to the overhead expressions.
///
/// ```
/// use twobit_analytic::{OverheadParams, SharingCase};
/// // The paper's case 1 at n = 64, w = 0.1 — Table 4-1's 0.449.
/// let p = SharingCase::Low.params(64, 0.1);
/// assert!((p.per_cache_overhead() - 0.449).abs() < 0.001);
/// # let _: OverheadParams = p;
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadParams {
    /// Number of caches `n` (≥ 2 for the expressions to be meaningful).
    pub n: usize,
    /// Probability a reference is to a shared block.
    pub q: f64,
    /// Probability a shared reference is a write.
    pub w: f64,
    /// Hit ratio of shared blocks.
    pub h: f64,
    /// Probability a shared block is in global state `Present1`.
    pub p_p1: f64,
    /// Probability a shared block is in global state `Present*`.
    pub p_pstar: f64,
    /// Probability a shared block is in global state `PresentM`.
    pub p_pm: f64,
}

impl OverheadParams {
    /// Validates probability ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any probability is out of `[0, 1]`,
    /// the state probabilities exceed 1 combined, or `n < 2`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n < 2 {
            return Err(ConfigError::new("overhead model needs n >= 2"));
        }
        for (name, p) in [
            ("q", self.q),
            ("w", self.w),
            ("h", self.h),
            ("P(P1)", self.p_p1),
            ("P(P*)", self.p_pstar),
            ("P(PM)", self.p_pm),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(ConfigError::new(format!(
                    "{name} = {p} is not a probability"
                )));
            }
        }
        if self.p_p1 + self.p_pstar + self.p_pm > 1.0 + 1e-12 {
            return Err(ConfigError::new("state probabilities exceed 1"));
        }
        if self.p_p1 + self.p_pstar + self.p_pm == 0.0 {
            return Err(ConfigError::new(
                "T_WH is undefined when no shared block is ever cached",
            ));
        }
        Ok(())
    }

    /// Extra commands per memory request from **read misses**
    /// (broadcast query when the block is modified elsewhere; `n-2`
    /// useless deliveries since owner and requester are excluded).
    #[must_use]
    pub fn t_rm(&self) -> f64 {
        (self.n as f64 - 2.0) * self.q * (1.0 - self.w) * (1.0 - self.h) * self.p_pm
    }

    /// Extra commands per memory request from **write misses**.
    #[must_use]
    pub fn t_wm(&self) -> f64 {
        let n = self.n as f64;
        (n - 2.0) * self.q * self.w * (1.0 - self.h) * (self.p_pm + self.p_p1)
            + (n - 1.0) * self.q * self.w * (1.0 - self.h) * self.p_pstar
    }

    /// Extra commands per memory request from **write hits on unmodified
    /// blocks** (conditional on the block being present somewhere, since
    /// the writer holds a copy).
    #[must_use]
    pub fn t_wh(&self) -> f64 {
        let present = self.p_p1 + self.p_pm + self.p_pstar;
        (self.n as f64 - 1.0) * self.q * self.w * self.h * self.p_pstar / present
    }

    /// `T_SUM = T_RM + T_WM + T_WH`.
    #[must_use]
    pub fn t_sum(&self) -> f64 {
        self.t_rm() + self.t_wm() + self.t_wh()
    }

    /// The Table 4-1 quantity: commands received per cache per memory
    /// reference, `(n-1)·T_SUM`.
    #[must_use]
    pub fn per_cache_overhead(&self) -> f64 {
        (self.n as f64 - 1.0) * self.t_sum()
    }
}

/// The three sharing levels of section 4.3, with the paper's parameter
/// choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingCase {
    /// Case 1: `q = 0.01`, `h = 0.95`, `P(P1) = 0.06`, `P(P*) = 0.01`,
    /// `P(PM) = 0.03`.
    Low,
    /// Case 2: `q = 0.05`, `h = 0.90`, `P(P1) = 0.25`, `P(P*) = 0.05`,
    /// `P(PM) = 0.10`.
    Moderate,
    /// Case 3: `q = 0.10`, `h = 0.80`, `P(P1) = 0.35`, `P(P*) = 0.10`,
    /// `P(PM) = 0.35`.
    High,
}

impl SharingCase {
    /// All three cases in table order.
    pub const ALL: [SharingCase; 3] = [SharingCase::Low, SharingCase::Moderate, SharingCase::High];

    /// The paper's parameters for this case at the given `n` and `w`.
    #[must_use]
    pub fn params(self, n: usize, w: f64) -> OverheadParams {
        let (q, h, p_p1, p_pstar, p_pm) = match self {
            SharingCase::Low => (0.01, 0.95, 0.06, 0.01, 0.03),
            SharingCase::Moderate => (0.05, 0.90, 0.25, 0.05, 0.10),
            SharingCase::High => (0.10, 0.80, 0.35, 0.10, 0.35),
        };
        OverheadParams {
            n,
            q,
            w,
            h,
            p_p1,
            p_pstar,
            p_pm,
        }
    }

    /// The label used in the paper's table.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SharingCase::Low => "case 1",
            SharingCase::Moderate => "case 2",
            SharingCase::High => "case 3",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_catches_nonsense() {
        let mut p = SharingCase::Low.params(4, 0.1);
        p.validate().unwrap();
        p.q = 1.5;
        assert!(p.validate().is_err());
        let mut p = SharingCase::Low.params(1, 0.1);
        assert!(p.validate().is_err());
        p = SharingCase::Low.params(4, 0.1);
        p.p_p1 = 0.9;
        p.p_pstar = 0.9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn spot_check_case1_w01_n64() {
        // Paper: 0.449.
        let p = SharingCase::Low.params(64, 0.1);
        assert!((p.per_cache_overhead() - 0.449).abs() < 0.001);
    }

    #[test]
    fn spot_check_case3_w04_n64() {
        // Paper: 57.330.
        let p = SharingCase::High.params(64, 0.4);
        assert!((p.per_cache_overhead() - 57.330).abs() < 0.001);
    }

    #[test]
    fn spot_check_case2_w02_n16() {
        // Paper: 0.422.
        let p = SharingCase::Moderate.params(16, 0.2);
        assert!((p.per_cache_overhead() - 0.422).abs() < 0.001);
    }

    #[test]
    fn components_are_nonnegative_and_sum() {
        for case in SharingCase::ALL {
            for n in [4usize, 8, 16, 32, 64] {
                for w in [0.1, 0.2, 0.3, 0.4] {
                    let p = case.params(n, w);
                    assert!(p.t_rm() >= 0.0 && p.t_wm() >= 0.0 && p.t_wh() >= 0.0);
                    let sum = p.t_rm() + p.t_wm() + p.t_wh();
                    assert!((p.t_sum() - sum).abs() < 1e-15);
                }
            }
        }
    }

    #[test]
    fn overhead_monotone_in_n_and_w() {
        for case in SharingCase::ALL {
            for w in [0.1, 0.2, 0.3, 0.4] {
                let mut prev = 0.0;
                for n in [4usize, 8, 16, 32, 64] {
                    let v = case.params(n, w).per_cache_overhead();
                    assert!(v >= prev, "{case:?} w={w}: not monotone in n");
                    prev = v;
                }
            }
            for n in [4usize, 8, 16, 32, 64] {
                let mut prev = 0.0;
                for w in [0.1, 0.2, 0.3, 0.4] {
                    let v = case.params(n, w).per_cache_overhead();
                    assert!(v >= prev, "{case:?} n={n}: not monotone in w");
                    prev = v;
                }
            }
        }
    }

    #[test]
    fn sharing_cases_order_by_overhead() {
        for n in [8usize, 32] {
            for w in [0.1, 0.4] {
                let low = SharingCase::Low.params(n, w).per_cache_overhead();
                let mid = SharingCase::Moderate.params(n, w).per_cache_overhead();
                let high = SharingCase::High.params(n, w).per_cache_overhead();
                assert!(low < mid && mid < high);
            }
        }
    }

    #[test]
    fn n2_has_no_broadcast_waste_on_queries() {
        // With n = 2, a BROADQUERY reaches only the owner: T_RM = 0.
        let p = SharingCase::High.params(2, 0.3);
        assert_eq!(p.t_rm(), 0.0);
    }
}
