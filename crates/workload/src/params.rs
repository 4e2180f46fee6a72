//! The sharing-model parameters of section 4.2.

use twobit_types::ConfigError;

/// Parameters of the merged private/shared reference stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharingParams {
    /// Probability the next reference is to a shared block (the paper's
    /// `q`).
    pub q: f64,
    /// Probability a shared reference is a write (the paper's `w`).
    pub w: f64,
    /// Probability a *private* reference is a write (does not affect
    /// coherence overhead; present for realistic traffic).
    pub private_write_prob: f64,
    /// Size of the shared-writeable block pool.
    pub shared_blocks: u64,
    /// Size of each CPU's private block pool.
    pub private_blocks: u64,
    /// Zipf skew for shared-block selection; `None` means uniform —
    /// Table 4-2 uses uniform ("the probability that a shared block
    /// reference is to a particular shared block is 1/16").
    pub shared_zipf_s: Option<f64>,
}

impl SharingParams {
    /// The paper's **low sharing** case (section 4.3 case 1):
    /// `q = 0.01`, workload otherwise tuned so shared hits are plentiful.
    #[must_use]
    pub fn low() -> Self {
        SharingParams {
            q: 0.01,
            w: 0.2,
            private_write_prob: 0.3,
            shared_blocks: 16,
            private_blocks: 96,
            shared_zipf_s: None,
        }
    }

    /// The paper's **moderate sharing** case (section 4.3 case 2):
    /// `q = 0.05`.
    #[must_use]
    pub fn moderate() -> Self {
        SharingParams {
            q: 0.05,
            ..SharingParams::low()
        }
    }

    /// The paper's **high sharing** case (section 4.3 case 3):
    /// `q = 0.10`.
    #[must_use]
    pub fn high() -> Self {
        SharingParams {
            q: 0.10,
            ..SharingParams::low()
        }
    }

    /// The Table 4-2 configuration: 16 shared blocks, uniform access,
    /// with the given `q` and `w`.
    #[must_use]
    pub fn table4_2(q: f64, w: f64) -> Self {
        SharingParams {
            q,
            w,
            private_write_prob: 0.3,
            shared_blocks: 16,
            private_blocks: 96,
            shared_zipf_s: None,
        }
    }

    /// Same parameters with a different write fraction `w`.
    #[must_use]
    pub fn with_w(mut self, w: f64) -> Self {
        self.w = w;
        self
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any probability is outside `[0, 1]` or a
    /// pool is empty.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, p) in [
            ("q", self.q),
            ("w", self.w),
            ("private_write_prob", self.private_write_prob),
        ] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(ConfigError::new(format!(
                    "{name} = {p} is not a probability"
                )));
            }
        }
        if self.shared_blocks == 0 {
            return Err(ConfigError::new("shared pool must be nonempty"));
        }
        if self.private_blocks == 0 {
            return Err(ConfigError::new("private pools must be nonempty"));
        }
        if let Some(s) = self.shared_zipf_s {
            if !s.is_finite() || s < 0.0 {
                return Err(ConfigError::new(format!(
                    "zipf skew {s} must be finite and >= 0"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_q_values() {
        assert_eq!(SharingParams::low().q, 0.01);
        assert_eq!(SharingParams::moderate().q, 0.05);
        assert_eq!(SharingParams::high().q, 0.10);
        for p in [
            SharingParams::low(),
            SharingParams::moderate(),
            SharingParams::high(),
        ] {
            p.validate().unwrap();
        }
    }

    #[test]
    fn table4_2_pool_is_sixteen_uniform() {
        let p = SharingParams::table4_2(0.05, 0.2);
        assert_eq!(p.shared_blocks, 16);
        assert!(p.shared_zipf_s.is_none());
        p.validate().unwrap();
    }

    #[test]
    fn with_w_overrides() {
        assert_eq!(SharingParams::low().with_w(0.4).w, 0.4);
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(SharingParams {
            q: 1.5,
            ..SharingParams::low()
        }
        .validate()
        .is_err());
        assert!(SharingParams {
            w: -0.1,
            ..SharingParams::low()
        }
        .validate()
        .is_err());
        assert!(SharingParams {
            shared_blocks: 0,
            ..SharingParams::low()
        }
        .validate()
        .is_err());
        assert!(SharingParams {
            private_blocks: 0,
            ..SharingParams::low()
        }
        .validate()
        .is_err());
        assert!(SharingParams {
            shared_zipf_s: Some(f64::NAN),
            ..SharingParams::low()
        }
        .validate()
        .is_err());
    }
}
