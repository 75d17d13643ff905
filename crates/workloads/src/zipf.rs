//! A Zipfian index generator (Gray et al., "Quickly generating
//! billion-record synthetic databases"), as used by YCSB.

use star_rng::SimRng;

/// Draws indices in `0..n` with Zipfian skew `theta` (YCSB default 0.99).
#[derive(Debug, Clone)]
pub struct Zipfian {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    zeta2: f64,
}

impl Zipfian {
    /// Creates a generator over `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is not in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "need a non-empty range");
        assert!(theta > 0.0 && theta < 1.0, "theta must be in (0, 1)");
        let zetan = Self::zeta(n, theta);
        let zeta2 = Self::zeta(2, theta);
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            zeta2,
        }
    }

    fn zeta(n: u64, theta: f64) -> f64 {
        // Direct sum, O(n) powf calls: about 1 ms at YCSB's 64 Ki keys
        // and 35-46 ms at serve's 2 Mi-key tenants on a 2-vCPU Xeon, so
        // callers that repeat an (n, theta) build it once and share it.
        (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
    }

    /// Number of distinct values.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Draws the next Zipf-distributed index in `0..n` (0 is hottest).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u: f64 = rng.gen_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let idx = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        idx.min(self.n - 1)
    }

    /// The `zeta(2, theta)` constant (exposed for tests).
    pub fn zeta2(&self) -> f64 {
        self.zeta2
    }

    /// Every field's bits, for tests that pin a shared instance to a
    /// fresh one.
    #[cfg(test)]
    pub(crate) fn bits(&self) -> [u64; 6] {
        [
            self.n,
            self.theta.to_bits(),
            self.alpha.to_bits(),
            self.zetan.to_bits(),
            self.eta.to_bits(),
            self.zeta2.to_bits(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn samples_stay_in_range() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 1000);
        }
    }

    #[test]
    fn distribution_is_skewed() {
        let z = Zipfian::new(1000, 0.99);
        let mut rng = SimRng::seed_from_u64(2);
        let mut hot = 0;
        const DRAWS: usize = 20_000;
        for _ in 0..DRAWS {
            if z.sample(&mut rng) < 10 {
                hot += 1;
            }
        }
        // Top-1% of keys should draw far more than 1% of samples.
        assert!(
            hot as f64 / DRAWS as f64 > 0.3,
            "zipfian skew too weak: {hot}/{DRAWS}"
        );
    }

    #[test]
    fn tiny_ranges_work() {
        let z = Zipfian::new(1, 0.5);
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_range_rejected() {
        Zipfian::new(0, 0.9);
    }
}
