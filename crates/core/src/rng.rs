//! Deterministic pseudo-random numbers for reproducible runs.
//!
//! Every simulation run — and every scenario-driven load-generator run —
//! is driven by a seeded [`Rng`] (xoshiro256++), so a `(seed, workload,
//! policy, config)` tuple always reproduces the exact same event
//! sequence. The simulator, the threaded runtime's client, and the
//! scenario engine all draw from this one implementation, which is why a
//! spec replays identically on both backends. No external RNG crates are
//! used on any hot path.

/// A xoshiro256++ generator with a splitmix64-based seeder.
///
/// # Examples
///
/// ```
/// use persephone_core::rng::Rng;
///
/// let mut a = Rng::new(7);
/// let mut b = Rng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.next_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a seed; any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        // Seed the xoshiro state through splitmix64, as its authors advise.
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Derives an independent stream: useful to decorrelate arrival,
    /// service, and type-choice randomness from a single experiment seed.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }

    /// The next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // audit:allow(A1): constant indices into the fixed [u64; 4] state
        let result = (self.s[0].wrapping_add(self.s[3]))
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        // audit:allow(A1): constant indices into the fixed [u64; 4] state
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        // audit:allow(A1): constant indices into the fixed [u64; 4] state
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        // audit:allow(A1): constant indices into the fixed [u64; 4] state
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)`, using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `(0, 1]` (never zero — safe for `ln`).
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn next_below(&mut self, n: u64) -> u64 {
        // audit:allow(A1): n == 0 is a caller bug; crashing is the contract
        assert!(n > 0, "next_below(0)");
        // Lemire-style widening multiply; bias is negligible for our n.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// An exponentially distributed value with the given mean.
    #[inline]
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        -mean * self.next_f64_open().ln()
    }

    /// A standard normal deviate (Box–Muller, one value per call).
    #[inline]
    pub fn next_normal(&mut self) -> f64 {
        let u1 = self.next_f64_open();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
    }

    /// Picks an index according to `weights` (need not be normalized).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn pick_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        self.pick_weighted_of(weights, total)
    }

    /// [`Rng::pick_weighted`] for a caller that keeps `total`, the sum
    /// `weights.iter().sum()`, so repeated picks over one weight vector
    /// need not re-add it. Draws exactly what `pick_weighted` draws.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or `total` is not positive.
    pub fn pick_weighted_of(&mut self, weights: &[f64], total: f64) -> usize {
        assert!(
            !weights.is_empty() && total > 0.0,
            "pick_weighted needs positive weights"
        );
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Rng::new(123);
        let mut b = Rng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(124);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn fork_decorrelates() {
        let mut a = Rng::new(5);
        let mut f1 = a.fork();
        let mut f2 = a.fork();
        assert_ne!(f1.next_u64(), f2.next_u64());
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = Rng::new(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn next_below_stays_in_range_and_covers() {
        let mut r = Rng::new(1);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = Rng::new(42);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.next_exp(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = Rng::new(77);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.next_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn weighted_pick_matches_ratios() {
        let mut r = Rng::new(3);
        let weights = [0.995, 0.005];
        let mut counts = [0u64; 2];
        for _ in 0..200_000 {
            counts[r.pick_weighted(&weights)] += 1;
        }
        let ratio = counts[1] as f64 / 200_000.0;
        assert!((ratio - 0.005).abs() < 0.002, "long ratio = {ratio}");
    }

    #[test]
    #[should_panic(expected = "positive weights")]
    fn weighted_pick_rejects_empty() {
        Rng::new(0).pick_weighted(&[]);
    }
}
