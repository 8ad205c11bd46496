//! The benchmark's own deterministic randomness: a SplitMix64 stream
//! and a Zipf sampler over a finite key space.
//!
//! The harness owns its generator so that an op sequence depends on
//! the `--seed` argument alone — not on the `rand` shim the engine's
//! dataset generator happens to use.

/// SplitMix64: tiny, fast, and good enough to drive a workload mix.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for `label` (one per workload, connection
    /// or template), so adding a draw to one stream never shifts the
    /// values of another.
    pub fn fork(&self, label: u64) -> Rng {
        let mut r = Rng(self.0 ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) has no values to draw");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf distribution over ranks `0..n`: `P(rank r) ∝ 1 / (r + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    /// Inclusive cumulative mass per rank; the last entry is 1.
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "a Zipf sampler needs at least one rank");
        let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    /// Probability mass of `rank`.
    #[cfg(test)]
    pub fn mass(&self, rank: usize) -> f64 {
        let below = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - below
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_forks_are_independent() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = Rng::new(43);
        assert_ne!(xs[0], c.next_u64());
        let base = Rng::new(7);
        assert_ne!(base.fork(1).next_u64(), base.fork(2).next_u64());
        assert_eq!(base.fork(1).next_u64(), base.fork(1).next_u64());
    }

    #[test]
    fn below_stays_in_range_and_covers_it() {
        let mut r = Rng::new(1);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn zipf_mass_is_normalised_monotone_and_sampled_faithfully() {
        let z = Zipf::new(64, 1.1);
        let total: f64 = (0..64).map(|r| z.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-9, "mass sums to {total}");
        for r in 1..64 {
            assert!(z.mass(r) < z.mass(r - 1), "mass must fall with rank");
        }
        // P(0)/P(1) = 2^s by definition.
        assert!((z.mass(0) / z.mass(1) - 2f64.powf(1.1)).abs() < 1e-9);
        // Empirical head mass tracks the analytic one.
        let mut rng = Rng::new(9);
        let n = 200_000;
        let head = (0..n).filter(|_| z.sample(&mut rng) < 4).count() as f64 / n as f64;
        let want: f64 = (0..4).map(|r| z.mass(r)).sum();
        assert!((head - want).abs() < 0.01, "head {head} vs analytic {want}");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(5).shuffle(&mut a);
        Rng::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<u32>>());
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }
}
