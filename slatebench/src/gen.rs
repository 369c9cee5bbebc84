//! Seeded input generation. Everything the program under test sees is
//! derived from `--seed` here; the program never sees the seed itself.

/// SplitMix64: small, fast, and good enough to drive arrival schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run seed `seed`, so the two
    /// clients (and each phase) draw independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Due times (seconds from the slice's start) of the first `count`
/// arrivals of a Poisson process of `rate_hz`.
pub fn poisson_schedule(rng: &mut Rng, rate_hz: f64, count: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.unit()).ln() / rate_hz;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(&mut Rng::new(7, 1), 250.0, 1000);
        let b = poisson_schedule(&mut Rng::new(7, 1), 250.0, 1000);
        let c = poisson_schedule(&mut Rng::new(8, 1), 250.0, 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
        assert!((a[999] - 4.0).abs() < 0.6, "{}", a[999]);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
    }
}
