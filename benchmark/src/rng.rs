//! The benchmark's own seeded randomness: `splitmix64`, a Fisher–Yates
//! shuffle and a Zipf sampler. Nothing here touches the system clock, so
//! the same `--seed` always produces the same inputs.

/// `splitmix64`: tiny, seedable, and good enough to pick scenarios.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..bound` (`bound` > 0). The modulo bias is below 2⁻⁵⁰
    /// for the bounds used here (≤ 2¹²).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `k` is drawn with
/// probability proportional to `1 / (k + 1)^s`. Sampling is a binary
/// search over the precomputed cumulative distribution.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "a Zipf distribution needs at least one rank");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, count: usize) -> Vec<usize> {
        let zipf = Zipf::new(64, 1.0);
        let mut rng = SplitMix64::new(seed);
        (0..count).map(|_| zipf.sample(&mut rng)).collect()
    }

    #[test]
    fn zipf_repeats_per_seed_and_differs_across_seeds() {
        assert_eq!(draws(7, 1000), draws(7, 1000));
        assert_ne!(draws(7, 1000), draws(8, 1000));
    }

    #[test]
    fn zipf_follows_the_harmonic_law() {
        let sample = draws(11, 200_000);
        let count = |rank: usize| sample.iter().filter(|&&r| r == rank).count() as f64;
        let h64: f64 = (1..=64).map(|k| 1.0 / k as f64).sum();
        let expected0 = sample.len() as f64 / h64;
        assert!((count(0) / expected0 - 1.0).abs() < 0.03, "rank 0 off");
        assert!((count(0) / count(1) - 2.0).abs() < 0.1, "rank 0 : rank 1");
        assert!((count(0) / count(3) - 4.0).abs() < 0.3, "rank 0 : rank 3");
        assert!(sample.iter().all(|&r| r < 64));
        assert!(count(63) > 0.0, "the tail is reachable");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        SplitMix64::new(5).shuffle(&mut a);
        SplitMix64::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..100).collect::<Vec<u32>>());
        a.sort_unstable();
        assert_eq!(a, (0..100).collect::<Vec<u32>>());
    }
}
