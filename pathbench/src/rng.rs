//! Seeded input generation: every input of a workload (graph seed, Zipf
//! draws, stream shuffles) is derived from the one `--seed` argument, so the
//! same seed always yields the same inputs.

/// SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): a small, fast generator
/// whose output sequence depends only on its seed.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for the input stream named `stream` under `seed`.
    /// Different stream names give independent sequences, so adding a draw
    /// to one stream never shifts another.
    pub fn for_stream(seed: u64, stream: &str) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for byte in stream.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
        let mut rng = SplitMix64(state);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (((self.next_u64() >> 11) as u128 * n as u128) >> 53) as usize
    }
}

/// Zipf distribution over ranks `0..n`: rank `i` is drawn with weight
/// `1 / (i + 1)^exponent`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "a Zipf distribution needs at least one rank");
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(exponent);
                acc
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let x = rng.next_f64() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i + 1);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds_and_names() {
        let draw = |seed, name| {
            let mut rng = SplitMix64::for_stream(seed, name);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "zipf"), draw(7, "zipf"));
        assert_ne!(draw(7, "zipf"), draw(8, "zipf"));
        assert_ne!(draw(7, "zipf"), draw(7, "shuffle"));
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_skewed_to_low_ranks() {
        let zipf = Zipf::new(100, 1.0);
        let draws = |seed| {
            let mut rng = SplitMix64::for_stream(seed, "zipf");
            (0..2000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draws(1);
        assert_eq!(a, draws(1));
        assert_ne!(a, draws(2));
        assert!(a.iter().all(|&r| r < 100));
        let head = a.iter().filter(|&&r| r < 10).count();
        let tail = a.iter().filter(|&&r| r >= 90).count();
        assert!(head > 5 * tail, "head {head}, tail {tail}");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            shuffle(&mut v, &mut SplitMix64::for_stream(seed, "shuffle"));
            v
        };
        let a = shuffled(3);
        assert_eq!(a, shuffled(3));
        assert_ne!(a, shuffled(4));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::for_stream(0, "below");
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }
}
