//! Seeded input generators: the benchmark's own PRNG, permutations and a
//! Zipf sampler. They are independent of the library's RNG so that the
//! request streams stay the same when the library changes.

/// SplitMix64: a small, fast, fully specified 64-bit generator.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// A generator for stream `stream` of `seed`, decorrelated from the
    /// other streams of the same seed.
    pub fn stream(seed: u64, stream: u64) -> SplitMix64 {
        let mut base = SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        SplitMix64(base.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let mut out: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// Zipf over ranks `0..n`: `P(r) ∝ 1 / (r + 1)^s`, sampled by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty range");
        let mut acc = 0.0f64;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in cdf.iter_mut() {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed_and_stream() {
        let draw = |mut r: SplitMix64| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>();
        assert_eq!(draw(SplitMix64::new(7)), draw(SplitMix64::new(7)));
        assert_ne!(draw(SplitMix64::new(7)), draw(SplitMix64::new(8)));
        assert_eq!(
            draw(SplitMix64::stream(7, 1)),
            draw(SplitMix64::stream(7, 1))
        );
        assert_ne!(
            draw(SplitMix64::stream(7, 0)),
            draw(SplitMix64::stream(7, 1))
        );
    }

    #[test]
    fn below_and_unit_stay_in_range() {
        let mut r = SplitMix64::new(3);
        for n in [1usize, 2, 3, 10, 1000] {
            for _ in 0..1000 {
                assert!(r.below(n) < n);
            }
        }
        for _ in 0..1000 {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn permutation_is_deterministic_and_complete() {
        let a = permutation(1000, 11);
        assert_eq!(a, permutation(1000, 11));
        assert_ne!(a, permutation(1000, 12));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..1000).collect::<Vec<u32>>());
        assert!(permutation(0, 1).is_empty());
        assert_eq!(permutation(1, 1), vec![0]);
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let z = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..20_000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        assert!(a.iter().all(|&r| r < 1000));
        let mut counts = vec![0usize; 1000];
        for &r in &a {
            counts[r] += 1;
        }
        // P(0) = 1 / H(1000) ≈ 0.134 and P(1) is half of it.
        let p0 = counts[0] as f64 / a.len() as f64;
        assert!((0.12..0.15).contains(&p0), "P(rank 0) = {p0}");
        assert!(counts[0] > counts[1] && counts[1] > counts[9]);
    }

    #[test]
    fn zipf_of_one_rank_always_draws_it() {
        let z = Zipf::new(1, 1.2);
        let mut r = SplitMix64::new(1);
        assert!((0..100).all(|_| z.sample(&mut r) == 0));
    }
}
