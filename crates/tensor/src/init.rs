//! Parameter initializers. All take an explicit RNG so every model in the
//! workspace is reproducible from a seed.

use rand::Rng;
use rand_distr::{Distribution, Normal, Uniform};

use crate::shape::Shape;
use crate::tensor::Tensor;

/// Uniform initialization in `[low, high)`.
pub fn uniform(shape: impl Into<Shape>, low: f32, high: f32, rng: &mut impl Rng) -> Tensor {
    let shape = shape.into();
    let dist = Uniform::new(low, high);
    let data: Vec<f32> = (0..shape.numel()).map(|_| dist.sample(rng)).collect();
    Tensor::from_vec(data, shape)
}

/// Normal initialization with the given mean and standard deviation.
pub fn normal(shape: impl Into<Shape>, mean: f32, std: f32, rng: &mut impl Rng) -> Tensor {
    let shape = shape.into();
    let dist = Normal::new(mean, std).expect("std must be finite and positive");
    let data: Vec<f32> = (0..shape.numel()).map(|_| dist.sample(rng)).collect();
    Tensor::from_vec(data, shape)
}

/// Xavier/Glorot uniform for a `[fan_in, fan_out]` weight matrix.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform([fan_in, fan_out], -bound, bound, rng)
}

/// Embedding-table initialization: small normal, matching the common
/// `N(0, 0.02)` transformer convention.
pub fn embedding_table(vocab: usize, dim: usize, rng: &mut impl Rng) -> Tensor {
    normal([vocab, dim], 0.0, 0.02, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = uniform([100], -0.5, 0.5, &mut rng);
        assert!(t.to_vec().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn normal_moments_roughly_match() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = normal([10_000], 1.0, 2.0, &mut rng);
        let data = t.to_vec();
        let mean: f32 = data.iter().sum::<f32>() / data.len() as f32;
        let var: f32 =
            data.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / data.len() as f32;
        assert!((mean - 1.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = xavier_uniform(300, 300, &mut rng);
        let bound = (6.0f32 / 600.0).sqrt();
        assert!(t.to_vec().iter().all(|&v| v.abs() <= bound));
    }

    #[test]
    fn seeded_init_is_deterministic() {
        let a = embedding_table(10, 4, &mut StdRng::seed_from_u64(3));
        let b = embedding_table(10, 4, &mut StdRng::seed_from_u64(3));
        assert_eq!(a.to_vec(), b.to_vec());
    }
}
