//! Position-wise feed-forward network (the transformer MLP block).

use rand::Rng;

use crate::nn::{join_name, Linear, Mode, Module, ParamMap};
use crate::tensor::Tensor;

/// `Linear -> GELU -> dropout -> Linear`, both linears with a bias.
pub struct FeedForward {
    lin1: Linear,
    lin2: Linear,
    dropout: f32,
}

impl FeedForward {
    /// Fresh FFN: `dim -> hidden -> dim` with the given dropout rate on
    /// the hidden layer.
    pub fn new(dim: usize, hidden: usize, dropout: f32, rng: &mut impl Rng) -> Self {
        FeedForward {
            lin1: Linear::new(dim, hidden, rng),
            lin2: Linear::new(hidden, dim, rng),
            dropout,
        }
    }

    /// Applies the block to `x` (last dim must equal `dim`).
    pub fn forward(&self, x: &Tensor, mode: &mut Mode) -> Tensor {
        // Fused epilogue: matmul -> bias_gelu as one node instead of
        // matmul -> add -> gelu as three. Same values, same gradients.
        let bias = self.lin1.bias().expect("Linear::new carries a bias");
        let h = x.matmul(self.lin1.weight()).bias_gelu(bias);
        let h = mode.dropout(&h, self.dropout);
        self.lin2.forward(&h)
    }
}

impl Module for FeedForward {
    fn collect_params(&self, prefix: &str, map: &mut ParamMap) {
        self.lin1.collect_params(&join_name(prefix, "lin1"), map);
        self.lin2.collect_params(&join_name(prefix, "lin2"), map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let ffn = FeedForward::new(8, 32, 0.0, &mut rng);
        let x = Tensor::ones([2, 5, 8]);
        assert_eq!(ffn.forward(&x, &mut Mode::Eval).dims(), &[2, 5, 8]);
    }

    #[test]
    fn four_params_registered() {
        let mut rng = StdRng::seed_from_u64(0);
        let ffn = FeedForward::new(4, 8, 0.1, &mut rng);
        assert_eq!(ffn.param_map("ffn").len(), 4);
    }

    #[test]
    fn eval_mode_deterministic() {
        let mut rng = StdRng::seed_from_u64(0);
        let ffn = FeedForward::new(4, 8, 0.5, &mut rng);
        let x = Tensor::ones([1, 4]);
        let a = ffn.forward(&x, &mut Mode::Eval).to_vec();
        let b = ffn.forward(&x, &mut Mode::Eval).to_vec();
        assert_eq!(a, b);
    }
}
