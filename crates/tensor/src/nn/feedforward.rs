//! Position-wise feed-forward network (the transformer MLP block).

use rand::Rng;

use crate::nn::{join_name, Linear, Mode, Module, ParamMap};
use crate::tensor::Tensor;

/// Inner activation of the FFN.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation to a borrowed tensor.
    pub fn apply(self, x: &Tensor) -> Tensor {
        match self {
            Activation::Relu => x.relu(),
            Activation::Gelu => x.gelu(),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Consuming form for owned intermediates: reuses `x`'s buffer in place
    /// when it is untracked and uniquely owned (inference), identical math
    /// otherwise.
    fn apply_owned(self, x: Tensor) -> Tensor {
        match self {
            Activation::Relu => x.into_relu(),
            Activation::Gelu => x.into_gelu(),
            Activation::Tanh => x.into_tanh(),
        }
    }
}

/// `Linear -> activation -> dropout -> Linear`.
pub struct FeedForward {
    lin1: Linear,
    lin2: Linear,
    activation: Activation,
    dropout: f32,
}

impl FeedForward {
    /// Fresh FFN: `dim -> hidden -> dim` with the given inner activation and
    /// dropout rate on the hidden layer.
    pub fn new(dim: usize, hidden: usize, activation: Activation, dropout: f32, rng: &mut impl Rng) -> Self {
        FeedForward {
            lin1: Linear::new(dim, hidden, rng),
            lin2: Linear::new(hidden, dim, rng),
            activation,
            dropout,
        }
    }

    /// Applies the block to `x` (last dim must equal `dim`).
    pub fn forward(&self, x: &Tensor, mode: &mut Mode) -> Tensor {
        let h = match self.lin1.bias() {
            // Fused epilogue: matmul -> bias_gelu as one node instead of
            // matmul -> add -> gelu as three. Same values, same gradients.
            Some(b) if self.activation == Activation::Gelu => {
                x.matmul(self.lin1.weight()).bias_gelu(b)
            }
            _ => {
                let _sp = mbssl_telemetry::span("kernel.ffn_unfused");
                self.activation.apply_owned(self.lin1.forward(x))
            }
        };
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
        let ffn = FeedForward::new(8, 32, Activation::Gelu, 0.0, &mut rng);
        let x = Tensor::ones([2, 5, 8]);
        assert_eq!(ffn.forward(&x, &mut Mode::Eval).dims(), &[2, 5, 8]);
    }

    #[test]
    fn four_params_registered() {
        let mut rng = StdRng::seed_from_u64(0);
        let ffn = FeedForward::new(4, 8, Activation::Relu, 0.1, &mut rng);
        assert_eq!(ffn.param_map("ffn").len(), 4);
    }

    #[test]
    fn eval_mode_deterministic() {
        let mut rng = StdRng::seed_from_u64(0);
        let ffn = FeedForward::new(4, 8, Activation::Relu, 0.5, &mut rng);
        let x = Tensor::ones([1, 4]);
        let a = ffn.forward(&x, &mut Mode::Eval).to_vec();
        let b = ffn.forward(&x, &mut Mode::Eval).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn activations_differ() {
        let x = Tensor::from_slice(&[-1.0, 1.0], [2]);
        assert_eq!(Activation::Relu.apply(&x).to_vec(), vec![0.0, 1.0]);
        assert!(Activation::Gelu.apply(&x).to_vec()[0] < 0.0);
        assert!((Activation::Tanh.apply(&x).to_vec()[1] - 1.0f32.tanh()).abs() < 1e-6);
    }
}
