//! Layer-normalization module wrapping the fused op.

use crate::nn::{join_name, Module, ParamMap};
use crate::tensor::Tensor;

/// The numerical-stability epsilon of every [`LayerNorm`].
pub const LAYER_NORM_EPS: f32 = 1e-5;

/// LayerNorm over the last axis with learnable affine parameters.
pub struct LayerNorm {
    gamma: Tensor,
    beta: Tensor,
    dim: usize,
}

impl LayerNorm {
    /// Fresh LayerNorm over a last axis of width `dim` (`gamma = 1`,
    /// `beta = 0`, eps [`LAYER_NORM_EPS`]).
    pub fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Tensor::ones([dim]).requires_grad(),
            beta: Tensor::zeros([dim]).requires_grad(),
            dim,
        }
    }

    /// Normalizes `x` over its last axis and applies the affine transform.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        debug_assert_eq!(*x.dims().last().unwrap(), self.dim, "layernorm dim mismatch");
        x.layer_norm(&self.gamma, &self.beta, LAYER_NORM_EPS)
    }

    /// Normalized axis width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Fused pre-LN residual sublayer: `layer_norm(a + b)` as a single
    /// autograd node ([`Tensor::residual_layer_norm`]), bit-for-bit equal to
    /// `self.forward(&a.add(b))`.
    pub fn residual_forward(&self, a: &Tensor, b: &Tensor) -> Tensor {
        debug_assert_eq!(*a.dims().last().unwrap(), self.dim, "layernorm dim mismatch");
        a.residual_layer_norm(b, &self.gamma, &self.beta, LAYER_NORM_EPS)
    }
}

impl Module for LayerNorm {
    fn collect_params(&self, prefix: &str, map: &mut ParamMap) {
        map.insert(join_name(prefix, "gamma"), self.gamma.clone());
        map.insert(join_name(prefix, "beta"), self.beta.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0], [1, 4]);
        let y = ln.forward(&x).to_vec();
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn registers_two_params() {
        let ln = LayerNorm::new(8);
        let map = ln.param_map("ln");
        assert_eq!(map.len(), 2);
        assert_eq!(map.numel(), 16);
    }
}
