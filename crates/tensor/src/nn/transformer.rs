//! Pre-LN transformer encoder block.

use rand::Rng;

use crate::nn::{
    join_name, FeedForward, LayerNorm, Mode, Module, MultiHeadAttention, ParamMap,
};
use crate::tensor::Tensor;

/// `x + MHA(LN(x))` followed by `x + FFN(LN(x))` (pre-norm, which trains
/// stably without a warmup-critical schedule).
pub struct TransformerBlock {
    attn: MultiHeadAttention,
    ffn: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
    dropout: f32,
}

impl TransformerBlock {
    /// Fresh block: `dim`-wide, `heads`-head attention and a
    /// `dim -> ffn_hidden -> dim` GELU feed-forward, with `dropout` applied
    /// to attention probabilities, residual branches, and the FFN hidden
    /// layer.
    pub fn new(dim: usize, heads: usize, ffn_hidden: usize, dropout: f32, rng: &mut impl Rng) -> Self {
        TransformerBlock {
            attn: MultiHeadAttention::new(dim, heads, dropout, rng),
            ffn: FeedForward::new(dim, ffn_hidden, dropout, rng),
            ln1: LayerNorm::new(dim),
            ln2: LayerNorm::new(dim),
            dropout,
        }
    }

    /// `x: [B, L, D]`, optional attention mask (see
    /// [`crate::nn::MultiHeadAttention`]).
    pub fn forward(&self, x: &Tensor, mask: Option<&Tensor>, mode: &mut Mode) -> Tensor {
        let attn_out = self
            .attn
            .forward_self(&self.ln1.forward(x), mask, mode);
        // `ln2(x + da)` is one fused node and the final `x + da + df` a
        // single three-way sum; both keep the left-to-right element order of
        // the node-per-op composition (pinned by `tests/fused_parity.rs`).
        let da = mode.dropout(&attn_out, self.dropout);
        let h2 = self.ln2.residual_forward(x, &da);
        let ffn_out = self.ffn.forward(&h2, mode);
        let df = mode.dropout(&ffn_out, self.dropout);
        x.add3(&da, &df)
    }

    /// The block's attention sublayer.
    pub fn attention(&self) -> &MultiHeadAttention {
        &self.attn
    }
}

impl Module for TransformerBlock {
    fn collect_params(&self, prefix: &str, map: &mut ParamMap) {
        self.attn.collect_params(&join_name(prefix, "attn"), map);
        self.ffn.collect_params(&join_name(prefix, "ffn"), map);
        self.ln1.collect_params(&join_name(prefix, "ln1"), map);
        self.ln2.collect_params(&join_name(prefix, "ln2"), map);
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
        let block = TransformerBlock::new(8, 2, 16, 0.0, &mut rng);
        let x = Tensor::ones([2, 5, 8]);
        assert_eq!(block.forward(&x, None, &mut Mode::Eval).dims(), &[2, 5, 8]);
    }

    #[test]
    fn residual_keeps_input_information() {
        // With zeroed attention/ffn output weights the block is identity.
        let mut rng = StdRng::seed_from_u64(0);
        let block = TransformerBlock::new(4, 1, 8, 0.0, &mut rng);
        let x = Tensor::from_vec((0..8).map(|v| v as f32 * 0.1).collect(), [1, 2, 4]);
        let y = block.forward(&x, None, &mut Mode::Eval);
        // Not identity in general, but the residual guarantees the output
        // is x plus something — check the correlation is strong.
        let xv = x.to_vec();
        let yv = y.to_vec();
        let diff_norm: f32 = xv.iter().zip(&yv).map(|(a, b)| (a - b).powi(2)).sum();
        let x_norm: f32 = xv.iter().map(|a| a * a).sum();
        assert!(diff_norm < 50.0 * x_norm.max(1.0));
    }

    #[test]
    fn param_count_is_stable() {
        let mut rng = StdRng::seed_from_u64(0);
        let block = TransformerBlock::new(8, 2, 16, 0.1, &mut rng);
        // attn 8 + ffn 4 + 2×ln 2 = 16 tensors
        assert_eq!(block.param_map("blk").len(), 16);
    }

    #[test]
    fn all_params_receive_grad() {
        let mut rng = StdRng::seed_from_u64(0);
        let block = TransformerBlock::new(4, 2, 8, 0.0, &mut rng);
        let x = Tensor::ones([1, 3, 4]);
        block
            .forward(&x, None, &mut Mode::Eval)
            .sum_all()
            .backward();
        for (name, t) in block.param_map("blk").iter() {
            assert!(t.grad().is_some(), "{name} missing grad");
        }
    }
}
