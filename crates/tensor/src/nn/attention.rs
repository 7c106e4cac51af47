//! Multi-head (self- or cross-) attention with masking.

use rand::Rng;

use crate::nn::{join_name, Linear, Mode, Module, ParamMap};
use crate::tensor::Tensor;

/// Standard scaled dot-product multi-head attention.
///
/// Masks are `0/1` tensors where **1 means "blocked"**, broadcastable to the
/// per-head score shape `[B*H, Lq, Lk]`. Use [`causal_mask`] (shape
/// `[Lq, Lk]`) and [`key_padding_mask`] (shape `[B*H, 1, Lk]`) to build
/// them; combine by `maximum`.
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
    head_dim: usize,
    dropout: f32,
}

impl MultiHeadAttention {
    /// Fresh attention block with `dim`-wide Q/K/V/O projections split over
    /// `heads` heads and attention-probability dropout rate `dropout`.
    pub fn new(dim: usize, heads: usize, dropout: f32, rng: &mut impl Rng) -> Self {
        assert!(heads > 0 && dim.is_multiple_of(heads), "dim {dim} not divisible by heads {heads}");
        MultiHeadAttention {
            wq: Linear::new(dim, dim, rng),
            wk: Linear::new(dim, dim, rng),
            wv: Linear::new(dim, dim, rng),
            wo: Linear::new(dim, dim, rng),
            heads,
            dim,
            head_dim: dim / heads,
            dropout,
        }
    }

    /// `[B, L, D] -> [B*H, L, Dh]`.
    fn split_heads(&self, x: &Tensor) -> Tensor {
        let (b, l) = (x.dims()[0], x.dims()[1]);
        x.reshape([b, l, self.heads, self.head_dim])
            .permute(&[0, 2, 1, 3])
            .reshape([b * self.heads, l, self.head_dim])
    }

    /// `[B*H, L, Dh] -> [B, L, D]`.
    fn merge_heads(&self, x: &Tensor, b: usize) -> Tensor {
        let l = x.dims()[1];
        x.reshape([b, self.heads, l, self.head_dim])
            .permute(&[0, 2, 1, 3])
            .reshape([b, l, self.dim])
    }

    /// Attention over `query [B, Lq, D]`, `key/value [B, Lk, D]`.
    pub fn forward(
        &self,
        query: &Tensor,
        key: &Tensor,
        value: &Tensor,
        mask: Option<&Tensor>,
        mode: &mut Mode,
    ) -> Tensor {
        let b = query.dims()[0];
        debug_assert_eq!(key.dims()[0], b);
        debug_assert_eq!(value.dims()[0], b);
        let q = self.split_heads(&self.wq.forward(query));
        let k = self.split_heads(&self.wk.forward(key));
        let v = self.split_heads(&self.wv.forward(value));

        let scale = 1.0 / (self.head_dim as f32).sqrt();
        // One-node SDPA: bit-for-bit the bmm -> scale -> mask -> softmax ->
        // dropout -> bmm composition (the dropout mask is drawn up front,
        // exactly where that composition would draw it), pinned by
        // `tests/fused_parity.rs`.
        let (bh, lq, lk) = (q.dims()[0], q.dims()[1], k.dims()[1]);
        let dmask = mode.dropout_mask_for(bh * lq * lk, self.dropout);
        let ctx = q.sdpa(&k, &v, mask, scale, dmask);
        self.wo.forward(&self.merge_heads(&ctx, b))
    }

    /// Self-attention convenience.
    pub fn forward_self(&self, x: &Tensor, mask: Option<&Tensor>, mode: &mut Mode) -> Tensor {
        self.forward(x, x, x, mask, mode)
    }

    /// Number of attention heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// Model dimension (input and output width).
    pub fn dim(&self) -> usize {
        self.dim
    }
}

impl Module for MultiHeadAttention {
    fn collect_params(&self, prefix: &str, map: &mut ParamMap) {
        self.wq.collect_params(&join_name(prefix, "wq"), map);
        self.wk.collect_params(&join_name(prefix, "wk"), map);
        self.wv.collect_params(&join_name(prefix, "wv"), map);
        self.wo.collect_params(&join_name(prefix, "wo"), map);
    }
}

/// Causal (autoregressive) mask of shape `[L, L]`: 1 above the diagonal.
pub fn causal_mask(len: usize) -> Tensor {
    let mut data = vec![0.0f32; len * len];
    for i in 0..len {
        for j in (i + 1)..len {
            data[i * len + j] = 1.0;
        }
    }
    Tensor::from_vec(data, [len, len])
}

/// Key-padding mask of shape `[B*H, 1, Lk]` from per-position validity
/// (`valid[b*lk + j] != 0` means position j of batch b is real).
pub fn key_padding_mask(valid: &[f32], batch: usize, heads: usize, lk: usize) -> Tensor {
    assert_eq!(valid.len(), batch * lk, "validity length mismatch");
    let mut data = vec![0.0f32; batch * heads * lk];
    for b in 0..batch {
        for h in 0..heads {
            for j in 0..lk {
                data[(b * heads + h) * lk + j] = if valid[b * lk + j] != 0.0 { 0.0 } else { 1.0 };
            }
        }
    }
    Tensor::from_vec(data, [batch * heads, 1, lk])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_matches_query() {
        let mut rng = StdRng::seed_from_u64(0);
        let attn = MultiHeadAttention::new(8, 2, 0.0, &mut rng);
        let q = Tensor::ones([2, 3, 8]);
        let kv = Tensor::ones([2, 5, 8]);
        let y = attn.forward(&q, &kv, &kv, None, &mut Mode::Eval);
        assert_eq!(y.dims(), &[2, 3, 8]);
    }

    #[test]
    fn causal_mask_blocks_future() {
        let m = causal_mask(3);
        assert_eq!(
            m.to_vec(),
            vec![0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn causal_attention_ignores_future_tokens() {
        let mut rng = StdRng::seed_from_u64(3);
        let attn = MultiHeadAttention::new(4, 1, 0.0, &mut rng);
        // Two inputs identical in the first 2 positions, different at pos 3.
        let mut a = vec![0.1f32; 3 * 4];
        let mut b = vec![0.1f32; 3 * 4];
        for i in 0..4 {
            a[2 * 4 + i] = 1.0;
            b[2 * 4 + i] = -1.0;
        }
        let xa = Tensor::from_vec(a, [1, 3, 4]);
        let xb = Tensor::from_vec(b, [1, 3, 4]);
        let mask = causal_mask(3);
        let ya = attn.forward_self(&xa, Some(&mask), &mut Mode::Eval).to_vec();
        let yb = attn.forward_self(&xb, Some(&mask), &mut Mode::Eval).to_vec();
        // Outputs at positions 0 and 1 must be identical.
        for i in 0..8 {
            assert!((ya[i] - yb[i]).abs() < 1e-5, "position leaked future info");
        }
        // Position 2 must differ.
        assert!((8..12).any(|i| (ya[i] - yb[i]).abs() > 1e-3));
    }

    #[test]
    fn key_padding_mask_blocks_padded_keys() {
        let mut rng = StdRng::seed_from_u64(1);
        let attn = MultiHeadAttention::new(4, 2, 0.0, &mut rng);
        // Batch of 1, 3 positions, last one padded.
        let valid = vec![1.0, 1.0, 0.0];
        let mask = key_padding_mask(&valid, 1, 2, 3);
        assert_eq!(mask.dims(), &[2, 1, 3]);
        // Changing the padded key must not change the output.
        let mut base = vec![0.3f32; 3 * 4];
        let mut alt = base.clone();
        for i in 0..4 {
            alt[2 * 4 + i] = 9.0;
        }
        base[2 * 4] += 0.0;
        let xa = Tensor::from_vec(base, [1, 3, 4]);
        let xb = Tensor::from_vec(alt, [1, 3, 4]);
        // Use xa's first two positions as queries against both key sets.
        let q = xa.narrow(1, 0, 2);
        let ya = attn.forward(&q, &xa, &xa, Some(&mask), &mut Mode::Eval).to_vec();
        let yb = attn.forward(&q, &xb, &xb, Some(&mask), &mut Mode::Eval).to_vec();
        for (u, v) in ya.iter().zip(yb.iter()) {
            assert!((u - v).abs() < 1e-5, "padded key leaked");
        }
    }

    #[test]
    fn params_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let attn = MultiHeadAttention::new(8, 2, 0.0, &mut rng);
        // 4 linears × (weight + bias)
        assert_eq!(attn.param_map("a").len(), 8);
    }

    #[test]
    fn gradients_flow_to_all_projections() {
        let mut rng = StdRng::seed_from_u64(0);
        let attn = MultiHeadAttention::new(4, 2, 0.0, &mut rng);
        let x = Tensor::ones([1, 3, 4]);
        attn.forward_self(&x, None, &mut Mode::Eval).sum_all().backward();
        for t in attn.param_map("a").tensors() {
            assert!(t.grad().is_some());
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn dim_head_mismatch_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        MultiHeadAttention::new(6, 4, 0.0, &mut rng);
    }
}
