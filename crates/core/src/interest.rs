//! Multi-interest extraction: pooling contextual sequence states into `K`
//! interest vectors, optionally restricted to a behavior-specific subset of
//! positions.

use rand::rngs::StdRng;

use mbssl_tensor::init;
use mbssl_tensor::nn::{join_name, Module, ParamMap};
use mbssl_tensor::Tensor;

use crate::config::{ExtractorKind, ModelConfig};

/// A multi-interest extractor.
pub enum InterestExtractor {
    /// ComiRec-SA: `A = softmax(W2ᵀ tanh(W1 Hᵀ))`, interests `Z = A·H`.
    SelfAttentive {
        /// First projection `[D, Da]`.
        w1: Tensor,
        /// Second projection `[Da, K]`.
        w2: Tensor,
        /// Number of interest heads.
        k: usize,
    },
    /// MIND dynamic routing with squash; routing logits start from a fixed
    /// seeded noise table (symmetry breaking, deterministic at eval).
    DynamicRouting {
        /// Shared capsule transform `[D, D]`.
        transform: Tensor,
        /// Fixed (non-trainable) routing-logit noise `[K, max_len]`.
        routing_init: Tensor,
        /// Number of interest heads.
        k: usize,
        /// Routing iterations.
        iters: usize,
    },
}

impl InterestExtractor {
    /// Builds the extractor selected by `config.extractor`.
    pub fn new(config: &ModelConfig, rng: &mut StdRng) -> Self {
        match config.extractor {
            ExtractorKind::SelfAttentive => InterestExtractor::SelfAttentive {
                w1: init::xavier_uniform(config.dim, config.extractor_hidden, rng).requires_grad(),
                w2: init::xavier_uniform(config.extractor_hidden, config.num_interests, rng)
                    .requires_grad(),
                k: config.num_interests,
            },
            ExtractorKind::DynamicRouting => InterestExtractor::DynamicRouting {
                transform: init::xavier_uniform(config.dim, config.dim, rng).requires_grad(),
                routing_init: init::normal(
                    [config.num_interests, config.max_seq_len],
                    0.0,
                    1.0,
                    rng,
                ),
                k: config.num_interests,
                iters: config.routing_iters,
            },
        }
    }

    /// Number of interest heads `K`.
    pub fn num_interests(&self) -> usize {
        match self {
            InterestExtractor::SelfAttentive { k, .. } => *k,
            InterestExtractor::DynamicRouting { k, .. } => *k,
        }
    }

    /// Pools `h: [B, L, D]` into `[B, K, D]` using only positions where
    /// `allowed[b*L + t] != 0` (row-major `[B, L]`). Rows with no allowed
    /// positions produce uniform attention over everything — callers must
    /// gate such rows via their own validity flags.
    pub fn forward(&self, h: &Tensor, allowed: &[f32]) -> Tensor {
        self.pool(h, &self.project(h), allowed)
    }

    /// The mask-independent half of the extractor: the self-attentive
    /// logits `tanh(h·W1)·W2` `[B, L, K]`, or the routing capsules `h·T`
    /// `[B, L, D]`. Several masks over one `h` share one projection.
    pub fn project(&self, h: &Tensor) -> Tensor {
        match self {
            InterestExtractor::SelfAttentive { w1, w2, .. } => h.matmul(w1).into_tanh().matmul(w2),
            InterestExtractor::DynamicRouting { transform, .. } => h.matmul(transform),
        }
    }

    /// The mask-dependent half: pools `h` into `[B, K, D]` interests
    /// through its [`project`](Self::project)ion, over the positions
    /// `allowed` admits (the contract of [`forward`](Self::forward)).
    pub fn pool(&self, h: &Tensor, projection: &Tensor, allowed: &[f32]) -> Tensor {
        self.attend(h, projection, allowed).1
    }

    /// The attention weights `[B, K, L]` of the self-attentive extractor
    /// (for interest-inspection tooling). Dynamic routing returns its final
    /// routing distribution.
    pub fn attention_weights(&self, h: &Tensor, allowed: &[f32]) -> Tensor {
        self.attend(h, &self.project(h), allowed).0
    }

    /// The extractor's pooling computation over a projection of `h`: the
    /// final attention (or routing) weights `[B, K, L]` and the interests
    /// `[B, K, D]`. With zero routing iterations the interests are zeros
    /// and the weights are the masked softmax of the initial routing
    /// logits.
    fn attend(&self, h: &Tensor, projection: &Tensor, allowed: &[f32]) -> (Tensor, Tensor) {
        let (b, l, d) = (h.dims()[0], h.dims()[1], h.dims()[2]);
        assert_eq!(allowed.len(), b * l, "allowed mask shape mismatch");
        let blocked: Vec<f32> = allowed.iter().map(|&v| 1.0 - v).collect();
        match self {
            InterestExtractor::SelfAttentive { k, .. } => {
                // Mask disallowed positions of the [B, L, K] logits,
                // softmax over L.
                let blocked_t = Tensor::from_vec(blocked, [b, l, 1]);
                let attn = projection
                    .masked_fill(&blocked_t, -1e9)
                    .permute(&[0, 2, 1]) // [B, K, L]
                    .softmax_lastdim();
                let z = attn.bmm(h).reshape([b, *k, d]);
                (attn, z)
            }
            InterestExtractor::DynamicRouting {
                routing_init,
                k,
                iters,
                ..
            } => {
                let s = projection; // [B, L, D]
                // Initial routing logits: fixed noise, tiled over batch.
                let init_vec = routing_init.narrow(1, 0, l).to_vec(); // [K, L]
                let mut logits_data = Vec::with_capacity(b * *k * l);
                for _ in 0..b {
                    logits_data.extend_from_slice(&init_vec);
                }
                let mut logits = Tensor::from_vec(logits_data, [b, *k, l]);
                // [B, 1, L] broadcastable over K.
                let blocked_t = Tensor::from_vec(blocked, [b, 1, l]);

                let mut c = logits.masked_fill(&blocked_t, -1e9).softmax_lastdim(); // [B, K, L]
                let mut z = Tensor::zeros([b, *k, d]);
                for iter in 0..*iters {
                    z = squash(&c.bmm(s)); // [B, K, D]
                    if iter + 1 < *iters {
                        // logits += <s_l, z_k> ; agreement [B, K, L].
                        logits = logits.add(&z.bmm(&s.transpose_last()));
                        c = logits.masked_fill(&blocked_t, -1e9).softmax_lastdim();
                    }
                }
                (c, z)
            }
        }
    }
}

/// Capsule squash: `v = (|x|² / (1 + |x|²)) · x / |x|` over the last axis.
fn squash(x: &Tensor) -> Tensor {
    let sq_norm = x.square().sum_axis(-1, true); // [B, K, 1]
    let norm = sq_norm.add_scalar(1e-9).sqrt();
    let scale = sq_norm.div(&sq_norm.add_scalar(1.0)).div(&norm);
    x.mul(&scale)
}

impl Module for InterestExtractor {
    fn collect_params(&self, prefix: &str, map: &mut ParamMap) {
        match self {
            InterestExtractor::SelfAttentive { w1, w2, .. } => {
                map.insert(join_name(prefix, "w1"), w1.clone());
                map.insert(join_name(prefix, "w2"), w2.clone());
            }
            InterestExtractor::DynamicRouting { transform, .. } => {
                map.insert(join_name(prefix, "transform"), transform.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use rand::SeedableRng;

    fn config(kind: ExtractorKind) -> ModelConfig {
        ModelConfig {
            dim: 8,
            extractor_hidden: 8,
            num_interests: 3,
            max_seq_len: 10,
            extractor: kind,
            ..ModelConfig::default()
        }
    }

    fn demo_h(b: usize, l: usize, d: usize) -> Tensor {
        Tensor::from_vec(
            (0..b * l * d).map(|i| ((i * 13 % 17) as f32) * 0.1 - 0.8).collect(),
            [b, l, d],
        )
    }

    #[test]
    fn self_attentive_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let ex = InterestExtractor::new(&config(ExtractorKind::SelfAttentive), &mut rng);
        let h = demo_h(2, 5, 8);
        let z = ex.forward(&h, &[1.0; 10]);
        assert_eq!(z.dims(), &[2, 3, 8]);
    }

    #[test]
    fn dynamic_routing_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let ex = InterestExtractor::new(&config(ExtractorKind::DynamicRouting), &mut rng);
        let h = demo_h(2, 5, 8);
        let z = ex.forward(&h, &[1.0; 10]);
        assert_eq!(z.dims(), &[2, 3, 8]);
        assert!(z.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn masked_positions_do_not_influence_interests() {
        let mut rng = StdRng::seed_from_u64(1);
        let ex = InterestExtractor::new(&config(ExtractorKind::SelfAttentive), &mut rng);
        let h1 = demo_h(1, 4, 8);
        // Change the last (masked) position's features.
        let mut data = h1.to_vec();
        for v in &mut data[3 * 8..] {
            *v += 5.0;
        }
        let h2 = Tensor::from_vec(data, [1, 4, 8]);
        let allowed = vec![1.0, 1.0, 1.0, 0.0];
        let z1 = ex.forward(&h1, &allowed).to_vec();
        let z2 = ex.forward(&h2, &allowed).to_vec();
        for (a, b) in z1.iter().zip(z2.iter()) {
            assert!((a - b).abs() < 1e-5, "masked position leaked");
        }
    }

    #[test]
    fn attention_rows_are_distributions_over_allowed() {
        let mut rng = StdRng::seed_from_u64(2);
        let ex = InterestExtractor::new(&config(ExtractorKind::SelfAttentive), &mut rng);
        let h = demo_h(1, 4, 8);
        let allowed = vec![1.0, 0.0, 1.0, 0.0];
        let a = ex.attention_weights(&h, &allowed);
        assert_eq!(a.dims(), &[1, 3, 4]);
        let v = a.to_vec();
        for k in 0..3 {
            let row = &v[k * 4..(k + 1) * 4];
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            assert!(row[1] < 1e-6 && row[3] < 1e-6, "blocked positions got weight");
        }
    }

    #[test]
    fn interests_differ_across_k() {
        let mut rng = StdRng::seed_from_u64(3);
        let ex = InterestExtractor::new(&config(ExtractorKind::SelfAttentive), &mut rng);
        let h = demo_h(1, 6, 8);
        let z = ex.forward(&h, &[1.0; 6]).to_vec();
        // Not all interest vectors identical.
        let first = &z[0..8];
        assert!(
            (1..3).any(|k| {
                let other = &z[k * 8..(k + 1) * 8];
                first.iter().zip(other).any(|(a, b)| (a - b).abs() > 1e-6)
            }),
            "all interests collapsed"
        );
    }

    #[test]
    fn routing_interests_differ_across_k() {
        let mut rng = StdRng::seed_from_u64(4);
        let ex = InterestExtractor::new(&config(ExtractorKind::DynamicRouting), &mut rng);
        let h = demo_h(1, 6, 8);
        let z = ex.forward(&h, &[1.0; 6]).to_vec();
        let first = &z[0..8];
        assert!((1..3).any(|k| {
            let other = &z[k * 8..(k + 1) * 8];
            first.iter().zip(other).any(|(a, b)| (a - b).abs() > 1e-6)
        }));
    }

    #[test]
    fn squash_bounds_norm_below_one() {
        let x = Tensor::from_vec(vec![10.0, 0.0, 0.0, 0.01, 0.0, 0.0], [2, 1, 3]);
        let y = squash(&x).to_vec();
        let n1 = (y[0] * y[0] + y[1] * y[1] + y[2] * y[2]).sqrt();
        let n2 = (y[3] * y[3] + y[4] * y[4] + y[5] * y[5]).sqrt();
        assert!(n1 < 1.0 && n1 > 0.9, "large vectors squash to ~1: {n1}");
        assert!(n2 < 0.01, "small vectors shrink: {n2}");
    }

    #[test]
    fn gradients_flow_through_both_extractors() {
        for kind in [ExtractorKind::SelfAttentive, ExtractorKind::DynamicRouting] {
            let mut rng = StdRng::seed_from_u64(5);
            let ex = InterestExtractor::new(&config(kind), &mut rng);
            let h = demo_h(1, 4, 8);
            ex.forward(&h, &[1.0; 4]).sum_all().backward();
            for (name, t) in ex.param_map("ex").iter() {
                assert!(t.grad().is_some(), "{name} missing grad ({kind:?})");
            }
        }
    }
}
