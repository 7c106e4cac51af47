//! The interest extractor's `forward` and `attention_weights` share one
//! computation; both must stay bit-identical to the two separate passes
//! they replaced, for the self-attentive extractor and for dynamic routing
//! at 0, 1 and 3 iterations. Pooling several masks over one shared
//! projection must give each mask's own `forward`, bit for bit.

use mbssl_core::config::{ExtractorKind, ModelConfig};
use mbssl_core::interest::InterestExtractor;
use mbssl_tensor::nn::Module;
use mbssl_tensor::Tensor;
use rand::rngs::StdRng;
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

/// Capsule squash, as the extractor defines it.
fn squash(x: &Tensor) -> Tensor {
    let sq_norm = x.square().sum_axis(-1, true);
    let norm = sq_norm.add_scalar(1e-9).sqrt();
    let scale = sq_norm.div(&sq_norm.add_scalar(1.0)).div(&norm);
    x.mul(&scale)
}

/// The extractor as two separate passes, one per method:
/// `(interests, weights)`.
fn two_pass_reference(ex: &InterestExtractor, h: &Tensor, allowed: &[f32]) -> (Tensor, Tensor) {
    let (b, l, d) = (h.dims()[0], h.dims()[1], h.dims()[2]);
    let blocked: Vec<f32> = allowed.iter().map(|&v| 1.0 - v).collect();
    match ex {
        InterestExtractor::SelfAttentive { w1, w2, k } => {
            let blocked_t = Tensor::from_vec(blocked, [b, l, 1]);
            let attn = |h: &Tensor| {
                let logits = h.matmul(w1).into_tanh().matmul(w2);
                logits.masked_fill(&blocked_t, -1e9).permute(&[0, 2, 1]).softmax_lastdim()
            };
            (attn(h).bmm(h).reshape([b, *k, d]), attn(h))
        }
        InterestExtractor::DynamicRouting { transform, routing_init, k, iters } => {
            let s = h.matmul(transform);
            let init: Vec<f32> =
                (0..b).flat_map(|_| routing_init.narrow(1, 0, l).to_vec()).collect();
            let blocked_t = Tensor::from_vec(blocked, [b, 1, l]);
            // `forward`: zeros when there are no iterations.
            let mut logits = Tensor::from_vec(init.clone(), [b, *k, l]);
            let mut z = Tensor::zeros([b, *k, d]);
            for iter in 0..*iters {
                let c = logits.masked_fill(&blocked_t, -1e9).softmax_lastdim();
                z = squash(&c.bmm(&s));
                if iter + 1 < *iters {
                    logits = logits.add(&z.bmm(&s.transpose_last()));
                }
            }
            // `attention_weights`: routing re-run, then the last coupling.
            let mut logits = Tensor::from_vec(init, [b, *k, l]);
            for _ in 0..iters.saturating_sub(1) {
                let c = logits.masked_fill(&blocked_t, -1e9).softmax_lastdim();
                let z = squash(&c.bmm(&s));
                logits = logits.add(&z.bmm(&s.transpose_last()));
            }
            (z, logits.masked_fill(&blocked_t, -1e9).softmax_lastdim())
        }
    }
}

fn demo_h() -> Tensor {
    let (b, l, d) = (2, 5, 8);
    Tensor::from_vec(
        (0..b * l * d).map(|i| ((i * 13 % 17) as f32) * 0.1 - 0.8).collect(),
        [b, l, d],
    )
}

/// Both extractor kinds; dynamic routing at 0, 1 and 3 iterations.
fn all_configs() -> Vec<ModelConfig> {
    let mut cases = vec![config(ExtractorKind::SelfAttentive)];
    for iters in [0, 1, 3] {
        cases.push(ModelConfig {
            routing_iters: iters,
            ..config(ExtractorKind::DynamicRouting)
        });
    }
    cases
}

#[test]
fn shared_computation_matches_two_pass_reference_bitwise() {
    let h = demo_h();
    // The second history has a single allowed position.
    let allowed = [1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0];
    for cfg in all_configs() {
        let ex = InterestExtractor::new(&cfg, &mut StdRng::seed_from_u64(6));
        let (z, weights) = two_pass_reference(&ex, &h, &allowed);
        let what = format!("{:?} iters={}", cfg.extractor, cfg.routing_iters);
        assert_eq!(ex.forward(&h, &allowed).to_vec(), z.to_vec(), "{what}");
        assert_eq!(ex.attention_weights(&h, &allowed).to_vec(), weights.to_vec(), "{what}");
    }
}

/// The masks `compute_loss_prepared` pools one batch with: every valid position,
/// two behavior subsets, and a mask that leaves a row with no position
/// (uniform attention over the whole padded row).
const MASKS: [[f32; 10]; 4] = [
    [1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0],
    [1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
];

#[test]
fn pools_over_one_projection_match_each_masks_own_forward_bitwise() {
    let h = demo_h();
    for cfg in all_configs() {
        let ex = InterestExtractor::new(&cfg, &mut StdRng::seed_from_u64(6));
        let projection = ex.project(&h);
        for (m, allowed) in MASKS.iter().enumerate() {
            let what = format!("{:?} iters={} mask {m}", cfg.extractor, cfg.routing_iters);
            let (reference, _) = two_pass_reference(&ex, &h, allowed);
            let pooled = ex.pool(&h, &projection, allowed).to_vec();
            assert_eq!(pooled, reference.to_vec(), "{what}");
            assert_eq!(pooled, ex.forward(&h, allowed).to_vec(), "{what}");
        }
    }
}

/// A loss over several masks gets the same gradients through one shared
/// projection as through one projection per mask (to rounding: the shared
/// node sums its consumers' gradients before the matmul backward).
#[test]
fn shared_projection_keeps_the_gradients_of_one_projection_per_mask() {
    let grads = |ex: &InterestExtractor, shared: bool| {
        let h = demo_h().requires_grad();
        let projection = ex.project(&h);
        let mut loss = Tensor::scalar(0.0);
        for (m, allowed) in MASKS.iter().enumerate() {
            let z = if shared {
                ex.pool(&h, &projection, allowed)
            } else {
                ex.forward(&h, allowed)
            };
            loss = loss.add(&z.square().sum_all().mul_scalar(1.0 + m as f32));
        }
        for t in ex.param_map("ex").tensors() {
            t.zero_grad();
        }
        loss.backward();
        let mut all = vec![h.grad().unwrap()];
        all.extend(
            ex.param_map("ex")
                .tensors()
                .iter()
                .map(|t| t.grad().unwrap()),
        );
        all
    };
    // Zero routing iterations give constant interests: no gradient.
    for cfg in all_configs().into_iter().filter(|c| c.routing_iters > 0) {
        let ex = InterestExtractor::new(&cfg, &mut StdRng::seed_from_u64(6));
        let (shared, separate) = (grads(&ex, true), grads(&ex, false));
        for (g1, g2) in shared.iter().zip(&separate) {
            for (a, b) in g1.iter().zip(g2) {
                assert!(
                    (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
                    "{:?}: {a} vs {b}",
                    cfg.extractor
                );
            }
        }
    }
}
