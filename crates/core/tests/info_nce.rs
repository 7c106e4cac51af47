//! `info_nce` is one fused cross-entropy node over the valid anchor rows.
//! Its oracle is the composition it replaced: full `[N, N]` logits,
//! log-softmax, an identity-mask diagonal pick and a validity-weighted
//! mean. The two must agree in value and in every anchor and positive
//! gradient to f32 rounding; they are not bit-identical, because the
//! fused node sums its log-softmax and its gradient in another order.

use mbssl_core::ssl::info_nce;
use mbssl_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// InfoNCE as the identity-mask composition (the oracle).
fn identity_mask_info_nce(
    anchors: &Tensor,
    positives: &Tensor,
    temperature: f32,
    row_valid: &[f32],
) -> Tensor {
    let n = anchors.dims()[0];
    let valid_count: f32 = row_valid.iter().sum();
    if valid_count == 0.0 {
        return Tensor::scalar(0.0);
    }
    let a = anchors.l2_normalize_lastdim(1e-8);
    let p = positives.l2_normalize_lastdim(1e-8);
    let logits = a
        .matmul(&p.transpose_last())
        .into_mul_scalar(1.0 / temperature);
    let log_probs = logits.log_softmax_lastdim();
    let mut eye = vec![0.0f32; n * n];
    for i in 0..n {
        eye[i * n + i] = 1.0;
    }
    let diag = log_probs
        .mul(&Tensor::from_vec(eye, [n, n]))
        .sum_axis(-1, false);
    diag.mul(&Tensor::from_vec(row_valid.to_vec(), [n]))
        .sum_all()
        .mul_scalar(-1.0 / valid_count)
}

fn random_rows(rng: &mut StdRng, n: usize, d: usize) -> Vec<f32> {
    (0..n * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Loss value and the anchor and positive gradients of `loss`.
fn value_and_grads(
    loss: fn(&Tensor, &Tensor, f32, &[f32]) -> Tensor,
    (a, p): (&[f32], &[f32]),
    (n, d): (usize, usize),
    temperature: f32,
    row_valid: &[f32],
) -> (f32, Vec<f32>, Vec<f32>) {
    let anchors = Tensor::from_vec(a.to_vec(), [n, d]).requires_grad();
    let positives = Tensor::from_vec(p.to_vec(), [n, d]).requires_grad();
    let out = loss(&anchors, &positives, temperature, row_valid);
    let value = out.item();
    if value != 0.0 {
        out.backward();
    }
    let grad = |t: &Tensor| t.grad().unwrap_or_else(|| vec![0.0; n * d]);
    (value, grad(&anchors), grad(&positives))
}

fn assert_close(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g - w).abs() <= 1e-5 * (1.0 + w.abs()),
            "{what}[{i}]: fused {g} vs oracle {w}"
        );
    }
}

#[test]
fn fused_info_nce_matches_the_identity_mask_oracle() {
    let mut rng = StdRng::seed_from_u64(26);
    for (n, d) in [(6, 5), (40, 8)] {
        let a = random_rows(&mut rng, n, d);
        let p = random_rows(&mut rng, n, d);
        let mut one_valid = vec![0.0; n];
        one_valid[n / 2] = 1.0;
        let cases = [
            ("all valid", vec![1.0; n]),
            ("mixed", (0..n).map(|i| (i % 3 != 1) as u8 as f32).collect()),
            ("one valid", one_valid),
            ("all invalid", vec![0.0; n]),
        ];
        for (case, row_valid) in &cases {
            for temperature in [0.2, 1.0] {
                let what = format!("{case}, n={n}, tau={temperature}");
                let fused = value_and_grads(info_nce, (&a, &p), (n, d), temperature, row_valid);
                let oracle = value_and_grads(
                    identity_mask_info_nce,
                    (&a, &p),
                    (n, d),
                    temperature,
                    row_valid,
                );
                assert_close(&format!("{what}: loss"), &[fused.0], &[oracle.0]);
                assert_close(&format!("{what}: anchor grad"), &fused.1, &oracle.1);
                assert_close(&format!("{what}: positive grad"), &fused.2, &oracle.2);
                if *case == "all invalid" {
                    assert_eq!(fused.0, 0.0, "{what}");
                } else {
                    assert!(fused.0 > 0.0, "{what}");
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "row_valid must be 0 or 1")]
fn fractional_row_weights_are_refused() {
    let t = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [2, 2]);
    info_nce(&t, &t, 0.2, &[0.5, 1.0]);
}
