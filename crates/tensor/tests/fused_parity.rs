//! Bit-for-bit parity of the fused transformer-block ops with the unfused
//! autograd compositions they replace (ISSUE: fusion must not change
//! results — same accumulation order forward and backward, so `==` not
//! "close"). Each property builds both graphs from duplicated leaves and
//! compares the forward bits and every leaf gradient exactly.
//!
//! These run under MBSSL_THREADS=1/2/default in ci.sh; the fused kernels
//! dispatch per `[B*H]` slice, so pool size must never change a bit. The
//! slice kernel both sdpa and the inference engine run, `sdpa_slice`, is
//! also checked on its own: stale scratch and fully masked rows.

use mbssl_tensor::kernels::{sdpa_slice, NR};
use mbssl_tensor::{dropout_mask, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fill(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// Pair of leaves with identical bits, one per graph.
fn leaf_pair(data: &[f32], shape: &[usize]) -> (Tensor, Tensor) {
    (
        Tensor::from_vec(data.to_vec(), shape).requires_grad(),
        Tensor::from_vec(data.to_vec(), shape).requires_grad(),
    )
}

/// Random upstream gradient: backward through `out * w` so the seed grad is
/// non-uniform and order bugs can't cancel.
fn backprop_weighted(out: &Tensor, w: &[f32]) {
    let wt = Tensor::from_vec(w.to_vec(), out.dims());
    out.mul(&wt).sum_all().backward();
}

/// Attention masks exercised against sdpa: none, a broadcast `[lq, lk]`
/// random mask, a `[bh, 1, lk]` key-padding mask, and a mask with one row
/// fully masked (softmax over all `-1e9`).
fn make_mask(kind: usize, bh: usize, lq: usize, lk: usize, rng: &mut StdRng) -> Option<Tensor> {
    match kind % 4 {
        0 => None,
        1 => {
            let m: Vec<f32> = (0..lq * lk)
                .map(|_| if rng.gen::<f32>() < 0.3 { 1.0 } else { 0.0 })
                .collect();
            Some(Tensor::from_vec(m, [lq, lk]))
        }
        2 => {
            let m: Vec<f32> = (0..bh * lk)
                .map(|_| if rng.gen::<f32>() < 0.3 { 1.0 } else { 0.0 })
                .collect();
            Some(Tensor::from_vec(m, [bh, 1, lk]))
        }
        _ => {
            // Force the first query row of every slice fully masked.
            let mut m = vec![0.0f32; lq * lk];
            for v in m.iter_mut().take(lk) {
                *v = 1.0;
            }
            Some(Tensor::from_vec(m, [lq, lk]))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // sdpa vs bmm/scale/mask/softmax/dropout/bmm — forward bits and exact
    // q/k/v gradients, over ragged shapes including lq=1, lk=1, dh=1.
    #[test]
    fn sdpa_bitwise_parity(
        bh in 1usize..4,
        lq in 1usize..8,
        lk in 1usize..8,
        dh in 1usize..6,
        mask_kind in 0usize..4,
        dropout_flag in 0usize..2,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let qd = fill(&mut rng, bh * lq * dh);
        let kd = fill(&mut rng, bh * lk * dh);
        let vd = fill(&mut rng, bh * lk * dh);
        let scale = 1.0 / (dh as f32).sqrt();
        let mask = make_mask(mask_kind, bh, lq, lk, &mut rng);
        let dmask = if dropout_flag == 1 {
            Some(dropout_mask(bh * lq * lk, 0.25, &mut rng))
        } else {
            None
        };
        let w = fill(&mut rng, bh * lq * dh);

        let (q1, q2) = leaf_pair(&qd, &[bh, lq, dh]);
        let (k1, k2) = leaf_pair(&kd, &[bh, lk, dh]);
        let (v1, v2) = leaf_pair(&vd, &[bh, lk, dh]);

        let fused = q1.sdpa(&k1, &v1, mask.as_ref(), scale, dmask.clone());

        let mut scores = q2.bmm(&k2.transpose_last()).into_mul_scalar(scale);
        if let Some(m) = &mask {
            scores = scores.masked_fill(m, -1e9);
        }
        let attn = scores.softmax_lastdim();
        let attn = match &dmask {
            Some(dm) => attn.dropout_with_mask(dm),
            None => attn,
        };
        let unfused = attn.bmm(&v2);

        prop_assert_eq!(fused.to_vec(), unfused.to_vec());

        backprop_weighted(&fused, &w);
        backprop_weighted(&unfused, &w);
        prop_assert_eq!(q1.grad().unwrap(), q2.grad().unwrap());
        prop_assert_eq!(k1.grad().unwrap(), k2.grad().unwrap());
        prop_assert_eq!(v1.grad().unwrap(), v2.grad().unwrap());
    }

    // bias_gelu vs add-broadcast + gelu, including both leaf gradients.
    #[test]
    fn bias_gelu_bitwise_parity(
        rows in 1usize..12,
        h in 1usize..16,
        seed in 0u64..300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xd = fill(&mut rng, rows * h);
        let bd = fill(&mut rng, h);
        let w = fill(&mut rng, rows * h);

        let (x1, x2) = leaf_pair(&xd, &[rows, h]);
        let (b1, b2) = leaf_pair(&bd, &[h]);

        let fused = x1.bias_gelu(&b1);
        let unfused = x2.add(&b2).gelu();
        prop_assert_eq!(fused.to_vec(), unfused.to_vec());

        backprop_weighted(&fused, &w);
        backprop_weighted(&unfused, &w);
        prop_assert_eq!(x1.grad().unwrap(), x2.grad().unwrap());
        prop_assert_eq!(b1.grad().unwrap(), b2.grad().unwrap());
    }

    // residual_layer_norm vs add + layer_norm, all four leaf gradients.
    #[test]
    fn residual_layer_norm_bitwise_parity(
        rows in 1usize..10,
        d in 1usize..12,
        seed in 0u64..300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ad = fill(&mut rng, rows * d);
        let bd = fill(&mut rng, rows * d);
        let gd = fill(&mut rng, d);
        let betad = fill(&mut rng, d);
        let w = fill(&mut rng, rows * d);

        let (a1, a2) = leaf_pair(&ad, &[rows, d]);
        let (b1, b2) = leaf_pair(&bd, &[rows, d]);
        let (g1, g2) = leaf_pair(&gd, &[d]);
        let (beta1, beta2) = leaf_pair(&betad, &[d]);

        let fused = a1.residual_layer_norm(&b1, &g1, &beta1, 1e-5);
        let unfused = a2.add(&b2).layer_norm(&g2, &beta2, 1e-5);
        prop_assert_eq!(fused.to_vec(), unfused.to_vec());

        backprop_weighted(&fused, &w);
        backprop_weighted(&unfused, &w);
        prop_assert_eq!(a1.grad().unwrap(), a2.grad().unwrap());
        prop_assert_eq!(b1.grad().unwrap(), b2.grad().unwrap());
        prop_assert_eq!(g1.grad().unwrap(), g2.grad().unwrap());
        prop_assert_eq!(beta1.grad().unwrap(), beta2.grad().unwrap());
    }

    // add3 vs two chained adds.
    #[test]
    fn add3_bitwise_parity(n in 1usize..64, seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ad = fill(&mut rng, n);
        let bd = fill(&mut rng, n);
        let cd = fill(&mut rng, n);
        let w = fill(&mut rng, n);

        let (a1, a2) = leaf_pair(&ad, &[n]);
        let (b1, b2) = leaf_pair(&bd, &[n]);
        let (c1, c2) = leaf_pair(&cd, &[n]);

        let fused = a1.add3(&b1, &c1);
        let unfused = a2.add(&b2).add(&c2);
        prop_assert_eq!(fused.to_vec(), unfused.to_vec());

        backprop_weighted(&fused, &w);
        backprop_weighted(&unfused, &w);
        prop_assert_eq!(a1.grad().unwrap(), a2.grad().unwrap());
        prop_assert_eq!(b1.grad().unwrap(), b2.grad().unwrap());
        prop_assert_eq!(c1.grad().unwrap(), c2.grad().unwrap());
    }

    // The pre-LN sublayer restructure: fused `rln + add3` must match the
    // unfused `x + da` / `ln(·)` / `(x + da) + df` composition, with the
    // normalized intermediate feeding a consumer so its gradient is
    // nontrivial (df depends on h2, as the FFN output does in the block).
    #[test]
    fn preln_restructure_bitwise_parity(
        rows in 1usize..8,
        d in 1usize..10,
        seed in 0u64..300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let xd = fill(&mut rng, rows * d);
        let dad = fill(&mut rng, rows * d);
        let gd = fill(&mut rng, d);
        let betad = fill(&mut rng, d);
        let w = fill(&mut rng, rows * d);

        let (x1, x2) = leaf_pair(&xd, &[rows, d]);
        let (da1, da2) = leaf_pair(&dad, &[rows, d]);
        let (g1, g2) = leaf_pair(&gd, &[d]);
        let (beta1, beta2) = leaf_pair(&betad, &[d]);

        let h2f = x1.residual_layer_norm(&da1, &g1, &beta1, 1e-5);
        let dff = h2f.gelu(); // stand-in FFN keeps h2's grad nontrivial
        let fused = x1.add3(&da1, &dff);

        let sum = x2.add(&da2);
        let h2u = sum.layer_norm(&g2, &beta2, 1e-5);
        let dfu = h2u.gelu();
        let unfused = sum.add(&dfu);

        prop_assert_eq!(fused.to_vec(), unfused.to_vec());

        backprop_weighted(&fused, &w);
        backprop_weighted(&unfused, &w);
        prop_assert_eq!(x1.grad().unwrap(), x2.grad().unwrap());
        prop_assert_eq!(da1.grad().unwrap(), da2.grad().unwrap());
        prop_assert_eq!(g1.grad().unwrap(), g2.grad().unwrap());
        prop_assert_eq!(beta1.grad().unwrap(), beta2.grad().unwrap());
    }
}

/// Runs `sdpa_slice` on seeded inputs with every output and scratch
/// buffer pre-filled with `stale`; returns `(probs, ctx, v)`.
fn sdpa_slice_with_stale(
    (lq, lk, dh): (usize, usize, usize),
    blocked: impl Fn(usize, usize) -> bool,
    keep: Option<&[f32]>,
    stale: f32,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64((lq * 100 + lk * 10 + dh) as u64);
    let (q, k, v) = (fill(&mut rng, lq * dh), fill(&mut rng, lk * dh), fill(&mut rng, lk * dh));
    let mut probs = vec![stale; lq * lk];
    let mut kt = vec![stale; lk * dh];
    let mut dropped = vec![stale; lq * lk];
    let mut ctx = vec![stale; lq * dh];
    let dropout = keep.map(|m| (m, &mut dropped[..]));
    let dims = (lq, lk, dh);
    sdpa_slice(&q, &k, &v, dims, 0.7, blocked, dropout, &mut probs, &mut kt, &mut ctx);
    (probs, ctx, v)
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

// The shared slice kernel zeroes what it accumulates into: NaN or garbage
// scratch gives the bits zeroed scratch gives. Shapes cover lq ≠ lk (the
// hypergraph's edge queries over nodes), lk = 1, and dh off the NR grid.
#[test]
fn sdpa_slice_ignores_stale_scratch() {
    for dims @ (lq, lk, _) in [(3, 7, 11), (4, 1, 9), (1, 6, 3), (5, 5, NR)] {
        let keep: Vec<f32> = (0..lq * lk).map(|i| if i % 3 == 0 { 0.0 } else { 1.25 }).collect();
        for keep in [None, Some(&keep[..])] {
            let blocked = |i: usize, j: usize| (i + 2 * j) % 4 == 1;
            let (p0, c0, _) = sdpa_slice_with_stale(dims, blocked, keep, 0.0);
            for stale in [f32::NAN, 7.5, -3.0e38] {
                let (p, c, _) = sdpa_slice_with_stale(dims, blocked, keep, stale);
                assert_eq!(bits(&p), bits(&p0), "{dims:?} stale {stale}");
                assert_eq!(bits(&c), bits(&c0), "{dims:?} stale {stale}");
            }
        }
    }
}

// A fully masked query row softmaxes to uniform weights, so its context is
// the mean of the value rows.
#[test]
fn sdpa_slice_fully_masked_row_averages_values() {
    let (lq, lk, dh) = (3, 6, 5);
    let blocked = |i: usize, j: usize| i == 1 || j == 4;
    let (probs, ctx, v) = sdpa_slice_with_stale((lq, lk, dh), blocked, None, f32::NAN);
    for j in 0..lk {
        assert_eq!(probs[lk + j], 1.0 / lk as f32, "uniform weights");
        assert_eq!(probs[j] == 0.0, j == 4, "masked key of a live row");
    }
    for c in 0..dh {
        let mean = (0..lk).map(|j| v[j * dh + c]).sum::<f32>() / lk as f32;
        assert!((ctx[dh + c] - mean).abs() < 1e-5, "ctx {} vs mean {mean}", ctx[dh + c]);
    }
}
