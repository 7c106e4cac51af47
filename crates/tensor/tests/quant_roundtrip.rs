//! Round-trip error bounds of the i8 row quantization
//! ([`mbssl_tensor::quant::quantize_row`]) behind the exact catalog screen.
//!
//! The scheme stores one scale per row (`max_abs / 127`), so every decoded
//! element must sit within half a quantization step (`scale / 2`) of the
//! original, and every dot product within the sum of per-element bounds.
//! The screen's upper bound on an exact f32 score rests on the first.

use mbssl_tensor::quant::quantize_row;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Quantizes `row` and decodes it back: `(scale, q_i · scale)`.
fn roundtrip(row: &[f32]) -> (f32, Vec<f32>) {
    let mut codes = vec![0i8; row.len()];
    let scale = quantize_row(row, &mut codes);
    (scale, codes.iter().map(|&q| q as f32 * scale).collect())
}

proptest! {
    /// Every element decodes to within scale/2 of the original; the row
    /// scale is exactly max_abs/127.
    #[test]
    fn i8_elementwise_error_bounded_by_half_scale(
        rows in 1usize..6, cols in 1usize..40, seed in 0u64..300, amp in 0.01f32..50.0
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-amp..amp)).collect();
        for (r, row) in w.chunks_exact(cols).enumerate() {
            let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
            let (scale, decoded) = roundtrip(row);
            prop_assert_eq!(scale, if max_abs == 0.0 { 0.0 } else { max_abs / 127.0 });
            let bound = scale / 2.0 + scale * 1e-5 + 1e-12;
            for (j, (&orig, &dec)) in row.iter().zip(decoded.iter()).enumerate() {
                prop_assert!(
                    (orig - dec).abs() <= bound,
                    "row {} col {}: |{} - {}| > {}", r, j, orig, dec, bound
                );
            }
        }
    }

    /// A quantized dot stays within the accumulated per-element bound of
    /// the f32 dot: |q·x − w·x| ≤ Σ_j (scale/2)·|x_j| (plus f32 slack).
    #[test]
    fn i8_dot_error_bounded(cols in 1usize..40, seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w: Vec<f32> = (0..cols).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let x: Vec<f32> = (0..cols).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let (scale, decoded) = roundtrip(&w);
        let exact: f32 = w.iter().zip(x.iter()).map(|(&a, &b)| a * b).sum();
        let got: f32 = decoded.iter().zip(x.iter()).map(|(&a, &b)| a * b).sum();
        let x_l1: f32 = x.iter().map(|v| v.abs()).sum();
        let bound = scale / 2.0 * x_l1 + 1e-3;
        prop_assert!(
            (exact - got).abs() <= bound,
            "|{} - {}| > {}", exact, got, bound
        );
    }
}

#[test]
fn i8_zero_row_roundtrips_to_zero() {
    let (scale, decoded) = roundtrip(&[0.0; 4]);
    assert_eq!(scale, 0.0);
    assert_eq!(decoded, [0.0; 4]);
}
