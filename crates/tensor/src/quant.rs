//! The i8 row quantization behind the inference engine's exact catalog
//! screen (`mbssl_core::screen`, DESIGN.md §13).
//!
//! The engine ranks the exact f32 catalog. An i8 copy of it, quantized by
//! the scheme below, gives each item an upper bound on its exact f32 score
//! from integer dots; only items whose bound can reach the top-n are scored
//! in f32, so replies stay bit-identical while the pass reads 4× fewer
//! bytes. The bound rests on the half-scale element error pinned by
//! `tests/quant_roundtrip.rs`.
//!
//! ## i8 scheme
//!
//! Per row `r`: `scale_r = max_abs(row) / 127`, `q = round(w / scale_r)`
//! (clamped to ±127; an all-zero row stores `scale_r = 0`). Decode is
//! `q * scale_r`, so the absolute error per element is bounded by
//! `scale_r / 2`.

/// The catalog representation an engine is compiled with: only the exact
/// f32 table remains. Kept for `InferenceModel::compile_with_mode`'s one
/// caller, the benchmark harness; ROADMAP item 3's benchmark revision
/// deletes both.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantMode {
    /// The exact f32 table.
    Off,
}

/// Quantizes one row by the i8 scheme above into `codes` and returns its
/// scale (`0` for an all-zero row, whose codes are all zero).
pub fn quantize_row(row: &[f32], codes: &mut [i8]) -> f32 {
    debug_assert_eq!(row.len(), codes.len());
    let max_abs = row.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    if max_abs == 0.0 {
        codes.fill(0);
        return 0.0;
    }
    let scale = max_abs / 127.0;
    for (q, &v) in codes.iter_mut().zip(row) {
        *q = round_code(v / scale);
    }
    scale
}

/// `x.round().clamp(-127.0, 127.0) as i8` (half away from zero, NaN → 0)
/// without a libm call: `|x| + 0.5` is exact in f64, so truncating it
/// rounds the magnitude.
#[inline]
pub fn round_code(x: f32) -> i8 {
    let magnitude = ((x.abs() as f64 + 0.5) as i64).min(127) as i8;
    if x < 0.0 {
        -magnitude
    } else {
        magnitude
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i8_roundtrip_error_bounded_by_half_scale() {
        let w: Vec<f32> = (0..64).map(|i| ((i * 37 % 17) as f32 - 8.0) * 0.3).collect();
        let mut codes = [0i8; 16];
        for (r, row) in w.chunks_exact(16).enumerate() {
            let scale = quantize_row(row, &mut codes);
            let bound = scale / 2.0 + 1e-7;
            for (j, (&orig, &q)) in row.iter().zip(&codes).enumerate() {
                let dec = q as f32 * scale;
                assert!(
                    (orig - dec).abs() <= bound,
                    "row {r} col {j}: |{orig} - {dec}| > {bound}"
                );
            }
        }
    }

    #[test]
    fn round_code_matches_round_then_clamp() {
        let halfway = [0.5f32, 1.5, 2.5, 126.5, 127.5, 0.49999997, 0.50000006];
        let edges = [0.0f32, -0.0, 3.7, 127.0, 128.0, 1e30, f32::INFINITY, f32::NAN];
        let steps = (0..4000).map(|i| i as f32 * 0.0625 - 125.0);
        for x in halfway.into_iter().chain(edges).chain(steps) {
            for x in [x, -x] {
                let want = x.round().clamp(-127.0, 127.0) as i8;
                assert_eq!(round_code(x), want, "{x}");
            }
        }
    }

    #[test]
    fn zero_row_stays_zero() {
        let mut codes = [1i8; 4];
        assert_eq!(quantize_row(&[0.0; 4], &mut codes), 0.0);
        assert_eq!(codes, [0; 4]);
    }
}
