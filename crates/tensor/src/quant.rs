//! Quantized embedding storage for the inference-time catalog scorer.
//!
//! The final ranking step of serving is a dot product between a handful of
//! f32 interest vectors and every row of the item-embedding table. At that
//! shape the table's memory traffic dominates, so the inference engine can
//! hold a compressed copy: **i8 with one scale per row** (4× smaller) or
//! **bf16** (2× smaller, ~3 decimal digits). Quantization changes scores,
//! so unlike the SIMD/fusion switches it is **opt-in**: `MBSSL_QUANT`
//! defaults to off and the engine stays bit-for-bit with the f32 reference
//! unless it is set. Accuracy is guarded by an HR@K/NDCG@K drift gate
//! (tolerance `MBSSL_QUANT_TOL`) rather than bit-equality.
//!
//! The default exact path reads fewer bytes too, without changing a reply
//! bit: the engine keeps an i8 copy of the f32 catalog in this scheme as
//! an *exact screen* (`mbssl_core::screen`, DESIGN.md §13). Integer dots
//! give each item an upper bound on its exact f32 score; only items whose
//! bound can reach the top-n are scored in f32. The `MBSSL_QUANT` modes
//! below stay what they were: lossy and opt-in.
//!
//! ## i8 scheme
//!
//! Per row `r`: `scale_r = max_abs(row) / 127`, `q = round(w / scale_r)`
//! (clamped to ±127; an all-zero row stores `scale_r = 0`). Decode is
//! `q * scale_r`, so the absolute error per element is bounded by
//! `scale_r / 2` — pinned by `tests/quant_roundtrip.rs`. Dots accumulate
//! `(q as f32) * x` in f32 and apply the row scale once at the end.
//!
//! ## bf16 scheme
//!
//! Each f32 is truncated to its top 16 bits with round-to-nearest-even —
//! the standard bfloat16 conversion. Decode shifts back with zeroed
//! mantissa tail; dots run in f32 on the decoded values.

use std::sync::OnceLock;

/// Which compressed representation (if any) the engine's catalog scorer
/// should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuantMode {
    /// No quantization: score against the f32 table (bit-exact path).
    Off,
    /// i8 rows with a per-row scale.
    I8,
    /// bf16 (truncated f32) rows.
    Bf16,
}

/// Ambient mode from `MBSSL_QUANT`: unset/`off`/`0`/`none` → [`QuantMode::Off`]
/// (the default — quantization is opt-in because it changes scores),
/// `on`/`1`/`i8`/`int8` → [`QuantMode::I8`], `bf16` → [`QuantMode::Bf16`].
/// Unrecognized values fall back to off. Read once per process.
pub fn mode() -> QuantMode {
    static MODE: OnceLock<QuantMode> = OnceLock::new();
    *MODE.get_or_init(|| match std::env::var("MBSSL_QUANT").as_deref() {
        Ok("on") | Ok("1") | Ok("i8") | Ok("int8") => QuantMode::I8,
        Ok("bf16") => QuantMode::Bf16,
        _ => QuantMode::Off,
    })
}

/// Allowed absolute HR@K / NDCG@K drift of the quantized scorer vs the f32
/// scorer, from `MBSSL_QUANT_TOL` (default `0.02`). Consumed by the drift
/// gate in `mbssl-core`'s inference tests.
pub fn drift_tol() -> f64 {
    static TOL: OnceLock<f64> = OnceLock::new();
    *TOL.get_or_init(|| {
        std::env::var("MBSSL_QUANT_TOL")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.02)
    })
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

/// An f32 row-major matrix quantized to i8 with one scale per row.
pub struct QuantizedRows {
    data: Vec<i8>,
    scales: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl QuantizedRows {
    /// Quantizes row-major `w` (`rows × cols`).
    pub fn quantize(w: &[f32], rows: usize, cols: usize) -> QuantizedRows {
        assert_eq!(w.len(), rows * cols, "quantize shape mismatch");
        let mut data = vec![0i8; rows * cols];
        let scales = w
            .chunks_exact(cols)
            .zip(data.chunks_exact_mut(cols))
            .map(|(row, codes)| quantize_row(row, codes))
            .collect();
        QuantizedRows {
            data,
            scales,
            rows,
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The scale of row `r` (`max_abs / 127`; `0` for an all-zero row).
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Decodes row `r` into `out` (`out.len() == cols`).
    pub fn decode_row_into(&self, r: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.cols);
        let scale = self.scales[r];
        for (o, &q) in out.iter_mut().zip(self.data[r * self.cols..].iter()) {
            *o = q as f32 * scale;
        }
    }

    /// `dot(decode(row r), x)`: accumulates `(q as f32) * x_i` in f32 and
    /// applies the row scale once at the end.
    pub fn dot(&self, r: usize, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.cols);
        let row = &self.data[r * self.cols..(r + 1) * self.cols];
        let mut acc = 0.0f32;
        for (&q, &xv) in row.iter().zip(x.iter()) {
            acc += q as f32 * xv;
        }
        acc * self.scales[r]
    }
}

/// Converts one f32 to bf16 bits with round-to-nearest-even.
pub fn f32_to_bf16(v: f32) -> u16 {
    let bits = v.to_bits();
    if v.is_nan() {
        // Preserve a quiet NaN pattern rather than rounding into infinity.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round_bit = (bits >> 16) & 1;
    (((bits + 0x7FFF + round_bit) >> 16) & 0xFFFF) as u16
}

/// Expands bf16 bits back to f32 (exact: the mantissa tail is zero).
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// An f32 row-major matrix stored as bf16.
pub struct Bf16Rows {
    data: Vec<u16>,
    rows: usize,
    cols: usize,
}

impl Bf16Rows {
    /// Converts row-major `w` (`rows × cols`) to bf16.
    pub fn convert(w: &[f32], rows: usize, cols: usize) -> Bf16Rows {
        assert_eq!(w.len(), rows * cols, "convert shape mismatch");
        Bf16Rows {
            data: w.iter().map(|&v| f32_to_bf16(v)).collect(),
            rows,
            cols,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `dot(decode(row r), x)` in f32.
    pub fn dot(&self, r: usize, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.cols);
        let row = &self.data[r * self.cols..(r + 1) * self.cols];
        let mut acc = 0.0f32;
        for (&q, &xv) in row.iter().zip(x.iter()) {
            acc += bf16_to_f32(q) * xv;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i8_roundtrip_error_bounded_by_half_scale() {
        let w: Vec<f32> = (0..64).map(|i| ((i * 37 % 17) as f32 - 8.0) * 0.3).collect();
        let q = QuantizedRows::quantize(&w, 4, 16);
        let mut row = vec![0.0f32; 16];
        for r in 0..4 {
            q.decode_row_into(r, &mut row);
            let bound = q.scale(r) / 2.0 + 1e-7;
            for (j, (&orig, &dec)) in w[r * 16..(r + 1) * 16].iter().zip(row.iter()).enumerate() {
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
        let q = QuantizedRows::quantize(&[0.0; 8], 2, 4);
        assert_eq!(q.scale(0), 0.0);
        assert_eq!(q.dot(0, &[1.0, 2.0, 3.0, 4.0]), 0.0);
    }

    #[test]
    fn bf16_roundtrip_exact_for_representable_values() {
        for v in [0.0f32, 1.0, -2.5, 0.15625, 1024.0] {
            assert_eq!(bf16_to_f32(f32_to_bf16(v)), v);
        }
    }

    #[test]
    fn bf16_relative_error_small() {
        for i in 1..200 {
            let v = i as f32 * 0.137 - 13.0;
            let d = bf16_to_f32(f32_to_bf16(v));
            assert!((v - d).abs() <= v.abs() * 0.005 + 1e-6, "{v} -> {d}");
        }
    }
}
