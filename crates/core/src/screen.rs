//! Exact i8 screen for exhaustive catalog ranking (DESIGN.md §13).
//!
//! Exhaustive ranking scores every item against every interest in f32. At
//! serving shapes that pass is bound by streaming the f32 catalog, which
//! does not fit in L2. The screen is an i8 copy of the catalog, 4× smaller
//! (the `QuantizedRows` scheme of `mbssl_tensor::quant`, stored as `q + 128`
//! and laid out 16 items × 4 dims per 64-byte group for `vpdpbusd`). Its exact integer dots give
//! every item an **upper bound** on its exact f32 score. The engine scores
//! in f32 only the items whose bound reaches the heap's n-th best score, so
//! its replies are bit-identical to scoring every item.
//!
//! # The bound
//!
//! Row `v` has codes `q` and scale `s_v`, so `v_i = s_v·q_i + e_i` with
//! `|e_i| ≤ E`. Interest `z` gets codes `p` and scale `t`, so `z_i = t·p_i +
//! ε_i` with `|ε_i| ≤ E_z`. Exactly,
//!
//! `z·v = t·s_v·Σpᵢqᵢ + s_v·Σεᵢqᵢ + Σzᵢeᵢ ≤ t·s_v·Σpᵢqᵢ + E_z·Q + ‖z‖₁·E`,
//!
//! where `Q = max_v s_v·Σ|qᵢ|`. The engine's f32 score is a sequential
//! mul-then-add from +0.0 that skips zero interest entries. It lies within
//! `γ_d·Σ|zᵢvᵢ| ≤ γ_d·‖z‖₁·V` of `z·v`, with `γ_d = d·u/(1 − d·u)`,
//! `u = 2⁻²⁴` and `V = max|vᵢ|` (Higham's dot-product bound; skipping
//! terms only shortens the sum). Products that underflow add at most
//! `d·2⁻¹⁴⁹`. The item term is evaluated as `fl(fl(A·s_v)·t)` from the
//! exact integer dot `A = Σpᵢqᵢ`, which adds at most
//! `3u·t·Σ|pᵢ|·(V + E) + 2⁻¹⁴⁹·(t + 1)`.
//!
//! `E`, `Q` and `V` are catalog-wide maxima, computed in f64 at build time.
//! The per-interest terms are summed in f64, padded by a relative 2⁻⁴⁰ for
//! the f64 rounding, and rounded up to one f32 `slack`. The bound is then
//! `UB = fl(fl(fl(A·s_v)·t) + slack)`. The last add needs no slack of its
//! own: rounding is monotone and the floor it is compared with is an f32.
//!
//! Guards keep every term finite and exact. The screen needs `d ≤`
//! [`MAX_DIM`], so that `A` converts to f32 exactly, and a finite catalog
//! with `V + E < 2¹⁰⁰`. A query is screened only if all its interests are
//! finite and `(‖z‖₁ + t·Σ|pᵢ|)·(V + E)` and the slack stay below 2¹²⁰;
//! otherwise [`CatalogScreen::prepare`] returns `None` and the caller
//! falls back to the exact pass.

use mbssl_tensor::quant;
use mbssl_tensor::simd::{self, SCREEN_GROUP_BYTES, SCREEN_LANES};

use crate::infer::Arena;

/// Widest embedding the screen serves: `|Σpᵢqᵢ| ≤ 127²·d < 2²⁴`, so the
/// corrected integer dot converts to f32 exactly.
pub const MAX_DIM: usize = 1040;

/// Blocks per kernel call: their i32 accumulators stay in L1.
const RUN_BLOCKS: usize = 64;
/// f32 unit roundoff.
const UNIT: f64 = 1.0 / (1u64 << 24) as f64;
/// The smallest f32 subnormal, 2⁻¹⁴⁹: twice the most an underflowing f32
/// product can lose.
const TINY: f64 = f32::from_bits(1) as f64;
/// `1 + 2⁻⁴⁰`: covers the rounding of the f64 sums of up to `MAX_DIM`
/// terms.
const F64_PAD: f64 = 1.0 + f64::EPSILON * 4096.0;
/// Catalog guard on `V + E`.
const CATALOG_LIMIT: f64 = (1u128 << 100) as f64;
/// Query guard, well below `f32::MAX` (about 2¹²⁸).
const QUERY_LIMIT: f64 = (1u128 << 120) as f64;

/// The i8 screen of an f32 item table (see the module docs).
pub struct CatalogScreen {
    /// `blocks × groups` groups of [`SCREEN_GROUP_BYTES`] u8 codes `q + 128`,
    /// in the layout of [`simd::screen_dots`]. Pad rows and dims hold 128;
    /// they meet zero query codes or are never read.
    codes: Vec<u8>,
    /// Per row, padded to whole blocks: the scale `s_v`.
    scales: Vec<f32>,
    rows: usize,
    dim: usize,
    groups: usize,
    /// `E = max |vᵢ − s_v·qᵢ|`.
    err: f64,
    /// `Q = max_v s_v·Σ|qᵢ|`.
    mass: f64,
    /// `V = max |vᵢ|`.
    max_abs: f64,
}

/// One query's quantized interests, in request-arena scratch.
pub struct ScreenQuery<'a> {
    /// `k × groups` words of four i8 codes `pᵢ` (pad dims 0).
    words: &'a [i32],
    /// Per interest: `128·Σpᵢ`, which the item codes' offset adds to every
    /// integer dot.
    offset: &'a [i32],
    /// Per interest: the scale `t`.
    scale: &'a [f32],
    /// Per interest: the rounded-up slack.
    slack: &'a [f32],
}

impl CatalogScreen {
    /// Builds the screen of a row-major `table` of `dim`-wide rows, or
    /// `None` if the table is not screenable (a non-finite entry, `dim`
    /// outside `1..=MAX_DIM`, or magnitudes past the guard).
    pub fn build(table: &[f32], dim: usize) -> Option<CatalogScreen> {
        if dim == 0 || dim > MAX_DIM || !table.iter().all(|v| v.is_finite()) {
            return None;
        }
        let rows = table.len() / dim;
        let groups = dim.div_ceil(4);
        let padded = rows.div_ceil(SCREEN_LANES) * SCREEN_LANES;
        let mut codes = vec![128u8; padded * groups * 4];
        let mut scales = vec![0.0f32; padded];
        let (mut err, mut mass, mut max_abs) = (0.0f64, 0.0f64, 0.0f64);
        let mut q = vec![0i8; dim];
        for (r, row) in table.chunks_exact(dim).enumerate() {
            let s = quant::quantize_row(row, &mut q);
            scales[r] = s;
            let block = &mut codes[(r / SCREEN_LANES) * groups * SCREEN_GROUP_BYTES..];
            let lane = 4 * (r % SCREEN_LANES);
            let mut code_l1 = 0.0f64;
            for (i, (&v, &c)) in row.iter().zip(&q).enumerate() {
                block[(i / 4) * SCREEN_GROUP_BYTES + lane + i % 4] = (c as i32 + 128) as u8;
                err = err.max((v as f64 - s as f64 * c as f64).abs());
                max_abs = max_abs.max((v as f64).abs());
                code_l1 += (c as f64).abs();
            }
            mass = mass.max(s as f64 * code_l1);
        }
        (max_abs + err < CATALOG_LIMIT).then_some(CatalogScreen {
            codes,
            scales,
            rows,
            dim,
            groups,
            err,
            mass,
            max_abs,
        })
    }

    /// Arena slots [`prepare`](Self::prepare) takes for one query of `k`
    /// interests.
    pub fn query_len(&self, k: usize) -> usize {
        k * (self.groups + 3)
    }

    /// Length of the i32 accumulator scratch [`scan`](Self::scan) needs
    /// for queries of `k` interests.
    pub fn acc_len(k: usize) -> usize {
        RUN_BLOCKS * k * SCREEN_LANES
    }

    /// Length of the f32 bound scratch [`scan`](Self::scan) needs.
    pub const BOUNDS_LEN: usize = RUN_BLOCKS * SCREEN_LANES;

    /// Quantizes one query's interests `z` (`k × dim`) into `arena`
    /// scratch, or returns `None` if the query must take the exact pass: a
    /// non-finite interest, or magnitudes past the guard.
    pub fn prepare<'a>(&self, z: &[f32], arena: &'a Arena) -> Option<ScreenQuery<'a>> {
        if !z.iter().all(|v| v.is_finite()) {
            return None;
        }
        let (d, k) = (self.dim, z.len() / self.dim);
        let words = arena.alloc_i32(k * self.groups);
        let offset = arena.alloc_i32(k);
        let scale = arena.alloc(k);
        let slack = arena.alloc(k);
        let gamma = d as f64 * UNIT / (1.0 - d as f64 * UNIT);
        let item_max = self.max_abs + self.err;
        for (kk, zk) in z.chunks_exact(d).enumerate() {
            let t = zk.iter().fold(0.0f32, |m, &v| m.max(v.abs())) / 127.0;
            let (mut l1, mut err, mut code_l1, mut code_sum) = (0.0f64, 0.0f64, 0.0f64, 0);
            for (word, zg) in words[kk * self.groups..].iter_mut().zip(zk.chunks(4)) {
                let mut bytes = [0u8; 4];
                for (byte, &zi) in bytes.iter_mut().zip(zg) {
                    let p = if t > 0.0 {
                        quant::round_code(zi / t)
                    } else {
                        0
                    };
                    *byte = p as u8;
                    l1 += (zi as f64).abs();
                    err = err.max((zi as f64 - t as f64 * p as f64).abs());
                    code_l1 += (p as f64).abs();
                    code_sum += p as i32;
                }
                *word = i32::from_le_bytes(bytes);
            }
            let p1 = t as f64 * code_l1;
            let bound = (l1 * self.err
                + err * self.mass
                + gamma * l1 * self.max_abs
                + d as f64 * TINY
                + 3.0 * UNIT * p1 * item_max
                + TINY * (t as f64 + 1.0))
                * F64_PAD;
            if (l1 + p1) * item_max >= QUERY_LIMIT || bound >= QUERY_LIMIT {
                return None;
            }
            let rounded = bound as f32;
            offset[kk] = 128 * code_sum;
            scale[kk] = t;
            slack[kk] = if (rounded as f64) < bound {
                rounded.next_up()
            } else {
                rounded
            };
        }
        Some(ScreenQuery {
            words,
            offset,
            scale,
            slack,
        })
    }

    /// Runs the integer screen over the blocks covering rows `0..end` and
    /// hands `visit(row0, ub)` each block's first row and its 16 bounds:
    /// `ub[j] ≥` the exact f32 score of row `row0 + j` (pad lanes carry
    /// meaningless bounds). `acc` and `ub` are scratch of
    /// [`acc_len`](Self::acc_len)`(k)` and [`BOUNDS_LEN`](Self::BOUNDS_LEN)
    /// elements. Returns the screen bytes read.
    pub fn scan(
        &self,
        query: &ScreenQuery<'_>,
        end: usize,
        acc: &mut [i32],
        ub: &mut [f32],
        mut visit: impl FnMut(usize, &[f32]),
    ) -> u64 {
        let k = query.scale.len();
        let blocks = end.min(self.rows).div_ceil(SCREEN_LANES);
        let block_bytes = self.groups * SCREEN_GROUP_BYTES;
        for run in (0..blocks).step_by(RUN_BLOCKS) {
            let nb = RUN_BLOCKS.min(blocks - run);
            let codes = &self.codes[run * block_bytes..][..nb * block_bytes];
            simd::screen_dots(query.words, codes, k, acc);
            let (row0, ub) = (run * SCREEN_LANES, &mut ub[..nb * SCREEN_LANES]);
            let scales = &self.scales[row0..][..ub.len()];
            simd::screen_bounds(acc, query.offset, query.scale, query.slack, scales, ub);
            for (b, lanes) in ub.chunks_exact(SCREEN_LANES).enumerate() {
                visit(row0 + b * SCREEN_LANES, lanes);
            }
        }
        (blocks * (block_bytes + SCREEN_LANES * std::mem::size_of::<f32>())) as u64
    }
}
