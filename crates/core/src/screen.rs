//! Exact i8 screen for catalog ranking (DESIGN.md §13), exhaustive or
//! over the probed lists of an IVF index (§14).
//!
//! Exhaustive ranking scores every item against every interest in f32. At
//! serving shapes that pass is bound by streaming the f32 catalog, which
//! does not fit in L2. The screen is an i8 copy of the catalog, 4× smaller
//! (the row scheme of `mbssl_tensor::quant::quantize_row`, stored as `q + 128`
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
//!
//! # Row order
//!
//! The screen is built in id order: row `v` holds item `v`. A row → item
//! map (`CatalogScreen::ids`) names the item of every row, 0 for a
//! pad row. `CatalogScreen::relay` re-lays the rows in any order,
//! for example inverted-list order so that a probed list is a contiguous run
//! of blocks. It copies each item's codes and scale and never re-quantizes,
//! so every item's bound, and the catalog-wide `E`, `Q` and `V`, stay those
//! of the built screen.

use std::ops::Range;

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
/// Interests scored side by side by [`ScreenQuery::exact_score`].
const EXACT_LANES: usize = 4;

/// The i8 screen of an f32 item table (see the module docs).
pub struct CatalogScreen {
    /// `blocks × groups` groups of [`SCREEN_GROUP_BYTES`] u8 codes `q + 128`,
    /// in the layout of [`simd::screen_dots`]. Pad rows and dims hold 128;
    /// they meet zero query codes or are never read.
    codes: Vec<u8>,
    /// Per row, padded to whole blocks: the scale `s_v`.
    scales: Vec<f32>,
    /// Per row, padded to whole blocks: the item it holds, 0 for a pad row.
    ids: Vec<u32>,
    /// Rows of the table the screen was built from.
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
    /// The f32 interests in groups of [`EXACT_LANES`], dim-major: entry
    /// `i` of interest `g·4 + j` sits at `(g·dim + i)·4 + j`; lanes past
    /// the last interest hold 0.
    lanes: &'a [f32],
}

impl ScreenQuery<'_> {
    /// The exact f32 score of `row`, a row of the screened table: per
    /// interest a sum from +0.0 in ascending dim, each term a separate mul
    /// then add, then a strict-`>` max in interest order. This is bit for
    /// bit the tile kernel's score. The kernel skips zero interest entries;
    /// adding their products instead changes nothing here, because every
    /// entry is finite (a screen needs a finite table and `prepare` refuses
    /// other queries): a zero product is ±0.0, adding ±0.0 leaves every sum
    /// but -0.0 unchanged, and a sum from +0.0 never reaches -0.0.
    pub(crate) fn exact_score(&self, row: &[f32]) -> f32 {
        let k = self.scale.len();
        let mut best = f32::NEG_INFINITY;
        for (g, group) in self.lanes.chunks_exact(EXACT_LANES * row.len()).enumerate() {
            let mut acc = [0.0f32; EXACT_LANES];
            for (z, &v) in group.chunks_exact(EXACT_LANES).zip(row) {
                for (a, &zj) in acc.iter_mut().zip(z) {
                    *a += zj * v;
                }
            }
            for &s in &acc[..(k - g * EXACT_LANES).min(EXACT_LANES)] {
                if s > best {
                    best = s;
                }
            }
        }
        best
    }
}

/// One interest's i8 quantization and the terms of its slack that do not
/// depend on the catalog. An IVF build quantizes every item once and
/// reuses the codes against each pass's centroid screen.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct InterestCodes {
    /// `128·Σpᵢ`, which the screen codes' offset adds to every integer dot.
    pub offset: i32,
    /// The scale `t`.
    pub scale: f32,
    /// `‖z‖₁`.
    l1: f64,
    /// `E_z = max |zᵢ − t·pᵢ|`.
    err: f64,
    /// `t·Σ|pᵢ|`.
    p1: f64,
}

impl InterestCodes {
    /// Quantizes the finite interest `z` into `words` (`dim / 4` rounded
    /// up, four i8 codes per word, pad dims 0).
    pub(crate) fn quantize(z: &[f32], words: &mut [i32]) -> InterestCodes {
        let t = z.iter().fold(0.0f32, |m, &v| m.max(v.abs())) / 127.0;
        let (mut l1, mut err, mut code_l1, mut code_sum) = (0.0f64, 0.0f64, 0.0f64, 0);
        for (word, zg) in words.iter_mut().zip(z.chunks(4)) {
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
        InterestCodes {
            offset: 128 * code_sum,
            scale: t,
            l1,
            err,
            p1: t as f64 * code_l1,
        }
    }
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
        let mut ids: Vec<u32> = (0..padded as u32).collect();
        ids[rows..].fill(0);
        (max_abs + err < CATALOG_LIMIT).then_some(CatalogScreen {
            codes,
            scales,
            ids,
            rows,
            dim,
            groups,
            err,
            mass,
            max_abs,
        })
    }

    /// Re-lays the screen so that row `r` holds item `order[r]`, 0 marking
    /// a pad row, with pad rows up to a whole block. Codes and scales are
    /// copied from the current rows, never re-quantized. Every nonzero id
    /// must be a row of the table the screen was built from; items left out
    /// of `order` are no longer screened.
    pub(crate) fn relay(&mut self, order: &[u32]) {
        let mut row_of = vec![usize::MAX; self.rows];
        for (r, &id) in self.ids.iter().enumerate().filter(|(_, &id)| id != 0) {
            row_of[id as usize] = r;
        }
        let block_bytes = self.groups * SCREEN_GROUP_BYTES;
        let padded = order.len().div_ceil(SCREEN_LANES) * SCREEN_LANES;
        let mut codes = vec![128u8; padded / SCREEN_LANES * block_bytes];
        let mut scales = vec![0.0f32; padded];
        let mut ids = vec![0u32; padded];
        let lane = |r: usize| (r / SCREEN_LANES) * block_bytes + 4 * (r % SCREEN_LANES);
        for (r, &id) in order.iter().enumerate().filter(|(_, &id)| id != 0) {
            let src = row_of[id as usize];
            assert!(src != usize::MAX, "item {id} is not in the screen");
            ids[r] = id;
            scales[r] = self.scales[src];
            for g in (0..self.groups).map(|g| g * SCREEN_GROUP_BYTES) {
                let (to, from) = (lane(r) + g, lane(src) + g);
                codes[to..to + 4].copy_from_slice(&self.codes[from..from + 4]);
            }
        }
        (self.codes, self.scales, self.ids) = (codes, scales, ids);
    }

    /// The row → item map, 0 for a pad row; its length is a whole number
    /// of blocks.
    pub(crate) fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Blocks of [`SCREEN_LANES`] rows in the screen.
    pub(crate) fn blocks(&self) -> usize {
        self.ids.len() / SCREEN_LANES
    }

    /// Arena slots [`prepare`](Self::prepare) takes for one query of `k`
    /// interests.
    pub fn query_len(&self, k: usize) -> usize {
        k * (self.groups + 3) + k.next_multiple_of(EXACT_LANES) * self.dim
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
        let lanes = arena.alloc(k.next_multiple_of(EXACT_LANES) * d);
        let code_words = words.chunks_exact_mut(self.groups);
        for (kk, (zk, code_words)) in z.chunks_exact(d).zip(code_words).enumerate() {
            let codes = InterestCodes::quantize(zk, code_words);
            slack[kk] = self.slack(&codes)?;
            offset[kk] = codes.offset;
            scale[kk] = codes.scale;
            let group = &mut lanes[(kk / EXACT_LANES) * EXACT_LANES * d..];
            for (i, &zi) in zk.iter().enumerate() {
                group[i * EXACT_LANES + kk % EXACT_LANES] = zi;
            }
        }
        Some(ScreenQuery {
            words,
            offset,
            scale,
            slack,
            lanes,
        })
    }

    /// The rounded-up slack of one quantized interest against this
    /// screen's `E`, `Q` and `V` (see the module docs), or `None` past the
    /// query guard.
    pub(crate) fn slack(&self, codes: &InterestCodes) -> Option<f32> {
        let d = self.dim as f64;
        let gamma = d * UNIT / (1.0 - d * UNIT);
        let item_max = self.max_abs + self.err;
        let InterestCodes {
            scale: t,
            l1,
            err,
            p1,
            ..
        } = *codes;
        let bound = (l1 * self.err
            + err * self.mass
            + gamma * l1 * self.max_abs
            + d * TINY
            + 3.0 * UNIT * p1 * item_max
            + TINY * (t as f64 + 1.0))
            * F64_PAD;
        if (l1 + p1) * item_max >= QUERY_LIMIT || bound >= QUERY_LIMIT {
            return None;
        }
        let rounded = bound as f32;
        Some(if (rounded as f64) < bound {
            rounded.next_up()
        } else {
            rounded
        })
    }

    /// The integer dots of `k` interests' code `words` (`k × groups`, as
    /// [`InterestCodes::quantize`] writes them) against every block, in
    /// the layout of [`simd::screen_dots`]; `acc` needs `k · rows`
    /// words, rows padded to whole blocks.
    pub(crate) fn dots(&self, words: &[i32], k: usize, acc: &mut [i32]) {
        simd::screen_dots(words, &self.codes, k, acc);
    }

    /// Per row, padded to whole blocks: the scale `s_v`.
    pub(crate) fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Runs the integer screen over `blocks` and hands `visit(row0, ub)`
    /// each block's first row and its 16 bounds: `ub[j] ≥` the exact f32
    /// score of the item in row `row0 + j` (pad rows carry meaningless
    /// bounds; `ids` tells them apart). `acc` and `ub` are
    /// scratch of [`acc_len`](Self::acc_len)`(k)` and
    /// [`BOUNDS_LEN`](Self::BOUNDS_LEN) elements. Returns the screen bytes
    /// read.
    pub fn scan(
        &self,
        query: &ScreenQuery<'_>,
        blocks: Range<usize>,
        acc: &mut [i32],
        ub: &mut [f32],
        mut visit: impl FnMut(usize, &[f32]),
    ) -> u64 {
        let k = query.scale.len();
        let block_bytes = self.groups * SCREEN_GROUP_BYTES;
        let count = blocks.len();
        for run in blocks.clone().step_by(RUN_BLOCKS) {
            let nb = RUN_BLOCKS.min(blocks.end - run);
            let codes = &self.codes[run * block_bytes..][..nb * block_bytes];
            simd::screen_dots(query.words, codes, k, acc);
            let (row0, ub) = (run * SCREEN_LANES, &mut ub[..nb * SCREEN_LANES]);
            let scales = &self.scales[row0..][..ub.len()];
            simd::screen_bounds(acc, query.offset, query.scale, query.slack, scales, ub);
            for (b, lanes) in ub.chunks_exact(SCREEN_LANES).enumerate() {
                visit(row0 + b * SCREEN_LANES, lanes);
            }
        }
        (count * (block_bytes + SCREEN_LANES * std::mem::size_of::<f32>())) as u64
    }
}
