//! Explicit SIMD variants of the packed GEMM inner kernels.
//!
//! The scalar microkernels in [`crate::kernels`] auto-vectorize reasonably
//! well, but the compiler must stay conservative around the `a == 0.0` skip
//! and the accumulator layout. This module provides hand-written
//! `std::arch` AVX2 versions of the two inner loops — the MR×NR register
//! tile of the packed `nn`/`tn` path and the NR-lane strip of the packed
//! `nt` path — selected once at runtime and gated by `MBSSL_SIMD`.
//!
//! # Bit-identity contract
//!
//! The SIMD kernels are **bit-for-bit identical** to the scalar references,
//! not merely close:
//!
//! - every multiply-add is a separate `_mm256_mul_ps` + `_mm256_add_ps`
//!   (never FMA), so each lane performs the same two individually rounded
//!   f32 operations as the scalar `acc += a * b`;
//! - accumulation visits k-steps in the same ascending order, with the
//!   same partial-sum structure (`nt` keeps the four p-mod-4 chains plus
//!   remainder, combined `s0 + s1 + s2 + s3 + rest`);
//! - the `a == 0.0` skip of the tile kernel is applied per (row, p) exactly
//!   where the scalar kernel applies it (skipping a whole vector of
//!   identical lanes is the same as skipping each lane);
//! - NR = 8 makes each accumulator row exactly one `__m256`, so no lane is
//!   split or reassociated.
//!
//! `tests/simd_parity.rs` pins the contract with proptests; the kernels are
//! public so the tests can drive both variants directly regardless of the
//! ambient `MBSSL_SIMD` setting.
//!
//! The kernels of the exact catalog screen (DESIGN.md §13) have AVX-512
//! variants under the same gate: [`screen_dots`] is exact i32 arithmetic,
//! and [`screen_bounds`] and the IVF build's [`screen_prune`] (§14) run
//! the same IEEE operations per lane as their scalar twins, so both agree
//! to the bit. `tests/catalog_screen.rs` at the workspace root checks the
//! first two and `tests/simd_parity.rs` the third.

use std::sync::OnceLock;

use crate::kernels::{MR, NR};

// The tile kernel's vectorized zero test loads one a-column as a single
// __m128; NR = 8 makes each accumulator row one __m256 (see module docs).
const _: () = assert!(MR == 4, "gemm_tile_avx2 assumes MR == 4");
const _: () = assert!(NR == 8, "the AVX2 kernels assume NR == 8");

/// Whether SIMD dispatch is allowed. Defaults to on; `MBSSL_SIMD=off`
/// (or `0` / `none`) forces the scalar fallbacks. Read once and cached for
/// the process lifetime. The switch stays because the scalar kernels are a
/// production path (hosts without AVX2 or AVX-512 VNNI run them) and this
/// is how CI covers them on hosts that have both.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("MBSSL_SIMD").as_deref(),
            Ok("off") | Ok("0") | Ok("none")
        )
    })
}

/// Whether the CPU supports the AVX2 kernels (independent of the
/// `MBSSL_SIMD` gate). Always `false` off x86-64.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX2 kernels are actually in use: enabled by the env gate
/// *and* supported by the CPU. Cached; dispatch sites branch on this.
pub fn active() -> bool {
    static ACTIVE: OnceLock<bool> = OnceLock::new();
    *ACTIVE.get_or_init(|| enabled() && avx2_available())
}

/// One MR×NR register-tile accumulation: `acc[r][..] += apack[p*MR+r] *
/// bpack[p*NR..][..NR]` over `kc` packed steps. `acc` is row-major
/// `MR * NR`; dispatches to AVX2 when [`active`].
#[inline]
pub fn gemm_tile(apack: &[f32], bpack: &[f32], acc: &mut [f32], kc: usize) {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies AVX2 was detected at runtime.
        unsafe { gemm_tile_avx2(apack, bpack, acc, kc) };
        return;
    }
    gemm_tile_scalar(apack, bpack, acc, kc);
}

/// Scalar reference for [`gemm_tile`]: the exact accumulation loop of the
/// packed microkernel's full-tile path.
pub fn gemm_tile_scalar(apack: &[f32], bpack: &[f32], acc: &mut [f32], kc: usize) {
    debug_assert!(acc.len() >= MR * NR);
    for p in 0..kc {
        let b = &bpack[p * NR..][..NR];
        for r in 0..MR {
            let a = apack[p * MR + r];
            if a == 0.0 {
                continue;
            }
            let row = &mut acc[r * NR..][..NR];
            for (acc_v, &b_v) in row.iter_mut().zip(b.iter()) {
                *acc_v += a * b_v;
            }
        }
    }
}

/// AVX2 variant of [`gemm_tile`]. Each accumulator row is one `__m256`;
/// every step is broadcast → mul → add (no FMA) with the scalar kernel's
/// per-(row, p) `a == 0.0` skip, so results are bit-identical to
/// [`gemm_tile_scalar`].
///
/// # Safety
/// The CPU must support AVX2 (check [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn gemm_tile_avx2(apack: &[f32], bpack: &[f32], acc: &mut [f32], kc: usize) {
    use std::arch::x86_64::*;
    debug_assert!(acc.len() >= MR * NR);
    let mut rows = [_mm256_setzero_ps(); MR];
    for (r, row) in rows.iter_mut().enumerate() {
        *row = _mm256_loadu_ps(acc.as_ptr().add(r * NR));
    }
    let zero4 = _mm_setzero_ps();
    for p in 0..kc {
        let b = _mm256_loadu_ps(bpack.as_ptr().add(p * NR));
        // One vectorized zero test over the whole a-column (MR = 4 = one
        // __m128) replaces MR scalar compare-and-branch pairs. cmpeq treats
        // -0.0 == 0.0 and NaN != 0.0 exactly like the scalar `a == 0.0`.
        let a4 = _mm_loadu_ps(apack.as_ptr().add(p * MR));
        if _mm_movemask_ps(_mm_cmpeq_ps(a4, zero4)) == 0 {
            for (r, row) in rows.iter_mut().enumerate() {
                let a = _mm256_set1_ps(*apack.get_unchecked(p * MR + r));
                // mul + add, not FMA: each lane rounds twice exactly like
                // the scalar `acc += a * b`.
                *row = _mm256_add_ps(*row, _mm256_mul_ps(a, b));
            }
        } else {
            for (r, row) in rows.iter_mut().enumerate() {
                let a = *apack.get_unchecked(p * MR + r);
                if a == 0.0 {
                    continue;
                }
                *row = _mm256_add_ps(*row, _mm256_mul_ps(_mm256_set1_ps(a), b));
            }
        }
    }
    for (r, row) in rows.iter().enumerate() {
        _mm256_storeu_ps(acc.as_mut_ptr().add(r * NR), *row);
    }
}

/// One packed-`nt` strip: `c_out[jj] += dot(a_row, lane jj of strip)` for
/// `c_out.len() <= NR` lanes, reproducing [`crate::kernels::dot`]'s chain
/// structure per lane. Dispatches to AVX2 when [`active`].
#[inline]
pub fn nt_strip(a_row: &[f32], strip: &[f32], c_out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies AVX2 was detected at runtime.
        unsafe { nt_strip_avx2(a_row, strip, c_out) };
        return;
    }
    nt_strip_scalar(a_row, strip, c_out);
}

/// Scalar reference for [`nt_strip`]: four p-mod-4 partial-sum chains plus
/// a remainder chain, combined `s0 + s1 + s2 + s3 + rest` — exactly the
/// per-lane arithmetic of the naive `dot`.
pub fn nt_strip_scalar(a_row: &[f32], strip: &[f32], c_out: &mut [f32]) {
    let k = a_row.len();
    let chunks = k / 4;
    let mut s = [[0.0f32; NR]; 4];
    let mut rest = [0.0f32; NR];
    for i in 0..chunks {
        let o = i * 4;
        for (ch, s_ch) in s.iter_mut().enumerate() {
            let a_v = a_row[o + ch];
            let b_v = &strip[(o + ch) * NR..][..NR];
            for (acc, &bv) in s_ch.iter_mut().zip(b_v.iter()) {
                *acc += a_v * bv;
            }
        }
    }
    for p in chunks * 4..k {
        let a_v = a_row[p];
        let b_v = &strip[p * NR..][..NR];
        for (acc, &bv) in rest.iter_mut().zip(b_v.iter()) {
            *acc += a_v * bv;
        }
    }
    for (jj, c_v) in c_out.iter_mut().enumerate() {
        *c_v += s[0][jj] + s[1][jj] + s[2][jj] + s[3][jj] + rest[jj];
    }
}

/// AVX2 variant of [`nt_strip`]: the four partial-sum chains and the
/// remainder chain are each one `__m256`, advanced with broadcast → mul →
/// add (no FMA) in the same order as the scalar code, and combined
/// left-to-right (`((s0 + s1) + s2) + s3) + rest`) per lane — bit-identical
/// to [`nt_strip_scalar`].
///
/// # Safety
/// The CPU must support AVX2 (check [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn nt_strip_avx2(a_row: &[f32], strip: &[f32], c_out: &mut [f32]) {
    use std::arch::x86_64::*;
    let k = a_row.len();
    let chunks = k / 4;
    let mut s = [_mm256_setzero_ps(); 4];
    let mut rest = _mm256_setzero_ps();
    for i in 0..chunks {
        let o = i * 4;
        for (ch, s_ch) in s.iter_mut().enumerate() {
            let a_v = _mm256_set1_ps(*a_row.get_unchecked(o + ch));
            let b_v = _mm256_loadu_ps(strip.as_ptr().add((o + ch) * NR));
            *s_ch = _mm256_add_ps(*s_ch, _mm256_mul_ps(a_v, b_v));
        }
    }
    for p in chunks * 4..k {
        let a_v = _mm256_set1_ps(*a_row.get_unchecked(p));
        let b_v = _mm256_loadu_ps(strip.as_ptr().add(p * NR));
        rest = _mm256_add_ps(rest, _mm256_mul_ps(a_v, b_v));
    }
    // ((((s0 + s1) + s2) + s3) + rest), matching the scalar combine order.
    let total = _mm256_add_ps(
        _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(s[0], s[1]), s[2]), s[3]),
        rest,
    );
    let mut lanes = [0.0f32; NR];
    _mm256_storeu_ps(lanes.as_mut_ptr(), total);
    for (jj, c_v) in c_out.iter_mut().enumerate() {
        *c_v += lanes[jj];
    }
}

/// Transposes one NR-column strip of the fused gather-pack
/// (`kernels::PackedB::pack_select_into`): `dst[p*NR + jj] = rows[jj][p]` for
/// `p < kc`. Pure data movement — no arithmetic — so SIMD and scalar are
/// trivially bit-identical. Dispatches to AVX2 when [`active`].
#[inline]
pub fn pack_strip(rows: &[&[f32]; NR], kc: usize, dst: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if active() {
        // SAFETY: `active()` implies AVX2 was detected at runtime.
        unsafe { pack_strip_avx2(rows, kc, dst) };
        return;
    }
    pack_strip_scalar(rows, kc, dst);
}

/// Scalar reference for [`pack_strip`].
pub fn pack_strip_scalar(rows: &[&[f32]; NR], kc: usize, dst: &mut [f32]) {
    debug_assert!(dst.len() >= kc * NR);
    for (jj, row) in rows.iter().enumerate() {
        for (p, &v) in row[..kc].iter().enumerate() {
            dst[p * NR + jj] = v;
        }
    }
}

/// AVX2 variant of [`pack_strip`]: 8×8 in-register transposes (unpack
/// pairs → shuffle quads → permute 128-bit halves), turning the scalar
/// path's stride-NR scatter stores into contiguous `__m256` stores.
///
/// # Safety
/// The CPU must support AVX2 (check [`avx2_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub unsafe fn pack_strip_avx2(rows: &[&[f32]; NR], kc: usize, dst: &mut [f32]) {
    use std::arch::x86_64::*;
    debug_assert!(dst.len() >= kc * NR);
    let blocks = kc / 8;
    for b in 0..blocks {
        let p0 = b * 8;
        let mut r = [_mm256_setzero_ps(); 8];
        for (jj, row) in rows.iter().enumerate() {
            debug_assert!(row.len() >= kc);
            r[jj] = _mm256_loadu_ps(row.as_ptr().add(p0));
        }
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps(t0, t2, 0x44);
        let s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
        let s2 = _mm256_shuffle_ps(t1, t3, 0x44);
        let s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
        let s4 = _mm256_shuffle_ps(t4, t6, 0x44);
        let s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
        let s6 = _mm256_shuffle_ps(t5, t7, 0x44);
        let s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
        let out = [
            _mm256_permute2f128_ps(s0, s4, 0x20),
            _mm256_permute2f128_ps(s1, s5, 0x20),
            _mm256_permute2f128_ps(s2, s6, 0x20),
            _mm256_permute2f128_ps(s3, s7, 0x20),
            _mm256_permute2f128_ps(s0, s4, 0x31),
            _mm256_permute2f128_ps(s1, s5, 0x31),
            _mm256_permute2f128_ps(s2, s6, 0x31),
            _mm256_permute2f128_ps(s3, s7, 0x31),
        ];
        for (p, v) in out.iter().enumerate() {
            _mm256_storeu_ps(dst.as_mut_ptr().add((p0 + p) * NR), *v);
        }
    }
    for p in blocks * 8..kc {
        for (jj, row) in rows.iter().enumerate() {
            *dst.get_unchecked_mut(p * NR + jj) = *row.get_unchecked(p);
        }
    }
}

/// Items per block of the exact catalog screen: one i32 lane each of a
/// 512-bit accumulator.
pub const SCREEN_LANES: usize = 16;
/// Bytes of one screen group: [`SCREEN_LANES`] items × 4 dims of u8 codes,
/// the `vpdpbusd` operand shape.
pub const SCREEN_GROUP_BYTES: usize = 4 * SCREEN_LANES;

/// Whether the CPU supports the AVX-512 VNNI screen kernels (independent
/// of the `MBSSL_SIMD` gate). Always `false` off x86-64.
pub fn vnni_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vnni")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the screen kernels run their VNNI variants: enabled by the env
/// gate *and* supported by the CPU. Cached.
pub fn vnni_active() -> bool {
    static ACTIVE: OnceLock<bool> = OnceLock::new();
    *ACTIVE.get_or_init(|| enabled() && vnni_available())
}

/// Integer dots of the exact catalog screen over a run of blocks.
///
/// `blocks` holds whole blocks of `groups = words.len() / k` groups of
/// [`SCREEN_GROUP_BYTES`]: in group `g` of a block, bytes `4j..4j+4` are
/// item `j`'s u8 codes for dims `4g..4g+4`. `words` holds `k` queries ×
/// `groups` words, each packing four i8 codes little-endian (dim `4g + m`
/// in byte `m`). Writes `acc[(b·k + kk)·16 + j] = Σ_g Σ_m u8 · i8` for
/// block `b`, query row `kk` and item lane `j`, wrapping on i32 overflow
/// like `vpdpbusd`. Integer arithmetic is exact, so the VNNI and portable
/// kernels agree to the bit. Dispatches to VNNI when [`vnni_active`].
#[inline]
pub fn screen_dots(words: &[i32], blocks: &[u8], k: usize, acc: &mut [i32]) {
    #[cfg(target_arch = "x86_64")]
    if vnni_active() {
        // SAFETY: `vnni_active()` implies AVX-512F and VNNI were detected.
        unsafe { screen_dots_vnni(words, blocks, k, acc) };
        return;
    }
    screen_dots_scalar(words, blocks, k, acc);
}

/// Portable reference for [`screen_dots`].
pub fn screen_dots_scalar(words: &[i32], blocks: &[u8], k: usize, acc: &mut [i32]) {
    let groups = words.len() / k;
    let block_len = groups * SCREEN_GROUP_BYTES;
    assert!(
        acc.len() >= blocks.len() / block_len * k * SCREEN_LANES,
        "acc too small"
    );
    for (b, block) in blocks.chunks_exact(block_len).enumerate() {
        for (kk, row) in words.chunks_exact(groups).enumerate() {
            let mut lanes = [0i32; SCREEN_LANES];
            for (&word, group) in row.iter().zip(block.chunks_exact(SCREEN_GROUP_BYTES)) {
                let p = word.to_le_bytes().map(|c| c as i8 as i32);
                for (lane, item) in lanes.iter_mut().zip(group.chunks_exact(4)) {
                    let dot: i32 = (0..4).map(|m| item[m] as i32 * p[m]).sum();
                    *lane = lane.wrapping_add(dot);
                }
            }
            acc[(b * k + kk) * SCREEN_LANES..][..SCREEN_LANES].copy_from_slice(&lanes);
        }
    }
}

/// AVX-512 VNNI variant of [`screen_dots`]: each group is loaded once and
/// meets up to four query rows, one `vpdpbusd` each (the query word rides
/// along as an embedded broadcast), so four accumulator chains are in
/// flight.
///
/// # Safety
/// The CPU must support AVX-512F and AVX-512 VNNI (check
/// [`vnni_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
pub unsafe fn screen_dots_vnni(words: &[i32], blocks: &[u8], k: usize, acc: &mut [i32]) {
    let groups = words.len() / k;
    let block_len = groups * SCREEN_GROUP_BYTES;
    let nb = blocks.len() / block_len;
    assert!(acc.len() >= nb * k * SCREEN_LANES, "acc too small");
    for b in 0..nb {
        let block = blocks.as_ptr().add(b * block_len);
        let mut kk = 0;
        while kk < k {
            let rows = words.as_ptr().add(kk * groups);
            let out = acc.as_mut_ptr().add((b * k + kk) * SCREEN_LANES);
            kk += match k - kk {
                1 => screen_block_vnni::<1>(rows, groups, block, out),
                2 => screen_block_vnni::<2>(rows, groups, block, out),
                3 => screen_block_vnni::<3>(rows, groups, block, out),
                _ => screen_block_vnni::<4>(rows, groups, block, out),
            };
        }
    }
}

/// `N` query rows of [`screen_dots_vnni`] against one block; returns `N`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
#[inline]
unsafe fn screen_block_vnni<const N: usize>(
    rows: *const i32,
    groups: usize,
    block: *const u8,
    out: *mut i32,
) -> usize {
    use std::arch::x86_64::*;
    let mut lanes = [_mm512_setzero_si512(); N];
    for g in 0..groups {
        let items = _mm512_loadu_si512(block.add(g * SCREEN_GROUP_BYTES) as *const _);
        for (n, lane) in lanes.iter_mut().enumerate() {
            let p = _mm512_set1_epi32(*rows.add(n * groups + g));
            *lane = _mm512_dpbusd_epi32(*lane, items, p);
        }
    }
    for (n, lane) in lanes.iter().enumerate() {
        _mm512_storeu_si512(out.add(n * SCREEN_LANES) as *mut _, *lane);
    }
    N
}

/// Upper bounds of the exact catalog screen from [`screen_dots`]'
/// accumulators: for block `b` and item lane `j`,
///
/// `ub[b·16 + j] = max_kk fl(fl(fl(acc − offset[kk]) · scale[b·16 + j]) ·
/// t[kk]) + slack[kk])`
///
/// with `acc = acc[(b·k + kk)·16 + j]`, the i32 subtraction wrapping, and
/// a strict-`>` max from `-inf` in ascending `kk`. Each lane is the same
/// sequence of individually rounded IEEE operations in both variants (no
/// FMA), so they agree to the bit. Dispatches to AVX-512 when
/// [`vnni_active`].
#[inline]
pub fn screen_bounds(
    acc: &[i32],
    offset: &[i32],
    t: &[f32],
    slack: &[f32],
    scale: &[f32],
    ub: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if vnni_active() {
        // SAFETY: `vnni_active()` implies AVX-512F was detected.
        unsafe { screen_bounds_avx512(acc, offset, t, slack, scale, ub) };
        return;
    }
    screen_bounds_scalar(acc, offset, t, slack, scale, ub);
}

/// Portable reference for [`screen_bounds`].
pub fn screen_bounds_scalar(
    acc: &[i32],
    offset: &[i32],
    t: &[f32],
    slack: &[f32],
    scale: &[f32],
    ub: &mut [f32],
) {
    let k = offset.len();
    assert!(
        acc.len() >= ub.len() * k && scale.len() >= ub.len(),
        "screen_bounds shapes"
    );
    for (b, out) in ub.chunks_exact_mut(SCREEN_LANES).enumerate() {
        let scale = &scale[b * SCREEN_LANES..][..SCREEN_LANES];
        out.fill(f32::NEG_INFINITY);
        for kk in 0..k {
            let lanes = &acc[(b * k + kk) * SCREEN_LANES..][..SCREEN_LANES];
            for j in 0..SCREEN_LANES {
                let x = (lanes[j].wrapping_sub(offset[kk]) as f32 * scale[j]) * t[kk] + slack[kk];
                if x > out[j] {
                    out[j] = x;
                }
            }
        }
    }
}

/// AVX-512 variant of [`screen_bounds`]: one `__m512` per block and query
/// row; `max(x, ub)` keeps `ub` unless `x > ub`, the scalar strict max.
///
/// # Safety
/// The CPU must support AVX-512F (check [`vnni_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub unsafe fn screen_bounds_avx512(
    acc: &[i32],
    offset: &[i32],
    t: &[f32],
    slack: &[f32],
    scale: &[f32],
    ub: &mut [f32],
) {
    use std::arch::x86_64::*;
    let k = offset.len();
    assert!(
        acc.len() >= ub.len() * k && scale.len() >= ub.len(),
        "screen_bounds shapes"
    );
    for b in 0..ub.len() / SCREEN_LANES {
        let s = _mm512_loadu_ps(scale.as_ptr().add(b * SCREEN_LANES));
        let mut best = _mm512_set1_ps(f32::NEG_INFINITY);
        for kk in 0..k {
            let a = _mm512_loadu_si512(acc.as_ptr().add((b * k + kk) * SCREEN_LANES) as *const _);
            let a = _mm512_sub_epi32(a, _mm512_set1_epi32(offset[kk]));
            let x = _mm512_mul_ps(_mm512_cvtepi32_ps(a), s);
            let x = _mm512_add_ps(
                _mm512_mul_ps(x, _mm512_set1_ps(t[kk])),
                _mm512_set1_ps(slack[kk]),
            );
            best = _mm512_max_ps(x, best);
        }
        _mm512_storeu_ps(ub.as_mut_ptr().add(b * SCREEN_LANES), best);
    }
}

/// The survivors of one screened nearest-centroid search (DESIGN.md §14):
/// query row `kk` of [`screen_dots`]' accumulators for `k` rows, against
/// the first `rows` screen rows.
///
/// Per row `r < rows` the gap is the [`screen_bounds`] bound less
/// `half[r]`,
///
/// `gaps[r] = fl(fl(fl(fl(fl(acc − offset) · scale[r]) · t) + slack) − half[r])`,
///
/// with `acc = acc[(b·k + kk)·16 + j]` for `r = b·16 + j`; pad lanes
/// (`r ≥ rows`) get `-inf`. `best` is the first row of the strict-`>`
/// max gap from `-inf` (row 0 if no gap exceeds `-inf`). The kernel calls
/// `floor(best)` once, then sets bit `j` of `mask[b]` iff `r < rows` and
/// `!(gaps[r] < floor)`, so a NaN gap survives and a pad lane never does.
/// Returns `(best, floor)`. `gaps` and `mask` cover whole blocks. Each
/// lane runs the same IEEE operations in both variants (no FMA), so they
/// agree to the bit. Dispatches to AVX-512 when [`vnni_active`].
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn screen_prune(
    acc: &[i32],
    k: usize,
    kk: usize,
    (offset, t, slack): (i32, f32, f32),
    scale: &[f32],
    half: &[f32],
    rows: usize,
    gaps: &mut [f32],
    floor: impl FnOnce(usize) -> f32,
    mask: &mut [u16],
) -> (usize, f32) {
    #[cfg(target_arch = "x86_64")]
    if vnni_active() {
        // SAFETY: `vnni_active()` implies AVX-512F was detected.
        return unsafe {
            screen_prune_avx512(
                acc,
                k,
                kk,
                (offset, t, slack),
                scale,
                half,
                rows,
                gaps,
                floor,
                mask,
            )
        };
    }
    screen_prune_scalar(
        acc,
        k,
        kk,
        (offset, t, slack),
        scale,
        half,
        rows,
        gaps,
        floor,
        mask,
    )
}

/// Checks [`screen_prune`]'s shapes; returns the block count.
#[allow(clippy::too_many_arguments)]
fn prune_blocks(
    acc: &[i32],
    k: usize,
    kk: usize,
    scale: &[f32],
    half: &[f32],
    rows: usize,
    gaps: &[f32],
    mask: &[u16],
) -> usize {
    let blocks = rows.div_ceil(SCREEN_LANES);
    let lanes = blocks * SCREEN_LANES;
    assert!(
        kk < k
            && acc.len() >= lanes * k
            && scale.len() >= lanes
            && half.len() >= lanes
            && gaps.len() >= lanes
            && mask.len() >= blocks,
        "screen_prune shapes"
    );
    blocks
}

/// Portable reference for [`screen_prune`].
// `!(gap < floor)`, not `gap >= floor`: a NaN gap survives.
#[allow(clippy::too_many_arguments, clippy::neg_cmp_op_on_partial_ord)]
pub fn screen_prune_scalar(
    acc: &[i32],
    k: usize,
    kk: usize,
    (offset, t, slack): (i32, f32, f32),
    scale: &[f32],
    half: &[f32],
    rows: usize,
    gaps: &mut [f32],
    floor: impl FnOnce(usize) -> f32,
    mask: &mut [u16],
) -> (usize, f32) {
    let blocks = prune_blocks(acc, k, kk, scale, half, rows, gaps, mask);
    let (mut best, mut best_gap) = (0, f32::NEG_INFINITY);
    for b in 0..blocks {
        let lanes = &acc[(b * k + kk) * SCREEN_LANES..][..SCREEN_LANES];
        for (j, &a) in lanes.iter().enumerate() {
            let r = b * SCREEN_LANES + j;
            let gap = if r < rows {
                (a.wrapping_sub(offset) as f32 * scale[r]) * t + slack - half[r]
            } else {
                f32::NEG_INFINITY
            };
            gaps[r] = gap;
            if gap > best_gap {
                (best, best_gap) = (r, gap);
            }
        }
    }
    let floor = floor(best);
    for (b, bits) in mask[..blocks].iter_mut().enumerate() {
        *bits = 0;
        for j in 0..SCREEN_LANES {
            let r = b * SCREEN_LANES + j;
            if r < rows && !(gaps[r] < floor) {
                *bits |= 1 << j;
            }
        }
    }
    (best, floor)
}

/// AVX-512 variant of [`screen_prune`]: one `__m512` per block; the
/// running `max(x, m)` keeps `m` unless `x > m`, the scalar strict max,
/// and the first lane equal to the max is the scalar's first strict
/// winner.
///
/// # Safety
/// The CPU must support AVX-512F (check [`vnni_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn screen_prune_avx512(
    acc: &[i32],
    k: usize,
    kk: usize,
    (offset, t, slack): (i32, f32, f32),
    scale: &[f32],
    half: &[f32],
    rows: usize,
    gaps: &mut [f32],
    floor: impl FnOnce(usize) -> f32,
    mask: &mut [u16],
) -> (usize, f32) {
    use std::arch::x86_64::*;
    let blocks = prune_blocks(acc, k, kk, scale, half, rows, gaps, mask);
    let lane_mask = |b: usize| -> u16 {
        let live = rows - b * SCREEN_LANES;
        if live >= SCREEN_LANES {
            u16::MAX
        } else {
            (1u16 << live) - 1
        }
    };
    let (off, tv, sv) = (
        _mm512_set1_epi32(offset),
        _mm512_set1_ps(t),
        _mm512_set1_ps(slack),
    );
    let neg_inf = _mm512_set1_ps(f32::NEG_INFINITY);
    let mut top = neg_inf;
    for b in 0..blocks {
        let a = _mm512_loadu_si512(acc.as_ptr().add((b * k + kk) * SCREEN_LANES) as *const _);
        let x = _mm512_mul_ps(
            _mm512_cvtepi32_ps(_mm512_sub_epi32(a, off)),
            _mm512_loadu_ps(scale.as_ptr().add(b * SCREEN_LANES)),
        );
        let x = _mm512_add_ps(_mm512_mul_ps(x, tv), sv);
        let x = _mm512_sub_ps(x, _mm512_loadu_ps(half.as_ptr().add(b * SCREEN_LANES)));
        let x = _mm512_mask_mov_ps(neg_inf, lane_mask(b), x);
        _mm512_storeu_ps(gaps.as_mut_ptr().add(b * SCREEN_LANES), x);
        top = _mm512_max_ps(x, top);
    }
    let top = _mm512_reduce_max_ps(top);
    let mut best = 0;
    if top > f32::NEG_INFINITY {
        let tv = _mm512_set1_ps(top);
        for b in 0..blocks {
            let g = _mm512_loadu_ps(gaps.as_ptr().add(b * SCREEN_LANES));
            let hit = _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(g, tv);
            if hit != 0 {
                best = b * SCREEN_LANES + hit.trailing_zeros() as usize;
                break;
            }
        }
    }
    let floor = floor(best);
    let fv = _mm512_set1_ps(floor);
    for (b, bits) in mask[..blocks].iter_mut().enumerate() {
        let g = _mm512_loadu_ps(gaps.as_ptr().add(b * SCREEN_LANES));
        *bits = _mm512_cmp_ps_mask::<_CMP_NLT_UQ>(g, fv) & lane_mask(b);
    }
    (best, floor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fill(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
    }

    #[test]
    fn tile_scalar_matches_avx2_when_available() {
        if !avx2_available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(7);
        for kc in [0usize, 1, 3, 17, 256] {
            let mut apack = fill(&mut rng, (kc * MR).max(1));
            // Exercise the a == 0.0 skip.
            for v in apack.iter_mut().step_by(5) {
                *v = 0.0;
            }
            let bpack = fill(&mut rng, (kc * NR).max(1));
            let init = fill(&mut rng, MR * NR);
            let mut scalar = init.clone();
            let mut simd = init.clone();
            gemm_tile_scalar(&apack, &bpack, &mut scalar, kc);
            unsafe { gemm_tile_avx2(&apack, &bpack, &mut simd, kc) };
            assert_eq!(scalar, simd, "kc={kc}");
        }
    }

    #[test]
    fn nt_strip_scalar_matches_avx2_when_available() {
        if !avx2_available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(8);
        for k in [0usize, 1, 4, 5, 31, 64] {
            for nr in 1..=NR {
                let a_row = fill(&mut rng, k);
                let strip = fill(&mut rng, (k * NR).max(1));
                let init = fill(&mut rng, nr);
                let mut scalar = init.clone();
                let mut simd = init.clone();
                nt_strip_scalar(&a_row, &strip, &mut scalar);
                unsafe { nt_strip_avx2(&a_row, &strip, &mut simd) };
                assert_eq!(scalar, simd, "k={k} nr={nr}");
            }
        }
    }

    #[test]
    fn pack_strip_scalar_matches_avx2_when_available() {
        if !avx2_available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(9);
        // kc = 8/64 hit the pure 8×8 path; 13/29 exercise the remainder.
        for kc in [1usize, 7, 8, 13, 29, 64] {
            let backing: Vec<Vec<f32>> = (0..NR).map(|_| fill(&mut rng, kc)).collect();
            let rows: [&[f32]; NR] = std::array::from_fn(|jj| backing[jj].as_slice());
            let mut scalar = vec![-1.0f32; kc * NR];
            let mut simd = vec![-2.0f32; kc * NR];
            pack_strip_scalar(&rows, kc, &mut scalar);
            unsafe { pack_strip_avx2(&rows, kc, &mut simd) };
            assert_eq!(scalar, simd, "kc={kc}");
        }
    }

    #[test]
    fn env_gate_consistency() {
        // active() can only be true when both the gate and the CPU allow it.
        assert!(!active() || (enabled() && avx2_available()));
    }
}
