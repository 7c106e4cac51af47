//! Raw `&[f32]` compute kernels.
//!
//! Everything here is plain slice math with no knowledge of tensors or
//! autograd, so it can be unit-tested and benchmarked in isolation. Kernels
//! above a per-op work threshold split their output rows across the
//! persistent worker pool in [`crate::pool`]; chunks claim work from an
//! atomic counter, and each row's arithmetic is identical to the sequential
//! code, so results are bit-identical at any thread count.

use crate::alloc;
use crate::pool;
use crate::simd;
use mbssl_telemetry as telemetry;

/// Work (in multiply-adds) below which GEMM stays single-threaded.
const PAR_GEMM_THRESHOLD: usize = 64 * 64 * 64;

/// B footprint (k·n elements) above which [`gemm_nn`] takes the packed
/// path. Below it the whole of B stays L1-resident for the naive axpy
/// sweep and packing is pure overhead — measured on the model's skinny
/// shapes (k, n ≤ 64) the naive kernel wins, while at 128³ and beyond the
/// packed microkernel does. Both paths are bit-identical, so the cutoff is
/// purely a performance choice.
const PACK_MIN_BN: usize = 8192;

/// C footprint (m·n elements) above which [`gemm_tn`] takes the packed
/// path. The naive p-sweep re-reads all of C every k step, which is free
/// while C is L1-resident (the weight-gradient shapes) and ruinous once it
/// is not.
const PACK_MIN_CMN: usize = 4096;

/// Work (m·k·n multiply-adds) above which [`gemm_nt`] packs Bᵀ into
/// NR-lane strips; the packing cost (n·k moves) is amortized over m rows.
const PACK_NT_MIN_WORK: usize = 16 * 16 * 16;

/// Microkernel tile height: rows of C held in registers per inner call.
/// Public so [`crate::simd`] and the pack-once consumers share the layout.
pub const MR: usize = 4;
/// Microkernel tile width: columns of C per call (one 8-lane AVX2 vector,
/// or two 4-lane vectors on narrower ISAs).
pub const NR: usize = 8;
/// k-dimension block size: pack panels of at most this many k-steps so the
/// active A strip (MR·KC) and B strip (NR·KC) stay cache-resident while the
/// microkernel streams over them.
pub const KC: usize = 256;

/// Elements below which row-wise / elementwise kernels stay
/// single-threaded: broadcasting a pool job costs on the order of a few
/// microseconds, which small tensors cannot amortize.
const PAR_ELEMWISE_THRESHOLD: usize = 1 << 15;

/// Returns the number of worker threads to use for `work` units.
fn thread_count(work: usize, threshold: usize) -> usize {
    if work < threshold {
        return 1;
    }
    pool::threads()
}

/// Rows per parallel chunk when `m` rows are split across the pool.
/// Over-decomposes by 4× relative to the thread count so the atomic chunk
/// claiming can balance uneven row costs.
fn rows_per_chunk(m: usize, threads: usize) -> usize {
    m.div_ceil((threads * 4).min(m).max(1))
}

/// Number of output rows a (rows×n) buffer holds; 0 when either side is
/// empty. All row helpers share this guard so empty dimensions behave
/// identically across kernels.
#[inline]
fn rows_of(c_len: usize, n: usize) -> usize {
    c_len.checked_div(n).unwrap_or(0)
}

/// C += A(m×k) · B(k×n), all row-major. `C` must be zeroed by the caller if
/// plain assignment is wanted.
///
/// Large products run the packed cache-blocked path ([`gemm_nn_packed`]),
/// small ones the naive row kernel ([`gemm_nn_naive`]); both produce
/// bit-identical results, so the dispatch is invisible to callers.
pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let mut sp = telemetry::span("kernel.gemm_nn");
    sp.add_bytes(4 * (m * k + k * n + m * n) as u64);
    let threads = thread_count(m * k * n, PAR_GEMM_THRESHOLD);
    if m < 2 * MR || k * n < PACK_MIN_BN {
        if threads <= 1 || m < 2 {
            gemm_nn_rows_fast(a, b, c, k, n);
        } else {
            let rows_per = rows_per_chunk(m, threads);
            pool::parallel_chunks_mut(c, rows_per * n, |ci, c_chunk| {
                let row = ci * rows_per;
                let take = c_chunk.len() / n;
                gemm_nn_rows_fast(&a[row * k..(row + take) * k], b, c_chunk, k, n);
            });
        }
        return;
    }
    let bpack = pack_b_panels(b, k, n);
    if threads <= 1 {
        gemm_nn_packed_panel(a, &bpack, c, k, n);
    } else {
        let rows_per = rows_per_chunk(m, threads);
        pool::parallel_chunks_mut(c, rows_per * n, |ci, c_chunk| {
            let row = ci * rows_per;
            let take = c_chunk.len() / n;
            let a_chunk = &a[row * k..(row + take) * k];
            gemm_nn_packed_panel(a_chunk, &bpack, c_chunk, k, n);
        });
    }
    alloc::recycle(bpack);
}

/// Sequential naive reference for [`gemm_nn`]. Retained as the ground
/// truth the packed path is pinned against (bit-for-bit) in tests.
pub fn gemm_nn_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_nn_rows(a, b, c, k, n);
}

/// Sequential packed path for [`gemm_nn`]; public so tests can exercise it
/// directly on shapes the size dispatch would otherwise route to the naive
/// kernel.
pub fn gemm_nn_packed(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let bpack = pack_b_panels(b, k, n);
    gemm_nn_packed_panel(a, &bpack, c, k, n);
    alloc::recycle(bpack);
}

/// Unrolled row-panel worker the [`gemm_nn`] dispatcher uses below the
/// packing threshold: four k-steps per pass over the C row, quartering the
/// C load/store traffic. Each output element still receives its
/// contributions one `+=` at a time in ascending-p order (never a combined
/// sum) and the `a == 0.0` skip applies per step, so results are
/// bit-identical to [`gemm_nn_rows`]; blocks with a zero step fall back to
/// single-step updates in the same order.
fn gemm_nn_rows_fast(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    let rows = rows_of(c.len(), n);
    let k4 = k - k % 4;
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        // Rows containing exact zeros (post-dropout activations) take the
        // reference loop — its per-step skip already saves the work, and
        // the blocked loop's fallback would only add branches.
        if a_row.iter().any(|&v| v == 0.0) {
            for (p, &a_ip) in a_row.iter().enumerate() {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                    *c_v += a_ip * b_v;
                }
            }
            continue;
        }
        let mut p = 0;
        while p < k4 {
            let (a0, a1, a2, a3) = (a_row[p], a_row[p + 1], a_row[p + 2], a_row[p + 3]);
            let b0 = &b[p * n..][..n];
            let b1 = &b[(p + 1) * n..][..n];
            let b2 = &b[(p + 2) * n..][..n];
            let b3 = &b[(p + 3) * n..][..n];
            for (j, c_v) in c_row.iter_mut().enumerate() {
                let mut t = *c_v;
                t += a0 * b0[j];
                t += a1 * b1[j];
                t += a2 * b2[j];
                t += a3 * b3[j];
                *c_v = t;
            }
            p += 4;
        }
        for p in k4..k {
            let a_ip = a_row[p];
            let b_row = &b[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                *c_v += a_ip * b_v;
            }
        }
    }
}

/// Row-panel worker for [`gemm_nn`]: C(rows×n) += A(rows×k)·B(k×n).
fn gemm_nn_rows(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    let rows = rows_of(c.len(), n);
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        // i-k-j loop order: the inner loop is a contiguous axpy over B's
        // row, which auto-vectorizes well.
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                *c_v += a_ip * b_v;
            }
        }
    }
}

/// Packs B (k×n row-major) into the panel layout the microkernel streams:
/// KC-row blocks, each holding ⌈n/NR⌉ strips of NR columns stored p-major
/// (`strip[p*NR + j]`). Packing only relocates values — it never combines
/// them — so it cannot change results. Ragged edge strips are zero-padded;
/// the microkernel never reads the pad lanes. The buffer comes from
/// [`alloc`]; callers hand it back with `alloc::recycle`.
fn pack_b_panels(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let n_round = n.div_ceil(NR) * NR;
    let mut out = alloc::zeroed(k * n_round);
    for pc0 in (0..k).step_by(KC) {
        let kc = KC.min(k - pc0);
        let block = pc0 * n_round;
        for (s, j0) in (0..n).step_by(NR).enumerate() {
            let nr = NR.min(n - j0);
            let strip = block + s * kc * NR;
            for p in 0..kc {
                let src = &b[(pc0 + p) * n + j0..][..nr];
                out[strip + p * NR..][..nr].copy_from_slice(src);
            }
        }
    }
    out
}

/// A matrix packed once into the `pack_b_panels` layout, for GEMMs whose
/// right-hand side is reused across many calls (inference weights, the
/// IVF centroids). Packing is pure data movement, so
/// [`gemm_nn_prepacked_scratch`] over a `PackedB` is bit-identical to [`gemm_nn`]
/// over the original row-major matrix.
pub struct PackedB {
    data: Vec<f32>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Packs row-major `b` (`k × n`) into microkernel panels. Done once;
    /// the packed buffer is owned until drop (not recycled).
    pub fn pack(b: &[f32], k: usize, n: usize) -> PackedB {
        assert_eq!(b.len(), k * n, "PackedB::pack shape mismatch");
        PackedB {
            data: pack_b_panels(b, k, n),
            k,
            n,
        }
    }

    /// Inner (k) dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column (n) dimension of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Packs selected rows of a row-major `table` (`rows × k`) directly
    /// into microkernel panels in caller-owned storage, treating row
    /// `select[j]` as column `j` of B. Equivalent to gathering the rows,
    /// transposing to `k × n`, and calling [`PackedB::pack`] — the same
    /// values land in the same panel slots, so GEMMs over the result are
    /// bit-identical — but fused into a single pass over the table (no
    /// gather or transpose temporaries). `buf` must hold exactly
    /// [`PackedB::packed_len`]`(k, select.len())` elements; stale contents
    /// are fine, since every slot, pad lanes included, is written. The
    /// returned view borrows `buf`: the inference engine packs a fresh
    /// selection per request out of its bump arena.
    pub fn pack_select_into<'a>(
        table: &[f32],
        k: usize,
        select: &[u32],
        buf: &'a mut [f32],
    ) -> PackedBView<'a> {
        let n = select.len();
        assert_eq!(buf.len(), Self::packed_len(k, n), "pack_select_into buf");
        pack_select_fill(table, k, select, buf);
        PackedBView { data: buf, k, n }
    }

    /// Packed-buffer length (in f32s) for a `k × n` matrix: `n` rounds up
    /// to a whole number of NR-wide strips.
    pub fn packed_len(k: usize, n: usize) -> usize {
        k * n.div_ceil(NR) * NR
    }

    /// Minimum scratch length callers of
    /// [`gemm_nn_prepacked_scratch`] must provide.
    pub const SCRATCH_LEN: usize = MR * KC;
}

/// A packed B matrix borrowed from caller-owned storage (same panel layout
/// as [`PackedB`]); produced by [`PackedB::pack_select_into`] or borrowed
/// from a [`PackedB`]. GEMM entry points accept either form.
#[derive(Clone, Copy)]
pub struct PackedBView<'a> {
    data: &'a [f32],
    k: usize,
    n: usize,
}

impl<'a> PackedBView<'a> {
    /// Inner (k) dimension of the packed matrix.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column (n) dimension of the packed matrix.
    pub fn n(&self) -> usize {
        self.n
    }
}

impl<'a> From<&'a PackedB> for PackedBView<'a> {
    fn from(b: &'a PackedB) -> PackedBView<'a> {
        PackedBView { data: &b.data, k: b.k, n: b.n }
    }
}

/// The fill of [`PackedB::pack_select_into`]: writes every slot of `data`
/// (ragged-edge pad lanes are zeroed explicitly, full strips are fully
/// overwritten), so stale buffers pack identically to fresh ones.
fn pack_select_fill(table: &[f32], k: usize, select: &[u32], data: &mut [f32]) {
    assert!(k > 0 && table.len() % k == 0, "table must be rows × k");
    let n = select.len();
    let n_round = n.div_ceil(NR) * NR;
    debug_assert_eq!(data.len(), k * n_round);
    for pc0 in (0..k).step_by(KC) {
        let kc = KC.min(k - pc0);
        let block = pc0 * n_round;
        for (s, j0) in (0..n).step_by(NR).enumerate() {
            let nr = NR.min(n - j0);
            let strip = &mut data[block + s * kc * NR..][..kc * NR];
            if nr == NR {
                // Full strip: SIMD 8×8 transposes off the table rows.
                let rows: [&[f32]; NR] = std::array::from_fn(|jj| {
                    &table[select[j0 + jj] as usize * k + pc0..][..kc]
                });
                simd::pack_strip(&rows, kc, strip);
                continue;
            }
            // Ragged edge strip: zero first so the pad lanes read 0.
            strip.fill(0.0);
            for jj in 0..nr {
                let src = &table[select[j0 + jj] as usize * k + pc0..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    strip[p * NR + jj] = v;
                }
            }
        }
    }
}

/// C += A(m×k) · B with B pre-packed by [`PackedB::pack`], using a
/// caller-provided A-repack scratch buffer of at least
/// [`PackedB::SCRATCH_LEN`] elements (no allocator traffic at all).
/// Bit-identical to [`gemm_nn`] on the unpacked matrix (the packed and
/// naive paths share the per-element accumulation order). Always
/// sequential — the inference engine calls this per request with
/// arena-owned scratch. Accepts `&PackedB` or a [`PackedBView`].
pub fn gemm_nn_prepacked_scratch<'p>(
    a: &[f32],
    b: impl Into<PackedBView<'p>>,
    c: &mut [f32],
    m: usize,
    apack: &mut [f32],
) {
    let b = b.into();
    debug_assert_eq!(a.len(), m * b.k);
    debug_assert_eq!(c.len(), m * b.n);
    assert!(apack.len() >= PackedB::SCRATCH_LEN, "scratch too small");
    let mut sp = telemetry::span("kernel.gemm_nn");
    sp.add_bytes(4 * (m * b.k + b.k * b.n + m * b.n) as u64);
    gemm_nn_packed_panel_with(a, b.data, c, b.k, b.n, apack);
}

/// Scratch length (in f32s) [`gemm_nn_prepacked_strips`] needs for `m`
/// rows of A with inner dimension `k`: the repacked A tiles plus one
/// `m × NR` output block, both rounded up to whole MR-row tiles.
pub fn strips_scratch_len(m: usize, k: usize) -> usize {
    m.div_ceil(MR) * MR * (k + NR)
}

/// A(m×k) · B streamed one NR-wide column strip of the packed B at a
/// time, for consumers that reduce each strip as soon as it exists (the
/// inference engine's gathered catalog pass) instead of materialising the
/// `m × n` product.
///
/// A is repacked once into MR-row tiles. Then, for each strip `s` in
/// `strips`, every tile's MR×NR block is accumulated from zero over the
/// KC blocks in ascending order through [`simd::gemm_tile`], and
/// `visit(s, block)` receives the `m × NR` result (row-major; lanes past
/// `n` are pad). Each real element is bit-identical to the same element
/// of [`gemm_nn_prepacked_scratch`] into a zeroed C: the same tile
/// kernel adds the same terms in the same order, and the zero-padded A
/// rows and B lanes never touch a real element. Always sequential;
/// `scratch` needs [`strips_scratch_len`]`(m, k)` elements (stale
/// contents are fine).
pub fn gemm_nn_prepacked_strips<'p>(
    a: &[f32],
    b: impl Into<PackedBView<'p>>,
    m: usize,
    strips: std::ops::Range<usize>,
    scratch: &mut [f32],
    mut visit: impl FnMut(usize, &[f32]),
) {
    let b = b.into();
    let k = b.k;
    debug_assert_eq!(a.len(), m * k);
    let n_round = b.n.div_ceil(NR) * NR;
    assert!(strips.end * NR <= n_round, "strip range past the packed B");
    let tiles = m.div_ceil(MR);
    let (apack, block) = scratch[..strips_scratch_len(m, k)].split_at_mut(tiles * MR * k);
    // apack[t*MR*k + pc0*MR + p*MR + r] = A[t*MR + r][pc0 + p]: tile t's
    // KC blocks back to back, each in the layout `microkernel` reads.
    apack.fill(0.0);
    for (i, row) in a.chunks_exact(k).enumerate() {
        let tile = &mut apack[(i / MR) * MR * k..][..MR * k];
        for (p, &v) in row.iter().enumerate() {
            tile[p * MR + i % MR] = v;
        }
    }
    let mut sp = telemetry::span("kernel.gemm_nn");
    sp.add_bytes(4 * (m * k + strips.len() * NR * k + m * strips.len() * NR) as u64);
    for s in strips {
        for (t, acc) in block.chunks_exact_mut(MR * NR).enumerate() {
            acc.fill(0.0);
            for pc0 in (0..k).step_by(KC) {
                let kc = KC.min(k - pc0);
                let strip = &b.data[pc0 * n_round + s * kc * NR..][..kc * NR];
                simd::gemm_tile(&apack[t * MR * k + pc0 * MR..], strip, acc, kc);
            }
        }
        visit(s, &block[..m * NR]);
    }
}

/// Packed driver for one row panel of [`gemm_nn`]:
/// C(rows×n) += A(rows×k) · B, with B already packed by [`pack_b_panels`].
/// A is repacked per (KC-block × MR-strip) into a small p-major buffer so
/// the microkernel reads both operands contiguously.
fn gemm_nn_packed_panel(a: &[f32], bpack: &[f32], c: &mut [f32], k: usize, n: usize) {
    let mut apack = alloc::zeroed(MR * KC);
    gemm_nn_packed_panel_with(a, bpack, c, k, n, &mut apack);
    alloc::recycle(apack);
}

/// [`gemm_nn_packed_panel`] with caller-provided A-repack scratch
/// (`len >= MR*KC`; stale contents are fine — every position read is
/// written first within its tile).
fn gemm_nn_packed_panel_with(
    a: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    k: usize,
    n: usize,
    apack: &mut [f32],
) {
    let rows = rows_of(c.len(), n);
    let n_round = n.div_ceil(NR) * NR;
    for pc0 in (0..k).step_by(KC) {
        let kc = KC.min(k - pc0);
        let block = pc0 * n_round;
        for i0 in (0..rows).step_by(MR) {
            let mr = MR.min(rows - i0);
            if mr < MR {
                apack.iter_mut().for_each(|v| *v = 0.0);
            }
            // apack[p*MR + r] = A[i0+r][pc0+p]
            for r in 0..mr {
                let a_row = &a[(i0 + r) * k + pc0..][..kc];
                for (p, &v) in a_row.iter().enumerate() {
                    apack[p * MR + r] = v;
                }
            }
            for (s, j0) in (0..n).step_by(NR).enumerate() {
                let nr = NR.min(n - j0);
                let strip = &bpack[block + s * kc * NR..][..kc * NR];
                microkernel(apack, strip, &mut c[i0 * n + j0..], n, mr, nr, kc);
            }
        }
    }
}

/// The register-tiled inner kernel shared by the packed `nn` and `tn`
/// paths: C tile (mr×nr, rows `c_stride` apart, `c` starting at the tile's
/// top-left element) += Apack·Bpack over `kc` packed steps, with the C tile
/// held in registers for the whole k-sweep.
///
/// Bit-identity with the naive kernels: every output element accumulates
/// its k-terms in ascending-p order, the `a == 0.0` skip is applied per
/// (row, p) exactly like the naive axpy loops, and loading the tile into
/// registers / storing it back does not alter f32 bits. KC-blocking splits
/// the sweep, but blocks are visited in ascending-p order, so the
/// per-element addition sequence is unchanged.
#[inline]
fn microkernel(
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    c_stride: usize,
    mr: usize,
    nr: usize,
    kc: usize,
) {
    if mr == MR && nr == NR {
        // Full tile: fixed bounds so the accumulators stay in registers.
        // The k-sweep itself lives in `simd::gemm_tile`, which picks the
        // AVX2 or scalar variant (bit-identical either way).
        let mut acc = [0.0f32; MR * NR];
        for r in 0..MR {
            acc[r * NR..][..NR].copy_from_slice(&c[r * c_stride..][..NR]);
        }
        simd::gemm_tile(apack, bpack, &mut acc, kc);
        for r in 0..MR {
            c[r * c_stride..][..NR].copy_from_slice(&acc[r * NR..][..NR]);
        }
        return;
    }
    // Ragged edge tile: same accumulation order over partial bounds.
    let mut acc = [[0.0f32; NR]; MR];
    for (r, row) in acc.iter_mut().enumerate().take(mr) {
        row[..nr].copy_from_slice(&c[r * c_stride..][..nr]);
    }
    for p in 0..kc {
        let b = &bpack[p * NR..][..NR];
        for (r, row) in acc.iter_mut().enumerate().take(mr) {
            let a = apack[p * MR + r];
            if a == 0.0 {
                continue;
            }
            for (acc_v, &b_v) in row.iter_mut().zip(b.iter()).take(nr) {
                *acc_v += a * b_v;
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(mr) {
        c[r * c_stride..][..nr].copy_from_slice(&row[..nr]);
    }
}

/// C += A(m×k) · Bᵀ where B is stored row-major as (n×k).
///
/// The naive kernel computes each output element as one [`dot`] call, which
/// leaves SIMD lanes idle (a dot is a serial reduction). The packed path
/// transposes B into NR-lane p-major strips and runs `nt_row_strip`,
/// which advances NR dot products in lock-step — each lane reproduces
/// `dot`'s exact chain structure (four partial sums over p mod 4, a
/// remainder chain, then `s0+s1+s2+s3+rest`), so every output element is
/// bit-identical to the naive kernel at any thread count.
pub fn gemm_nt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let mut sp = telemetry::span("kernel.gemm_nt");
    sp.add_bytes(4 * (m * k + n * k + m * n) as u64);
    let threads = thread_count(m * k * n, PAR_GEMM_THRESHOLD);
    if m < MR || m * k * n < PACK_NT_MIN_WORK {
        if threads <= 1 || m < 2 {
            gemm_nt_rows(a, b, c, k, n);
        } else {
            let rows_per = rows_per_chunk(m, threads);
            pool::parallel_chunks_mut(c, rows_per * n, |ci, c_chunk| {
                let row = ci * rows_per;
                let take = c_chunk.len() / n;
                gemm_nt_rows(&a[row * k..(row + take) * k], b, c_chunk, k, n);
            });
        }
        return;
    }
    let bpack = pack_bt_panels(b, k, n);
    if threads <= 1 {
        gemm_nt_packed_panel(a, &bpack, c, k, n);
    } else {
        let rows_per = rows_per_chunk(m, threads);
        pool::parallel_chunks_mut(c, rows_per * n, |ci, c_chunk| {
            let row = ci * rows_per;
            let take = c_chunk.len() / n;
            let a_chunk = &a[row * k..(row + take) * k];
            gemm_nt_packed_panel(a_chunk, &bpack, c_chunk, k, n);
        });
    }
    alloc::recycle(bpack);
}

/// Sequential naive reference for [`gemm_nt`].
pub fn gemm_nt_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    gemm_nt_rows(a, b, c, k, n);
}

/// Sequential packed path for [`gemm_nt`]; public for the bitwise tests.
pub fn gemm_nt_packed(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    let bpack = pack_bt_panels(b, k, n);
    gemm_nt_packed_panel(a, &bpack, c, k, n);
    alloc::recycle(bpack);
}

/// Packs Bᵀ (B stored n×k row-major) into ⌈n/NR⌉ strips of NR output
/// columns, stored p-major (`strip[p*NR + jj] = B[j0+jj][p]`). Pure data
/// movement; ragged edge lanes are zero-padded and never read back.
fn pack_bt_panels(b: &[f32], k: usize, n: usize) -> Vec<f32> {
    let n_strips = n.div_ceil(NR);
    let mut out = alloc::zeroed(n_strips * k * NR);
    for s in 0..n_strips {
        let j0 = s * NR;
        let nr = NR.min(n - j0);
        let strip = s * k * NR;
        for jj in 0..nr {
            let src = &b[(j0 + jj) * k..][..k];
            for (p, &v) in src.iter().enumerate() {
                out[strip + p * NR + jj] = v;
            }
        }
    }
    out
}

/// Row-panel worker for the packed [`gemm_nt`] path.
fn gemm_nt_packed_panel(a: &[f32], bpack: &[f32], c: &mut [f32], k: usize, n: usize) {
    let rows = rows_of(c.len(), n);
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (s, j0) in (0..n).step_by(NR).enumerate() {
            let nr = NR.min(n - j0);
            let strip = &bpack[s * k * NR..][..k * NR];
            nt_row_strip(a_row, strip, &mut c_row[j0..j0 + nr]);
        }
    }
}

/// NR dot products advanced in lock-step: `c_out[jj] += dot(a_row, B[j0+jj])`
/// for one strip of packed Bᵀ lanes. Per lane this is exactly [`dot`]'s
/// arithmetic — the same four p-mod-4 partial-sum chains filled in the same
/// order, the same remainder chain, combined as `s0 + s1 + s2 + s3 + rest` —
/// so the result is bit-identical to calling `dot` per element while the
/// lane dimension vectorizes. The loop body lives in [`crate::simd`],
/// which dispatches between the AVX2 and scalar variants.
fn nt_row_strip(a_row: &[f32], strip: &[f32], c_out: &mut [f32]) {
    simd::nt_strip(a_row, strip, c_out);
}

fn gemm_nt_rows(a: &[f32], b: &[f32], c: &mut [f32], k: usize, n: usize) {
    let rows = rows_of(c.len(), n);
    for i in 0..rows {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, c_v) in c_row.iter_mut().enumerate() {
            let b_row = &b[j * k..(j + 1) * k];
            *c_v += dot(a_row, b_row);
        }
    }
}

/// C += Aᵀ · B where A is stored row-major as (k×m) and B as (k×n);
/// C is (m×n). Used by matmul backward for the lhs-transposed product,
/// where k is the (large) batch·sequence dimension — the packed path packs
/// both A and B so the microkernel streams contiguously and keeps each C
/// tile in registers across the whole k-sweep.
pub fn gemm_tn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let mut sp = telemetry::span("kernel.gemm_tn");
    sp.add_bytes(4 * (k * m + k * n + m * n) as u64);
    let threads = thread_count(m * k * n, PAR_GEMM_THRESHOLD);
    if m < 2 || m * n < PACK_MIN_CMN {
        if threads <= 1 || m < 2 {
            gemm_tn_rows_fast(a, b, c, 0, m, k, n);
        } else {
            let rows_per = rows_per_chunk(m, threads);
            pool::parallel_chunks_mut(c, rows_per * n, |ci, c_chunk| {
                let row = ci * rows_per;
                let take = c_chunk.len() / n;
                gemm_tn_rows_fast(a, b, c_chunk, row, take, k, n);
            });
        }
        return;
    }
    let bpack = pack_b_panels(b, k, n);
    if threads <= 1 {
        gemm_tn_packed_panel(a, &bpack, c, 0, m, k, n);
    } else {
        let rows_per = rows_per_chunk(m, threads);
        pool::parallel_chunks_mut(c, rows_per * n, |ci, c_chunk| {
            let row = ci * rows_per;
            let take = c_chunk.len() / n;
            gemm_tn_packed_panel(a, &bpack, c_chunk, row, take, k, n);
        });
    }
    alloc::recycle(bpack);
}

/// Sequential naive reference for [`gemm_tn`].
pub fn gemm_tn_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    gemm_tn_rows(a, b, c, 0, m, k, n);
}

/// Sequential packed path for [`gemm_tn`]; public for the bitwise tests.
pub fn gemm_tn_packed(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    let bpack = pack_b_panels(b, k, n);
    gemm_tn_packed_panel(a, &bpack, c, 0, m, k, n);
    alloc::recycle(bpack);
}

/// Packed driver for rows `row0..row0+rows` of the [`gemm_tn`] output. A is
/// stored (k×m), so for a fixed p the strip's A values are contiguous; the
/// pack transposes them into the p-major layout the microkernel expects.
fn gemm_tn_packed_panel(
    a: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    let m = rows_of(a.len(), k);
    let n_round = n.div_ceil(NR) * NR;
    let mut apack = alloc::zeroed(MR * KC);
    for pc0 in (0..k).step_by(KC) {
        let kc = KC.min(k - pc0);
        let block = pc0 * n_round;
        for i0 in (0..rows).step_by(MR) {
            let mr = MR.min(rows - i0);
            if mr < MR {
                apack.iter_mut().for_each(|v| *v = 0.0);
            }
            // apack[p*MR + r] = A[pc0+p][row0+i0+r]
            for p in 0..kc {
                let src = &a[(pc0 + p) * m + row0 + i0..][..mr];
                apack[p * MR..][..mr].copy_from_slice(src);
            }
            for (s, j0) in (0..n).step_by(NR).enumerate() {
                let nr = NR.min(n - j0);
                let strip = &bpack[block + s * kc * NR..][..kc * NR];
                microkernel(&apack, strip, &mut c[i0 * n + j0..], n, mr, nr, kc);
            }
        }
    }
    alloc::recycle(apack);
}

/// Unrolled counterpart of [`gemm_tn_rows`] the dispatcher uses below the
/// packing threshold. `tn` sweeps all of C once per k-step, so blocking
/// four steps together quarters the dominant C read/write traffic. Same
/// bit-exactness argument as [`gemm_nn_rows_fast`]: per output element the
/// four contributions are separate `+=` in ascending-p order, zero steps
/// fall back to the single-step path in the same order.
fn gemm_tn_rows_fast(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
) {
    let m = rows_of(a.len(), k);
    let k4 = k - k % 4;
    let mut p = 0;
    while p < k4 {
        let b0 = &b[p * n..][..n];
        let b1 = &b[(p + 1) * n..][..n];
        let b2 = &b[(p + 2) * n..][..n];
        let b3 = &b[(p + 3) * n..][..n];
        for i in 0..rows {
            let col = row0 + i;
            let (a0, a1, a2, a3) = (
                a[p * m + col],
                a[(p + 1) * m + col],
                a[(p + 2) * m + col],
                a[(p + 3) * m + col],
            );
            let c_row = &mut c[i * n..(i + 1) * n];
            if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                for (j, c_v) in c_row.iter_mut().enumerate() {
                    let mut t = *c_v;
                    t += a0 * b0[j];
                    t += a1 * b1[j];
                    t += a2 * b2[j];
                    t += a3 * b3[j];
                    *c_v = t;
                }
            } else {
                if a0 != 0.0 {
                    for (c_v, &b_v) in c_row.iter_mut().zip(b0.iter()) {
                        *c_v += a0 * b_v;
                    }
                }
                if a1 != 0.0 {
                    for (c_v, &b_v) in c_row.iter_mut().zip(b1.iter()) {
                        *c_v += a1 * b_v;
                    }
                }
                if a2 != 0.0 {
                    for (c_v, &b_v) in c_row.iter_mut().zip(b2.iter()) {
                        *c_v += a2 * b_v;
                    }
                }
                if a3 != 0.0 {
                    for (c_v, &b_v) in c_row.iter_mut().zip(b3.iter()) {
                        *c_v += a3 * b_v;
                    }
                }
            }
        }
        p += 4;
    }
    for p in k4..k {
        let b_row = &b[p * n..(p + 1) * n];
        for i in 0..rows {
            let a_pi = a[p * m + row0 + i];
            if a_pi == 0.0 {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                *c_v += a_pi * b_v;
            }
        }
    }
}

fn gemm_tn_rows(a: &[f32], b: &[f32], c: &mut [f32], row0: usize, rows: usize, k: usize, n: usize) {
    let m = rows_of(a.len(), k);
    for p in 0..k {
        let b_row = &b[p * n..(p + 1) * n];
        for i in 0..rows {
            let a_pi = a[p * m + row0 + i];
            if a_pi == 0.0 {
                continue;
            }
            let c_row = &mut c[i * n..(i + 1) * n];
            for (c_v, &b_v) in c_row.iter_mut().zip(b_row.iter()) {
                *c_v += a_pi * b_v;
            }
        }
    }
}

/// Dot product of equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // 4-way unrolled accumulation: keeps several FMA chains in flight.
    let chunks = a.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for i in 0..chunks {
        let o = i * 4;
        s0 += a[o] * b[o];
        s1 += a[o + 1] * b[o + 1];
        s2 += a[o + 2] * b[o + 2];
        s3 += a[o + 3] * b[o + 3];
    }
    let mut rest = 0.0f32;
    for i in chunks * 4..a.len() {
        rest += a[i] * b[i];
    }
    s0 + s1 + s2 + s3 + rest
}

/// y += alpha * x.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (y_v, &x_v) in y.iter_mut().zip(x.iter()) {
        *y_v += alpha * x_v;
    }
}

/// Splits a row-major (rows×cols) buffer into row panels across the pool
/// and applies the sequential `body` to each panel. Row math is untouched,
/// so results are identical to a plain `body(data)` call.
fn for_each_row_panel(data: &mut [f32], cols: usize, body: impl Fn(&mut [f32]) + Sync) {
    let threads = thread_count(data.len(), PAR_ELEMWISE_THRESHOLD);
    let rows = data.len() / cols.max(1);
    if threads <= 1 || rows < 2 {
        body(data);
        return;
    }
    let rows_per = rows_per_chunk(rows, threads);
    pool::parallel_chunks_mut(data, rows_per * cols, |_ci, panel| body(panel));
}

/// In-place numerically stable softmax over each row of an (rows×cols)
/// matrix, on the calling thread. The single row loop behind
/// [`softmax_rows`], [`sdpa_slice`] and the inference engine, whose serve
/// workers must not fork-join into the pool.
#[inline]
pub fn softmax_rows_serial(data: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    for row in data.chunks_mut(cols) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// In-place numerically stable softmax over each row of an (rows×cols)
/// matrix; large inputs split their row panels across the pool.
pub fn softmax_rows(data: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    for_each_row_panel(data, cols, |panel| softmax_rows_serial(panel, cols));
}

/// `sqrt(2/pi)`, the tanh-GELU constant.
const GELU_C: f32 = 0.797_884_6;

/// GELU, tanh approximation (as used by BERT). The single definition
/// behind `Tensor::gelu`, the fused `bias_gelu` and the inference engine.
#[inline]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (GELU_C * (x + 0.044715 * x * x * x)).tanh())
}

/// Gradient of [`gelu`] at `x` scaled by `g`, given the forward output
/// `y = gelu(x)`. Recovers `t = tanh(inner)` from `y = 0.5·x·(1+t)`
/// instead of re-evaluating tanh (the libm call dominates); near `x = 0`
/// the division loses precision, so it falls back to the direct form.
#[inline]
pub fn gelu_grad(x: f32, y: f32, g: f32) -> f32 {
    let t = if x.abs() > 1e-3 {
        2.0 * y / x - 1.0
    } else {
        (GELU_C * (x + 0.044715 * x * x * x)).tanh()
    };
    let dt = 1.0 - t * t;
    let dinner = GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
    g * (0.5 * (1.0 + t) + 0.5 * x * dt * dinner)
}

/// In-place log-softmax over each row.
pub fn log_softmax_rows(data: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    for_each_row_panel(data, cols, |panel| {
        for row in panel.chunks_mut(cols) {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter() {
                sum += (*v - max).exp();
            }
            let log_z = max + sum.ln();
            for v in row.iter_mut() {
                *v -= log_z;
            }
        }
    });
}

/// Whether [`map_inplace`] would split a buffer of `n` elements across the
/// pool (callers use this to choose between a fused single-pass serial loop
/// and copy-then-parallel-map).
pub fn map_splits(n: usize) -> bool {
    thread_count(n, PAR_ELEMWISE_THRESHOLD) > 1
}

/// Applies `f` to every element in place, splitting large buffers across
/// the pool. The per-element computation is position-independent, so the
/// result is identical to a sequential map.
pub fn map_inplace(data: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    let threads = thread_count(data.len(), PAR_ELEMWISE_THRESHOLD);
    if threads <= 1 {
        for v in data.iter_mut() {
            *v = f(*v);
        }
        return;
    }
    let chunk = data.len().div_ceil((threads * 4).max(1));
    pool::parallel_chunks_mut(data, chunk.max(1), |_ci, part| {
        for v in part.iter_mut() {
            *v = f(*v);
        }
    });
}

/// `out[i] = f(a[i], b[i])` for equal-length slices, splitting large
/// buffers across the pool.
pub fn zip_map_into(a: &[f32], b: &[f32], out: &mut [f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    let threads = thread_count(out.len(), PAR_ELEMWISE_THRESHOLD);
    if threads <= 1 {
        for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b.iter())) {
            *o = f(x, y);
        }
        return;
    }
    let chunk = out.len().div_ceil((threads * 4).max(1));
    pool::parallel_chunks_mut(out, chunk.max(1), |ci, part| {
        let start = ci * chunk;
        for (j, o) in part.iter_mut().enumerate() {
            *o = f(a[start + j], b[start + j]);
        }
    });
}

/// Raw mutable base pointer that may cross thread boundaries. Each chunk
/// index derives a disjoint window from it, so no two threads alias.
#[derive(Clone, Copy)]
struct SendMut(*mut f32);
unsafe impl Send for SendMut {}
unsafe impl Sync for SendMut {}

/// Layer-norm forward of one row: writes `gamma ⊙ xhat + beta` to `out`
/// and, when given, the normalized row to `xhat`; returns the row's inverse
/// std. The single definition behind [`layernorm_forward_rows`] and the
/// inference engine's serial row loop.
#[inline]
pub fn layernorm_row(
    row: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    out: &mut [f32],
    xhat: Option<&mut [f32]>,
) -> f32 {
    let d = row.len();
    let (gamma, beta, out) = (&gamma[..d], &beta[..d], &mut out[..d]);
    let mut xhat = xhat.map(|x| &mut x[..d]);
    let mean: f32 = row.iter().sum::<f32>() / d as f32;
    let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
    let istd = 1.0 / (var + eps).sqrt();
    for i in 0..d {
        let xh = (row[i] - mean) * istd;
        if let Some(xhat) = xhat.as_deref_mut() {
            xhat[i] = xh;
        }
        out[i] = gamma[i] * xh + beta[i];
    }
    istd
}

/// Fused layer-norm forward: for each of `rows` rows of width `d`,
/// normalizes `x` to zero mean / unit variance and applies `gamma`/`beta`.
/// Writes the output, the normalized activations (`xhat`, saved for
/// backward), and the per-row inverse std (`inv_std`). Rows are
/// independent, so large inputs split across the pool.
#[allow(clippy::too_many_arguments)]
pub fn layernorm_forward_rows(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    out: &mut [f32],
    xhat: &mut [f32],
    inv_std: &mut [f32],
    d: usize,
    eps: f32,
) {
    debug_assert_eq!(x.len(), out.len());
    debug_assert_eq!(x.len(), xhat.len());
    let rows = inv_std.len();
    debug_assert_eq!(x.len(), rows * d);
    let threads = thread_count(x.len(), PAR_ELEMWISE_THRESHOLD);
    let rows_per = rows_per_chunk(rows, threads);
    let chunks = rows.div_ceil(rows_per.max(1)).max(1);
    let (p_out, p_xhat, p_istd) = (
        SendMut(out.as_mut_ptr()),
        SendMut(xhat.as_mut_ptr()),
        SendMut(inv_std.as_mut_ptr()),
    );
    let body = move |ci: usize| {
        // Bind the wrappers themselves: disjoint capture would otherwise
        // capture the bare non-`Sync` pointers.
        let (p_out, p_xhat, p_istd) = (p_out, p_xhat, p_istd);
        let r0 = ci * rows_per;
        let r1 = (r0 + rows_per).min(rows);
        for r in r0..r1 {
            let o = r * d;
            // SAFETY: `r < rows`, so `o + d <= rows * d`, the length of
            // `out` and `xhat`, and `r` indexes `inv_std`. Chunk `ci` alone
            // owns rows `r0..r1`, so no two workers touch the same window.
            unsafe {
                let out_row = std::slice::from_raw_parts_mut(p_out.0.add(o), d);
                let xhat_row = std::slice::from_raw_parts_mut(p_xhat.0.add(o), d);
                *p_istd.0.add(r) =
                    layernorm_row(&x[o..o + d], gamma, beta, eps, out_row, Some(xhat_row));
            }
        }
    };
    if threads <= 1 || rows < 2 {
        for ci in 0..chunks {
            body(ci);
        }
    } else {
        pool::parallel_for(chunks, body);
    }
}

/// Layer-norm input gradient: per row,
/// `gx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))`
/// with `dxhat = gy * gamma`. Rows are independent and split across the
/// pool like the forward pass.
pub fn layernorm_backward_input_rows(
    gy: &[f32],
    gamma: &[f32],
    xhat: &[f32],
    inv_std: &[f32],
    gx: &mut [f32],
    d: usize,
) {
    let rows = inv_std.len();
    debug_assert_eq!(gy.len(), rows * d);
    debug_assert_eq!(gx.len(), rows * d);
    let threads = thread_count(gx.len(), PAR_ELEMWISE_THRESHOLD);
    if threads <= 1 || rows < 2 {
        layernorm_backward_input_panel(gy, gamma, xhat, inv_std, gx, 0, rows, d);
        return;
    }
    let rows_per = rows_per_chunk(rows, threads);
    pool::parallel_chunks_mut(gx, rows_per * d, |ci, gx_panel| {
        let r0 = ci * rows_per;
        let take = gx_panel.len() / d;
        layernorm_backward_input_panel(gy, gamma, xhat, inv_std, gx_panel, r0, take, d);
    });
}

fn layernorm_backward_input_panel(
    gy: &[f32],
    gamma: &[f32],
    xhat: &[f32],
    inv_std: &[f32],
    gx_panel: &mut [f32],
    r0: usize,
    rows: usize,
    d: usize,
) {
    for ri in 0..rows {
        let r = r0 + ri;
        let o = r * d;
        let mut mean_dxhat = 0.0f32;
        let mut mean_dxhat_xhat = 0.0f32;
        for i in 0..d {
            let dxh = gy[o + i] * gamma[i];
            mean_dxhat += dxh;
            mean_dxhat_xhat += dxh * xhat[o + i];
        }
        mean_dxhat /= d as f32;
        mean_dxhat_xhat /= d as f32;
        for i in 0..d {
            let dxh = gy[o + i] * gamma[i];
            gx_panel[ri * d + i] =
                inv_std[r] * (dxh - mean_dxhat - xhat[o + i] * mean_dxhat_xhat);
        }
    }
}

/// Sum of all elements.
#[inline]
pub fn sum(data: &[f32]) -> f32 {
    data.iter().sum()
}

/// Squared L2 norm.
#[inline]
pub fn sq_norm(data: &[f32]) -> f32 {
    data.iter().map(|v| v * v).sum()
}

/// Per-row squared L2 norms of a row-major (rows×cols) matrix, written
/// into `out` (`rows` long). The distance half of the IVF assignment
/// identity `‖e − c‖² = ‖e‖² − 2·dot(e, c) + ‖c‖²`: with row norms
/// precomputed, nearest-centroid search reduces to a GEMM plus this.
#[inline]
pub fn row_sq_norms(data: &[f32], cols: usize, out: &mut [f32]) {
    debug_assert_eq!(data.len(), out.len() * cols);
    for (o, row) in out.iter_mut().zip(data.chunks_exact(cols)) {
        *o = sq_norm(row);
    }
}

/// The score masked-out attention logits are filled with before the
/// softmax (`masked_fill(_, -1e9)` in the autograd composition).
pub const MASK_FILL: f32 = -1e9;

/// One scaled-dot-product attention slice,
/// `ctx = softmax(mask(q·kᵀ · scale)) [⊙ keep] · v`, over plain slices: `q`
/// is `lq × dh`, `k`/`v` are `lk × dh`, and score `(i, j)` becomes
/// [`MASK_FILL`] where `blocked(i, j)`. The one attention forward: the
/// fused `Tensor::sdpa` runs it per `[B*H]` slice, the inference engine per
/// batch·head.
///
/// `dropout` is a `lq × lk` keep/scale mask applied to the probabilities
/// with a same-length buffer for their product. On return `probs`
/// (`lq × lk`) holds the softmax probabilities and `ctx` (`lq × dh`) the
/// context; `kt` (`dh × lk`) is scratch. Every buffer is overwritten or
/// zeroed before it is accumulated into, so stale contents are fine. Runs
/// the softmax serially on the calling thread and opens no span.
// `#[inline]`: without it the engine's per-head loop ran 2–4% slower, and
// with one select per element in place of the separate scale and mask
// loops below, 4–8% slower (model shapes, 2-vCPU x86-64 VM).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn sdpa_slice(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    (lq, lk, dh): (usize, usize, usize),
    scale: f32,
    blocked: impl Fn(usize, usize) -> bool,
    dropout: Option<(&[f32], &mut [f32])>,
    probs: &mut [f32],
    kt: &mut [f32],
    ctx: &mut [f32],
) {
    let (probs, kt, ctx) = (&mut probs[..lq * lk], &mut kt[..lk * dh], &mut ctx[..lq * dh]);
    // kᵀ must be materialized: `gemm_nt`'s dot-chain accumulation differs
    // bitwise from the `gemm_nn(q, kᵀ)` the unfused bmm runs.
    transpose(&k[..lk * dh], kt, lk, dh);
    probs.fill(0.0);
    gemm_nn(&q[..lq * dh], kt, probs, lq, dh, lk);
    for s in probs.iter_mut() {
        *s *= scale;
    }
    for i in 0..lq {
        for (j, s) in probs[i * lk..][..lk].iter_mut().enumerate() {
            if blocked(i, j) {
                *s = MASK_FILL;
            }
        }
    }
    softmax_rows_serial(probs, lk);
    ctx.fill(0.0);
    let v = &v[..lk * dh];
    match dropout {
        Some((keep, dropped)) => {
            let dropped = &mut dropped[..lq * lk];
            for ((d, &p), &m) in dropped.iter_mut().zip(probs.iter()).zip(&keep[..lq * lk]) {
                *d = p * m;
            }
            gemm_nn(dropped, v, ctx, lq, lk, dh);
        }
        None => gemm_nn(probs, v, ctx, lq, lk, dh),
    }
}

/// Transposes a row-major (rows×cols) matrix into `out` (cols×rows).
pub fn transpose(src: &[f32], out: &mut [f32], rows: usize, cols: usize) {
    debug_assert_eq!(src.len(), rows * cols);
    debug_assert_eq!(out.len(), rows * cols);
    // Simple blocked transpose for cache friendliness.
    const B: usize = 32;
    for i0 in (0..rows).step_by(B) {
        for j0 in (0..cols).step_by(B) {
            let i_end = (i0 + B).min(rows);
            let j_end = (j0 + B).min(cols);
            for i in i0..i_end {
                for j in j0..j_end {
                    out[j * rows + i] = src[i * cols + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 7 + 3) % 13) as f32 * 0.25 - 1.0).collect()
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn gemm_nn_matches_naive_small() {
        let (m, k, n) = (3, 4, 5);
        let a = seq(m * k);
        let b = seq(k * n);
        let mut c = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut c, m, k, n);
        assert_close(&c, &naive_gemm(&a, &b, m, k, n));
    }

    #[test]
    fn gemm_nn_matches_naive_large_parallel() {
        let (m, k, n) = (70, 65, 72); // exceeds PAR threshold
        let a = seq(m * k);
        let b = seq(k * n);
        let mut c = vec![0.0; m * n];
        gemm_nn(&a, &b, &mut c, m, k, n);
        assert_close(&c, &naive_gemm(&a, &b, m, k, n));
    }

    #[test]
    fn gemm_nn_accumulates() {
        let (m, k, n) = (2, 2, 2);
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut c = vec![10.0; 4];
        gemm_nn(&a, &b, &mut c, m, k, n);
        assert_close(&c, &[11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn gemm_nt_matches_naive() {
        let (m, k, n) = (4, 6, 3);
        let a = seq(m * k);
        let b_t = seq(n * k); // stored as n×k
        // Build row-major B from Bᵀ for the reference.
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = b_t[j * k + p];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_nt(&a, &b_t, &mut c, m, k, n);
        assert_close(&c, &naive_gemm(&a, &b, m, k, n));
    }

    #[test]
    fn gemm_tn_matches_naive() {
        let (m, k, n) = (5, 4, 3);
        let a_t = seq(k * m); // stored as k×m
        let b = seq(k * n);
        let mut a = vec![0.0; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = a_t[p * m + i];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_tn(&a_t, &b, &mut c, m, k, n);
        assert_close(&c, &naive_gemm(&a, &b, m, k, n));
    }

    #[test]
    fn gemm_tn_parallel_matches_naive() {
        let (m, k, n) = (80, 70, 66);
        let a_t = seq(k * m);
        let b = seq(k * n);
        let mut a = vec![0.0; m * k];
        for p in 0..k {
            for i in 0..m {
                a[i * k + p] = a_t[p * m + i];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_tn(&a_t, &b, &mut c, m, k, n);
        assert_close(&c, &naive_gemm(&a, &b, m, k, n));
    }

    #[test]
    fn dot_handles_remainder() {
        let a = seq(11);
        let b = seq(11);
        let expect: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - expect).abs() < 1e-5);
    }

    #[test]
    fn row_sq_norms_matches_per_row_sq_norm() {
        let data = seq(5 * 7);
        let mut out = vec![0.0f32; 5];
        row_sq_norms(&data, 7, &mut out);
        for (o, row) in out.iter().zip(data.chunks(7)) {
            assert_eq!(*o, sq_norm(row));
        }
    }

    #[test]
    fn pack_select_matches_gather_transpose_pack() {
        // n = 13 exercises the ragged (zero-padded) edge strip.
        let (rows, k, m) = (30usize, 17usize, 3usize);
        let table = seq(rows * k);
        let select: Vec<u32> = (0..13u32).map(|j| (j * 7 + 2) % rows as u32).collect();
        let n = select.len();
        let mut gathered_t = vec![0.0f32; k * n];
        for (j, &r) in select.iter().enumerate() {
            for p in 0..k {
                gathered_t[p * n + j] = table[r as usize * k + p];
            }
        }
        let reference = PackedB::pack(&gathered_t, k, n);
        let mut buf = vec![0.0f32; PackedB::packed_len(k, n)];
        let fused = PackedB::pack_select_into(&table, k, &select, &mut buf);
        assert_eq!((fused.k(), fused.n()), (k, n));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(fused.data), bits(&reference.data));
        // And the GEMMs over both agree bit-for-bit.
        let a = seq(m * k);
        let mut c_ref = vec![0.0f32; m * n];
        let mut c_fused = vec![0.0f32; m * n];
        let mut apack = vec![0.0f32; PackedB::SCRATCH_LEN];
        gemm_nn_prepacked_scratch(&a, &reference, &mut c_ref, m, &mut apack);
        gemm_nn_prepacked_scratch(&a, fused, &mut c_fused, m, &mut apack);
        assert_eq!(bits(&c_ref), bits(&c_fused));
    }

    #[test]
    fn pack_select_into_stale_buffer_matches_owned() {
        // A stale (garbage-filled) caller buffer must pack bit-identically
        // to a freshly zeroed one — pad lanes included (n = 13 has a ragged
        // edge).
        let (rows, k) = (30usize, 17usize);
        let table = seq(rows * k);
        let select: Vec<u32> = (0..13u32).map(|j| (j * 7 + 2) % rows as u32).collect();
        let len = PackedB::packed_len(k, select.len());
        let mut fresh = vec![0.0f32; len];
        PackedB::pack_select_into(&table, k, &select, &mut fresh);
        let mut buf = vec![f32::NAN; len];
        let view = PackedB::pack_select_into(&table, k, &select, &mut buf);
        assert_eq!((view.k(), view.n()), (k, select.len()));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&buf), bits(&fresh));
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let mut data = seq(12);
        softmax_rows(&mut data, 4);
        for row in data.chunks(4) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(row.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn softmax_stable_with_large_values() {
        let mut data = vec![1000.0, 1001.0, 1002.0];
        softmax_rows(&mut data, 3);
        assert!(data.iter().all(|v| v.is_finite()));
        assert!((data.iter().sum::<f32>() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn log_softmax_matches_log_of_softmax() {
        let src = seq(8);
        let mut sm = src.clone();
        softmax_rows(&mut sm, 4);
        let mut lsm = src;
        log_softmax_rows(&mut lsm, 4);
        for (l, s) in lsm.iter().zip(sm.iter()) {
            assert!((l - s.ln()).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_roundtrip() {
        let src = seq(6 * 9);
        let mut t = vec![0.0; 54];
        let mut back = vec![0.0; 54];
        transpose(&src, &mut t, 6, 9);
        transpose(&t, &mut back, 9, 6);
        assert_close(&src, &back);
    }

    #[test]
    fn axpy_accumulates() {
        let x = vec![1.0, 2.0];
        let mut y = vec![10.0, 20.0];
        axpy(0.5, &x, &mut y);
        assert_close(&y, &[10.5, 21.0]);
    }
}
