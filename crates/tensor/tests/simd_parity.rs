//! Bit-for-bit parity of the hand-written AVX2 microkernels with their
//! scalar references, and of the full `gemm_nn` dispatch (which routes
//! through them when `MBSSL_SIMD` allows) with the naive kernel.
//!
//! The SIMD kernels promise *identity*, not closeness: mul+add instead of
//! FMA, same k-step order, same partial-sum structure, same `a == 0.0`
//! skip. So every assertion here is `==` on f32 bits. CI runs this suite
//! under `MBSSL_THREADS=1`, `2`, and the default, and under
//! `MBSSL_SIMD=off`, to pin that neither threading nor dispatch changes a
//! single bit.

use mbssl_tensor::kernels::{self, PackedB, KC, MR, NR};
use mbssl_tensor::simd;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fill(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// Exact zeros exercise the microkernel's `a == 0.0` skip, which must fire
/// at identical (row, p) positions in both variants.
fn sprinkle_zeros(v: &mut [f32], rng: &mut StdRng) {
    for x in v.iter_mut() {
        if rng.gen_range(0.0f32..1.0) < 0.15 {
            *x = 0.0;
        }
    }
}

proptest! {
    /// The MR×NR register tile: scalar vs AVX2 across k-block depths
    /// straddling the KC boundary.
    #[test]
    fn gemm_tile_scalar_matches_avx2(kc in 0usize..(KC + 9), seed in 0u64..200) {
        if !simd::avx2_available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut apack = fill(&mut rng, (kc * MR).max(1));
        sprinkle_zeros(&mut apack, &mut rng);
        let bpack = fill(&mut rng, (kc * NR).max(1));
        let init = fill(&mut rng, MR * NR);
        let mut scalar = init.clone();
        let mut avx2 = init;
        simd::gemm_tile_scalar(&apack, &bpack, &mut scalar, kc);
        // SAFETY: guarded by avx2_available() above.
        unsafe { simd::gemm_tile_avx2(&apack, &bpack, &mut avx2, kc) };
        prop_assert_eq!(scalar, avx2);
    }

    /// The NR-lane nt strip: scalar vs AVX2 across dot lengths and partial
    /// lane counts (m=1-style single-row strips included).
    #[test]
    fn nt_strip_scalar_matches_avx2(k in 0usize..70, nr in 1usize..=NR, seed in 0u64..200) {
        if !simd::avx2_available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a_row = fill(&mut rng, k);
        sprinkle_zeros(&mut a_row, &mut rng);
        let strip = fill(&mut rng, (k * NR).max(1));
        let init = fill(&mut rng, nr);
        let mut scalar = init.clone();
        let mut avx2 = init;
        simd::nt_strip_scalar(&a_row, &strip, &mut scalar);
        // SAFETY: guarded by avx2_available() above.
        unsafe { simd::nt_strip_avx2(&a_row, &strip, &mut avx2) };
        prop_assert_eq!(scalar, avx2);
    }

    /// Full `gemm_nn` dispatch (naive rows / packed / SIMD / threaded —
    /// whatever the ambient env selects) vs the naive reference across
    /// ragged shapes, including m=1 and k=0.
    #[test]
    fn gemm_nn_dispatch_bitwise_ragged(m in 1usize..12, k in 0usize..48, n in 1usize..24, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut a, b) = (fill(&mut rng, m * k), fill(&mut rng, k * n));
        sprinkle_zeros(&mut a, &mut rng);
        let mut got = vec![0.0f32; m * n];
        kernels::gemm_nn(&a, &b, &mut got, m, k, n);
        let mut naive = vec![0.0f32; m * n];
        kernels::gemm_nn_naive(&a, &b, &mut naive, m, k, n);
        prop_assert_eq!(got, naive);
    }

    /// Pre-packed GEMM (the inference engine's weight layout) is
    /// bit-identical to `gemm_nn` on the unpacked matrix, from a fresh
    /// and from a stale scratch buffer.
    #[test]
    fn prepacked_bitwise_matches_gemm_nn(m in 1usize..12, k in 0usize..48, n in 1usize..24, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut a, b) = (fill(&mut rng, m * k), fill(&mut rng, k * n));
        sprinkle_zeros(&mut a, &mut rng);
        let mut reference = vec![0.0f32; m * n];
        kernels::gemm_nn(&a, &b, &mut reference, m, k, n);
        let packed = PackedB::pack(&b, k, n);
        let mut got = vec![0.0f32; m * n];
        let mut scratch = vec![0.0f32; PackedB::SCRATCH_LEN];
        kernels::gemm_nn_prepacked_scratch(&a, &packed, &mut got, m, &mut scratch);
        prop_assert_eq!(&got, &reference);
        got.fill(0.0);
        kernels::gemm_nn_prepacked_scratch(&a, &packed, &mut got, m, &mut scratch);
        prop_assert_eq!(&got, &reference);
    }
}

/// Shapes big enough to cross the packed-path threshold (`m >= 2*MR`,
/// `k*n >= 8192`) and, with enough worker threads, the parallel split —
/// the dispatch tiers the proptest shapes above can't reach.
#[test]
fn gemm_nn_dispatch_bitwise_large_packed_shapes() {
    let mut rng = StdRng::seed_from_u64(41);
    for (m, k, n) in [(16usize, 128usize, 64usize), (33, 300, 40), (9, 64, 129)] {
        let mut a = fill(&mut rng, m * k);
        sprinkle_zeros(&mut a, &mut rng);
        let b = fill(&mut rng, k * n);
        let mut got = vec![0.0f32; m * n];
        kernels::gemm_nn(&a, &b, &mut got, m, k, n);
        let mut naive = vec![0.0f32; m * n];
        kernels::gemm_nn_naive(&a, &b, &mut naive, m, k, n);
        assert_eq!(got, naive, "m={m} k={k} n={n}");

        let packed = PackedB::pack(&b, k, n);
        let mut pre = vec![0.0f32; m * n];
        let mut scratch = vec![0.0f32; PackedB::SCRATCH_LEN];
        kernels::gemm_nn_prepacked_scratch(&a, &packed, &mut pre, m, &mut scratch);
        assert_eq!(pre, naive, "prepacked m={m} k={k} n={n}");
    }
}

/// One `screen_prune` call: the gaps, masks, result and the row the floor
/// was asked for.
fn run_prune(
    avx512: bool,
    acc: &[i32],
    (k, kk): (usize, usize),
    query: (i32, f32, f32),
    (scale, half): (&[f32], &[f32]),
    rows: usize,
    floor_of: impl Fn(usize, f32) -> f32,
) -> (Vec<u32>, Vec<u16>, (usize, u32), usize) {
    let blocks = rows.div_ceil(simd::SCREEN_LANES);
    // Stale scratch: the kernel must overwrite every lane it reports.
    let mut gaps = vec![f32::NAN; blocks * simd::SCREEN_LANES];
    let mut mask = vec![0xA5A5u16; blocks];
    let mut asked = usize::MAX;
    let mut floor = |best: usize| {
        asked = best;
        floor_of(best, f32::NAN)
    };
    let (best, floor) = if avx512 {
        // SAFETY: the caller checked vnni_available().
        unsafe {
            simd::screen_prune_avx512(
                acc, k, kk, query, scale, half, rows, &mut gaps, &mut floor, &mut mask,
            )
        }
    } else {
        simd::screen_prune_scalar(
            acc, k, kk, query, scale, half, rows, &mut gaps, &mut floor, &mut mask,
        )
    };
    let gaps = gaps.iter().map(|g| g.to_bits()).collect();
    (gaps, mask, (best, floor.to_bits()), asked)
}

proptest! {
    /// The screened k-means survivor kernel: AVX-512 vs its scalar
    /// reference, bit for bit, over partial last blocks, every query row
    /// of a 1–4 row accumulator, gaps of `-inf` (an infinite ½‖c‖²) and
    /// NaN, and floors below, at, above and beside the best gap. Pad lanes
    /// must read `-inf` and never survive.
    #[test]
    fn screen_prune_scalar_matches_avx512(
        rows in 1usize..90,
        k in 1usize..=4,
        seed in 0u64..300,
        floor_kind in 0usize..6,
    ) {
        if !simd::vnni_available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let lanes = rows.div_ceil(simd::SCREEN_LANES) * simd::SCREEN_LANES;
        let kk = rng.gen_range(0..k);
        let acc: Vec<i32> = (0..k * lanes)
            .map(|_| if rng.gen_range(0..50) == 0 { i32::MIN + rng.gen_range(0..4) } else { rng.gen_range(-400_000..400_000) })
            .collect();
        let scale: Vec<f32> = (0..lanes).map(|_| rng.gen_range(0.0f32..0.02)).collect();
        let half: Vec<f32> = (0..lanes)
            .map(|_| match rng.gen_range(0..40) {
                0 => f32::INFINITY,
                1 => f32::NAN,
                _ => rng.gen_range(0.0f32..3.0),
            })
            .collect();
        let query = (rng.gen_range(-20_000..20_000), rng.gen_range(0.0f32..0.05), rng.gen_range(0.0f32..0.01));
        let (nudge, fixed) = (rng.gen_range(-0.5f32..0.5), rng.gen_range(-5.0f32..5.0));
        let mut reference_gaps = Vec::new();
        {
            let blocks = lanes / simd::SCREEN_LANES;
            let mut gaps = vec![0.0f32; lanes];
            let mut mask = vec![0u16; blocks];
            simd::screen_prune_scalar(&acc, k, kk, query, &scale, &half, rows, &mut gaps, |_| 0.0, &mut mask);
            reference_gaps.extend_from_slice(&gaps);
        }
        let floor_of = |best: usize, _: f32| match floor_kind {
            0 => reference_gaps[best],
            1 => reference_gaps[best] - nudge.abs(),
            2 => reference_gaps[best] + nudge,
            3 => f32::NEG_INFINITY,
            4 => f32::NAN,
            _ => fixed,
        };
        let scalar = run_prune(false, &acc, (k, kk), query, (&scale, &half), rows, floor_of);
        let avx512 = run_prune(true, &acc, (k, kk), query, (&scale, &half), rows, floor_of);
        prop_assert_eq!(&scalar, &avx512);
        let (gaps, mask, (best, _), asked) = scalar;
        prop_assert_eq!(asked, best);
        prop_assert!(best < rows);
        for r in rows..lanes {
            prop_assert_eq!(gaps[r], f32::NEG_INFINITY.to_bits(), "pad lane {} gap", r);
            prop_assert_eq!(mask[r / simd::SCREEN_LANES] >> (r % simd::SCREEN_LANES) & 1, 0, "pad lane {} survives", r);
        }
    }
}
