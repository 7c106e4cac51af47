//! Bit-for-bit parity of the sharded embedding-gradient scatter-add with
//! the sequential reference (ISSUE 9: sharding must not change results —
//! per-destination add order is preserved, so `==` on bits, not "close").
//!
//! These run under MBSSL_THREADS=1/2/default in ci.sh; the shard count
//! tracks the pool size, so pool size must never change a bit. Both the
//! raw kernels and the full embedding backward (which dispatches on pool
//! size and batch length) are pinned.

use mbssl_tensor::sharded::{
    scatter_add, scatter_add_reference, scatter_add_sharded, scatter_add_sharded_with,
};
use mbssl_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Raw kernels over ragged vocab/dim/batch, duplicate-heavy id lists.
    #[test]
    fn sharded_scatter_bitwise_parity(
        rows in 1usize..300,
        d in 1usize..17,
        n in 0usize..600,
        seed in 0u64..200,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ids: Vec<usize> = (0..n).map(|_| rng.gen_range(0..rows)).collect();
        let grad: Vec<f32> = (0..n * d).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let mut reference = vec![0.0f32; rows * d];
        let mut shardwise = vec![0.0f32; rows * d];
        scatter_add_reference(&mut reference, d, &ids, &grad);
        scatter_add_sharded(&mut shardwise, d, &ids, &grad);
        prop_assert_eq!(bits(&reference), bits(&shardwise));
        let mut dispatched = vec![0.0f32; rows * d];
        scatter_add(&mut dispatched, d, &ids, &grad);
        prop_assert_eq!(bits(&reference), bits(&dispatched));
    }

    // Explicit shard counts, decoupled from MBSSL_THREADS: counts that
    // exceed sqrt(rows) leave trailing shards with empty row ranges
    // (REVIEW.md: rows=50/shards=16 underflowed before clamping), and
    // counts above rows itself pin the fully-empty-trailing-shard edge.
    #[test]
    fn explicit_shard_count_bitwise_parity(
        rows in 1usize..80,
        d in 1usize..9,
        shards in 1usize..33,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 300;
        let ids: Vec<usize> = (0..n).map(|_| rng.gen_range(0..rows)).collect();
        let grad: Vec<f32> = (0..n * d).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let mut reference = vec![0.0f32; rows * d];
        let mut shardwise = vec![0.0f32; rows * d];
        scatter_add_reference(&mut reference, d, &ids, &grad);
        scatter_add_sharded_with(&mut shardwise, d, &ids, &grad, shards);
        prop_assert_eq!(bits(&reference), bits(&shardwise));
    }

    // Full embedding backward: batches big enough to cross MIN_IDS so the
    // sharded path actually engages when enabled.
    #[test]
    fn embedding_backward_bitwise_parity(
        v in 2usize..120,
        d in 1usize..9,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 512 + (seed as usize % 97);
        let ids: Vec<usize> = (0..n).map(|_| rng.gen_range(0..v)).collect();
        let wdata: Vec<f32> = (0..v * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let scale: Vec<f32> = (0..n * d).map(|_| rng.gen_range(-2.0f32..2.0)).collect();

        let run = |use_dispatch: bool| -> Vec<u32> {
            let w = Tensor::from_vec(wdata.clone(), [v, d]).requires_grad();
            let out = w.embedding(&ids);
            let wt = Tensor::from_vec(scale.clone(), out.dims());
            out.mul(&wt).sum_all().backward();
            let g = w.grad().unwrap();
            if use_dispatch {
                // The dispatched grad is whatever Tensor::embedding produced.
                bits(&g)
            } else {
                // Recompute the same gradient with the pinned reference.
                let mut gw = vec![0.0f32; v * d];
                scatter_add_reference(&mut gw, d, &ids, &scale);
                bits(&gw)
            }
        };
        prop_assert_eq!(run(true), run(false));
    }
}
