//! Sharded scatter-add for the embedding-gradient hot path.
//!
//! The embedding backward owns the largest gradient buffer in the system —
//! `[V, D]` over the whole catalog — and at substrate scale (DESIGN.md §16)
//! V reaches the tens of thousands while each batch touches a few thousand
//! rows. The reference implementation walks the batch ids sequentially and
//! scatter-adds into the dense buffer on one thread.
//!
//! This module splits the row space `0..V` into `pool::threads()` contiguous
//! shards, each guarded by its own `Mutex`, and scatter-adds all shards in
//! parallel on the worker pool: shard `s` scans the full id list and applies
//! only the updates whose destination row it owns. Scanning ids `S` times
//! costs `S·N` index compares but removes every write conflict without
//! atomics — and, critically, preserves **per-destination add order**: all
//! updates to a given row live in exactly one shard and are applied in
//! original id order there, so the result is bit-for-bit identical to the
//! sequential reference for any shard count (f32 addition is order-
//! sensitive; per-element order is what matters, and it never changes).
//!
//! Today each shard is visited by exactly one pool chunk, so the per-shard
//! locks are uncontended (one uncontended lock per shard per backward).
//! They are kept deliberately: the lock is the shard's write contract, the
//! thing that makes hogwild-style concurrent writers (incremental serving
//! updates, ROADMAP item 5a) a local change instead of a redesign.
//!
//! The sequential reference stays as the small-input path (a single-thread
//! pool, short id lists, tiny tables) and as the oracle: parity is
//! proptest-pinned in `tests/shard_parity.rs` at pool sizes 1/2/default.

use std::sync::Mutex;

use crate::pool;

/// Minimum id-list length before sharding pays for the extra id scans.
/// Below this the dispatcher uses the reference loop. Purely a scheduling
/// threshold — results are bit-identical either way.
pub const MIN_IDS: usize = 256;

/// Sequential reference: for each `k`, adds `grad[k*d..][..d]` into row
/// `ids[k]` of the `[V, D]` buffer `gw`, in id order.
pub fn scatter_add_reference(gw: &mut [f32], d: usize, ids: &[usize], grad: &[f32]) {
    debug_assert_eq!(grad.len(), ids.len() * d);
    for (k, &id) in ids.iter().enumerate() {
        let dst = &mut gw[id * d..(id + 1) * d];
        let src = &grad[k * d..(k + 1) * d];
        for (dv, &sv) in dst.iter_mut().zip(src.iter()) {
            *dv += sv;
        }
    }
}

/// Sharded scatter-add: row space split into per-`Mutex` contiguous shards,
/// one pool chunk per shard, each applying only its own rows' updates (in
/// id order). Bit-for-bit identical to [`scatter_add_reference`] for any
/// pool size — see the module docs for the ordering argument.
pub fn scatter_add_sharded(gw: &mut [f32], d: usize, ids: &[usize], grad: &[f32]) {
    let rows = if d == 0 { 0 } else { gw.len() / d };
    let shards = pool::threads().min(rows).max(1);
    scatter_add_sharded_with(gw, d, ids, grad, shards);
}

/// [`scatter_add_sharded`] with an explicit shard count (the public entry
/// derives it from the pool size). With `rows_per_shard =
/// rows.div_ceil(shards)`, the last shards can own an *empty* row range —
/// e.g. `rows = 50, shards = 16` gives 4 rows per shard, which covers the
/// row space by shard 13 — so both bounds are clamped to `rows`; trailing
/// shards degenerate to empty slices and scan no ids. Exposed so parity
/// tests can pin shard counts independent of `MBSSL_THREADS`.
pub fn scatter_add_sharded_with(
    gw: &mut [f32],
    d: usize,
    ids: &[usize],
    grad: &[f32],
    shards: usize,
) {
    debug_assert_eq!(grad.len(), ids.len() * d);
    debug_assert!(shards >= 1);
    if d == 0 || ids.is_empty() {
        return;
    }
    let rows = gw.len() / d;
    let rows_per_shard = rows.div_ceil(shards);
    let mut guarded: Vec<Mutex<&mut [f32]>> = Vec::with_capacity(shards);
    let mut rest: &mut [f32] = gw;
    for s in 0..shards {
        let lo = (s * rows_per_shard).min(rows);
        let hi = ((s + 1) * rows_per_shard).min(rows);
        let (head, tail) = rest.split_at_mut((hi - lo) * d);
        guarded.push(Mutex::new(head));
        rest = tail;
    }
    pool::parallel_for(shards, |s| {
        let lo = (s * rows_per_shard).min(rows);
        let hi = ((s + 1) * rows_per_shard).min(rows);
        let mut shard = guarded[s].lock().unwrap();
        for (k, &id) in ids.iter().enumerate() {
            if id >= lo && id < hi {
                let dst = &mut shard[(id - lo) * d..(id - lo + 1) * d];
                let src = &grad[k * d..(k + 1) * d];
                for (dv, &sv) in dst.iter_mut().zip(src.iter()) {
                    *dv += sv;
                }
            }
        }
    });
}

/// Dispatch used by the embedding backward: the sharded path when the pool
/// has parallelism and the batch is large enough to amortize the per-shard
/// id scans; the sequential reference otherwise.
pub fn scatter_add(gw: &mut [f32], d: usize, ids: &[usize], grad: &[f32]) {
    let rows = if d == 0 { 0 } else { gw.len() / d };
    if pool::threads() > 1 && ids.len() >= MIN_IDS && rows >= 2 * pool::threads() {
        scatter_add_sharded(gw, d, ids, grad);
    } else {
        scatter_add_reference(gw, d, ids, grad);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_matches_reference_bitwise() {
        let v = 37;
        let d = 5;
        let ids: Vec<usize> = (0..400).map(|k| (k * 7 + 3) % v).collect();
        let grad: Vec<f32> = (0..ids.len() * d)
            .map(|i| ((i as f32) * 0.37).sin() * 1.7)
            .collect();
        let mut a = vec![0.0f32; v * d];
        let mut b = vec![0.0f32; v * d];
        scatter_add_reference(&mut a, d, &ids, &grad);
        scatter_add_sharded(&mut b, d, &ids, &grad);
        assert_eq!(
            a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shard_count_exceeding_row_coverage_is_safe_and_bitwise() {
        // REVIEW.md repro: rows = 50, shards = 16 → rows_per_shard = 4
        // covers the row space by shard 13, so shards 13..16 own empty
        // ranges; unclamped bounds underflowed in split_at_mut. Also pin
        // shard counts above sqrt(rows) and the shards == rows edge.
        for (rows, shards) in [(50usize, 16usize), (37, 16), (5, 4), (3, 3), (1, 1)] {
            let d = 5;
            let ids: Vec<usize> = (0..400).map(|k| (k * 7 + 3) % rows).collect();
            let grad: Vec<f32> = (0..ids.len() * d)
                .map(|i| ((i as f32) * 0.37).sin() * 1.7)
                .collect();
            let mut a = vec![0.0f32; rows * d];
            let mut b = vec![0.0f32; rows * d];
            scatter_add_reference(&mut a, d, &ids, &grad);
            scatter_add_sharded_with(&mut b, d, &ids, &grad, shards);
            assert_eq!(
                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "rows={rows} shards={shards}"
            );
        }
    }

    #[test]
    fn empty_and_degenerate_inputs_are_noops() {
        let mut gw = vec![0.0f32; 12];
        scatter_add_sharded(&mut gw, 3, &[], &[]);
        scatter_add(&mut gw, 3, &[], &[]);
        assert!(gw.iter().all(|&x| x == 0.0));
    }
}
