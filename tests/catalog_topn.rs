//! Catalog top-n parity (DESIGN.md §13–14).
//!
//! The engine ranks the catalog through the exact i8 screen, or, for a
//! catalog the screen refuses, through one gathered pass: it packs the
//! item table a chunk at a time, streams each chunk strip by strip,
//! reduces each item's max over interests in place, and admits an item
//! into the top-n heap only when it beats the current n-th best. These
//! tests pin both routes bit for bit against the naive chunked oracle
//! (`recommend_top_n_reference`) and against one-query calls, on catalogs
//! full of exact ties, on catalogs the screen refuses, and across the
//! gather chunk boundary, and pin the short-probe fallback of two-stage
//! retrieval.

mod common;

use std::collections::HashSet;

use common::{bits, item_table, model_over, model_with, rankable, unscreenable};
use mbssl::core::infer::{CatalogQuery, GATHER_CHUNK};
use mbssl::core::screen::CatalogScreen;
use mbssl::core::{recommend_top_n_reference, InferenceModel, Mbmissl, SequentialRecommender};
use mbssl::data::{Dataset, ItemId, Sequence};
use mbssl::tensor::kernels::{self, PackedB, NR};

/// A `k`-interest model whose item table repeats every embedding row
/// three times, so most scores tie exactly and only the id tie-break
/// orders them.
fn model_with_ties(k: usize) -> (Mbmissl, Dataset) {
    model_with(16, k, |table, dim, num_items| {
        let groups = num_items / 3;
        for v in groups + 1..=num_items {
            let src = 1 + (v - 1) % groups;
            table.copy_within(src * dim..(src + 1) * dim, v * dim);
        }
    })
}

/// An unscreenable near-tie catalog of two gather chunks and a ragged
/// third. The triples that straddle the chunk boundaries (ids 1024–1026
/// and 2047–2049 for a 1024-item chunk) are scaled by ±64, exactly, so
/// they lead or trail every ranking and their near ties decide it.
fn chunked_catalog(k: usize) -> (Mbmissl, Dataset) {
    let num_items = 2 * GATHER_CHUNK + 37;
    model_over(Some(num_items), 16, k, |table, dim, num_items| {
        unscreenable(f32::NAN)(table, dim, num_items);
        for (boundary, scale) in [(GATHER_CHUNK, 64.0f32), (2 * GATHER_CHUNK, -64.0)] {
            let first = boundary - (boundary - 1) % 3;
            assert!(boundary < first + 2, "a triple straddles {boundary}");
            for x in &mut table[first * dim..(first + 3) * dim] {
                *x *= scale;
            }
        }
    })
}

#[test]
fn strip_gemm_matches_prepacked_gemm_bit_for_bit() {
    let mut state = 0x5eed_u32;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 17;
        state ^= state << 5;
        // Exact zeros exercise the microkernel's zero-skip.
        if state & 0xf == 0 {
            0.0
        } else {
            (state % 2001) as f32 / 1000.0 - 1.0
        }
    };
    // k = 300 crosses a KC block; m and n are ragged against MR and NR.
    for (m, k, n) in [
        (1, 5, 3),
        (3, 16, 17),
        (5, 300, 23),
        (9, 32, 40),
        (12, 7, 8),
    ] {
        let a: Vec<f32> = (0..m * k).map(|_| next()).collect();
        let b: Vec<f32> = (0..k * n).map(|_| next()).collect();
        let packed = PackedB::pack(&b, k, n);
        let mut want = vec![0.0f32; m * n];
        let mut apack = vec![0.0f32; PackedB::SCRATCH_LEN];
        kernels::gemm_nn_prepacked_scratch(&a, &packed, &mut want, m, &mut apack);
        let mut got = vec![f32::NAN; m * n];
        let mut scratch = vec![f32::NAN; kernels::strips_scratch_len(m, k)];
        kernels::gemm_nn_prepacked_strips(
            &a,
            &packed,
            m,
            0..n.div_ceil(NR),
            &mut scratch,
            |s, block| {
                for i in 0..m {
                    for j in 0..NR.min(n - s * NR) {
                        got[i * n + s * NR + j] = block[i * NR + j];
                    }
                }
            },
        );
        let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(to_bits(&got), to_bits(&want), "m={m} k={k} n={n}");
    }
}

#[test]
fn catalog_top_n_matches_reference_and_solo_calls() {
    let mut catalogs: Vec<(String, usize, (Mbmissl, Dataset))> = [3, 4, 5]
        .into_iter()
        .map(|k| ("triplicated rows".to_string(), k, model_with_ties(k)))
        .collect();
    for bad in [f32::NAN, 1e31] {
        let label = format!("item 7 holds {bad}");
        catalogs.push((label, 3, model_with(16, 3, unscreenable(bad))));
    }
    catalogs.push(("two gather chunks".to_string(), 4, chunked_catalog(4)));
    for (label, k, (model, dataset)) in &catalogs {
        let (label, k) = (label.as_str(), *k);
        if label != "triplicated rows" {
            let screen = CatalogScreen::build(&item_table(model), 16);
            assert!(screen.is_none(), "{label}: screened");
        }
        let engine = InferenceModel::compile(model);
        let histories: Vec<&Sequence> = dataset.sequences.iter().take(5).collect();
        // Interests encoded one history at a time, so every row is the
        // solo encoding whatever the histories' lengths.
        let z_all: Vec<f32> = histories
            .iter()
            .flat_map(|h| engine.encode_interests(&[h]))
            .collect();
        let z_of = |qi: usize| &z_all[qi * k * engine.dim()..][..k * engine.dim()];
        let full = engine.num_items();
        // A catalog argument below the compiled table, off the strip grid.
        for num_items in [full, full * 2 / 3 - 3] {
            let excludes: Vec<HashSet<ItemId>> = histories
                .iter()
                .enumerate()
                .map(|(qi, h)| match qi % 3 {
                    0 => HashSet::new(),
                    1 => [0, num_items as ItemId + 1, full as ItemId + 50, ItemId::MAX]
                        .into_iter()
                        .chain(h.items.iter().copied())
                        .collect(),
                    _ => {
                        let none = HashSet::new();
                        let top1 =
                            recommend_top_n_reference(model, h, num_items, 1, &none, 64)[0].item;
                        [0, top1].into_iter().collect()
                    }
                })
                .collect();
            for r in [1, 2, 3, 5] {
                let queries: Vec<CatalogQuery<'_>> = (0..r)
                    .map(|qi| {
                        let all = rankable(&excludes[qi], num_items);
                        let n = [1, 10, all, all + 7][(qi + r) % 4];
                        CatalogQuery {
                            n,
                            exclude: &excludes[qi],
                        }
                    })
                    .collect();
                let batched = engine.rank_from_interests(
                    &z_all[..r * k * engine.dim()],
                    &queries,
                    num_items,
                    None,
                );
                assert_eq!(batched.len(), r);
                for (qi, (q, got)) in queries.iter().zip(&batched).enumerate() {
                    let ctx = format!(
                        "{label} K={k} num_items={num_items} r={r} query={qi} n={}",
                        q.n
                    );
                    assert!(!got.used_ann, "{ctx}: no index is attached");
                    let reference = recommend_top_n_reference(
                        model,
                        histories[qi],
                        num_items,
                        q.n,
                        q.exclude,
                        64,
                    );
                    assert_eq!(
                        bits(&got.recs),
                        bits(&reference),
                        "{ctx}: batched vs reference"
                    );
                    let solo = engine.rank_from_interests(
                        z_of(qi),
                        &[CatalogQuery {
                            n: q.n,
                            exclude: q.exclude,
                        }],
                        num_items,
                        None,
                    );
                    assert_eq!(
                        bits(&got.recs),
                        bits(&solo[0].recs),
                        "{ctx}: batched vs solo"
                    );
                    let direct = engine
                        .recommend_catalog(histories[qi], num_items, q.n, q.exclude)
                        .expect("the engine has a catalog path");
                    assert_eq!(
                        bits(&got.recs),
                        bits(&direct),
                        "{ctx}: batched vs recommend_catalog"
                    );
                }
            }
        }
    }
}

#[test]
fn short_probe_fallback_counts_only_rankable_exclusions() {
    let k = 4;
    let (model, dataset) = model_with_ties(k);
    let mut engine = InferenceModel::compile(&model);
    let num_items = dataset.num_items;
    let history = &dataset.sequences[0];
    let z = engine.encode_interests(&[history]);
    let index = engine.build_index_with(16, 7);
    let mut probed = Vec::new();
    index.probe_into(&z, k, 1, &mut probed);
    engine
        .attach_index_with(index, 1)
        .expect("index matches the engine");
    let probed: HashSet<ItemId> = probed.into_iter().collect();
    let outside: Vec<ItemId> = (1..=num_items as ItemId)
        .filter(|id| !probed.contains(id))
        .collect();
    assert!(
        outside.len() >= 2,
        "one probed list must not cover the catalog"
    );

    let rank = |exclude: &HashSet<ItemId>| {
        let query = CatalogQuery {
            n: num_items,
            exclude,
        };
        let got = engine
            .rank_from_interests(&z, &[query], num_items, None)
            .remove(0);
        let reference =
            recommend_top_n_reference(&model, history, num_items, num_items, exclude, 64);
        assert_eq!(bits(&got.recs), bits(&reference));
        got
    };

    // The probe retrieves every rankable item but one. Excluding the
    // padding id 0 must not make the probe look complete.
    let exclude: HashSet<ItemId> = std::iter::once(0)
        .chain(outside[1..].iter().copied())
        .collect();
    let got = rank(&exclude);
    assert_eq!(got.recs.len(), probed.len() + 1);
    assert!(
        !got.used_ann,
        "a short probe must fall back to exhaustive ranking"
    );

    // With every unprobed item excluded the probe is complete.
    let exclude: HashSet<ItemId> = std::iter::once(0).chain(outside.iter().copied()).collect();
    let got = rank(&exclude);
    assert_eq!(got.recs.len(), probed.len());
    assert!(got.used_ann);
}
