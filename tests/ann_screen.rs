//! Screened IVF re-rank parity (DESIGN.md §14).
//!
//! With an index attached, the engine keeps its exact i8 screen in
//! inverted-list order and re-ranks a query by screening only the blocks of
//! its probed lists. These tests pin that route bit for bit against a gather
//! reference: take the `probe_into` union, drop ids past
//! `num_items` and excluded ids, score the rest with `score_candidates` and
//! sort by score descending, then id. They also pin the fill rule (when a
//! short probe falls back to exhaustive ranking), the gather route of
//! catalogs and of queries the screen refuses, detaching and re-attaching
//! an index, and the telemetry of both routes.

mod common;

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

use common::{
    bits, exact_scores, item_table, model_with, near_ties, rankable, spread_norms, unscreenable,
};
use mbssl::core::ann::{IvfIndex, ProbeScratch};
use mbssl::core::infer::{CatalogQuery, RankedQuery};
use mbssl::core::screen::CatalogScreen;
use mbssl::core::{InferenceModel, Mbmissl};
use mbssl::data::{Dataset, ItemId, Sequence};
use mbssl::telemetry::{self, LabelStats, RecordKind, TraceMode};
use mbssl::tensor::kernels::{self, PackedB};
use mbssl::tensor::simd::{SCREEN_GROUP_BYTES, SCREEN_LANES};

/// The k-means seed of every index here.
const INDEX_SEED: u64 = 7;

/// `(nlist, nprobe)` pairs; `nprobe == nlist` probes every list.
const PROBES: [(usize, usize); 4] = [(24, 1), (24, 3), (40, 2), (24, 24)];

/// Serializes the tests of this file, so that the telemetry checks see
/// only their own counters.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Only 16 distinct rows: item `v` copies row `1 + (v - 1) % 16`, so every
/// score ties with many others and only the id orders them.
fn sixteen_rows(table: &mut [f32], dim: usize, num_items: usize) {
    for v in 17..=num_items {
        let src = 1 + (v - 1) % 16;
        table.copy_within(src * dim..(src + 1) * dim, v * dim);
    }
}

/// The reference's candidates: the `probe_into` union less ids past
/// `num_items` and excluded ids.
fn candidates(
    index: &IvfIndex,
    z: &[f32],
    nprobe: usize,
    num_items: usize,
    exclude: &HashSet<ItemId>,
) -> Vec<ItemId> {
    let mut cands = Vec::new();
    index.probe_into(z, z.len() / index.dim(), nprobe, &mut cands);
    cands.retain(|&id| id as usize <= num_items && !exclude.contains(&id));
    cands
}

/// The reference fill rule: the probe serves a query iff its candidates can fill
/// the reply (the rankable catalog counts only ids in `1..=num_items`).
fn fills(cands: &[ItemId], n: usize, exclude: &HashSet<ItemId>, num_items: usize) -> bool {
    cands.len() >= n.min(rankable(exclude, num_items))
}

/// The top `n` of `cands` by `scores`: score descending, then id.
fn top_n(cands: &[ItemId], scores: &[f32], n: usize) -> Vec<(ItemId, u32)> {
    let mut keyed: Vec<(ItemId, f32)> = cands.iter().copied().zip(scores.iter().copied()).collect();
    keyed.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    keyed
        .into_iter()
        .take(n)
        .map(|(id, s)| (id, s.to_bits()))
        .collect()
}

/// The reference reply to one query for `history`.
fn reference_reply(
    engine: &InferenceModel,
    index: &IvfIndex,
    history: &Sequence,
    nprobe: usize,
    num_items: usize,
    q: &CatalogQuery<'_>,
) -> (Vec<(ItemId, u32)>, bool) {
    let z = engine.encode_interests(&[history]);
    let cands = candidates(index, &z, nprobe, num_items, q.exclude);
    let reply = top_n(&cands, &engine.score_candidates(history, &cands), q.n);
    (reply, fills(&cands, q.n, q.exclude, num_items))
}

/// An index over `engine`'s catalog, built twice: one to attach, one to
/// probe for the oracle (builds are deterministic).
fn index_pair(engine: &InferenceModel, nlist: usize) -> (IvfIndex, IvfIndex) {
    let a = engine.build_index_with(nlist, INDEX_SEED);
    let b = engine.build_index_with(nlist, INDEX_SEED);
    (a, b)
}

/// Checks one batch reply against the reference: `used_ann` equals the
/// reference fill rule, an ANN reply equals the oracle and an exhaustive one equals
/// `plain` (the same catalog with no index); a full probe equals `plain`
/// as well. Returns how many queries the probe served.
#[allow(clippy::too_many_arguments)]
fn check_batch(
    engine: &InferenceModel,
    plain: &InferenceModel,
    oracle: &IvfIndex,
    histories: &[&Sequence],
    queries: &[CatalogQuery<'_>],
    nprobe: usize,
    num_items: usize,
    ctx: &str,
) -> usize {
    let (k, d) = (engine.num_interests(), engine.dim());
    let z_all: Vec<f32> = histories[..queries.len()]
        .iter()
        .flat_map(|h| engine.encode_interests(&[h]))
        .collect();
    let got = engine.rank_from_interests(&z_all, queries, num_items, None);
    for (qi, (q, got)) in queries.iter().zip(&got).enumerate() {
        let ctx = format!("{ctx} query={qi} n={}", q.n);
        let (reply, used) = reference_reply(engine, oracle, histories[qi], nprobe, num_items, q);
        assert_eq!(got.used_ann, used, "{ctx}: used_ann");
        let solo = [CatalogQuery {
            n: q.n,
            exclude: q.exclude,
        }];
        let exhaustive =
            plain.rank_from_interests(&z_all[qi * k * d..][..k * d], &solo, num_items, None);
        if used {
            assert_eq!(bits(&got.recs), reply, "{ctx}: vs the reference");
        } else {
            assert_eq!(
                bits(&got.recs),
                bits(&exhaustive[0].recs),
                "{ctx}: vs exhaustive"
            );
        }
        if nprobe == oracle.nlist() {
            assert_eq!(
                bits(&got.recs),
                bits(&exhaustive[0].recs),
                "{ctx}: full probe"
            );
        }
    }
    got.iter().filter(|q| q.used_ann).count()
}

/// The screened route ≡ the reference over every probe shape, n ∈ {1, 10,
/// 40} and the fill boundary, excludes holding 0, ids past the catalog and
/// the would-be top-1, a `num_items` below the compiled table, and batches
/// of 1, 2, 3 and 5 queries.
fn assert_matches_reference(model: &Mbmissl, dataset: &Dataset, label: &str) {
    let plain = InferenceModel::compile(model);
    let histories: Vec<&Sequence> = dataset.sequences.iter().take(5).collect();
    let full = dataset.num_items;
    for (nlist, nprobe) in PROBES {
        let mut engine = InferenceModel::compile(model);
        let (index, oracle) = index_pair(&engine, nlist);
        engine
            .attach_index_with(index, nprobe)
            .expect("index matches the engine");
        let mut served = 0;
        for num_items in [full, full * 2 / 3 - 3] {
            let past = (full + 3) as ItemId;
            let excludes: Vec<HashSet<ItemId>> = histories
                .iter()
                .enumerate()
                .map(|(qi, h)| match qi % 3 {
                    0 => HashSet::new(),
                    1 => [0, past]
                        .into_iter()
                        .chain(h.items.iter().copied())
                        .collect(),
                    _ => {
                        let none = HashSet::new();
                        let q = CatalogQuery {
                            n: 1,
                            exclude: &none,
                        };
                        let (top1, _) = reference_reply(&engine, &oracle, h, nprobe, num_items, &q);
                        [0, past, top1[0].0].into_iter().collect()
                    }
                })
                .collect();
            // The fill boundary: exactly the reference candidate count, or one
            // more, which must fall back.
            let boundary: Vec<usize> = histories
                .iter()
                .zip(&excludes)
                .enumerate()
                .map(|(qi, (h, ex))| {
                    let z = engine.encode_interests(&[h]);
                    candidates(&oracle, &z, nprobe, num_items, ex).len().max(1) + qi % 2
                })
                .collect();
            for r in [1, 2, 3, 5] {
                let queries: Vec<CatalogQuery<'_>> = (0..r)
                    .map(|qi| CatalogQuery {
                        n: [1, 10, 40, boundary[qi]][(qi + r) % 4],
                        exclude: &excludes[qi],
                    })
                    .collect();
                let ctx =
                    format!("{label} nlist={nlist} nprobe={nprobe} num_items={num_items} r={r}");
                served += check_batch(
                    &engine, &plain, &oracle, &histories, &queries, nprobe, num_items, &ctx,
                );
            }
        }
        assert!(
            served > 0,
            "{label} nlist={nlist} nprobe={nprobe}: no query was served by the probe"
        );
    }
}

#[test]
fn screened_rerank_matches_reference_on_near_ties() {
    let _serial = serial();
    let (model, dataset) = model_with(16, 3, near_ties);
    assert_matches_reference(&model, &dataset, "near ties");
}

#[test]
fn screened_rerank_matches_reference_on_spread_norms_and_odd_width() {
    let _serial = serial();
    // 18 is not a multiple of 4: the last code group is half padding.
    let (model, dataset) = model_with(18, 4, spread_norms);
    assert_matches_reference(&model, &dataset, "spread norms");
}

#[test]
fn screened_rerank_matches_reference_on_sixteen_distinct_rows() {
    let _serial = serial();
    let (model, dataset) = model_with(16, 3, sixteen_rows);
    assert_matches_reference(&model, &dataset, "16 rows");
}

#[test]
fn unscreenable_catalogs_keep_the_gather_route() {
    let _serial = serial();
    for bad in [f32::NAN, 1e31] {
        let (model, dataset) = model_with(16, 3, unscreenable(bad));
        let table = item_table(&model);
        assert!(CatalogScreen::build(&table, 16).is_none(), "{bad}: a screen was built");
        assert_matches_reference(&model, &dataset, &format!("item 7 holds {bad}"));
    }
}

/// Runs `f` with summary tracing on and returns what it recorded.
fn traced(f: impl FnOnce()) -> Vec<LabelStats> {
    let prev = telemetry::mode();
    telemetry::set_mode(TraceMode::Summary);
    telemetry::drain();
    f();
    let records = telemetry::drain();
    telemetry::set_mode(prev);
    records
}

fn counter(records: &[LabelStats], label: &str) -> u64 {
    let of = records
        .iter()
        .filter(|r| r.kind == RecordKind::Counter && r.label == label);
    of.map(|r| r.value).sum()
}

fn span_bytes(records: &[LabelStats], label: &str) -> Option<u64> {
    let mut of = records
        .iter()
        .filter(|r| r.kind == RecordKind::Span && r.label == label);
    of.next().map(|r| r.bytes)
}

/// Screen bytes of the probed lists' blocks: per block 16 items' codes and
/// scales.
fn probed_screen_bytes(index: &IvfIndex, z: &[f32], nprobe: usize) -> u64 {
    let (nlist, k) = (index.nlist(), z.len() / index.dim());
    let (mut scores, mut gemm) = (vec![0.0; k * nlist], vec![0.0; PackedB::SCRATCH_LEN]);
    let (mut order, mut probed, mut lists) = (vec![0; nlist], vec![0; nlist], vec![0; nlist]);
    let mut scratch = ProbeScratch {
        scores: &mut scores,
        gemm: &mut gemm,
        order: &mut order,
        probed: &mut probed,
        lists: &mut lists,
    };
    let count = index.probe_lists(z, k, nprobe, &mut scratch);
    let block_bytes = index.dim().div_ceil(4) * SCREEN_GROUP_BYTES + SCREEN_LANES * 4;
    let blocks = lists[..count]
        .iter()
        .map(|&c| index.list(c as usize).len().div_ceil(SCREEN_LANES));
    (blocks.sum::<usize>() * block_bytes) as u64
}

#[test]
fn nan_interest_takes_the_gather_route_and_counters_follow_the_route() {
    let _serial = serial();
    let (model, dataset) = model_with(16, 3, near_ties);
    let (nlist, nprobe) = (24, 3);
    let mut engine = InferenceModel::compile(&model);
    let (index, oracle) = index_pair(&engine, nlist);
    engine
        .attach_index_with(index, nprobe)
        .expect("index matches the engine");
    let (d, num_items) = (engine.dim(), dataset.num_items);
    let table = item_table(&model);
    let none = HashSet::new();
    let query = [CatalogQuery {
        n: 10,
        exclude: &none,
    }];
    let z = engine.encode_interests(&[&dataset.sequences[0]]);
    let mut nan = z.clone();
    nan[d + 3] = f32::NAN;

    let mut screened: Vec<RankedQuery> = Vec::new();
    let records = traced(|| screened = engine.rank_from_interests(&z, &query, num_items, None));
    let cands = candidates(&oracle, &z, nprobe, num_items, &none);
    assert!(
        screened[0].used_ann,
        "a 10-item query fills from 3 of 24 lists"
    );
    let survivors = counter(&records, "infer.screen_survivors");
    assert!(
        (10..=cands.len() as u64).contains(&survivors),
        "{survivors} survivors of {} candidates",
        cands.len()
    );
    assert_eq!(counter(&records, "infer.screen_fallbacks"), 0);
    assert_eq!(
        span_bytes(&records, "index.probe"),
        Some(4 * cands.len() as u64)
    );
    let read = probed_screen_bytes(&oracle, &z, nprobe);
    assert_eq!(
        span_bytes(&records, "index.rerank"),
        Some(read + survivors * (d * 4) as u64),
        "screen bytes of the probed blocks plus the survivor rows"
    );

    let mut gathered: Vec<RankedQuery> = Vec::new();
    let records = traced(|| gathered = engine.rank_from_interests(&nan, &query, num_items, None));
    let cands = candidates(&oracle, &nan, nprobe, num_items, &none);
    assert!(gathered[0].used_ann, "the NaN query still fills");
    let scores = exact_scores(&table, d, &nan);
    let cand_scores: Vec<f32> = cands.iter().map(|&c| scores[c as usize]).collect();
    assert_eq!(bits(&gathered[0].recs), top_n(&cands, &cand_scores, 10));
    assert_eq!(counter(&records, "infer.screen_fallbacks"), 1);
    assert_eq!(counter(&records, "infer.screen_survivors"), 0);
    let panel = PackedB::packed_len(d, cands.len()) * 4;
    assert_eq!(span_bytes(&records, "index.rerank"), Some(panel as u64));

    // A catalog without a screen gathers and counts a screen fallback.
    let (model, _) = model_with(16, 3, unscreenable(f32::NAN));
    let mut unscreened = InferenceModel::compile(&model);
    let (index, oracle) = index_pair(&unscreened, nlist);
    unscreened
        .attach_index_with(index, nprobe)
        .expect("index matches the engine");
    let mut gathered: Vec<RankedQuery> = Vec::new();
    let records = traced(|| gathered = unscreened.rank_from_interests(&z, &query, num_items, None));
    let cands = candidates(&oracle, &z, nprobe, num_items, &none);
    assert!(gathered[0].used_ann, "the unscreened catalog still fills");
    assert_eq!(counter(&records, "infer.screen_fallbacks"), 1);
    assert_eq!(counter(&records, "infer.screen_survivors"), 0);
    let panel = PackedB::packed_len(d, cands.len()) * 4;
    assert_eq!(span_bytes(&records, "index.rerank"), Some(panel as u64));
}

#[test]
fn detach_and_reattach_keep_replies_exact() {
    let _serial = serial();
    let (model, dataset) = model_with(16, 3, near_ties);
    let plain = InferenceModel::compile(&model);
    let mut engine = InferenceModel::compile(&model);
    let histories: Vec<&Sequence> = dataset.sequences.iter().take(5).collect();
    let num_items = dataset.num_items;
    let none = HashSet::new();
    let seen: HashSet<ItemId> = [0]
        .into_iter()
        .chain(histories[1].items.iter().copied())
        .collect();
    let queries = [
        CatalogQuery {
            n: 10,
            exclude: &none,
        },
        CatalogQuery {
            n: 40,
            exclude: &seen,
        },
        CatalogQuery {
            n: 1,
            exclude: &none,
        },
        CatalogQuery {
            n: num_items,
            exclude: &seen,
        },
        CatalogQuery {
            n: 10,
            exclude: &seen,
        },
    ];
    let exhaustive = |engine: &InferenceModel, ctx: &str| {
        for (qi, h) in histories.iter().enumerate() {
            let z = engine.encode_interests(&[h]);
            let q = [CatalogQuery {
                n: queries[qi].n,
                exclude: queries[qi].exclude,
            }];
            let got = engine.rank_from_interests(&z, &q, num_items, None);
            let want = plain.rank_from_interests(&z, &q, num_items, None);
            assert!(!got[0].used_ann, "{ctx}: no index is attached");
            assert_eq!(bits(&got[0].recs), bits(&want[0].recs), "{ctx} query={qi}");
        }
    };
    exhaustive(&engine, "before attaching");
    for (round, &(nlist, nprobe)) in [(24, 3), (40, 2), (24, 1)].iter().enumerate() {
        // The second round attaches over an attached index.
        if round != 1 {
            engine.detach_index();
            exhaustive(&engine, &format!("detached before round {round}"));
        }
        let (index, oracle) = index_pair(&engine, nlist);
        engine
            .attach_index_with(index, nprobe)
            .expect("index matches the engine");
        for r in [1, 5] {
            let ctx = format!("round {round} nlist={nlist} nprobe={nprobe} r={r}");
            let q = &queries[..r];
            check_batch(
                &engine, &plain, &oracle, &histories, q, nprobe, num_items, &ctx,
            );
        }
    }
    engine.detach_index();
    exhaustive(&engine, "detached at the end");
}

/// A naive Lloyd k-means with `IvfIndex::build`'s init and rules: plain
/// dot products from +0.0 in ascending dim that skip zero item entries,
/// minus `½‖c‖²` (the norm kernel the build uses), the first strict-`>` max
/// from `-inf` (centroid 0 if none exceeds it), at most 12 passes ending at
/// the first unchanged assignment, f64 member means, and empty clusters
/// keeping their centroid. Returns the centroids, the lists and the passes
/// run.
fn naive_lloyd(
    table: &[f32],
    n: usize,
    d: usize,
    nlist: usize,
    seed: u64,
) -> (Vec<f32>, Vec<Vec<ItemId>>, usize) {
    let items = &table[d..];
    let nlist = nlist.clamp(1, n);
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut taken = vec![false; n];
    let mut centroids = Vec::with_capacity(nlist * d);
    for _ in 0..nlist {
        let mut idx = (next() % n as u64) as usize;
        while taken[idx] {
            idx = (idx + 1) % n;
        }
        taken[idx] = true;
        centroids.extend_from_slice(&items[idx * d..][..d]);
    }
    let mut assign = vec![0usize; n];
    let mut passes = 0;
    for _ in 0..12 {
        passes += 1;
        let mut half = vec![0.0f32; nlist];
        kernels::row_sq_norms(&centroids, d, &mut half);
        let fresh: Vec<usize> = items
            .chunks_exact(d)
            .map(|e| {
                let mut best = (0, f32::NEG_INFINITY);
                for (c, row) in centroids.chunks_exact(d).enumerate() {
                    let mut dot = 0.0f32;
                    for (&x, &y) in e.iter().zip(row).filter(|(&x, _)| x != 0.0) {
                        dot += x * y;
                    }
                    let v = dot - half[c] * 0.5;
                    if v > best.1 {
                        best = (c, v);
                    }
                }
                best.0
            })
            .collect();
        let changed = fresh != assign;
        assign = fresh;
        if !changed {
            break;
        }
        let mut sums = vec![0.0f64; nlist * d];
        let mut counts = vec![0usize; nlist];
        for (e, &c) in items.chunks_exact(d).zip(&assign) {
            counts[c] += 1;
            for (s, &x) in sums[c * d..][..d].iter_mut().zip(e) {
                *s += x as f64;
            }
        }
        for c in (0..nlist).filter(|&c| counts[c] > 0) {
            for j in 0..d {
                centroids[c * d + j] = (sums[c * d + j] / counts[c] as f64) as f32;
            }
        }
    }
    let mut lists = vec![Vec::new(); nlist];
    for (i, &c) in assign.iter().enumerate() {
        lists[c].push((i + 1) as ItemId);
    }
    (centroids, lists, passes)
}

/// A `(n + 1) × d` table (row 0 padding) of uniform draws in `[-1, 1)`.
fn random_table(n: usize, d: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
    let mut table = vec![0.0f32; (n + 1) * d];
    for x in &mut table[d..] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        *x = (state >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
    }
    table
}

/// `IvfIndex::build` ≡ the naive Lloyd, centroids and lists bit for bit,
/// over score ties, zero rows, spread norms, widths 5, 13 and 32, `nlist`
/// ∈ {1, 2, 37, N/2}, rows big enough that the screen refuses their codes,
/// and a non-finite entry. CI runs it under `MBSSL_SIMD=off` and
/// `MBSSL_THREADS=1` too, so both assignment routes are covered. With the
/// screen kernels on, a finite table takes the screened route (fewer exact
/// scores than the GEMM's `passes × items × nlist`) and a non-finite one
/// the GEMM route.
#[test]
fn index_build_matches_naive_lloyd() {
    let _serial = serial();
    let n = 300;
    let mut cases: Vec<(String, usize, Vec<f32>)> = Vec::new();
    for d in [5, 13, 32] {
        let plain = random_table(n, d, d as u64);
        let mut ties = plain.clone();
        near_ties(&mut ties, d, n);
        let mut spread = plain.clone();
        spread_norms(&mut spread, d, n);
        let mut sixteen = plain.clone();
        sixteen_rows(&mut sixteen, d, n);
        let mut zero = plain.clone();
        zero[7 * d..8 * d].fill(0.0);
        cases.push((format!("d={d} random, one zero row"), d, zero));
        cases.push((format!("d={d} near ties"), d, ties));
        cases.push((format!("d={d} spread norms"), d, spread));
        cases.push((format!("d={d} sixteen rows"), d, sixteen));
    }
    let mut huge = random_table(n, 13, 99);
    for v in [3, 150, 299] {
        for x in &mut huge[v * 13..(v + 1) * 13] {
            *x *= 1e19;
        }
    }
    cases.push(("d=13 huge rows".into(), 13, huge));
    let mut non_finite = random_table(n, 13, 7);
    non_finite[40 * 13 + 2] = f32::INFINITY;
    non_finite[41 * 13] = f32::NAN;
    cases.push(("d=13 non-finite".into(), 13, non_finite));

    let screened = mbssl::tensor::simd::vnni_active();
    for (label, d, table) in &cases {
        for nlist in [1, 2, 37, n / 2] {
            let ctx = format!("{label} nlist={nlist}");
            let index = IvfIndex::build(table, n, *d, nlist, INDEX_SEED);
            let (centroids, lists, passes) = naive_lloyd(table, n, *d, nlist, INDEX_SEED);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(index.centroids()),
                bits(&centroids),
                "{ctx}: centroids"
            );
            let got: Vec<&[ItemId]> = (0..index.nlist()).map(|c| index.list(c)).collect();
            assert_eq!(
                got,
                lists.iter().map(Vec::as_slice).collect::<Vec<_>>(),
                "{ctx}: lists"
            );
            let stats = index.build_stats();
            assert_eq!(stats.iterations, passes, "{ctx}: passes");
            let full = (passes * n * nlist) as u64;
            let finite = table.iter().all(|x| x.is_finite());
            if !screened || !finite {
                assert_eq!(
                    (stats.assign_exact, stats.assign_fallbacks),
                    (full, 0),
                    "{ctx}: GEMM route"
                );
            } else if nlist >= 37 {
                assert!(
                    stats.assign_exact < full,
                    "{ctx}: {} exact scores, not screened",
                    stats.assign_exact
                );
            }
            if screened && label.contains("huge") && nlist >= 37 {
                assert!(
                    stats.assign_fallbacks > 0,
                    "{ctx}: huge rows must be scanned without the screen"
                );
            }
        }
    }
}
