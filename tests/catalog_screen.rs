//! Exact i8 screen parity (DESIGN.md §13).
//!
//! Exhaustive ranking runs through an i8 screen: integer dots give every
//! item an upper bound on its exact f32 score, an item is skipped only if
//! its bound lies strictly below the heap's n-th best exact score, and the
//! survivors are scored in f32. These tests pin that the replies stay bit
//! for bit those of the naive chunked oracle (`recommend_top_n_reference`)
//! and of one-query calls on catalogs built to defeat the bound: one-ulp
//! neighbours, triplicated rows, row norms from 1e-6 to 1e3, zero rows and
//! an embedding width that is not a multiple of 4. They pin the fallbacks
//! (non-finite interests, a non-finite catalog), check that the bound
//! holds over extreme magnitudes, and check the VNNI kernels against their
//! portable twins.

mod common;

use std::collections::HashSet;

use common::{bits, exact_scores, item_table, model_with, near_ties, rankable, spread_norms};
use mbssl::core::infer::{Arena, CatalogQuery};
use mbssl::core::screen::CatalogScreen;
use mbssl::core::{recommend_top_n_reference, InferenceModel, Mbmissl, SequentialRecommender};
use mbssl::data::{Dataset, ItemId, Sequence};
use mbssl::tensor::simd::{self, SCREEN_GROUP_BYTES, SCREEN_LANES};
use proptest::prelude::*;

/// A small xorshift stream for the tests' own draws.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// The naive oracle for hand-made interests: score every item exactly,
/// drop exclusions, sort by score descending (`total_cmp`) then id.
fn oracle(
    table: &[f32],
    d: usize,
    z: &[f32],
    num_items: usize,
    n: usize,
    exclude: &HashSet<ItemId>,
) -> Vec<(ItemId, u32)> {
    let scores = exact_scores(table, d, z);
    let mut keyed: Vec<(ItemId, f32)> = (1..=num_items as ItemId)
        .filter(|id| !exclude.contains(id))
        .map(|id| (id, scores[id as usize]))
        .collect();
    keyed.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    keyed
        .into_iter()
        .take(n)
        .map(|(id, s)| (id, s.to_bits()))
        .collect()
}

/// The engine ≡ the chunked reference ≡ one-query calls ≡
/// `recommend_catalog`, bit for bit, over n from 1 past the rankable
/// count, excludes holding 0 and the would-be top-1, a catalog argument
/// below the compiled table, and batches of 1, 2, 3 and 5 queries.
fn assert_matches_reference(model: &Mbmissl, dataset: &Dataset, label: &str) {
    let engine = InferenceModel::compile(model);
    let (k, d) = (engine.num_interests(), engine.dim());
    let histories: Vec<&Sequence> = dataset.sequences.iter().take(5).collect();
    let z_all: Vec<f32> = histories
        .iter()
        .flat_map(|h| engine.encode_interests(&[h]))
        .collect();
    let full = dataset.num_items;
    for num_items in [full, full * 2 / 3 - 3] {
        let excludes: Vec<HashSet<ItemId>> = histories
            .iter()
            .enumerate()
            .map(|(qi, h)| match qi % 3 {
                0 => HashSet::new(),
                1 => std::iter::once(0).chain(h.items.iter().copied()).collect(),
                _ => {
                    let none = HashSet::new();
                    let top1 = recommend_top_n_reference(model, h, num_items, 1, &none, 64)[0].item;
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
            let batched =
                engine.rank_from_interests(&z_all[..r * k * d], &queries, num_items, None);
            for (qi, (q, got)) in queries.iter().zip(&batched).enumerate() {
                let ctx = format!(
                    "{label} K={k} num_items={num_items} r={r} query={qi} n={}",
                    q.n
                );
                let reference =
                    recommend_top_n_reference(model, histories[qi], num_items, q.n, q.exclude, 64);
                assert_eq!(
                    bits(&got.recs),
                    bits(&reference),
                    "{ctx}: batched vs reference"
                );
                let solo = engine.rank_from_interests(
                    &z_all[qi * k * d..][..k * d],
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

#[test]
fn screened_ranking_matches_reference_on_near_ties() {
    for k in [1, 3, 4] {
        let (model, dataset) = model_with(16, k, near_ties);
        assert!(CatalogScreen::build(&item_table(&model), 16).is_some());
        assert_matches_reference(&model, &dataset, "near ties");
    }
}

#[test]
fn screened_ranking_matches_reference_on_spread_norms_and_odd_width() {
    // 18 is not a multiple of 4: the last code group is half padding.
    for k in [1, 3, 4] {
        let (model, dataset) = model_with(18, k, spread_norms);
        assert!(CatalogScreen::build(&item_table(&model), 18).is_some());
        assert_matches_reference(&model, &dataset, "spread norms");
    }
}

#[test]
fn hand_made_interests_match_the_exact_oracle() {
    let k = 3;
    let (model, dataset) = model_with(16, k, near_ties);
    let engine = InferenceModel::compile(&model);
    let (d, num_items) = (engine.dim(), dataset.num_items);
    let table = item_table(&model);
    let encoded = engine.encode_interests(&[&dataset.sequences[0]]);
    let subnormal = |i: usize| f32::from_bits(1 + i as u32 * 977);
    let mut cases: Vec<(&str, Vec<f32>)> = Vec::new();
    // Zeros of both signs and subnormals among ordinary entries, and one
    // all-zero interest.
    let mut mixed = encoded.clone();
    for (i, x) in mixed.iter_mut().enumerate() {
        match i % 5 {
            0 => *x = 0.0,
            1 => *x = -0.0,
            2 => {
                *x = if i % 2 == 0 {
                    subnormal(i)
                } else {
                    -subnormal(i)
                }
            }
            _ => {}
        }
    }
    mixed[2 * d..].fill(0.0);
    cases.push(("zeros and subnormals", mixed));
    cases.push((
        "all subnormal",
        (0..k * d)
            .map(|i| {
                if i % 3 == 0 {
                    -subnormal(i)
                } else {
                    subnormal(i)
                }
            })
            .collect(),
    ));
    cases.push(("all zero", vec![0.0; k * d]));
    let mut nan = encoded.clone();
    nan[d + 3] = f32::NAN;
    cases.push(("NaN interest", nan));
    let mut inf = encoded.clone();
    inf[5] = f32::INFINITY;
    cases.push(("inf interest", inf));
    cases.push(("huge", encoded.iter().map(|x| x * 1e30).collect()));

    let top1 = oracle(&table, d, &encoded, num_items, 1, &HashSet::new())[0].0;
    let excludes: [HashSet<ItemId>; 3] = [HashSet::new(), [0].into(), [0, top1].into()];
    for exclude in &excludes {
        let all = rankable(exclude, num_items);
        for n in [1, 10, all, all + 7] {
            let queries: Vec<CatalogQuery<'_>> =
                cases.iter().map(|_| CatalogQuery { n, exclude }).collect();
            let z_all: Vec<f32> = cases.iter().flat_map(|(_, z)| z.iter().copied()).collect();
            let batched = engine.rank_from_interests(&z_all, &queries, num_items, None);
            for ((label, z), got) in cases.iter().zip(&batched) {
                let want = oracle(&table, d, z, num_items, n, exclude);
                assert_eq!(
                    bits(&got.recs),
                    want,
                    "{label} n={n} exclude={exclude:?}: batched"
                );
                let solo =
                    engine.rank_from_interests(z, &[CatalogQuery { n, exclude }], num_items, None);
                assert_eq!(
                    bits(&solo[0].recs),
                    want,
                    "{label} n={n} exclude={exclude:?}: solo"
                );
            }
        }
    }
}

#[test]
fn non_finite_catalog_builds_no_screen_and_ranks_exactly() {
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let (model, dataset) = model_with(16, 3, |table, dim, _| table[7 * dim + 2] = bad);
        let table = item_table(&model);
        assert!(
            CatalogScreen::build(&table, 16).is_none(),
            "{bad}: a screen was built"
        );
        let engine = InferenceModel::compile(&model);
        let z = engine.encode_interests(&[&dataset.sequences[1]]);
        let none = HashSet::new();
        for n in [1, 10, dataset.num_items] {
            let got = engine.rank_from_interests(
                &z,
                &[CatalogQuery { n, exclude: &none }],
                dataset.num_items,
                None,
            );
            assert_eq!(
                bits(&got[0].recs),
                oracle(&table, 16, &z, dataset.num_items, n, &none),
                "{bad} n={n}"
            );
        }
    }
}

#[test]
fn screen_counts_survivors_and_fallbacks() {
    use mbssl::telemetry::{self, RecordKind, TraceMode};
    let (model, dataset) = model_with(16, 3, near_ties);
    let engine = InferenceModel::compile(&model);
    let mut z = engine.encode_interests(&[&dataset.sequences[0]]);
    let none = HashSet::new();
    let query = [CatalogQuery {
        n: 10,
        exclude: &none,
    }];
    let prev = telemetry::mode();
    telemetry::set_mode(TraceMode::Summary);
    telemetry::drain();
    engine.rank_from_interests(&z, &query, dataset.num_items, None);
    z[0] = f32::NAN;
    engine.rank_from_interests(&z, &query, dataset.num_items, None);
    let records = telemetry::drain();
    telemetry::set_mode(prev);
    let counter = |label: &str| {
        records
            .iter()
            .filter(|r| r.kind == RecordKind::Counter && r.label == label)
            .map(|r| r.value)
            .sum::<u64>()
    };
    // Tests on other threads may add to the counters while tracing is on,
    // so only lower bounds are checked here.
    let survivors = counter("infer.screen_survivors");
    assert!(survivors >= 10, "{survivors} survivors for a top-10");
    assert!(
        counter("infer.screen_fallbacks") >= 1,
        "the NaN query did not fall back"
    );
}

#[test]
fn screen_leaves_few_items_to_exact_scoring() {
    let (model, dataset) = model_with(16, 3, near_ties);
    let engine = InferenceModel::compile(&model);
    let table = item_table(&model);
    let screen = CatalogScreen::build(&table, 16).expect("a finite catalog");
    for history in dataset.sequences.iter().take(5) {
        let z = engine.encode_interests(&[history]);
        let scores = exact_scores(&table, 16, &z);
        let mut sorted = scores[1..].to_vec();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let tenth = sorted[9];
        let ub = upper_bounds(&screen, &z, 16, scores.len()).expect("a finite query");
        let reach = ub[1..].iter().filter(|&&u| u >= tenth).count();
        assert!(
            reach * 4 < dataset.num_items,
            "{reach} of {} items can reach the top-10",
            dataset.num_items
        );
    }
}

#[test]
fn screen_kernels_match_portable_twins() {
    let mut rng = Stream(0x5c2e_0e11);
    for (k, groups, nb) in [
        (1, 1, 1),
        (2, 3, 2),
        (3, 8, 5),
        (4, 8, 3),
        (5, 9, 2),
        (4, 260, 1),
    ] {
        let words: Vec<i32> = (0..k * groups).map(|_| rng.next() as i32).collect();
        let blocks: Vec<u8> = (0..nb * groups * SCREEN_GROUP_BYTES)
            .map(|_| rng.next() as u8)
            .collect();
        let mut want = vec![0i32; nb * k * SCREEN_LANES];
        simd::screen_dots_scalar(&words, &blocks, k, &mut want);
        // A hand-rolled u8 × i8 dot for one lane pins the layout.
        let (b, kk, j) = (nb - 1, k - 1, SCREEN_LANES - 1);
        let lane: i32 = (0..groups * 4)
            .map(|i| {
                let item = blocks[(b * groups + i / 4) * SCREEN_GROUP_BYTES + 4 * j + i % 4];
                let code = words[kk * groups + i / 4].to_le_bytes()[i % 4] as i8;
                item as i32 * code as i32
            })
            .sum();
        assert_eq!(
            want[(b * k + kk) * SCREEN_LANES + j],
            lane,
            "k={k} groups={groups}"
        );

        let mut got = vec![-1i32; want.len()];
        simd::screen_dots(&words, &blocks, k, &mut got);
        assert_eq!(got, want, "dispatch k={k} groups={groups} nb={nb}");

        let offset: Vec<i32> = (0..k)
            .map(|_| (rng.next() % 1_000_000) as i32 - 500_000)
            .collect();
        let t: Vec<f32> = (0..k).map(|_| rng.unit() * 1e-3).collect();
        let slack: Vec<f32> = (0..k).map(|_| rng.unit().abs() * 1e-2).collect();
        let scale: Vec<f32> = (0..nb * SCREEN_LANES)
            .map(|_| rng.unit().abs() * 1e-2)
            .collect();
        let mut ub_want = vec![0.0f32; nb * SCREEN_LANES];
        simd::screen_bounds_scalar(&want, &offset, &t, &slack, &scale, &mut ub_want);
        let mut ub_got = vec![f32::NAN; ub_want.len()];
        simd::screen_bounds(&want, &offset, &t, &slack, &scale, &mut ub_got);
        let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(to_bits(&ub_got), to_bits(&ub_want), "bounds k={k} nb={nb}");

        #[cfg(target_arch = "x86_64")]
        if simd::vnni_available() {
            let mut vnni = vec![-1i32; want.len()];
            unsafe { simd::screen_dots_vnni(&words, &blocks, k, &mut vnni) };
            assert_eq!(vnni, want, "VNNI k={k} groups={groups} nb={nb}");
            let mut ub_vnni = vec![f32::NAN; ub_want.len()];
            unsafe { simd::screen_bounds_avx512(&want, &offset, &t, &slack, &scale, &mut ub_vnni) };
            assert_eq!(
                to_bits(&ub_vnni),
                to_bits(&ub_want),
                "AVX-512 bounds k={k} nb={nb}"
            );
        }
    }
}

/// A catalog and interests for the bound proptest at scales `2^cat_exp`
/// and `2^z_exp`. Mixed cases draw ordinary rows, rows `s·q` that
/// quantize exactly, zero rows and one-ulp twins, and ordinary interests
/// salted with zeros of both signs and subnormals. Tight cases make the
/// bound nearly exact: every row is `s·q` for one shared `s`, and every
/// interest is `t·p` with the signs of the rows, so every product is
/// positive, either exactly quantizable (only the f32 rounding terms
/// separate the bound from the exact dot) or off by 0.45 codes per entry
/// in the direction of the product (the interest term is all of it).
fn bound_case(
    seed: u64,
    d: usize,
    k: usize,
    tight: bool,
    cat_exp: i32,
    z_exp: i32,
) -> (Vec<f32>, Vec<f32>) {
    let mut rng = Stream(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let sign: Vec<f32> = (0..d)
        .map(|_| if rng.next() & 1 == 0 { 1.0 } else { -1.0 })
        .collect();
    let codes = |rng: &mut Stream| -> Vec<f32> {
        let top = rng.below(d);
        (0..d)
            .map(|i| {
                sign[i]
                    * if i == top {
                        127.0
                    } else {
                        (100 + rng.below(27)) as f32
                    }
            })
            .collect()
    };
    let few_bits =
        |rng: &mut Stream, exp: i32| (1.0 + rng.below(1024) as f32 / 1024.0) * 2f32.powi(exp);
    let shared = few_bits(&mut rng, cat_exp);
    let rows = 1 + rng.below(48);
    let mut table = Vec::with_capacity(rows * d);
    for r in 0..rows {
        let kind = if tight { 1 } else { rng.below(4) };
        match kind {
            1 => {
                let s = if tight {
                    shared
                } else {
                    few_bits(&mut rng, cat_exp)
                };
                table.extend(codes(&mut rng).into_iter().map(|q| s * q));
            }
            2 => table.extend(std::iter::repeat_n(0.0, d)),
            3 if r > 0 => {
                let prev = table[(r - 1) * d..r * d].to_vec();
                table.extend(prev);
                let c = &mut table[r * d + rng.below(d)];
                *c = c.next_up();
            }
            _ => table.extend((0..d).map(|_| rng.unit() * 2f32.powi(cat_exp))),
        }
    }
    let mut z = Vec::with_capacity(k * d);
    for _ in 0..k {
        let t = few_bits(&mut rng, z_exp);
        let kind = if tight {
            1 + rng.below(2)
        } else {
            rng.below(3)
        };
        match kind {
            0 => z.extend((0..d).map(|_| match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(1 + rng.below(1 << 20) as u32),
                _ => rng.unit() * 2f32.powi(z_exp),
            })),
            1 => z.extend(codes(&mut rng).into_iter().map(|p| t * p)),
            _ => z.extend(codes(&mut rng).into_iter().map(|p| {
                let err = if p.abs() == 127.0 {
                    0.0
                } else {
                    0.45 * p.signum()
                };
                t * (p + err)
            })),
        }
    }
    (table, z)
}

/// `max_k UB_k` of every row for one query's interests `z`, by the
/// screen's own `prepare` and `scan`, or `None` where the query would not
/// be screened.
fn upper_bounds(screen: &CatalogScreen, z: &[f32], d: usize, rows: usize) -> Option<Vec<f32>> {
    let arena = Arena::with_capacity(0);
    let query = screen.prepare(z, &arena)?;
    let mut acc = vec![0i32; CatalogScreen::acc_len(z.len() / d)];
    let mut ub = vec![0.0f32; CatalogScreen::BOUNDS_LEN];
    let mut out = vec![0.0f32; rows];
    let blocks = 0..rows.div_ceil(SCREEN_LANES);
    screen.scan(&query, blocks, &mut acc, &mut ub, |row0, ub| {
        for (o, &u) in out[row0..].iter_mut().zip(ub) {
            *o = u;
        }
    });
    Some(out)
}

/// Checks one [`bound_case`]: every row's exact f32 score is at most its
/// bound, for the whole query and for every interest alone, and moderate
/// magnitudes are always screened.
fn check_bound_case(seed: u64, d: usize, k: usize, tight: bool, cat_exp: i32, z_exp: i32) {
    let ctx = format!("d={d} k={k} tight={tight} seed={seed} 2^{cat_exp} 2^{z_exp}");
    let (table, z) = bound_case(seed, d, k, tight, cat_exp, z_exp);
    let Some(screen) = CatalogScreen::build(&table, d) else {
        assert!(cat_exp >= 99, "{ctx}: no screen");
        return;
    };
    let moderate =
        (-60..=60).contains(&cat_exp) && (-60..=60).contains(&z_exp) && cat_exp + z_exp <= 40;
    let queries = std::iter::once(&z[..]).chain(z.chunks_exact(d));
    for (qi, zq) in queries.enumerate() {
        let Some(ub) = upper_bounds(&screen, zq, d, table.len() / d) else {
            assert!(!moderate, "{ctx}: query {qi} not screened");
            continue;
        };
        for (v, (&u, &exact)) in ub.iter().zip(&exact_scores(&table, d, zq)).enumerate() {
            assert!(
                exact <= u,
                "{ctx}: row {v} query {qi}: exact {exact:e} > bound {u:e}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// The exact f32 score of every row never exceeds `max_k UB_k`, over
    /// magnitudes from subnormal to past the guards.
    #[test]
    fn exact_score_never_exceeds_the_bound(
        seed in 0u64..1_000_000,
        d in 1usize..41,
        k in prop::sample::select(vec![1usize, 3, 4]),
        tight in prop::sample::select(vec![false, true]),
        cat_exp in prop::sample::select(vec![-140i32, -100, -60, -20, 0, 20, 60, 99]),
        z_exp in prop::sample::select(vec![-140i32, -60, -20, 0, 20, 60, 110]),
    ) {
        check_bound_case(seed, d, k, tight, cat_exp, z_exp);
    }
}
