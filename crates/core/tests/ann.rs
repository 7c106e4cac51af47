//! Gates for two-stage retrieval (DESIGN.md §14).
//!
//! The contract under test:
//! - a full probe (`nprobe == nlist`) reproduces the exhaustive ranking
//!   **bit-for-bit** — same scores, same item-id tie-breaking — because the
//!   re-ranker reuses the exhaustive per-item arithmetic;
//! - a partial probe returns exactly the exhaustive ranking restricted to
//!   its retrieved candidate set (scores bit-identical per item);
//! - at the default `nlist`/`nprobe`, recall@10 against the exhaustive
//!   top-10 stays ≥ 0.95 on a topic-clustered catalog (the pinned metric);
//! - corrupt, truncated, or version-mismatched index files fail to load
//!   with a clear [`AnnError`] instead of producing a broken index, and a
//!   geometry mismatch is rejected at attach time;
//! - when the probe retrieves fewer rankable candidates than requested,
//!   ranking falls back to the exhaustive path (never a short result);
//! - equal-score items order identically (ascending id) across reference
//!   chunk sizes, the engine's exhaustive path, and the ANN boundary
//!   (property-tested with duplicated embedding rows).

use std::collections::HashSet;

use mbssl_core::infer::CatalogQuery;
use mbssl_core::{
    ann, recommend_top_n_reference, AnnError, BehaviorSchema, EncoderKind, ExtractorKind,
    InferenceModel, IvfIndex, Mbmissl, ModelConfig, SequentialRecommender, TrainableRecommender,
};
use mbssl_data::container::FormatError;
use mbssl_data::synthetic::SyntheticConfig;
use mbssl_data::{Dataset, ItemId};
use proptest::prelude::*;

/// The tiny serving model of `infer_parity.rs`: ~400-item taobao-like
/// catalog, dim 16, two interests.
fn tiny_model(encoder: EncoderKind, extractor: ExtractorKind) -> (Mbmissl, Dataset) {
    let g = SyntheticConfig::taobao_like(31).scaled(0.05).generate();
    let schema = BehaviorSchema::new(g.dataset.behaviors.clone(), g.dataset.target_behavior);
    let config = ModelConfig {
        dim: 16,
        heads: 2,
        num_layers: 2,
        ffn_hidden: 32,
        num_interests: 2,
        extractor_hidden: 16,
        max_seq_len: 20,
        dropout: 0.1,
        encoder,
        extractor,
        ..ModelConfig::default()
    };
    (Mbmissl::new(g.dataset.num_items, schema, config), g.dataset)
}

/// splitmix64, for deterministic noise without an RNG dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit_noise(state: &mut u64) -> f32 {
    (splitmix(state) >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
}

/// Overwrites the model's item-embedding table with topic-clustered rows
/// (topic center + small noise), standing in for the structure training
/// produces. Row 0 (padding) stays zero.
fn clusterize_item_table(model: &Mbmissl, item_topic: &[usize], dim: usize, seed: u64) {
    let params = model.named_params();
    let table = params
        .get("mbmissl.input.item_emb.weight")
        .expect("item table param");
    let mut data = table.data_mut();
    let num_topics = item_topic.iter().filter(|&&t| t != usize::MAX).max().unwrap() + 1;
    let mut state = seed;
    let centers: Vec<f32> = (0..num_topics * dim).map(|_| unit_noise(&mut state)).collect();
    for (item, &topic) in item_topic.iter().enumerate().skip(1) {
        let row = &mut data[item * dim..][..dim];
        for (j, v) in row.iter_mut().enumerate() {
            *v = centers[topic * dim + j] + 0.05 * unit_noise(&mut state);
        }
    }
}

fn index_for(engine: &InferenceModel, nlist: usize, seed: u64) -> IvfIndex {
    engine.build_index_with(nlist, seed)
}

// --- bit parity across the ANN boundary ---------------------------------

#[test]
fn full_probe_matches_exhaustive_bit_for_bit() {
    for (encoder, extractor) in [
        (EncoderKind::Hypergraph, ExtractorKind::SelfAttentive),
        (EncoderKind::Transformer, ExtractorKind::DynamicRouting),
    ] {
        let (model, dataset) = tiny_model(encoder, extractor);
        let exhaustive = InferenceModel::compile(&model);
        let mut probed = InferenceModel::compile(&model);
        let index = index_for(&probed, 16, 7);
        let nlist = index.nlist();
        probed
            .attach_index_with(index, nlist) // full probe
            .expect("geometry matches");
        for user in [0usize, 3, 11] {
            let history = &dataset.sequences[user];
            let exclude: HashSet<ItemId> = history.items.iter().copied().collect();
            let a = exhaustive
                .recommend_catalog(history, dataset.num_items, 10, &exclude)
                .unwrap();
            let b = probed
                .recommend_catalog(history, dataset.num_items, 10, &exclude)
                .unwrap();
            assert_eq!(a, b, "full-probe drift for {encoder:?}/{extractor:?} user {user}");
        }
    }
}

#[test]
fn partial_probe_scores_are_bit_identical_per_item() {
    let (model, dataset) = tiny_model(EncoderKind::Transformer, ExtractorKind::SelfAttentive);
    let exhaustive = InferenceModel::compile(&model);
    let mut probed = InferenceModel::compile(&model);
    let index = index_for(&probed, 24, 5);
    probed.attach_index_with(index, 3).expect("geometry matches");
    let history = &dataset.sequences[1];
    let exclude = HashSet::new();
    // Exhaustive scores for every item, by id.
    let full = exhaustive
        .recommend_catalog(history, dataset.num_items, dataset.num_items, &exclude)
        .unwrap();
    let ann_recs = probed
        .recommend_catalog(history, dataset.num_items, 10, &exclude)
        .unwrap();
    assert_eq!(ann_recs.len(), 10);
    for rec in &ann_recs {
        let reference = full
            .iter()
            .find(|r| r.item == rec.item)
            .expect("every item has an exhaustive score");
        assert_eq!(
            reference.score.to_bits(),
            rec.score.to_bits(),
            "re-ranked score of item {} differs from exhaustive",
            rec.item
        );
    }
    // The ANN result is sorted by the same total order as the exhaustive
    // ranking (score desc, then item id asc).
    for w in ann_recs.windows(2) {
        assert!(
            w[0].score > w[1].score || (w[0].score == w[1].score && w[0].item < w[1].item),
            "ANN ordering violates the RankKey total order"
        );
    }
}

#[test]
fn score_candidates_matches_exhaustive_scores() {
    let (model, dataset) = tiny_model(EncoderKind::Hypergraph, ExtractorKind::DynamicRouting);
    let engine = InferenceModel::compile(&model);
    let history = &dataset.sequences[2];
    let full = engine
        .recommend_catalog(history, dataset.num_items, dataset.num_items, &HashSet::new())
        .unwrap();
    let candidates: Vec<ItemId> = (1..=dataset.num_items as ItemId).step_by(7).collect();
    let scores = engine.score_candidates(history, &candidates);
    assert_eq!(scores.len(), candidates.len());
    for (&id, &s) in candidates.iter().zip(scores.iter()) {
        let reference = full.iter().find(|r| r.item == id).unwrap();
        assert_eq!(reference.score.to_bits(), s.to_bits(), "item {id}");
    }
}

// --- recall gate at the default knobs -----------------------------------

#[test]
fn recall_at_10_meets_gate_at_default_knobs() {
    let g = SyntheticConfig::taobao_like(31).scaled(0.05).generate();
    let dataset = g.dataset;
    let schema = BehaviorSchema::new(dataset.behaviors.clone(), dataset.target_behavior);
    let config = ModelConfig {
        dim: 16,
        heads: 2,
        num_layers: 2,
        ffn_hidden: 32,
        num_interests: 2,
        extractor_hidden: 16,
        max_seq_len: 20,
        dropout: 0.1,
        encoder: EncoderKind::Transformer,
        extractor: ExtractorKind::SelfAttentive,
        ..ModelConfig::default()
    };
    let model = Mbmissl::new(dataset.num_items, schema, config);
    // A trained item table is topic-clustered; emulate that structure so
    // the gate measures the index, not an untrained random catalog.
    clusterize_item_table(&model, &g.truth.item_topic, 16, 0xC0FFEE);
    let exhaustive = InferenceModel::compile(&model);
    let mut probed = InferenceModel::compile(&model);
    let index = probed.build_index(9);
    let (nlist, nprobe) = (index.nlist(), ann::default_nprobe(index.nlist()));
    assert_eq!(nlist, ann::default_nlist(dataset.num_items));
    probed.attach_index(index).expect("geometry matches");

    let users = 40.min(dataset.sequences.len());
    let mut hits = 0usize;
    let mut total = 0usize;
    for user in 0..users {
        let history = &dataset.sequences[user];
        let exclude: HashSet<ItemId> = history.items.iter().copied().collect();
        let truth = exhaustive
            .recommend_catalog(history, dataset.num_items, 10, &exclude)
            .unwrap();
        let got = probed
            .recommend_catalog(history, dataset.num_items, 10, &exclude)
            .unwrap();
        let got_ids: HashSet<ItemId> = got.iter().map(|r| r.item).collect();
        hits += truth.iter().filter(|r| got_ids.contains(&r.item)).count();
        total += truth.len();
    }
    let recall = hits as f64 / total as f64;
    eprintln!("ann recall@10 = {recall:.4} (nlist={nlist}, nprobe={nprobe}, {users} users)");
    assert!(
        recall >= 0.95,
        "recall@10 {recall:.4} below the 0.95 gate at default nlist={nlist}/nprobe={nprobe}"
    );
}

/// Recall@10 sweep across `nprobe` at the default `nlist` — the source of
/// the EXPERIMENTS.md recall table. Not a gate (the default-knob gate
/// above is); run on demand with `--ignored --nocapture`.
#[test]
#[ignore = "prints the recall-vs-nprobe table; run with --ignored --nocapture"]
fn recall_vs_nprobe_sweep() {
    let g = SyntheticConfig::taobao_like(31).scaled(0.05).generate();
    let dataset = g.dataset;
    let schema = BehaviorSchema::new(dataset.behaviors.clone(), dataset.target_behavior);
    let config = ModelConfig {
        dim: 16,
        heads: 2,
        num_layers: 2,
        ffn_hidden: 32,
        num_interests: 2,
        extractor_hidden: 16,
        max_seq_len: 20,
        dropout: 0.1,
        encoder: EncoderKind::Transformer,
        extractor: ExtractorKind::SelfAttentive,
        ..ModelConfig::default()
    };
    let num_interests = config.num_interests;
    let model = Mbmissl::new(dataset.num_items, schema, config);
    clusterize_item_table(&model, &g.truth.item_topic, 16, 0xC0FFEE);
    let exhaustive = InferenceModel::compile(&model);
    let nlist = ann::default_nlist(dataset.num_items);
    let users = 40.min(dataset.sequences.len());
    let truths: Vec<Vec<ItemId>> = (0..users)
        .map(|user| {
            let history = &dataset.sequences[user];
            let exclude: HashSet<ItemId> = history.items.iter().copied().collect();
            exhaustive
                .recommend_catalog(history, dataset.num_items, 10, &exclude)
                .unwrap()
                .iter()
                .map(|r| r.item)
                .collect()
        })
        .collect();
    eprintln!("nlist={nlist}, {} items, {users} users", dataset.num_items);
    eprintln!("{:>6} {:>10} {:>14}", "nprobe", "recall@10", "max cand frac");
    for nprobe in [1usize, 2, 3, 4, 5, 8, 12, 20, nlist] {
        let mut probed = InferenceModel::compile(&model);
        let index = probed.build_index(9);
        // Upper bound on the probed fraction of the catalog: K interests ×
        // nprobe lists × the mean list size (dedup only shrinks it).
        let frac = (num_interests as f64 * nprobe as f64 * index.stats().mean_len
            / dataset.num_items as f64)
            .min(1.0);
        probed.attach_index_with(index, nprobe).expect("geometry matches");
        let (mut hits, mut total) = (0usize, 0usize);
        for (user, truth) in truths.iter().enumerate() {
            let history = &dataset.sequences[user];
            let exclude: HashSet<ItemId> = history.items.iter().copied().collect();
            let got = probed
                .recommend_catalog(history, dataset.num_items, 10, &exclude)
                .unwrap();
            let got_ids: HashSet<ItemId> = got.iter().map(|r| r.item).collect();
            hits += truth.iter().filter(|id| got_ids.contains(id)).count();
            total += truth.len();
        }
        eprintln!(
            "{:>6} {:>10.4} {:>14.3}",
            nprobe,
            hits as f64 / total as f64,
            frac
        );
    }
}

// --- serialization failure modes ----------------------------------------

fn saved_index_bytes() -> (Vec<u8>, usize, usize) {
    static SAVED: std::sync::OnceLock<(Vec<u8>, usize)> = std::sync::OnceLock::new();
    let (buf, num_items) = SAVED.get_or_init(|| {
        let (model, dataset) = tiny_model(EncoderKind::Transformer, ExtractorKind::SelfAttentive);
        let engine = InferenceModel::compile(&model);
        let index = engine.build_index_with(8, 3);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        (buf, dataset.num_items)
    });
    (buf.clone(), *num_items, 16)
}

#[test]
fn corrupt_magic_is_rejected() {
    let (mut buf, _, _) = saved_index_bytes();
    buf[0] = b'X';
    match IvfIndex::load(&mut buf.as_slice()) {
        Err(AnnError::Format(FormatError::BadMagic)) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
}

#[test]
fn version_mismatch_is_rejected_with_the_version() {
    let (mut buf, _, _) = saved_index_bytes();
    buf[8..12].copy_from_slice(&99u32.to_le_bytes());
    match IvfIndex::load(&mut buf.as_slice()) {
        Err(AnnError::Format(FormatError::BadVersion(99))) => {}
        other => panic!("expected BadVersion(99), got {other:?}"),
    }
}

#[test]
fn version_1_index_is_rejected_by_version() {
    // A version-1 file: magic, version 1, then its fixed geometry header.
    let mut v1 = b"MBSSLIVF\x01\0\0\0".to_vec();
    for field in [16u64, 400, 8, 3] {
        v1.extend_from_slice(&field.to_le_bytes());
    }
    match IvfIndex::load(&mut v1.as_slice()) {
        Err(AnnError::Format(FormatError::BadVersion(1))) => {}
        other => panic!("expected BadVersion(1), got {other:?}"),
    }
}

#[test]
fn truncated_file_is_rejected() {
    let (buf, _, _) = saved_index_bytes();
    // Every truncation point must fail — header, centroids, or lists.
    for cut in 0..buf.len() {
        match IvfIndex::load(&mut &buf[..cut]) {
            Err(AnnError::Format(FormatError::Truncated { needed, actual })) => {
                assert!(needed > actual && actual == cut as u64, "truncation at {cut}")
            }
            other => panic!("truncation at {cut} bytes not rejected: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Any single-byte change is a typed error or an index that still puts
    // every item in exactly one list; never a panic.
    #[test]
    fn single_byte_corruption_is_typed(at_frac in 0.0f64..1.0, val in 0u8..=255) {
        let (mut buf, _, _) = saved_index_bytes();
        let at = ((buf.len() - 1) as f64 * at_frac) as usize;
        let val = if buf[at] == val { val.wrapping_add(1) } else { val };
        buf[at] = val;
        if let Ok(index) = IvfIndex::load(&mut buf.as_slice()) {
            let lists = (0..index.nlist()).flat_map(|c| index.list(c).to_vec());
            let mut ids: Vec<ItemId> = lists.collect();
            ids.sort_unstable();
            prop_assert!(ids.iter().copied().eq(1..=index.num_items() as ItemId));
            prop_assert_eq!(index.centroids().len(), index.nlist() * index.dim());
        }
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let (mut buf, _, _) = saved_index_bytes();
    buf.push(0);
    match IvfIndex::load(&mut buf.as_slice()) {
        Err(AnnError::Format(FormatError::Corrupt(msg))) => {
            assert!(msg.contains("trailing"), "msg: {msg}")
        }
        other => panic!("expected Corrupt(trailing), got {other:?}"),
    }
}

#[test]
fn out_of_range_item_id_is_rejected() {
    let (buf, num_items, _) = saved_index_bytes();
    let loaded = IvfIndex::load(&mut buf.as_slice()).unwrap();
    // Re-serialize with one id pushed out of range by patching the last
    // 4 bytes (the final id of the final list).
    let mut buf = Vec::new();
    loaded.save(&mut buf).unwrap();
    let n = buf.len();
    buf[n - 4..].copy_from_slice(&((num_items as u32) + 100).to_le_bytes());
    match IvfIndex::load(&mut buf.as_slice()) {
        Err(AnnError::Format(FormatError::Corrupt(msg))) => {
            assert!(msg.contains("out-of-range"), "msg: {msg}")
        }
        other => panic!("expected Corrupt(out-of-range), got {other:?}"),
    }
}

/// Whether `engine` ranks user 0's 10-item query through an index probe.
fn ranks_by_probe(engine: &InferenceModel, dataset: &Dataset) -> bool {
    let z = engine.encode_interests(&[&dataset.sequences[0]]);
    let none = HashSet::new();
    let query = [CatalogQuery { n: 10, exclude: &none }];
    engine.rank_from_interests(&z, &query, dataset.num_items, None)[0].used_ann
}

#[test]
fn geometry_mismatch_is_rejected_at_attach() {
    let (model, dataset) = tiny_model(EncoderKind::Transformer, ExtractorKind::SelfAttentive);
    let mut engine = InferenceModel::compile(&model);
    // An index over a different (smaller) catalog with a different dim.
    let foreign_table = vec![0.25f32; (50 + 1) * 8];
    let foreign = IvfIndex::build(&foreign_table, 50, 8, 4, 1);
    match engine.attach_index(foreign) {
        Err(AnnError::Mismatch { .. }) => {}
        other => panic!("expected Mismatch, got {other:?}"),
    }
    assert!(!ranks_by_probe(&engine, &dataset), "failed attach must not leave an index");
    let index = engine.build_index(1);
    engine.attach_index(index).unwrap();
    assert!(ranks_by_probe(&engine, &dataset), "an attached index must be probed");
}

#[test]
fn load_failure_degrades_to_exhaustive() {
    // The warn-and-degrade contract as a library-level flow: a load error
    // leaves the engine index-free, and ranking still works exhaustively.
    let (model, dataset) = tiny_model(EncoderKind::Transformer, ExtractorKind::SelfAttentive);
    let mut engine = InferenceModel::compile(&model);
    let (mut buf, _, _) = saved_index_bytes();
    buf[0] = b'X';
    if let Ok(index) = IvfIndex::load(&mut buf.as_slice()) {
        engine.attach_index(index).ok();
    }
    assert!(!ranks_by_probe(&engine, &dataset));
    let history = &dataset.sequences[0];
    let recs = engine
        .recommend_catalog(history, dataset.num_items, 10, &HashSet::new())
        .unwrap();
    assert_eq!(recs.len(), 10);
}

// --- fallback when the probe retrieves too few candidates ----------------

#[test]
fn short_probe_falls_back_to_exhaustive() {
    let (model, dataset) = tiny_model(EncoderKind::Transformer, ExtractorKind::SelfAttentive);
    let exhaustive = InferenceModel::compile(&model);
    let mut probed = InferenceModel::compile(&model);
    let index = index_for(&probed, 16, 7);
    probed.attach_index_with(index, 1).expect("geometry matches");
    let history = &dataset.sequences[4];
    let exclude = HashSet::new();
    // Asking for the full catalog: a 1-list probe cannot cover it, so the
    // engine must fall back and return the complete exhaustive ranking.
    let want = dataset.num_items;
    let a = exhaustive
        .recommend_catalog(history, dataset.num_items, want, &exclude)
        .unwrap();
    let b = probed
        .recommend_catalog(history, dataset.num_items, want, &exclude)
        .unwrap();
    assert_eq!(a.len(), dataset.num_items);
    assert_eq!(a, b, "fallback did not reproduce the exhaustive ranking");
}

// --- deterministic tie-breaking across the boundary ----------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Duplicated embedding rows force exact score ties; the ordering must
    /// be identical (ties broken by ascending item id) across reference
    /// chunk sizes, the engine's exhaustive one-GEMM path, and a full-probe
    /// ANN run — and any partial probe must keep equal-score runs sorted
    /// by id too.
    #[test]
    fn tie_breaking_is_identical_across_paths(
        seed in 0u64..50,
        chunk in prop::sample::select(vec![1usize, 7, 64, 512]),
        user in 0usize..8,
    ) {
        let (model, dataset) = tiny_model(EncoderKind::Transformer, ExtractorKind::SelfAttentive);
        // Collapse the catalog onto 16 distinct embedding rows: every item
        // shares its row with ~25 others, so ties are everywhere.
        {
            let params = model.named_params();
            let table = params.get("mbmissl.input.item_emb.weight").unwrap();
            let mut data = table.data_mut();
            let dim = 16usize;
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xA5A5;
            let distinct: Vec<f32> = (0..16 * dim).map(|_| unit_noise(&mut state)).collect();
            for item in 1..=dataset.num_items {
                let class = (splitmix(&mut state) % 16) as usize;
                data[item * dim..][..dim].copy_from_slice(&distinct[class * dim..][..dim]);
            }
        }
        let engine = InferenceModel::compile(&model);
        let history = &dataset.sequences[user];
        let exclude: HashSet<ItemId> = history.items.iter().copied().collect();
        let n = 25;
        let reference =
            recommend_top_n_reference(&model, history, dataset.num_items, n, &exclude, chunk);
        let via_engine = engine
            .recommend_catalog(history, dataset.num_items, n, &exclude)
            .unwrap();
        prop_assert_eq!(&reference, &via_engine, "exhaustive engine vs chunked reference");

        let mut full_probe = InferenceModel::compile(&model);
        let index = full_probe.build_index_with(8, seed);
        let nlist = index.nlist();
        full_probe.attach_index_with(index, nlist).unwrap();
        let via_full_probe = full_probe
            .recommend_catalog(history, dataset.num_items, n, &exclude)
            .unwrap();
        prop_assert_eq!(&reference, &via_full_probe, "full-probe ANN vs chunked reference");

        let mut partial = InferenceModel::compile(&model);
        let index = partial.build_index_with(8, seed);
        partial.attach_index_with(index, 2).unwrap();
        let via_partial = partial
            .recommend_catalog(history, dataset.num_items, n, &exclude)
            .unwrap();
        for w in via_partial.windows(2) {
            prop_assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].item < w[1].item),
                "partial probe broke the score-desc/id-asc total order"
            );
        }
    }
}
