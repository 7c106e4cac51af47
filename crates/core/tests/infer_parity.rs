//! Parity gates for the graph-free inference engine (DESIGN.md §13).
//!
//! The contract under test:
//! - the compiled f32 engine scores **bit-for-bit identically** to the
//!   autograd model's `score_batch`, across both backbones, both interest
//!   extractors, and varied batch shapes;
//! - `evaluate` / `recommend_top_n` (which route through the engine by
//!   default) return exactly what the `_reference` paths return;
//! - a history scores the same in any batch: beside histories of other
//!   lengths, its engine interests and autograd scores equal its solo
//!   call bit for bit, and `evaluate`'s ranks do not depend on the batch
//!   size;
//! - [`Mbmissl::prepare_inference`] compiles every encoder × extractor
//!   combination.

use std::collections::HashSet;

use mbssl_core::{
    evaluate, evaluate_reference, recommend_top_n, recommend_top_n_reference, BehaviorSchema,
    EncoderKind, ExtractorKind, InferenceModel, Mbmissl, ModelConfig, SequentialRecommender,
};
use mbssl_data::preprocess::{leave_one_out, EvalInstance, SplitConfig};
use mbssl_data::sampler::EvalCandidates;
use mbssl_data::synthetic::SyntheticConfig;
use mbssl_data::{Dataset, ItemId, Sequence};

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

const VARIANTS: [(EncoderKind, ExtractorKind); 4] = [
    (EncoderKind::Hypergraph, ExtractorKind::SelfAttentive),
    (EncoderKind::Hypergraph, ExtractorKind::DynamicRouting),
    (EncoderKind::Transformer, ExtractorKind::SelfAttentive),
    (EncoderKind::Transformer, ExtractorKind::DynamicRouting),
];

#[test]
fn engine_scores_bit_identical_to_autograd_model() {
    for (encoder, extractor) in VARIANTS {
        let (model, dataset) = tiny_model(encoder, extractor);
        let engine = InferenceModel::compile(&model);
        // Varied batch sizes (incl. 1) and candidate-list lengths; long
        // histories exercise the max_seq_len truncation.
        // The last batch mixes a one-event history with the longest one:
        // the hypergraph's padded edge slots give fully masked query rows.
        let one_event = dataset.sequences[0].truncate_to_recent(1);
        let longest = dataset.sequences.iter().max_by_key(|s| s.len()).unwrap();
        assert!(longest.len() >= 20, "no history fills max_seq_len");
        let mixed = [&one_event, longest];
        for (batch, c) in [(1usize, 1usize), (1, 10), (3, 7), (8, 25), (2, 5)] {
            let histories: Vec<_> = if batch == 2 {
                mixed.to_vec()
            } else {
                dataset.sequences.iter().take(batch).collect()
            };
            let cands: Vec<Vec<ItemId>> = (0..batch)
                .map(|b| {
                    (1..=c as ItemId)
                        .map(|i| (i + b as ItemId) % 40 + 1)
                        .collect()
                })
                .collect();
            let cand_refs: Vec<&[ItemId]> = cands.iter().map(|l| l.as_slice()).collect();
            let reference = model.score_batch(&histories, &cand_refs);
            let got = engine.score_batch(&histories, &cand_refs);
            assert_eq!(
                reference, got,
                "score drift for {encoder:?}/{extractor:?} batch={batch} c={c}"
            );
        }
    }
}

#[test]
fn engine_evaluate_matches_reference_exactly() {
    for (encoder, extractor) in VARIANTS {
        let (model, dataset) = tiny_model(encoder, extractor);
        let split = leave_one_out(
            &dataset,
            &SplitConfig {
                max_seq_len: 20,
                ..Default::default()
            },
        );
        let sampler = mbssl_data::sampler::NegativeSampler::from_dataset(&dataset);
        let instances = &split.test[..split.test.len().min(24)];
        let cands = EvalCandidates::build(instances, &sampler, 20, 9);
        // `evaluate` routes through prepare_inference (engine on by
        // default); the reference forces the autograd path.
        let via_engine = evaluate(&model, instances, &cands, 7);
        let reference = evaluate_reference(&model, instances, &cands, 7);
        assert_eq!(
            via_engine.ranks, reference.ranks,
            "evaluate drift for {encoder:?}/{extractor:?}"
        );
    }
}

/// Histories of every length from 0 to `max_seq_len + 3` events, in an
/// order that interleaves short and long ones.
fn mixed_length_histories(dataset: &Dataset, max_seq_len: usize) -> Vec<Sequence> {
    let longest = max_seq_len + 3;
    let sources: Vec<&Sequence> = dataset
        .sequences
        .iter()
        .filter(|s| s.len() >= longest)
        .collect();
    assert!(sources.len() >= 3, "too few long histories");
    let n = longest + 1;
    (0..n)
        .map(|i| (i * 7) % n)
        .map(|len| sources[len % sources.len()].truncate_to_recent(len))
        .collect()
}

fn bits(x: &[f32]) -> Vec<u32> {
    x.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn rows_encode_and_score_alike_in_any_batch() {
    for (encoder, extractor) in VARIANTS {
        let (model, dataset) = tiny_model(encoder, extractor);
        let engine = InferenceModel::compile(&model);
        let histories = mixed_length_histories(&dataset, 20);
        let cands: Vec<Vec<ItemId>> = (0..histories.len())
            .map(|b| {
                (1..=10 as ItemId)
                    .map(|i| (i * 3 + b as ItemId) % 40 + 1)
                    .collect()
            })
            .collect();
        let kd = engine.num_interests() * engine.dim();
        let mut start = 0;
        for size in [3, 5, 8, 8] {
            let group: Vec<&Sequence> = histories[start..start + size].iter().collect();
            let group_cands: Vec<&[ItemId]> = cands[start..start + size]
                .iter()
                .map(|l| l.as_slice())
                .collect();
            let z = engine.encode_interests(&group);
            let scores = model.score_batch(&group, &group_cands);
            for (i, history) in group.iter().enumerate() {
                let what = format!("{encoder:?}/{extractor:?} history of {}", history.len());
                let solo = engine.encode_interests(&[*history]);
                assert_eq!(bits(&z[i * kd..][..kd]), bits(&solo), "engine: {what}");
                let solo = model.score_batch(&[*history], &[group_cands[i]]);
                assert_eq!(bits(&scores[i]), bits(&solo[0]), "autograd: {what}");
            }
            start += size;
        }
        assert_eq!(start, histories.len());

        let instances: Vec<EvalInstance> = histories
            .iter()
            .enumerate()
            .map(|(i, history)| EvalInstance {
                user: i as u32,
                history: history.clone(),
                target: (i % 40 + 1) as ItemId,
            })
            .collect();
        let sampler = mbssl_data::sampler::NegativeSampler::from_dataset(&dataset);
        let eval_cands = EvalCandidates::build(&instances, &sampler, 20, 5);
        let solo = evaluate(&model, &instances, &eval_cands, 1);
        let batched = evaluate(&model, &instances, &eval_cands, 64);
        assert_eq!(
            solo.ranks, batched.ranks,
            "evaluate drift for {encoder:?}/{extractor:?}"
        );
    }
}

#[test]
fn engine_top_n_matches_chunked_reference_exactly() {
    for (encoder, extractor) in VARIANTS {
        let (model, dataset) = tiny_model(encoder, extractor);
        let history = &dataset.sequences[0];
        let exclude: HashSet<ItemId> = history.items.iter().copied().collect();
        let n = 10;
        let via_engine = recommend_top_n(&model, history, dataset.num_items, n, &exclude, 64);
        let reference =
            recommend_top_n_reference(&model, history, dataset.num_items, n, &exclude, 64);
        // Bit-identical scores AND identical tie-breaking.
        assert_eq!(
            via_engine, reference,
            "top-n drift for {encoder:?}/{extractor:?}"
        );
    }
}

#[test]
fn prepare_inference_compiles_every_variant() {
    for (encoder, extractor) in VARIANTS {
        let (model, _) = tiny_model(encoder, extractor);
        assert!(
            model.prepare_inference().is_some(),
            "no compiled engine for {encoder:?}/{extractor:?}"
        );
    }
}
