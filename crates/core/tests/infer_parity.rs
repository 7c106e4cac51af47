//! Parity gates for the graph-free inference engine (DESIGN.md §13).
//!
//! The contract under test:
//! - the compiled f32 engine scores **bit-for-bit identically** to the
//!   autograd model's `score_batch`, across both backbones, both interest
//!   extractors, and varied batch shapes;
//! - `evaluate` / `recommend_top_n` (which route through the engine by
//!   default) return exactly what the `_reference` paths return;
//! - [`Mbmissl::prepare_inference`] compiles every encoder × extractor
//!   combination;
//! - the quantized catalog scorers (i8, bf16) keep HR@5/10 and NDCG@5/10
//!   within `MBSSL_QUANT_TOL` of the f32 engine.

use std::collections::HashSet;

use mbssl_core::{
    evaluate, evaluate_reference, recommend_top_n, recommend_top_n_reference, BehaviorSchema,
    EncoderKind, ExtractorKind, InferenceModel, Mbmissl, ModelConfig, SequentialRecommender,
};
use mbssl_data::preprocess::{leave_one_out, SplitConfig};
use mbssl_data::sampler::EvalCandidates;
use mbssl_data::synthetic::SyntheticConfig;
use mbssl_data::{Dataset, ItemId};
use mbssl_metrics::RankingMetrics;
use mbssl_tensor::quant::{self, QuantMode};

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
        let engine = InferenceModel::compile_with_mode(&model, QuantMode::Off);
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
                .map(|b| (1..=c as ItemId).map(|i| (i + b as ItemId) % 40 + 1).collect())
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

/// Full-catalog ranking metrics for one engine: rank of each test target
/// in the engine's catalog ordering (history items excluded).
fn catalog_metrics(engine: &InferenceModel, dataset: &Dataset) -> RankingMetrics {
    let split = leave_one_out(
        dataset,
        &SplitConfig {
            max_seq_len: 20,
            ..Default::default()
        },
    );
    let instances = &split.test[..split.test.len().min(32)];
    let mut ranks = Vec::new();
    for inst in instances {
        let exclude: HashSet<ItemId> = inst
            .history
            .items
            .iter()
            .copied()
            .filter(|&i| i != inst.target)
            .collect();
        let recs = engine
            .recommend_catalog(&inst.history, dataset.num_items, dataset.num_items, &exclude)
            .expect("engine always has a catalog path");
        let rank = recs
            .iter()
            .position(|r| r.item == inst.target)
            .expect("target must appear in the full catalog ranking");
        ranks.push(rank);
    }
    RankingMetrics::from_ranks(&ranks)
}

#[test]
fn quantized_catalog_ranking_stays_within_drift_tolerance() {
    let tol = quant::drift_tol();
    for (encoder, extractor) in [
        (EncoderKind::Hypergraph, ExtractorKind::SelfAttentive),
        (EncoderKind::Transformer, ExtractorKind::DynamicRouting),
    ] {
        let (model, dataset) = tiny_model(encoder, extractor);
        let f32_engine = InferenceModel::compile_with_mode(&model, QuantMode::Off);
        let base = catalog_metrics(&f32_engine, &dataset);
        for qmode in [QuantMode::I8, QuantMode::Bf16] {
            let q_engine = InferenceModel::compile_with_mode(&model, qmode);
            let q = catalog_metrics(&q_engine, &dataset);
            for (metric, a, b) in [
                ("HR@5", base.hr5, q.hr5),
                ("HR@10", base.hr10, q.hr10),
                ("NDCG@5", base.ndcg5, q.ndcg5),
                ("NDCG@10", base.ndcg10, q.ndcg10),
            ] {
                assert!(
                    (a - b).abs() <= tol,
                    "{qmode:?} {metric} drift {:.4} exceeds tol {tol} \
                     for {encoder:?}/{extractor:?} (f32 {a:.4} vs quant {b:.4})",
                    (a - b).abs()
                );
            }
        }
    }
}
