//! Workspace integration tests: the full pipeline across every crate.
//!
//! These train real (tiny) models, so they are deliberately small; the
//! experiment binaries in `crates/bench` are the full-scale versions.

use mbssl::baselines::{Pop, SasRec};
use mbssl::core::serialize::{save_params, Checkpoint};
use mbssl::core::{
    evaluate, BehaviorSchema, Mbmissl, ModelConfig, TrainConfig, TrainableRecommender, Trainer,
};
use mbssl::data::preprocess::{leave_one_out, SplitConfig};
use mbssl::data::sampler::{EvalCandidates, NegativeSampler};
use mbssl::data::synthetic::SyntheticConfig;

fn tiny_config() -> ModelConfig {
    ModelConfig {
        dim: 16,
        heads: 2,
        num_layers: 1,
        ffn_hidden: 32,
        num_interests: 2,
        extractor_hidden: 16,
        max_seq_len: 50,
        dropout: 0.1,
        ..ModelConfig::default()
    }
}

struct Setup {
    dataset: mbssl::data::Dataset,
    split: mbssl::data::preprocess::Split,
    sampler: NegativeSampler,
    candidates: EvalCandidates,
}

fn setup(seed: u64, scale: f64) -> Setup {
    let dataset = SyntheticConfig::taobao_like(seed).scaled(scale).generate().dataset;
    let split = leave_one_out(&dataset, &SplitConfig::default());
    let sampler = NegativeSampler::from_dataset(&dataset);
    let candidates = EvalCandidates::build(&split.test, &sampler, 99, seed);
    Setup {
        dataset,
        split,
        sampler,
        candidates,
    }
}

#[test]
fn mbmissl_learns_and_beats_popularity() {
    let s = setup(171, 0.08);
    let schema = BehaviorSchema::new(s.dataset.behaviors.clone(), s.dataset.target_behavior);
    let model = Mbmissl::new(s.dataset.num_items, schema, tiny_config());
    let trainer = Trainer::new(TrainConfig {
        epochs: 6,
        patience: 6,
        ..TrainConfig::default()
    });
    let report = trainer.fit(&model, &s.split, &s.sampler);
    assert!(report.epochs_run >= 3, "training aborted too early");

    let ours = evaluate(&model, &s.split.test, &s.candidates, 256).aggregate();
    let pop = Pop::fit(&s.split);
    let baseline = evaluate(&pop, &s.split.test, &s.candidates, 256).aggregate();
    assert!(
        ours.ndcg10 > baseline.ndcg10,
        "MBMISSL ({:.4}) must beat POP ({:.4}) on planted-structure data",
        ours.ndcg10,
        baseline.ndcg10
    );
    // And comfortably beat random guessing (HR@10 ≈ 0.1 on 100 candidates).
    assert!(ours.hr10 > 0.15, "HR@10 {:.4} barely above random", ours.hr10);
}

#[test]
fn training_improves_over_init() {
    let s = setup(172, 0.06);
    let schema = BehaviorSchema::new(s.dataset.behaviors.clone(), s.dataset.target_behavior);
    let model = Mbmissl::new(s.dataset.num_items, schema, tiny_config());
    let before = evaluate(&model, &s.split.test, &s.candidates, 256).aggregate();
    let trainer = Trainer::new(TrainConfig {
        epochs: 5,
        patience: 5,
        ..TrainConfig::default()
    });
    trainer.fit(&model, &s.split, &s.sampler);
    let after = evaluate(&model, &s.split.test, &s.candidates, 256).aggregate();
    assert!(
        after.ndcg10 > before.ndcg10,
        "no improvement: {:.4} -> {:.4}",
        before.ndcg10,
        after.ndcg10
    );
}

#[test]
fn checkpoint_roundtrip_preserves_predictions() {
    let s = setup(173, 0.05);
    let schema = BehaviorSchema::new(s.dataset.behaviors.clone(), s.dataset.target_behavior);
    let model = Mbmissl::new(s.dataset.num_items, schema.clone(), tiny_config());
    let trainer = Trainer::new(TrainConfig {
        epochs: 2,
        patience: 2,
        ..TrainConfig::default()
    });
    trainer.fit(&model, &s.split, &s.sampler);

    let mut buf = Vec::new();
    save_params(model.config(), &model.named_params(), &mut buf).unwrap();

    // The restored model is built from the config the checkpoint records.
    let checkpoint = Checkpoint::from_bytes(&buf).unwrap();
    let restored = Mbmissl::new(s.dataset.num_items, schema, checkpoint.config().clone());
    checkpoint.load_into(&restored.named_params()).unwrap();

    let a = evaluate(&model, &s.split.test, &s.candidates, 256);
    let b = evaluate(&restored, &s.split.test, &s.candidates, 256);
    assert_eq!(a.ranks, b.ranks, "restored model ranks differ");
}

#[test]
fn evaluation_is_deterministic_across_runs() {
    let s = setup(174, 0.05);
    let schema = BehaviorSchema::new(s.dataset.behaviors.clone(), s.dataset.target_behavior);
    let model = Mbmissl::new(s.dataset.num_items, schema, tiny_config());
    let a = evaluate(&model, &s.split.test, &s.candidates, 64);
    let b = evaluate(&model, &s.split.test, &s.candidates, 256);
    assert_eq!(a.ranks, b.ranks, "batch size changed evaluation results");
}

#[test]
fn same_seed_reproduces_training_exactly() {
    let s = setup(175, 0.04);
    let schema = BehaviorSchema::new(s.dataset.behaviors.clone(), s.dataset.target_behavior);
    let run = || {
        let model = Mbmissl::new(s.dataset.num_items, schema.clone(), tiny_config());
        let trainer = Trainer::new(TrainConfig {
            epochs: 2,
            patience: 2,
            seed: 99,
            ..TrainConfig::default()
        });
        trainer.fit(&model, &s.split, &s.sampler);
        evaluate(&model, &s.split.test, &s.candidates, 256).ranks
    };
    assert_eq!(run(), run(), "training is not reproducible from the seed");
}

#[test]
fn sasrec_baseline_trains_on_same_pipeline() {
    let s = setup(176, 0.06);
    let model = SasRec::new(s.dataset.num_items, 16, 2, 1, 50, 0.1, 5);
    let trainer = Trainer::new(TrainConfig {
        epochs: 4,
        patience: 4,
        ..TrainConfig::default()
    });
    let report = trainer.fit(&model, &s.split, &s.sampler);
    assert!(report.num_params > 0);
    let metrics = evaluate(&model, &s.split.test, &s.candidates, 256).aggregate();
    assert!(metrics.hr10 > 0.10, "SASRec below random: {}", metrics.hr10);
}

#[test]
fn temporal_split_protocol_trains_end_to_end() {
    use mbssl::data::preprocess::temporal_split;
    let dataset = SyntheticConfig::taobao_like(178).scaled(0.06).generate().dataset;
    let split = temporal_split(&dataset, &SplitConfig::default(), 0.1, 0.2);
    assert!(!split.train.is_empty() && !split.test.is_empty());
    let sampler = NegativeSampler::from_dataset(&dataset);
    let candidates = EvalCandidates::build(&split.test, &sampler, 99, 3);
    let schema = BehaviorSchema::new(dataset.behaviors.clone(), dataset.target_behavior);
    let model = Mbmissl::new(dataset.num_items, schema, tiny_config());
    let trainer = Trainer::new(TrainConfig {
        epochs: 4,
        patience: 4,
        ..TrainConfig::default()
    });
    trainer.fit(&model, &split, &sampler);
    let ours = evaluate(&model, &split.test, &candidates, 256).aggregate();
    // Must clearly beat random guessing under the alternative protocol too.
    assert!(ours.hr10 > 0.15, "temporal-split HR@10 too low: {}", ours.hr10);
}

#[test]
fn all_model_variants_train_one_epoch_without_nan() {
    use mbssl::core::config::{EncoderKind, ExtractorKind};
    let s = setup(177, 0.04);
    let schema = BehaviorSchema::new(s.dataset.behaviors.clone(), s.dataset.target_behavior);
    for encoder in [EncoderKind::Hypergraph, EncoderKind::Transformer] {
        for extractor in [ExtractorKind::SelfAttentive, ExtractorKind::DynamicRouting] {
            let config = ModelConfig {
                encoder,
                extractor,
                ..tiny_config()
            };
            let model = Mbmissl::new(s.dataset.num_items, schema.clone(), config);
            let trainer = Trainer::new(TrainConfig {
                epochs: 1,
                patience: 1,
                ..TrainConfig::default()
            });
            let report = trainer.fit(&model, &s.split, &s.sampler);
            let loss = report.history[0].train_loss;
            assert!(
                loss.is_finite() && loss > 0.0,
                "bad loss {loss} for {encoder:?}/{extractor:?}"
            );
        }
    }
}
