//! Custom dataset: loading your own multi-behavior log from TSV, running
//! the preprocessing pipeline (k-core → leave-one-out), training, saving a
//! checkpoint, and reloading it into a fresh model.
//!
//! ```bash
//! cargo run --release --example custom_dataset
//! ```

use mbssl::core::{evaluate, BehaviorSchema, Mbmissl, ModelConfig, TrainConfig, Trainer};
use mbssl::data::io::{load_tsv, save_tsv};
use mbssl::data::preprocess::{k_core, leave_one_out, SplitConfig};
use mbssl::data::sampler::{EvalCandidates, NegativeSampler};
use mbssl::data::synthetic::SyntheticConfig;
use mbssl::data::Behavior;

fn main() {
    let dir = std::env::temp_dir().join("mbssl_custom_dataset_example");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let tsv_path = dir.join("my_log.tsv");
    let ckpt_path = dir.join("model.ckpt");

    // 0. Stand-in for "your production log": export a synthetic one to TSV
    //    with the exact format the loader expects
    //    (user \t item \t behavior \t timestamp).
    let demo = SyntheticConfig::tmall_like(9).scaled(0.1).generate().dataset;
    save_tsv(&demo, &tsv_path).expect("write TSV");
    println!("wrote demo log to {}", tsv_path.display());

    // 1. Load the TSV. Ids are remapped densely, events sorted by time.
    let raw = load_tsv(&tsv_path, Behavior::Favorite).expect("parse TSV");
    println!(
        "loaded: {} users, {} items, {} interactions",
        raw.num_users,
        raw.num_items,
        raw.num_interactions()
    );

    // 2. Clean: 5-core users, 3-core items.
    let dataset = k_core(&raw, 5, 3);
    println!(
        "after 5/3-core: {} users, {} items, {} interactions",
        dataset.num_users,
        dataset.num_items,
        dataset.num_interactions()
    );

    // 3. Split + train.
    let split = leave_one_out(&dataset, &SplitConfig::default());
    let sampler = NegativeSampler::from_dataset(&dataset);
    let schema = BehaviorSchema::new(dataset.behaviors.clone(), dataset.target_behavior);
    let config = ModelConfig {
        dim: 32,
        heads: 2,
        num_layers: 1,
        ffn_hidden: 64,
        num_interests: 3,
        extractor_hidden: 32,
        ..ModelConfig::default()
    };
    let model = Mbmissl::new(dataset.num_items, schema.clone(), config);
    let trainer = Trainer::new(TrainConfig {
        epochs: 6,
        patience: 2,
        ..TrainConfig::default()
    });
    let report = trainer.fit(&model, &split, &sampler);
    println!(
        "trained {} epochs, best val NDCG@10 = {:.4}",
        report.epochs_run, report.best_val_ndcg10
    );

    // 4. Checkpoint (the model config is saved beside the parameters).
    model.save(&ckpt_path).expect("save checkpoint");
    println!("checkpoint saved to {}", ckpt_path.display());

    // 5. Rebuild the model the checkpoint records and verify predictions
    //    match exactly.
    let restored =
        Mbmissl::from_checkpoint(&ckpt_path, dataset.num_items, schema).expect("load checkpoint");

    let candidates = EvalCandidates::build(&split.test, &sampler, 99, 3);
    let original = evaluate(&model, &split.test, &candidates, 256).aggregate();
    let reloaded = evaluate(&restored, &split.test, &candidates, 256).aggregate();
    println!("\ntest NDCG@10: original {:.6}, reloaded {:.6}", original.ndcg10, reloaded.ndcg10);
    assert!(
        (original.ndcg10 - reloaded.ndcg10).abs() < 1e-9,
        "checkpoint roundtrip changed predictions"
    );
    println!("checkpoint roundtrip verified ✓");

    std::fs::remove_dir_all(&dir).ok();
}
