//! `mbssl-core` — MBMISSL: Multi-Behavior sequential recommendation with
//! Multi-Interest Self-Supervised Learning.
//!
//! This crate assembles the reproduced model (see `DESIGN.md` §2) from the
//! workspace substrates:
//! - [`encoder`]: multi-behavior input layer + hypergraph-transformer /
//!   transformer backbones;
//! - [`interest`]: self-attentive and dynamic-routing multi-interest
//!   extractors;
//! - [`ssl`]: cross-behavior interest alignment, augmentation contrast,
//!   and interest disentanglement;
//! - [`model`]: the full [`Mbmissl`] model;
//! - [`analysis`]: interest-recovery and embedding-export tooling;
//! - [`trainer`] / [`recommender`]: the shared training loop and
//!   leave-one-out evaluator every model in the workspace runs through;
//! - [`infer`]: the graph-free serving engine ([`infer::InferenceModel`])
//!   `evaluate` / `recommend_top_n` compile trained models into;
//! - [`screen`]: the exact i8 screen that lets exhaustive ranking skip
//!   the items whose integer upper bound cannot reach the top-n;
//! - [`ann`]: the IVF-Flat approximate-retrieval index ([`ann::IvfIndex`])
//!   that turns full-catalog ranking into retrieve-then-rerank;
//! - [`serialize`]: model checkpoints ([`serialize::Checkpoint`]), which
//!   record the model config beside the parameters;
//! - [`serve`]: the micro-batched online serving engine (`mbssl serve`)
//!   with per-user sequence caching, checkpoint hot-swap, and a
//!   composable re-rank chain;
//! - [`ledger`]: the per-run directory (`MBSSL_RUN_DIR`) with a manifest
//!   and per-epoch metrics, read back by `mbssl report`.

#![warn(missing_docs)]

pub mod analysis;
pub mod ann;
pub mod config;
pub mod encoder;
pub mod infer;
pub mod interest;
pub mod ledger;
pub mod model;
pub mod recommender;
pub mod screen;
pub mod serialize;
pub mod serve;
pub mod ssl;
pub mod trainer;

pub use ann::{AnnError, IndexStats, IvfIndex};
pub use config::{BehaviorSchema, EncoderKind, ExtractorKind, ModelConfig, TrainConfig};
pub use infer::InferenceModel;
pub use ledger::{
    read_run_dir, render_report, sparkline, EpochRecord, RunLedger, RunManifest, RunRecord,
};
pub use model::Mbmissl;
pub use recommender::{
    evaluate, evaluate_reference, recommend_top_n, recommend_top_n_reference, Recommendation,
    SequentialRecommender,
};
pub use serialize::{Checkpoint, CheckpointError};
pub use serve::{
    MetricsSnapshot, RerankChain, ServeConfig, ServeReply, ServeStats, Server, SessionStore, Stage,
};
pub use mbssl_data::sampler::PreparedBatch;
pub use trainer::{TrainReport, TrainableRecommender, Trainer};
