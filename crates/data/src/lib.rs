//! `mbssl-data` — multi-behavior interaction data substrate.
//!
//! Provides the dataset model ([`types`]), a calibrated synthetic
//! multi-behavior log generator standing in for license-gated Taobao /
//! Tmall / Yelp dumps ([`synthetic`]), preprocessing ([`preprocess`]),
//! negative sampling + batching ([`sampler`]), contrastive augmentations
//! ([`augment`]), TSV IO ([`io`]), the mmap'd binary columnar `.mbds`
//! format for million-user logs ([`mod@format`]), and the [`container`]
//! file layout every binary format of the workspace (`.mbds`, the IVF
//! index, the model checkpoint) is written in.
//!
//! # Quick example
//! ```
//! use mbssl_data::synthetic::SyntheticConfig;
//! use mbssl_data::preprocess::{leave_one_out, SplitConfig};
//!
//! let generated = SyntheticConfig::taobao_like(42).scaled(0.05).generate();
//! let split = leave_one_out(&generated.dataset, &SplitConfig::default());
//! assert!(!split.train.is_empty());
//! assert_eq!(split.val.len(), split.test.len());
//! ```

#![warn(missing_docs)]

pub mod augment;
pub mod container;
pub mod format;
pub mod io;
pub mod preprocess;
pub mod sampler;
pub mod synthetic;
pub mod types;

pub use types::{Behavior, Dataset, Interaction, ItemId, Sequence, UserId};
