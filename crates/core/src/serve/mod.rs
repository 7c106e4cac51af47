//! `mbssl serve` — the micro-batched online serving engine.
//!
//! Layered over the offline [`InferenceModel`](crate::infer::InferenceModel):
//!
//! - [`batcher`] — bounded queue whose drains convert concurrent
//!   arrivals into micro-batches (the entire batching policy).
//! - [`session`] — columnar base histories under a sharded per-user
//!   overlay of ingested events and the epoch-keyed interest cache, plus
//!   popularity counts.
//! - [`rerank`] — composable post-retrieval stage chain, parsed from a
//!   `"seen:0.5,pop:0.2,topk:100"` style spec.
//! - [`server`] — worker loop tying the three together, plus checkpoint
//!   hot-swap and the ANN latency-budget policy.
//! - [`protocol`] — the line protocol of `mbssl serve`: a pure parser
//!   from one line to a [`Request`] or a typed [`ProtocolError`], and the
//!   reply printer shared with `mbssl recommend`.
//! - [`metrics`] — the point-in-time snapshot behind the `metrics`
//!   request and `mbssl top`.
//!
//! Design notes live in DESIGN.md §15; the bit-identity argument for
//! batched vs. solo serving is on
//! [`InferenceModel::encode_interests`](crate::infer::InferenceModel::encode_interests).

pub mod batcher;
pub mod metrics;
pub mod protocol;
pub mod rerank;
pub mod server;
pub mod session;

pub use batcher::BatchQueue;
pub use metrics::{MetricsSnapshot, Stage, METRICS_SCHEMA, NUM_STAGES};
pub use protocol::{parse_line, MetricsFormat, ProtocolError, Request};
pub use rerank::{RerankChain, RerankContext, RerankStage};
pub use server::{ServeConfig, ServeError, ServeReply, ServeStats, Server};
pub use session::{SessionStore, UserSnapshot};
