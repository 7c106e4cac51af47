//! `mbssl-hypergraph` — hypergraph incidence structures, multi-granular
//! sequence-hypergraph builders, and hypergraph transformer layers.
//!
//! The reproduced model encodes each user's multi-behavior sequence through
//! a hypergraph whose nodes are sequence positions and whose hyperedges
//! capture behavior-level, temporal-window, and item-repetition structure
//! (see `DESIGN.md` §2.2). [`HypergraphConfig::build`] is the one
//! implementation of those edge rules; [`build_batch_incidence`] only lays
//! each row's own hypergraph out in a padded batch's fixed edge slots, so
//! a sequence gets the same edges in any batch.

pub mod build;
pub mod incidence;
pub mod layers;

pub use build::{build_batch_incidence, BatchIncidence, HypergraphConfig};
pub use incidence::{EdgeType, Hypergraph};
pub use layers::{HypergraphEncoder, HypergraphTransformerLayer, IncidenceMasks};
