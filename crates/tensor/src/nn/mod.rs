//! Neural-network building blocks on top of the tensor ops.
//!
//! Conventions:
//! - every layer owns its parameters as tracked leaf tensors;
//! - `collect_params` registers them (with stable hierarchical names) into a
//!   [`ParamMap`] used by optimizers and serialization;
//! - layers that use dropout take a [`Mode`]: `Mode::Train(rng)` samples
//!   masks, `Mode::Eval` is deterministic.

mod attention;
mod embedding;
mod feedforward;
mod gru;
mod layernorm;
mod linear;
mod transformer;

pub use attention::{causal_mask, key_padding_mask, MultiHeadAttention};
pub use embedding::Embedding;
pub use feedforward::FeedForward;
pub use gru::Gru;
pub use layernorm::{LayerNorm, LAYER_NORM_EPS};
pub use linear::Linear;
pub use transformer::TransformerBlock;

use rand::rngs::StdRng;

use crate::tensor::Tensor;

/// Forward-pass mode: training (with an RNG for stochastic layers) or
/// deterministic evaluation.
pub enum Mode<'a> {
    /// Training pass: stochastic layers draw from the given RNG.
    Train(&'a mut StdRng),
    /// Evaluation pass: all layers are deterministic.
    Eval,
}

impl Mode<'_> {
    /// Applies dropout with probability `p` in training mode; identity in
    /// eval mode or when `p == 0`.
    pub fn dropout(&mut self, x: &Tensor, p: f32) -> Tensor {
        match self {
            Mode::Train(rng) if p > 0.0 => x.dropout(p, *rng),
            _ => x.clone(),
        }
    }

    /// Draws the keep/scale mask that [`Mode::dropout`] would use for a
    /// tensor of `n` elements — one RNG draw per element in `Train` mode
    /// when `p > 0`, no draws otherwise — without building a graph node.
    /// Fused call sites use this so the RNG stream stays identical to the
    /// unfused composition.
    pub fn dropout_mask_for(&mut self, n: usize, p: f32) -> Option<Vec<f32>> {
        match self {
            Mode::Train(rng) if p > 0.0 => Some(crate::ops::dropout_mask(n, p, *rng)),
            _ => None,
        }
    }
}

/// Ordered registry of named parameters.
///
/// Names are hierarchical (`encoder.layer0.attn.wq`) and insertion order is
/// stable, so the same architecture always produces the same registry — the
/// contract serialization relies on.
#[derive(Default)]
pub struct ParamMap {
    entries: Vec<(String, Tensor)>,
}

impl ParamMap {
    /// An empty registry.
    pub fn new() -> Self {
        ParamMap::default()
    }

    /// Registers a parameter. Panics on duplicate names — that is always a
    /// wiring bug.
    pub fn insert(&mut self, name: impl Into<String>, tensor: Tensor) {
        let name = name.into();
        assert!(
            !self.entries.iter().any(|(n, _)| n == &name),
            "duplicate parameter name {name}"
        );
        self.entries.push((name, tensor));
    }

    /// All parameter handles, in registration order.
    pub fn tensors(&self) -> Vec<Tensor> {
        self.entries.iter().map(|(_, t)| t.clone()).collect()
    }

    /// Name/handle pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Tensor)> {
        self.entries.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Looks a parameter up by exact name.
    pub fn get(&self, name: &str) -> Option<&Tensor> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, t)| t)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total scalar parameter count.
    pub fn numel(&self) -> usize {
        self.entries.iter().map(|(_, t)| t.numel()).sum()
    }
}

/// Anything with trainable parameters.
pub trait Module {
    /// Registers this module's parameters under `prefix` into `map`.
    fn collect_params(&self, prefix: &str, map: &mut ParamMap);

    /// Convenience: collect into a fresh map rooted at `prefix`.
    fn param_map(&self, prefix: &str) -> ParamMap {
        let mut map = ParamMap::new();
        self.collect_params(prefix, &mut map);
        map
    }
}

/// Joins a prefix and a leaf name with `.`, tolerating empty prefixes.
pub fn join_name(prefix: &str, leaf: &str) -> String {
    if prefix.is_empty() {
        leaf.to_string()
    } else {
        format!("{prefix}.{leaf}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn param_map_insert_and_get() {
        let mut map = ParamMap::new();
        map.insert("a.w", Tensor::zeros([2, 2]));
        map.insert("a.b", Tensor::zeros([2]));
        assert_eq!(map.len(), 2);
        assert_eq!(map.numel(), 6);
        assert!(map.get("a.w").is_some());
        assert!(map.get("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut map = ParamMap::new();
        map.insert("w", Tensor::zeros([1]));
        map.insert("w", Tensor::zeros([1]));
    }

    #[test]
    fn join_name_handles_empty_prefix() {
        assert_eq!(join_name("", "w"), "w");
        assert_eq!(join_name("enc", "w"), "enc.w");
    }

    #[test]
    fn mode_eval_dropout_is_identity() {
        let x = Tensor::ones([8]);
        let mut mode = Mode::Eval;
        assert_eq!(mode.dropout(&x, 0.5).to_vec(), x.to_vec());
    }

    #[test]
    fn mode_train_dropout_masks() {
        let x = Tensor::ones([1000]);
        let mut rng = StdRng::seed_from_u64(11);
        let mut mode = Mode::Train(&mut rng);
        let y = mode.dropout(&x, 0.5);
        let zeros = y.to_vec().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 300 && zeros < 700, "zeros {zeros}");
    }
}
