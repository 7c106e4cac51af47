//! Hypergraph transformer layers.
//!
//! One layer performs two masked multi-head attention phases over the
//! incidence structure:
//! 1. **node → edge**: each hyperedge, represented by a learned edge-type
//!    query, attends over its member nodes to form an edge embedding;
//! 2. **edge → node**: each node attends over its incident hyperedges,
//!    followed by a residual connection, LayerNorm, and a position-wise
//!    feed-forward block.
//!
//! Padded edge slots are never attended to (their incidence column is
//! empty), and padded node positions belong to no edge, so their outputs
//! are garbage-but-finite and must be masked by downstream pooling — the
//! same contract as ordinary padded attention.

use rand::Rng;

use mbssl_tensor::nn::{
    join_name, Embedding, FeedForward, LayerNorm, Mode, Module, MultiHeadAttention, ParamMap,
};
use mbssl_tensor::Tensor;

use crate::build::BatchIncidence;
use crate::incidence::EdgeType;

/// Attention mask blocking node→edge pairs outside the incidence relation:
/// shape `[B*H, E, L]`, 1 = blocked.
pub fn node_to_edge_mask(incidence: &BatchIncidence, heads: usize) -> Tensor {
    let (b, e, l) = (incidence.batch, incidence.num_edges, incidence.seq_len);
    let mut data = vec![0.0f32; b * heads * e * l];
    for bi in 0..b {
        for h in 0..heads {
            for ei in 0..e {
                for t in 0..l {
                    let member = incidence.membership[(bi * e + ei) * l + t];
                    data[((bi * heads + h) * e + ei) * l + t] = 1.0 - member;
                }
            }
        }
    }
    Tensor::from_vec(data, [b * heads, e, l])
}

/// Attention mask blocking edge→node pairs outside the incidence relation:
/// shape `[B*H, L, E]`, 1 = blocked.
pub fn edge_to_node_mask(incidence: &BatchIncidence, heads: usize) -> Tensor {
    let (b, e, l) = (incidence.batch, incidence.num_edges, incidence.seq_len);
    let mut data = vec![0.0f32; b * heads * l * e];
    for bi in 0..b {
        for h in 0..heads {
            for t in 0..l {
                for ei in 0..e {
                    let member = incidence.membership[(bi * e + ei) * l + t];
                    data[((bi * heads + h) * l + t) * e + ei] = 1.0 - member;
                }
            }
        }
    }
    Tensor::from_vec(data, [b * heads, l, e])
}

/// A batch's incidence with its two attention masks, built once per
/// encoder forward and shared by every layer.
pub struct IncidenceMasks<'a> {
    /// The incidence the masks were built from.
    pub incidence: &'a BatchIncidence,
    /// [`node_to_edge_mask`] `[B*H, E, L]`.
    pub node_to_edge: Tensor,
    /// [`edge_to_node_mask`] `[B*H, L, E]`.
    pub edge_to_node: Tensor,
}

impl<'a> IncidenceMasks<'a> {
    /// Builds both masks of `incidence` for `heads` attention heads.
    pub fn new(incidence: &'a BatchIncidence, heads: usize) -> Self {
        IncidenceMasks {
            incidence,
            node_to_edge: node_to_edge_mask(incidence, heads),
            edge_to_node: edge_to_node_mask(incidence, heads),
        }
    }
}

/// One hypergraph transformer layer.
pub struct HypergraphTransformerLayer {
    edge_type_emb: Embedding,
    node_to_edge: MultiHeadAttention,
    edge_to_node: MultiHeadAttention,
    ln_in: LayerNorm,
    ln_ffn: LayerNorm,
    ffn: FeedForward,
    dropout: f32,
    heads: usize,
}

impl HypergraphTransformerLayer {
    pub fn new(
        dim: usize,
        heads: usize,
        ffn_hidden: usize,
        dropout: f32,
        behavior_vocab: usize,
        rng: &mut impl Rng,
    ) -> Self {
        HypergraphTransformerLayer {
            edge_type_emb: Embedding::new(EdgeType::vocab(behavior_vocab), dim, rng),
            node_to_edge: MultiHeadAttention::new(dim, heads, dropout, rng),
            edge_to_node: MultiHeadAttention::new(dim, heads, dropout, rng),
            ln_in: LayerNorm::new(dim),
            ln_ffn: LayerNorm::new(dim),
            ffn: FeedForward::new(dim, ffn_hidden, dropout, rng),
            dropout,
            heads,
        }
    }

    /// `nodes: [B, L, D]` → `[B, L, D]`, over `masks` built for this
    /// layer's head count.
    pub fn forward(&self, nodes: &Tensor, masks: &IncidenceMasks, mode: &mut Mode) -> Tensor {
        let incidence = masks.incidence;
        let (b, l, d) = (nodes.dims()[0], nodes.dims()[1], nodes.dims()[2]);
        debug_assert_eq!(b, incidence.batch);
        debug_assert_eq!(l, incidence.seq_len);
        debug_assert_eq!(masks.node_to_edge.dims()[0], b * self.heads);
        let e = incidence.num_edges;

        let normed = self.ln_in.forward(nodes);
        // Edge queries from the edge-type table: [B, E, D].
        let edge_q = self
            .edge_type_emb
            .forward(&incidence.edge_type_ids)
            .reshape([b, e, d]);

        let edges =
            self.node_to_edge
                .forward(&edge_q, &normed, &normed, Some(&masks.node_to_edge), mode);
        let update =
            self.edge_to_node
                .forward(&normed, &edges, &edges, Some(&masks.edge_to_node), mode);

        // The residual+LN and the final three-way sum are each one fused
        // node; element order matches the node-per-op composition, so
        // results are bit-identical to it.
        let da = mode.dropout(&update, self.dropout);
        let h2 = self.ln_ffn.residual_forward(nodes, &da);
        let ffn_out = self.ffn.forward(&h2, mode);
        let df = mode.dropout(&ffn_out, self.dropout);
        nodes.add3(&da, &df)
    }
}

impl Module for HypergraphTransformerLayer {
    fn collect_params(&self, prefix: &str, map: &mut ParamMap) {
        self.edge_type_emb
            .collect_params(&join_name(prefix, "edge_type_emb"), map);
        self.node_to_edge
            .collect_params(&join_name(prefix, "node_to_edge"), map);
        self.edge_to_node
            .collect_params(&join_name(prefix, "edge_to_node"), map);
        self.ln_in.collect_params(&join_name(prefix, "ln_in"), map);
        self.ln_ffn.collect_params(&join_name(prefix, "ln_ffn"), map);
        self.ffn.collect_params(&join_name(prefix, "ffn"), map);
    }
}

/// A stack of hypergraph transformer layers sharing one incidence
/// structure per forward pass.
pub struct HypergraphEncoder {
    layers: Vec<HypergraphTransformerLayer>,
}

impl HypergraphEncoder {
    pub fn new(
        num_layers: usize,
        dim: usize,
        heads: usize,
        ffn_hidden: usize,
        dropout: f32,
        behavior_vocab: usize,
        rng: &mut impl Rng,
    ) -> Self {
        HypergraphEncoder {
            layers: (0..num_layers)
                .map(|_| {
                    HypergraphTransformerLayer::new(
                        dim,
                        heads,
                        ffn_hidden,
                        dropout,
                        behavior_vocab,
                        rng,
                    )
                })
                .collect(),
        }
    }

    /// Runs every layer over `incidence`, whose masks are built once.
    pub fn forward(&self, nodes: &Tensor, incidence: &BatchIncidence, mode: &mut Mode) -> Tensor {
        let Some(first) = self.layers.first() else {
            return nodes.clone();
        };
        let masks = IncidenceMasks::new(incidence, first.heads);
        let mut x = nodes.clone();
        for layer in &self.layers {
            x = layer.forward(&x, &masks, mode);
        }
        x
    }

    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

impl Module for HypergraphEncoder {
    fn collect_params(&self, prefix: &str, map: &mut ParamMap) {
        for (i, layer) in self.layers.iter().enumerate() {
            layer.collect_params(&join_name(prefix, &format!("layer{i}")), map);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_batch_incidence, HypergraphConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn demo_incidence(batch: usize) -> BatchIncidence {
        let len = 8;
        let mut items = Vec::new();
        let mut behaviors = Vec::new();
        let mut valid = Vec::new();
        for b in 0..batch {
            for t in 0..len {
                items.push(1 + (t + b) % 5);
                behaviors.push(if t % 3 == 0 { 4 } else { 1 });
                valid.push(if t < len - b { 1.0 } else { 0.0 });
            }
        }
        let cfg = HypergraphConfig {
            behavior_tags: vec![1, 4],
            window: 4,
            max_item_edges: 2,
        };
        build_batch_incidence(&cfg, &items, &behaviors, &valid, batch, len, 5)
    }

    #[test]
    fn masks_have_right_shapes() {
        let inc = demo_incidence(2);
        let n2e = node_to_edge_mask(&inc, 2);
        assert_eq!(n2e.dims(), &[4, inc.num_edges, 8]);
        let e2n = edge_to_node_mask(&inc, 2);
        assert_eq!(e2n.dims(), &[4, 8, inc.num_edges]);
    }

    #[test]
    fn masks_are_transposes_of_each_other() {
        let inc = demo_incidence(1);
        let n2e = node_to_edge_mask(&inc, 1);
        let e2n = edge_to_node_mask(&inc, 1);
        let e = inc.num_edges;
        for ei in 0..e {
            for t in 0..8 {
                assert_eq!(
                    n2e.at(&[0, ei, t]),
                    e2n.at(&[0, t, ei]),
                    "mismatch at ({ei}, {t})"
                );
            }
        }
    }

    #[test]
    fn layer_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = HypergraphTransformerLayer::new(8, 2, 16, 0.0, 5, &mut rng);
        let inc = demo_incidence(2);
        let nodes = Tensor::ones([2, 8, 8]);
        let y = layer.forward(&nodes, &IncidenceMasks::new(&inc, 2), &mut Mode::Eval);
        assert_eq!(y.dims(), &[2, 8, 8]);
        assert!(y.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn encoder_stacks_layers() {
        let mut rng = StdRng::seed_from_u64(0);
        let enc = HypergraphEncoder::new(3, 8, 2, 16, 0.0, 5, &mut rng);
        assert_eq!(enc.num_layers(), 3);
        let inc = demo_incidence(1);
        let nodes = Tensor::ones([1, 8, 8]);
        let y = enc.forward(&nodes, &inc, &mut Mode::Eval);
        assert_eq!(y.dims(), &[1, 8, 8]);
    }

    #[test]
    fn gradients_reach_all_layer_params() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = HypergraphTransformerLayer::new(4, 1, 8, 0.0, 5, &mut rng);
        let inc = demo_incidence(1);
        let nodes = Tensor::ones([1, 8, 4]);
        layer
            .forward(&nodes, &IncidenceMasks::new(&inc, 1), &mut Mode::Eval)
            .sum_all()
            .backward();
        for (name, t) in layer.param_map("hg").iter() {
            assert!(t.grad().is_some(), "{name} missing grad");
        }
    }

    #[test]
    fn information_flows_within_behavior_edge() {
        // Two nodes share only a behavior hyperedge (far apart, distinct
        // items). Changing one must influence the other's output.
        let mut rng = StdRng::seed_from_u64(1);
        let layer = HypergraphTransformerLayer::new(4, 1, 8, 0.0, 5, &mut rng);
        let len = 12;
        let items: Vec<usize> = (1..=len).collect();
        let mut behaviors = vec![1usize; len];
        behaviors[0] = 4;
        behaviors[len - 1] = 4; // only positions 0 and 11 share behavior 4
        let valid = vec![1.0f32; len];
        let cfg = HypergraphConfig {
            behavior_tags: vec![1, 4],
            window: 4,
            max_item_edges: 0,
        };
        let inc = build_batch_incidence(&cfg, &items, &behaviors, &valid, 1, len, 5);

        // Per-dimension varied features (constant rows would be erased by
        // the pre-LayerNorm).
        let base: Vec<f32> = (0..len * 4).map(|i| ((i % 7) as f32) * 0.1 - 0.3).collect();
        let mut perturbed = base.clone();
        for i in 0..4 {
            perturbed[(len - 1) * 4 + i] += ((i + 1) as f32) * 0.8;
        }
        let masks = IncidenceMasks::new(&inc, 1);
        let ya = layer.forward(
            &Tensor::from_vec(base, [1, len, 4]),
            &masks,
            &mut Mode::Eval,
        );
        let yb = layer.forward(
            &Tensor::from_vec(perturbed, [1, len, 4]),
            &masks,
            &mut Mode::Eval,
        );
        let d: f32 = (0..4)
            .map(|i| (ya.at(&[0, 0, i]) - yb.at(&[0, 0, i])).abs())
            .sum();
        assert!(d > 1e-5, "no information flow through shared hyperedge");
    }

    #[test]
    fn training_mode_with_dropout_stays_finite() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = HypergraphTransformerLayer::new(8, 2, 16, 0.3, 5, &mut rng);
        let inc = demo_incidence(2);
        let nodes = Tensor::ones([2, 8, 8]);
        let mut drop_rng = StdRng::seed_from_u64(3);
        let masks = IncidenceMasks::new(&inc, 2);
        let y = layer.forward(&nodes, &masks, &mut Mode::Train(&mut drop_rng));
        assert!(y.to_vec().iter().all(|v| v.is_finite()));
    }
}
