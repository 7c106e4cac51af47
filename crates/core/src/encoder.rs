//! Multi-behavior input layer and sequence encoder backbones.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbssl_data::sampler::Batch;
use mbssl_data::Behavior;
use mbssl_hypergraph::{build_batch_incidence, HypergraphConfig, HypergraphEncoder};
use mbssl_tensor::nn::{
    join_name, key_padding_mask, Embedding, LayerNorm, Mode, Module, ParamMap, TransformerBlock,
};
use mbssl_tensor::Tensor;

use crate::config::{EncoderKind, ModelConfig};

/// Token embedding stack: item + behavior + position, LayerNorm + dropout.
pub struct InputLayer {
    /// Item embedding table `[num_items+1, D]` (row 0 = padding).
    pub item_emb: Embedding,
    behavior_emb: Embedding,
    pos_emb: Embedding,
    ln: LayerNorm,
    dropout: f32,
    max_seq_len: usize,
}

impl InputLayer {
    /// Builds the embedding stack for a catalog of `num_items`.
    pub fn new(num_items: usize, config: &ModelConfig, rng: &mut StdRng) -> Self {
        InputLayer {
            item_emb: Embedding::new(num_items + 1, config.dim, rng).with_padding_idx(0),
            behavior_emb: Embedding::new(Behavior::VOCAB, config.dim, rng)
                .with_padding_idx(Behavior::PAD_INDEX),
            pos_emb: Embedding::new(config.max_seq_len, config.dim, rng),
            ln: LayerNorm::new(config.dim),
            dropout: config.dropout,
            max_seq_len: config.max_seq_len,
        }
    }

    /// Embeds a padded batch into `[B, L, D]`.
    pub fn forward(&self, batch: &Batch, mode: &mut Mode) -> Tensor {
        let (b, l) = (batch.size, batch.max_len);
        assert!(
            l <= self.max_seq_len,
            "batch length {l} exceeds configured max {}",
            self.max_seq_len
        );
        let item = self.item_emb.forward_seq(&batch.items, b, l);
        let behavior = self.behavior_emb.forward_seq(&batch.behaviors, b, l);
        let positions: Vec<usize> = (0..b * l).map(|i| i % l).collect();
        let pos = self.pos_emb.forward_seq(&positions, b, l);
        // `ln(item + behavior + pos)` with the second add and the norm
        // collapsed into one fused node; element order matches
        // `ln.forward(item.add(&behavior).add(&pos))` bit-for-bit.
        let s = item.add(&behavior);
        let y = self.ln.residual_forward(&s, &pos);
        mode.dropout(&y, self.dropout)
    }
}

impl Module for InputLayer {
    fn collect_params(&self, prefix: &str, map: &mut ParamMap) {
        self.item_emb.collect_params(&join_name(prefix, "item_emb"), map);
        self.behavior_emb
            .collect_params(&join_name(prefix, "behavior_emb"), map);
        self.pos_emb.collect_params(&join_name(prefix, "pos_emb"), map);
        self.ln.collect_params(&join_name(prefix, "ln"), map);
    }
}

/// The encoder backbone: hypergraph transformer or plain transformer.
pub enum Backbone {
    /// Hypergraph-transformer encoder (the paper's default).
    Hypergraph {
        /// The hypergraph encoder stack.
        encoder: HypergraphEncoder,
        /// Hyperedge-construction options.
        hg_config: HypergraphConfig,
        /// Attention heads per layer.
        heads: usize,
    },
    /// Plain transformer encoder (SASRec-style ablation).
    Transformer {
        /// The transformer blocks, in order.
        blocks: Vec<TransformerBlock>,
        /// Attention heads per layer.
        heads: usize,
    },
}

impl Backbone {
    /// Builds the backbone selected by `config.encoder`.
    pub fn new(config: &ModelConfig, behavior_tags: &[usize], rng: &mut StdRng) -> Self {
        match config.encoder {
            EncoderKind::Hypergraph => Backbone::Hypergraph {
                encoder: HypergraphEncoder::new(
                    config.num_layers,
                    config.dim,
                    config.heads,
                    config.ffn_hidden,
                    config.dropout,
                    Behavior::VOCAB,
                    rng,
                ),
                hg_config: HypergraphConfig {
                    behavior_tags: behavior_tags.to_vec(),
                    window: config.hg_window,
                    max_item_edges: config.hg_max_item_edges,
                },
                heads: config.heads,
            },
            EncoderKind::Transformer => Backbone::Transformer {
                blocks: (0..config.num_layers)
                    .map(|_| {
                        TransformerBlock::new(
                            config.dim,
                            config.heads,
                            config.ffn_hidden,
                            config.dropout,
                            rng,
                        )
                    })
                    .collect(),
                heads: config.heads,
            },
        }
    }

    /// Encodes embedded inputs `[B, L, D]` into contextual states.
    pub fn forward(&self, x: &Tensor, batch: &Batch, mode: &mut Mode) -> Tensor {
        match self {
            Backbone::Hypergraph {
                encoder,
                hg_config,
                ..
            } => {
                let incidence = build_batch_incidence(
                    hg_config,
                    &batch.items,
                    &batch.behaviors,
                    &batch.valid,
                    batch.size,
                    batch.max_len,
                    Behavior::VOCAB,
                );
                encoder.forward(x, &incidence, mode)
            }
            Backbone::Transformer { blocks, heads } => {
                let mask = key_padding_mask(&batch.valid, batch.size, *heads, batch.max_len);
                let mut h = x.clone();
                for block in blocks {
                    h = block.forward(&h, Some(&mask), mode);
                }
                h
            }
        }
    }
}

impl Module for Backbone {
    fn collect_params(&self, prefix: &str, map: &mut ParamMap) {
        match self {
            Backbone::Hypergraph { encoder, .. } => {
                encoder.collect_params(&join_name(prefix, "hg"), map)
            }
            Backbone::Transformer { blocks, .. } => {
                for (i, b) in blocks.iter().enumerate() {
                    b.collect_params(&join_name(prefix, &format!("block{i}")), map);
                }
            }
        }
    }
}

/// Deterministic RNG for a model's parameter initialization.
pub fn init_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use mbssl_data::sampler::Batch;
    use mbssl_data::{Behavior, Sequence};

    fn demo_batch() -> Batch {
        let mut s1 = Sequence::new();
        s1.push(1, Behavior::Click);
        s1.push(2, Behavior::Purchase);
        s1.push(3, Behavior::Click);
        let mut s2 = Sequence::new();
        s2.push(4, Behavior::Click);
        Batch::encode_histories(&[&s1, &s2])
    }

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            dim: 16,
            heads: 2,
            num_layers: 1,
            ffn_hidden: 32,
            max_seq_len: 10,
            dropout: 0.0,
            ..ModelConfig::default()
        }
    }

    #[test]
    fn input_layer_shapes_and_padding() {
        let mut rng = init_rng(1);
        let cfg = tiny_config();
        let input = InputLayer::new(10, &cfg, &mut rng);
        let batch = demo_batch();
        let x = input.forward(&batch, &mut Mode::Eval);
        assert_eq!(x.dims(), &[2, 3, 16]);
    }

    #[test]
    fn backbone_hypergraph_runs() {
        let mut rng = init_rng(2);
        let cfg = tiny_config();
        let input = InputLayer::new(10, &cfg, &mut rng);
        let backbone = Backbone::new(&cfg, &[Behavior::Click.index(), Behavior::Purchase.index()], &mut rng);
        let batch = demo_batch();
        let x = input.forward(&batch, &mut Mode::Eval);
        let h = backbone.forward(&x, &batch, &mut Mode::Eval);
        assert_eq!(h.dims(), &[2, 3, 16]);
        assert!(h.to_vec().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn backbone_transformer_runs() {
        let mut rng = init_rng(3);
        let cfg = ModelConfig {
            encoder: EncoderKind::Transformer,
            ..tiny_config()
        };
        let input = InputLayer::new(10, &cfg, &mut rng);
        let backbone = Backbone::new(&cfg, &[1, 4], &mut rng);
        let batch = demo_batch();
        let h = backbone.forward(&input.forward(&batch, &mut Mode::Eval), &batch, &mut Mode::Eval);
        assert_eq!(h.dims(), &[2, 3, 16]);
    }

    #[test]
    fn params_differ_between_backbones() {
        let mut rng = init_rng(4);
        let cfg = tiny_config();
        let hg = Backbone::new(&cfg, &[1, 4], &mut rng);
        let tf = Backbone::new(
            &ModelConfig {
                encoder: EncoderKind::Transformer,
                ..tiny_config()
            },
            &[1, 4],
            &mut rng,
        );
        // The hypergraph backbone has edge-type embeddings + two attention
        // phases per layer; the transformer has one.
        assert!(hg.param_map("b").len() > tf.param_map("b").len());
    }

    #[test]
    #[should_panic(expected = "exceeds configured max")]
    fn overlong_batch_rejected() {
        let mut rng = init_rng(5);
        let cfg = ModelConfig {
            max_seq_len: 2,
            ..tiny_config()
        };
        let input = InputLayer::new(10, &cfg, &mut rng);
        input.forward(&demo_batch(), &mut Mode::Eval);
    }
}
