//! MBMISSL — the full multi-behavior multi-interest model with
//! self-supervised learning.

#![allow(clippy::needless_range_loop)] // multi-array index loops are clearer here

use rand::rngs::StdRng;

use mbssl_data::augment::{default_ops, random_augment};
use mbssl_data::preprocess::TrainInstance;
use mbssl_data::sampler::{Batch, NegativeSampler, NegativeStrategy, PreparedBatch};
use mbssl_data::{ItemId, Sequence};
use mbssl_tensor::nn::{Mode, Module, ParamMap};
use mbssl_tensor::{no_grad, Tensor};

use crate::config::{BehaviorSchema, ModelConfig};
use crate::encoder::{init_rng, Backbone, InputLayer};
use crate::interest::InterestExtractor;
use crate::recommender::SequentialRecommender;
use crate::serialize::{Checkpoint, CheckpointError};
use crate::ssl::{alignment_loss, augmentation_loss, disentanglement_loss};
use crate::trainer::TrainableRecommender;

/// The reproduced model (DESIGN.md §2).
pub struct Mbmissl {
    config: ModelConfig,
    schema: BehaviorSchema,
    input: InputLayer,
    pub(crate) backbone: Backbone,
    pub(crate) extractor: InterestExtractor,
    num_items: usize,
}

impl Mbmissl {
    /// Builds the model for a catalog of `num_items`, seeded from
    /// `config.seed` (equal inputs give bit-identical parameters).
    pub fn new(num_items: usize, schema: BehaviorSchema, config: ModelConfig) -> Self {
        config.validate().expect("invalid model config");
        let mut rng = init_rng(config.seed);
        let behavior_tags: Vec<usize> = schema.behaviors.iter().map(|b| b.index()).collect();
        let input = InputLayer::new(num_items, &config, &mut rng);
        let backbone = Backbone::new(&config, &behavior_tags, &mut rng);
        let extractor = InterestExtractor::new(&config, &mut rng);
        Mbmissl {
            config,
            schema,
            input,
            backbone,
            extractor,
            num_items,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The behavior schema the model was built for.
    pub fn schema(&self) -> &BehaviorSchema {
        &self.schema
    }

    /// Catalog size.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Contextual sequence states `[B, L, D]`.
    pub fn encode(&self, batch: &Batch, mode: &mut Mode) -> Tensor {
        let x = self.input.forward(batch, mode);
        self.backbone.forward(&x, batch, mode)
    }

    /// Prediction interests extracted over all valid positions `[B, K, D]`.
    pub fn interests(&self, h: &Tensor, batch: &Batch) -> Tensor {
        self.extractor.forward(h, &batch.valid)
    }

    /// Prediction interests `[B, K, D]` of `histories`, each row as its
    /// history encodes alone. A history with no events pools only
    /// padding, which would tie its row to the batch's padded length: it
    /// gets its solo encoding (one pad position) instead.
    fn history_interests(&self, histories: &[&Sequence]) -> Tensor {
        let batch = Batch::encode_recent(histories, self.config.max_seq_len);
        let z = self.interests(&self.encode(&batch, &mut Mode::Eval), &batch);
        if batch.max_len == 1 || histories.iter().all(|h| !h.is_empty()) {
            return z;
        }
        let cold = self.history_interests(&[&Sequence::new()]).to_vec();
        let mut data = z.to_vec();
        for (row, h) in data.chunks_exact_mut(cold.len()).zip(histories) {
            if h.is_empty() {
                row.copy_from_slice(&cold);
            }
        }
        Tensor::from_vec(data, z.dims())
    }

    /// Behavior-specific interests plus per-user validity (1.0 when the
    /// user has at least one event of that behavior). `projection` is the
    /// extractor's [`project`](InterestExtractor::project)ion of `h`, which
    /// every mask over `h` shares.
    pub fn behavior_interests(
        &self,
        h: &Tensor,
        projection: &Tensor,
        batch: &Batch,
        behavior_tag: usize,
    ) -> (Tensor, Vec<f32>) {
        let (b, l) = (batch.size, batch.max_len);
        let mut allowed = vec![0.0f32; b * l];
        let mut user_valid = vec![0.0f32; b];
        for bi in 0..b {
            for t in 0..l {
                let idx = bi * l + t;
                if batch.valid[idx] != 0.0 && batch.behaviors[idx] == behavior_tag {
                    allowed[idx] = 1.0;
                    user_valid[bi] = 1.0;
                }
            }
        }
        (self.extractor.pool(h, projection, &allowed), user_valid)
    }

    /// Scores each candidate list entry via `max_k ⟨z_k, e_i⟩`.
    ///
    /// `interests: [B, K, D]`, `candidate_ids: [B * C]` → `[B, C]`.
    pub fn score_against(&self, interests: &Tensor, candidate_ids: &[usize], c: usize) -> Tensor {
        let (b, _k, d) = (
            interests.dims()[0],
            interests.dims()[1],
            interests.dims()[2],
        );
        assert_eq!(candidate_ids.len(), b * c);
        let cand = self
            .input
            .item_emb
            .forward(candidate_ids)
            .reshape([b, c, d]);
        interests
            .bmm(&cand.transpose_last()) // [B, K, C]
            .max_axis(1, false) // [B, C]
    }

    /// Mean-pooled user representation from prediction interests `[B, D]`.
    fn user_repr(&self, h: &Tensor, batch: &Batch) -> Tensor {
        self.interests(h, batch).mean_axis(1, false)
    }

    /// The training loss on a prepared batch: the main sampled-softmax loss plus
    /// the three SSL terms, with the augmented views re-encoded through the
    /// same parameters. `rng` drives dropout, augmentation, and the aux
    /// objective's in-loss negative sampling.
    pub fn compute_loss_prepared(
        &self,
        prepared: &PreparedBatch,
        sampler: &NegativeSampler,
        num_negatives: usize,
        rng: &mut StdRng,
    ) -> Tensor {
        let instances = prepared.instance_refs();
        let instances = instances.as_slice();
        let batch = &prepared.batch;
        let (b, n) = (batch.size, batch.num_negatives);

        let mut mode = Mode::Train(rng);
        let h = self.encode(batch, &mut mode);
        // One extractor projection serves the prediction interests and
        // every behavior's alignment interests.
        let projection = self.extractor.project(&h);
        let z_pred = self.extractor.pool(&h, &projection, &batch.valid);

        // --- Main loss: sampled softmax over [target ; negatives]. ---
        let c = 1 + n;
        let mut candidate_ids = Vec::with_capacity(b * c);
        for bi in 0..b {
            candidate_ids.push(batch.targets[bi]);
            candidate_ids.extend_from_slice(&batch.negatives[bi * n..(bi + 1) * n]);
        }
        let logits = self.score_against(&z_pred, &candidate_ids, c);
        let targets = vec![0usize; b];
        let mut loss = logits.cross_entropy_logits(&targets);

        // --- SSL: cross-behavior interest alignment. ---
        if self.config.lambda_align > 0.0 {
            let (z_target, target_valid) =
                self.behavior_interests(&h, &projection, batch, self.schema.target.index());
            for aux in self.schema.auxiliaries() {
                let (z_aux, aux_valid) =
                    self.behavior_interests(&h, &projection, batch, aux.index());
                let both: Vec<f32> = aux_valid
                    .iter()
                    .zip(target_valid.iter())
                    .map(|(&a, &t)| a * t)
                    .collect();
                let align = alignment_loss(&z_aux, &z_target, self.config.temperature, &both);
                loss = loss.add(&align.mul_scalar(self.config.lambda_align));
            }
        }

        // --- SSL: augmentation-based sequence contrast. ---
        if self.config.lambda_aug > 0.0 {
            let ops = default_ops();
            let view = |rng: &mut StdRng| -> Batch {
                let seqs: Vec<Sequence> = instances
                    .iter()
                    .map(|inst| random_augment(&inst.history, &ops, rng))
                    .collect();
                let refs: Vec<&Sequence> = seqs.iter().collect();
                Batch::encode_histories(&refs)
            };
            let (b1, b2) = {
                let rng = match &mut mode {
                    Mode::Train(r) => r,
                    Mode::Eval => unreachable!(),
                };
                (view(rng), view(rng))
            };
            let h1 = self.encode(&b1, &mut mode);
            let v1 = self.user_repr(&h1, &b1);
            let h2 = self.encode(&b2, &mut mode);
            let v2 = self.user_repr(&h2, &b2);
            let aug = augmentation_loss(&v1, &v2, self.config.temperature);
            loss = loss.add(&aug.mul_scalar(self.config.lambda_aug));
        }

        // --- Extension: auxiliary-behavior next-item prediction. ---
        // For each auxiliary behavior, predict the most recent event of
        // that behavior from the history strictly before it (multi-task
        // signal in the MB-STR tradition). Off by default (lambda_aux 0).
        if self.config.lambda_aux > 0.0 {
            let auxiliaries = self.schema.auxiliaries();
            for aux in &auxiliaries {
                let tag = aux.index();
                // Build (prefix, aux-target) pairs from instances that have
                // an aux event preceded by at least one other event.
                let mut aux_instances: Vec<TrainInstance> = Vec::new();
                for inst in instances.iter() {
                    if let Some(pos) = inst
                        .history
                        .behaviors
                        .iter()
                        .rposition(|&b| b.index() == tag)
                    {
                        if pos > 0 {
                            aux_instances.push(TrainInstance {
                                user: inst.user,
                                history: Sequence {
                                    items: inst.history.items[..pos].to_vec(),
                                    behaviors: inst.history.behaviors[..pos].to_vec(),
                                },
                                target: inst.history.items[pos],
                            });
                        }
                    }
                }
                if aux_instances.len() < 2 {
                    continue;
                }
                let aux_refs: Vec<&TrainInstance> = aux_instances.iter().collect();
                let rng_ref = match &mut mode {
                    Mode::Train(r) => r,
                    Mode::Eval => unreachable!(),
                };
                let aux_batch = Batch::encode(
                    &aux_refs,
                    sampler,
                    num_negatives,
                    NegativeStrategy::Uniform,
                    rng_ref,
                );
                let ab = aux_batch.size;
                let an = aux_batch.num_negatives;
                let h_aux = self.encode(&aux_batch, &mut mode);
                let z_aux = self.interests(&h_aux, &aux_batch);
                let ac = 1 + an;
                let mut aux_cand = Vec::with_capacity(ab * ac);
                for bi in 0..ab {
                    aux_cand.push(aux_batch.targets[bi]);
                    aux_cand.extend_from_slice(&aux_batch.negatives[bi * an..(bi + 1) * an]);
                }
                let aux_logits = self.score_against(&z_aux, &aux_cand, ac);
                let aux_loss = aux_logits.cross_entropy_logits(&vec![0usize; ab]);
                let weight = self.config.lambda_aux / auxiliaries.len() as f32;
                loss = loss.add(&aux_loss.mul_scalar(weight));
            }
        }

        // --- SSL: interest disentanglement. ---
        if self.config.lambda_disent > 0.0 && self.config.num_interests > 1 {
            let disent = disentanglement_loss(&z_pred);
            loss = loss.add(&disent.mul_scalar(self.config.lambda_disent));
        }

        loss
    }

    /// Saves the model's config and parameters to a checkpoint file
    /// (see [`crate::serialize`] for the format).
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CheckpointError> {
        crate::serialize::save_params_to_file(&self.config, &self.named_params(), path)
    }

    /// Builds the model a checkpoint produced by [`Mbmissl::save`] records
    /// (its config, for a catalog of `num_items` under `schema`) and loads
    /// its parameters.
    pub fn from_checkpoint(
        path: impl AsRef<std::path::Path>,
        num_items: usize,
        schema: BehaviorSchema,
    ) -> Result<Mbmissl, CheckpointError> {
        let checkpoint = Checkpoint::open(path)?;
        let model = Mbmissl::new(num_items, schema, checkpoint.config().clone());
        checkpoint.load_into(&model.named_params())?;
        Ok(model)
    }

    /// Interest-level inspection: attention weights `[B, K, L]` over a
    /// batch of histories (for the analysis example / t-SNE-style tooling).
    pub fn inspect_attention(&self, histories: &[&Sequence]) -> (Batch, Vec<f32>) {
        let batch = Batch::encode_recent(histories, self.config.max_seq_len);
        let weights = no_grad(|| {
            let h = self.encode(&batch, &mut Mode::Eval);
            self.extractor.attention_weights(&h, &batch.valid).to_vec()
        });
        (batch, weights)
    }

    /// Extracted prediction interests for a batch of histories
    /// (row-major `[B, K, D]`), for analysis tooling.
    pub fn extract_interests(&self, histories: &[&Sequence]) -> Vec<f32> {
        let batch = Batch::encode_recent(histories, self.config.max_seq_len);
        no_grad(|| {
            let h = self.encode(&batch, &mut Mode::Eval);
            self.interests(&h, &batch).to_vec()
        })
    }
}

impl Module for Mbmissl {
    fn collect_params(&self, prefix: &str, map: &mut ParamMap) {
        self.input
            .collect_params(&mbssl_tensor::nn::join_name(prefix, "input"), map);
        self.backbone
            .collect_params(&mbssl_tensor::nn::join_name(prefix, "backbone"), map);
        self.extractor
            .collect_params(&mbssl_tensor::nn::join_name(prefix, "extractor"), map);
    }
}

impl SequentialRecommender for Mbmissl {
    fn name(&self) -> String {
        format!(
            "MBMISSL(dim={}, K={}, {:?}, {:?})",
            self.config.dim, self.config.num_interests, self.config.encoder, self.config.extractor
        )
    }

    fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
        assert_eq!(histories.len(), candidates.len());
        if histories.is_empty() {
            return Vec::new();
        }
        no_grad(|| {
            let z = self.history_interests(histories);
            // All lists must share one length to batch into a tensor; this
            // holds under the 1-vs-99 protocol.
            let c = candidates[0].len();
            assert!(
                candidates.iter().all(|l| l.len() == c),
                "ragged candidate lists"
            );
            let flat: Vec<usize> = candidates
                .iter()
                .flat_map(|l| l.iter().map(|&i| i as usize))
                .collect();
            let scores = self.score_against(&z, &flat, c);
            let data = scores.to_vec();
            (0..histories.len())
                .map(|b| data[b * c..(b + 1) * c].to_vec())
                .collect()
        })
    }

    fn prepare_inference(&self) -> Option<Box<dyn SequentialRecommender>> {
        Some(Box::new(crate::infer::InferenceModel::compile(self)))
    }
}

impl TrainableRecommender for Mbmissl {
    fn named_params(&self) -> ParamMap {
        self.param_map("mbmissl")
    }

    fn prepare_batch(
        &self,
        instances: &[&TrainInstance],
        sampler: &NegativeSampler,
        num_negatives: usize,
        rng: &mut StdRng,
    ) -> PreparedBatch {
        PreparedBatch::build(
            instances,
            sampler,
            num_negatives,
            NegativeStrategy::Uniform,
            Some(self.config.max_seq_len),
            rng,
        )
    }

    fn loss_on_prepared(
        &self,
        prepared: &PreparedBatch,
        sampler: &NegativeSampler,
        num_negatives: usize,
        rng: &mut StdRng,
    ) -> Tensor {
        self.compute_loss_prepared(prepared, sampler, num_negatives, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EncoderKind, ExtractorKind};
    use mbssl_data::preprocess::{leave_one_out, SplitConfig};
    use mbssl_data::synthetic::SyntheticConfig;
    use mbssl_data::Behavior;
    use rand::SeedableRng;

    fn tiny_model(encoder: EncoderKind, extractor: ExtractorKind) -> (Mbmissl, mbssl_data::Dataset) {
        let g = SyntheticConfig::taobao_like(31).scaled(0.05).generate();
        let schema = BehaviorSchema::new(g.dataset.behaviors.clone(), g.dataset.target_behavior);
        let config = ModelConfig {
            dim: 16,
            heads: 2,
            num_layers: 1,
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

    #[test]
    fn loss_is_finite_and_positive() {
        let (model, dataset) = tiny_model(EncoderKind::Hypergraph, ExtractorKind::SelfAttentive);
        let split = leave_one_out(&dataset, &SplitConfig { max_seq_len: 20, ..Default::default() });
        let sampler = NegativeSampler::from_dataset(&dataset);
        let mut rng = StdRng::seed_from_u64(0);
        let refs: Vec<&TrainInstance> = split.train.iter().take(8).collect();
        let loss = model.loss_on_batch(&refs, &sampler, 8, &mut rng);
        assert!(loss.item().is_finite());
        assert!(loss.item() > 0.0);
    }

    #[test]
    fn backward_reaches_every_parameter() {
        let (model, dataset) = tiny_model(EncoderKind::Hypergraph, ExtractorKind::SelfAttentive);
        let split = leave_one_out(&dataset, &SplitConfig { max_seq_len: 20, ..Default::default() });
        let sampler = NegativeSampler::from_dataset(&dataset);
        let mut rng = StdRng::seed_from_u64(1);
        let refs: Vec<&TrainInstance> = split.train.iter().take(8).collect();
        model
            .loss_on_batch(&refs, &sampler, 8, &mut rng)
            .backward();
        let mut missing = Vec::new();
        for (name, t) in model.param_map("m").iter() {
            if t.grad().is_none() {
                missing.push(name.to_string());
            }
        }
        // The positional rows beyond batch length legitimately receive
        // zero gradient but the tensor itself must still be touched.
        assert!(missing.is_empty(), "params missing grads: {missing:?}");
    }

    #[test]
    fn scoring_shapes_and_determinism() {
        let (model, dataset) = tiny_model(EncoderKind::Hypergraph, ExtractorKind::SelfAttentive);
        let hist = dataset.sequences[0].clone();
        let cands: Vec<ItemId> = (1..=10).collect();
        let a = model.score_batch(&[&hist], &[&cands]);
        let b = model.score_batch(&[&hist], &[&cands]);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].len(), 10);
        assert_eq!(a, b, "eval scoring must be deterministic");
    }

    #[test]
    fn transformer_and_routing_variants_run() {
        let (model, dataset) = tiny_model(EncoderKind::Transformer, ExtractorKind::DynamicRouting);
        let hist = dataset.sequences[0].clone();
        let cands: Vec<ItemId> = (1..=5).collect();
        let scores = model.score_batch(&[&hist], &[&cands]);
        assert!(scores[0].iter().all(|s| s.is_finite()));
    }

    #[test]
    fn ssl_terms_change_the_loss() {
        let g = SyntheticConfig::taobao_like(33).scaled(0.05).generate();
        let schema = BehaviorSchema::new(g.dataset.behaviors.clone(), g.dataset.target_behavior);
        let base_cfg = ModelConfig {
            dim: 16,
            heads: 2,
            num_layers: 1,
            ffn_hidden: 32,
            num_interests: 2,
            extractor_hidden: 16,
            max_seq_len: 20,
            dropout: 0.0,
            ..ModelConfig::default()
        };
        let with_ssl = Mbmissl::new(g.dataset.num_items, schema.clone(), base_cfg.clone());
        let without = Mbmissl::new(
            g.dataset.num_items,
            schema,
            base_cfg.without_ssl(),
        );
        let split = leave_one_out(&g.dataset, &SplitConfig { max_seq_len: 20, ..Default::default() });
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let refs: Vec<&TrainInstance> = split.train.iter().take(8).collect();
        let l1 = with_ssl
            .loss_on_batch(&refs, &sampler, 8, &mut StdRng::seed_from_u64(3))
            .item();
        let l2 = without
            .loss_on_batch(&refs, &sampler, 8, &mut StdRng::seed_from_u64(3))
            .item();
        // Same seed → same parameters and same sampled negatives; the SSL
        // terms must move the total.
        assert!((l1 - l2).abs() > 1e-5, "SSL terms had no effect");
    }

    #[test]
    fn aux_prediction_loss_changes_total() {
        let g = SyntheticConfig::taobao_like(34).scaled(0.05).generate();
        let schema = BehaviorSchema::new(g.dataset.behaviors.clone(), g.dataset.target_behavior);
        let base = ModelConfig {
            dim: 16,
            heads: 2,
            num_layers: 1,
            ffn_hidden: 32,
            num_interests: 2,
            extractor_hidden: 16,
            max_seq_len: 20,
            dropout: 0.0,
            ..ModelConfig::default()
        }
        .without_ssl();
        let with_aux = Mbmissl::new(
            g.dataset.num_items,
            schema.clone(),
            ModelConfig {
                lambda_aux: 0.5,
                ..base.clone()
            },
        );
        let without = Mbmissl::new(g.dataset.num_items, schema, base);
        let split = leave_one_out(&g.dataset, &SplitConfig { max_seq_len: 20, ..Default::default() });
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let refs: Vec<&TrainInstance> = split.train.iter().take(8).collect();
        let l1 = with_aux
            .loss_on_batch(&refs, &sampler, 8, &mut StdRng::seed_from_u64(5))
            .item();
        let l2 = without
            .loss_on_batch(&refs, &sampler, 8, &mut StdRng::seed_from_u64(5))
            .item();
        assert!(l1.is_finite() && l2.is_finite());
        assert!((l1 - l2).abs() > 1e-6, "aux loss had no effect");

        // Gradients still reach every parameter with the aux loss on.
        with_aux
            .loss_on_batch(&refs, &sampler, 8, &mut StdRng::seed_from_u64(6))
            .backward();
        for (name, t) in with_aux.param_map("m").iter() {
            assert!(t.grad().is_some(), "{name} missing grad with aux loss");
        }
    }

    #[test]
    fn behavior_interest_validity_flags() {
        let (model, _) = tiny_model(EncoderKind::Hypergraph, ExtractorKind::SelfAttentive);
        // A history with clicks only.
        let mut s = Sequence::new();
        s.push(1, Behavior::Click);
        s.push(2, Behavior::Click);
        let batch = Batch::encode_histories(&[&s]);
        let h = no_grad(|| model.encode(&batch, &mut Mode::Eval));
        let p = model.extractor.project(&h);
        let (_, click_valid) = model.behavior_interests(&h, &p, &batch, Behavior::Click.index());
        let (_, buy_valid) = model.behavior_interests(&h, &p, &batch, Behavior::Purchase.index());
        assert_eq!(click_valid, vec![1.0]);
        assert_eq!(buy_valid, vec![0.0]);
    }

    #[test]
    fn inspect_attention_rows_normalized() {
        let (model, dataset) = tiny_model(EncoderKind::Hypergraph, ExtractorKind::SelfAttentive);
        let hist = &dataset.sequences[0];
        let (batch, weights) = model.inspect_attention(&[hist]);
        let (k, l) = (2, batch.max_len);
        assert_eq!(weights.len(), k * l);
        for row in weights.chunks(l) {
            assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-3);
        }
    }
}
