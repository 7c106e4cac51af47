//! ComiRec: controllable multi-interest sequential recommendation
//! (Cen et al., 2020). Single-behavior multi-interest baseline — isolates
//! the contribution of multi-interest modeling without multi-behavior or
//! SSL machinery.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbssl_core::config::{ExtractorKind, ModelConfig};
use mbssl_core::interest::InterestExtractor;
use mbssl_core::{SequentialRecommender, TrainableRecommender};
use mbssl_data::preprocess::TrainInstance;
use mbssl_data::sampler::{Batch, NegativeSampler, NegativeStrategy, PreparedBatch};
use mbssl_data::{ItemId, Sequence};
use mbssl_tensor::nn::{Embedding, Module, ParamMap};
use mbssl_tensor::{no_grad, Tensor};

pub struct ComiRec {
    item_emb: Embedding,
    pos_emb: Embedding,
    extractor: InterestExtractor,
    dim: usize,
    max_seq_len: usize,
}

impl ComiRec {
    /// `kind` selects the SA (self-attentive) or DR (dynamic-routing)
    /// variant from the original paper.
    pub fn new(
        num_items: usize,
        dim: usize,
        num_interests: usize,
        kind: ExtractorKind,
        max_seq_len: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = ModelConfig {
            dim,
            num_interests,
            extractor_hidden: dim,
            extractor: kind,
            max_seq_len,
            ..ModelConfig::default()
        };
        ComiRec {
            item_emb: Embedding::new(num_items + 1, dim, &mut rng).with_padding_idx(0),
            pos_emb: Embedding::new(max_seq_len, dim, &mut rng),
            extractor: InterestExtractor::new(&cfg, &mut rng),
            dim,
            max_seq_len,
        }
    }

    /// Interest vectors `[B, K, D]` from raw item embeddings + positions.
    fn interests(&self, batch: &Batch) -> Tensor {
        let (b, l) = (batch.size, batch.max_len);
        let item = self.item_emb.forward_seq(&batch.items, b, l);
        let positions: Vec<usize> = (0..b * l).map(|i| i % l).collect();
        let pos = self.pos_emb.forward_seq(&positions, b, l);
        self.extractor.forward(&item.add(&pos), &batch.valid)
    }

    /// `max_k ⟨z_k, e_i⟩` scores for a flat candidate id list.
    fn max_dot_scores(&self, z: &Tensor, ids: &[usize], c: usize) -> Tensor {
        let b = z.dims()[0];
        let cand = self.item_emb.forward(ids).reshape([b, c, self.dim]);
        z.bmm(&cand.transpose_last()).max_axis(1, false)
    }
}

impl SequentialRecommender for ComiRec {
    fn name(&self) -> String {
        format!(
            "ComiRec-{}(K={})",
            match self.extractor {
                InterestExtractor::SelfAttentive { .. } => "SA",
                InterestExtractor::DynamicRouting { .. } => "DR",
            },
            self.extractor.num_interests()
        )
    }

    fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
        no_grad(|| {
            let batch = Batch::encode_recent(histories, self.max_seq_len);
            let z = self.interests(&batch);
            let c = candidates[0].len();
            let flat: Vec<usize> = candidates
                .iter()
                .flat_map(|l| l.iter().map(|&i| i as usize))
                .collect();
            let scores = self.max_dot_scores(&z, &flat, c);
            let data = scores.to_vec();
            (0..histories.len())
                .map(|b| data[b * c..(b + 1) * c].to_vec())
                .collect()
        })
    }
}

impl TrainableRecommender for ComiRec {
    fn named_params(&self) -> ParamMap {
        let mut map = ParamMap::new();
        self.item_emb.collect_params("comirec.item", &mut map);
        self.pos_emb.collect_params("comirec.pos", &mut map);
        self.extractor.collect_params("comirec.extractor", &mut map);
        map
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
            Some(self.max_seq_len),
            rng,
        )
    }

    fn loss_on_prepared(
        &self,
        prepared: &PreparedBatch,
        _sampler: &NegativeSampler,
        _num_negatives: usize,
        _rng: &mut StdRng,
    ) -> Tensor {
        let batch = &prepared.batch;
        let z = self.interests(batch);
        let (b, n) = (batch.size, batch.num_negatives);
        let c = 1 + n;
        let mut ids = Vec::with_capacity(b * c);
        for bi in 0..b {
            ids.push(batch.targets[bi]);
            ids.extend_from_slice(&batch.negatives[bi * n..(bi + 1) * n]);
        }
        let logits = self.max_dot_scores(&z, &ids, c);
        logits.cross_entropy_logits(&vec![0usize; b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbssl_data::Behavior;

    #[test]
    fn both_variants_score_finite() {
        for kind in [ExtractorKind::SelfAttentive, ExtractorKind::DynamicRouting] {
            let model = ComiRec::new(20, 8, 3, kind, 10, 1);
            let mut h = Sequence::new();
            h.push(1, Behavior::Click);
            h.push(5, Behavior::Click);
            let cands: Vec<ItemId> = (1..=6).collect();
            let scores = model.score_batch(&[&h], &[&cands]);
            assert!(scores[0].iter().all(|s| s.is_finite()));
        }
    }

    #[test]
    fn name_reflects_variant() {
        assert!(ComiRec::new(10, 8, 4, ExtractorKind::SelfAttentive, 10, 1)
            .name()
            .contains("SA"));
        assert!(ComiRec::new(10, 8, 4, ExtractorKind::DynamicRouting, 10, 1)
            .name()
            .contains("DR"));
    }

    #[test]
    fn training_grads_cover_params() {
        use mbssl_data::preprocess::{leave_one_out, SplitConfig};
        use mbssl_data::synthetic::SyntheticConfig;

        let g = SyntheticConfig::yelp_like(121).scaled(0.05).generate();
        let split = leave_one_out(&g.dataset, &SplitConfig::default());
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let model = ComiRec::new(g.dataset.num_items, 8, 2, ExtractorKind::SelfAttentive, 20, 2);
        let refs: Vec<&TrainInstance> = split.train.iter().take(4).collect();
        let mut rng = StdRng::seed_from_u64(0);
        model.loss_on_batch(&refs, &sampler, 4, &mut rng).backward();
        for (name, t) in model.named_params().iter() {
            assert!(t.grad().is_some(), "{name} missing grad");
        }
    }
}
