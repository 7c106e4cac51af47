//! MB-GRU: a behavior-aware recurrent baseline — GRU4Rec plus behavior
//! embeddings fused into every step. The simplest way to consume
//! multi-behavior signal, isolating "does behavior identity help at all".

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbssl_core::{SequentialRecommender, TrainableRecommender};
use mbssl_data::preprocess::TrainInstance;
use mbssl_data::sampler::{Batch, NegativeSampler, NegativeStrategy, PreparedBatch};
use mbssl_data::{Behavior, ItemId, Sequence};
use mbssl_tensor::nn::{Embedding, Gru, Module, ParamMap};
use mbssl_tensor::{no_grad, Tensor};

pub struct MbGru {
    item_emb: Embedding,
    behavior_emb: Embedding,
    gru: Gru,
    dim: usize,
    max_seq_len: usize,
}

impl MbGru {
    pub fn new(num_items: usize, dim: usize, max_seq_len: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        MbGru {
            item_emb: Embedding::new(num_items + 1, dim, &mut rng).with_padding_idx(0),
            behavior_emb: Embedding::new(Behavior::VOCAB, dim, &mut rng)
                .with_padding_idx(Behavior::PAD_INDEX),
            gru: Gru::new(dim, dim, &mut rng),
            dim,
            max_seq_len,
        }
    }

    fn user_vec(&self, batch: &Batch) -> Tensor {
        let (b, l) = (batch.size, batch.max_len);
        let item = self.item_emb.forward_seq(&batch.items, b, l);
        let behavior = self.behavior_emb.forward_seq(&batch.behaviors, b, l);
        let x = item.add(&behavior);
        let valid = Tensor::from_vec(batch.valid.clone(), [b, l]);
        let (_, last) = self.gru.forward(&x, &valid);
        last
    }
}

impl SequentialRecommender for MbGru {
    fn name(&self) -> String {
        format!("MB-GRU(d={})", self.dim)
    }

    fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
        no_grad(|| {
            let batch = Batch::encode_recent(histories, self.max_seq_len);
            let user = self.user_vec(&batch);
            crate::common::score_from_user_vec(&user, &self.item_emb, candidates)
        })
    }
}

impl TrainableRecommender for MbGru {
    fn named_params(&self) -> ParamMap {
        let mut map = ParamMap::new();
        self.item_emb.collect_params("mbgru.item", &mut map);
        self.behavior_emb.collect_params("mbgru.behavior", &mut map);
        self.gru.collect_params("mbgru.gru", &mut map);
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
        let user = self.user_vec(batch);
        crate::common::sampled_softmax_loss(&user, &self.item_emb, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behavior_labels_change_scores() {
        let model = MbGru::new(20, 8, 10, 1);
        let mut a = Sequence::new();
        a.push(1, Behavior::Click);
        a.push(2, Behavior::Click);
        let mut b = Sequence::new();
        b.push(1, Behavior::Purchase);
        b.push(2, Behavior::Purchase);
        let cands: Vec<ItemId> = (1..=5).collect();
        assert_ne!(
            model.score_batch(&[&a], &[&cands]),
            model.score_batch(&[&b], &[&cands]),
            "behavior identity had no effect"
        );
    }

    #[test]
    fn params_include_behavior_table() {
        let model = MbGru::new(20, 8, 10, 1);
        assert!(model.named_params().get("mbgru.behavior.weight").is_some());
    }
}
