//! GRU4Rec: session-based recurrent recommendation (Hidasi et al., 2015),
//! adapted to the shared sampled-softmax protocol. Single-behavior: it
//! consumes the item sequence and ignores behavior types.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbssl_core::{SequentialRecommender, TrainableRecommender};
use mbssl_data::preprocess::TrainInstance;
use mbssl_data::sampler::{Batch, NegativeSampler, NegativeStrategy, PreparedBatch};
use mbssl_data::{ItemId, Sequence};
use mbssl_tensor::nn::{Embedding, Gru, Module, ParamMap};
use mbssl_tensor::{no_grad, Tensor};

pub struct Gru4Rec {
    item_emb: Embedding,
    gru: Gru,
    dim: usize,
    max_seq_len: usize,
}

impl Gru4Rec {
    pub fn new(num_items: usize, dim: usize, max_seq_len: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Gru4Rec {
            item_emb: Embedding::new(num_items + 1, dim, &mut rng).with_padding_idx(0),
            gru: Gru::new(dim, dim, &mut rng),
            dim,
            max_seq_len,
        }
    }

    fn user_vec(&self, batch: &Batch) -> Tensor {
        let (b, l) = (batch.size, batch.max_len);
        let x = self.item_emb.forward_seq(&batch.items, b, l);
        let valid = Tensor::from_vec(batch.valid.clone(), [b, l]);
        let (_, last) = self.gru.forward(&x, &valid);
        last
    }
}

impl SequentialRecommender for Gru4Rec {
    fn name(&self) -> String {
        format!("GRU4Rec(d={})", self.dim)
    }

    fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
        no_grad(|| {
            let batch = Batch::encode_recent(histories, self.max_seq_len);
            let user = self.user_vec(&batch);
            crate::common::score_from_user_vec(&user, &self.item_emb, candidates)
        })
    }
}

impl TrainableRecommender for Gru4Rec {
    fn named_params(&self) -> ParamMap {
        let mut map = ParamMap::new();
        self.item_emb.collect_params("gru4rec.item", &mut map);
        self.gru.collect_params("gru4rec.gru", &mut map);
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
    use mbssl_data::Behavior;

    #[test]
    fn scoring_depends_on_order() {
        let model = Gru4Rec::new(20, 8, 10, 1);
        let mut a = Sequence::new();
        a.push(1, Behavior::Click);
        a.push(2, Behavior::Click);
        let mut b = Sequence::new();
        b.push(2, Behavior::Click);
        b.push(1, Behavior::Click);
        let cands: Vec<ItemId> = (1..=5).collect();
        let sa = model.score_batch(&[&a], &[&cands]);
        let sb = model.score_batch(&[&b], &[&cands]);
        assert_ne!(sa, sb, "GRU must be order-sensitive");
    }

    #[test]
    fn param_registry_complete() {
        let model = Gru4Rec::new(20, 8, 10, 1);
        // item table + 9 GRU tensors.
        assert_eq!(model.named_params().len(), 10);
    }

    #[test]
    fn loss_backward_touches_gru() {
        use mbssl_data::preprocess::{leave_one_out, SplitConfig};
        use mbssl_data::synthetic::SyntheticConfig;

        let g = SyntheticConfig::yelp_like(91).scaled(0.05).generate();
        let split = leave_one_out(&g.dataset, &SplitConfig::default());
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let model = Gru4Rec::new(g.dataset.num_items, 8, 20, 2);
        let refs: Vec<&TrainInstance> = split.train.iter().take(4).collect();
        let mut rng = StdRng::seed_from_u64(0);
        model.loss_on_batch(&refs, &sampler, 4, &mut rng).backward();
        for (name, t) in model.named_params().iter() {
            assert!(t.grad().is_some(), "{name} missing grad");
        }
    }
}
