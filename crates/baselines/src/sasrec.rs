//! SASRec: self-attentive sequential recommendation (Kang & McAuley,
//! 2018). Causal transformer over the item sequence, last-state readout.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbssl_core::{SequentialRecommender, TrainableRecommender};
use mbssl_data::preprocess::TrainInstance;
use mbssl_data::sampler::{Batch, NegativeSampler, NegativeStrategy, PreparedBatch};
use mbssl_data::{ItemId, Sequence};
use mbssl_tensor::nn::{
    causal_mask, key_padding_mask, Embedding, Mode, Module, ParamMap, TransformerBlock,
};
use mbssl_tensor::{no_grad, Tensor};

pub struct SasRec {
    item_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<TransformerBlock>,
    heads: usize,
    dim: usize,
    max_seq_len: usize,
    dropout: f32,
}

impl SasRec {
    pub fn new(
        num_items: usize,
        dim: usize,
        heads: usize,
        num_layers: usize,
        max_seq_len: usize,
        dropout: f32,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        SasRec {
            item_emb: Embedding::new(num_items + 1, dim, &mut rng).with_padding_idx(0),
            pos_emb: Embedding::new(max_seq_len, dim, &mut rng),
            blocks: (0..num_layers)
                .map(|_| TransformerBlock::new(dim, heads, dim * 2, dropout, &mut rng))
                .collect(),
            heads,
            dim,
            max_seq_len,
            dropout,
        }
    }

    fn user_vec(&self, batch: &Batch, mode: &mut Mode) -> Tensor {
        let (b, l) = (batch.size, batch.max_len);
        let item = self.item_emb.forward_seq(&batch.items, b, l);
        let positions: Vec<usize> = (0..b * l).map(|i| i % l).collect();
        let pos = self.pos_emb.forward_seq(&positions, b, l);
        let mut h = mode.dropout(&item.add(&pos), self.dropout);
        // Combine causal + key-padding masks (1 = blocked).
        let causal = causal_mask(l);
        let pad = key_padding_mask(&batch.valid, b, self.heads, l);
        let mask = pad.maximum(&causal);
        for block in &self.blocks {
            h = block.forward(&h, Some(&mask), mode);
        }
        crate::common::last_valid_state(&h, batch)
    }
}

impl SequentialRecommender for SasRec {
    fn name(&self) -> String {
        format!("SASRec(d={}, L={})", self.dim, self.blocks.len())
    }

    fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
        no_grad(|| {
            let batch = Batch::encode_recent(histories, self.max_seq_len);
            let user = self.user_vec(&batch, &mut Mode::Eval);
            crate::common::score_from_user_vec(&user, &self.item_emb, candidates)
        })
    }
}

impl TrainableRecommender for SasRec {
    fn named_params(&self) -> ParamMap {
        let mut map = ParamMap::new();
        self.item_emb.collect_params("sasrec.item", &mut map);
        self.pos_emb.collect_params("sasrec.pos", &mut map);
        for (i, b) in self.blocks.iter().enumerate() {
            b.collect_params(&format!("sasrec.block{i}"), &mut map);
        }
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
        rng: &mut StdRng,
    ) -> Tensor {
        let batch = &prepared.batch;
        let user = self.user_vec(batch, &mut Mode::Train(rng));
        crate::common::sampled_softmax_loss(&user, &self.item_emb, batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbssl_data::Behavior;

    #[test]
    fn eval_scoring_deterministic_despite_dropout_config() {
        let model = SasRec::new(20, 8, 2, 2, 10, 0.5, 1);
        let mut h = Sequence::new();
        h.push(1, Behavior::Click);
        h.push(2, Behavior::Click);
        let cands: Vec<ItemId> = (1..=5).collect();
        assert_eq!(
            model.score_batch(&[&h], &[&cands]),
            model.score_batch(&[&h], &[&cands])
        );
    }

    #[test]
    fn order_sensitivity() {
        let model = SasRec::new(20, 8, 2, 1, 10, 0.0, 2);
        let mut a = Sequence::new();
        a.push(1, Behavior::Click);
        a.push(2, Behavior::Click);
        a.push(3, Behavior::Click);
        let mut b = Sequence::new();
        b.push(3, Behavior::Click);
        b.push(2, Behavior::Click);
        b.push(1, Behavior::Click);
        let cands: Vec<ItemId> = (1..=5).collect();
        assert_ne!(model.score_batch(&[&a], &[&cands]), model.score_batch(&[&b], &[&cands]));
    }

    #[test]
    fn behavior_blind() {
        // SASRec must ignore behavior labels entirely.
        let model = SasRec::new(20, 8, 2, 1, 10, 0.0, 3);
        let mut a = Sequence::new();
        a.push(1, Behavior::Click);
        a.push(2, Behavior::Click);
        let mut b = Sequence::new();
        b.push(1, Behavior::Purchase);
        b.push(2, Behavior::Favorite);
        let cands: Vec<ItemId> = (1..=5).collect();
        assert_eq!(model.score_batch(&[&a], &[&cands]), model.score_batch(&[&b], &[&cands]));
    }

    #[test]
    fn gradients_reach_blocks() {
        use mbssl_data::preprocess::{leave_one_out, SplitConfig};
        use mbssl_data::synthetic::SyntheticConfig;

        let g = SyntheticConfig::yelp_like(101).scaled(0.05).generate();
        let split = leave_one_out(&g.dataset, &SplitConfig::default());
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let model = SasRec::new(g.dataset.num_items, 8, 2, 1, 20, 0.0, 4);
        let refs: Vec<&TrainInstance> = split.train.iter().take(4).collect();
        let mut rng = StdRng::seed_from_u64(0);
        model.loss_on_batch(&refs, &sampler, 4, &mut rng).backward();
        for (name, t) in model.named_params().iter() {
            assert!(t.grad().is_some(), "{name} missing grad");
        }
    }
}
