//! CL4SRec: contrastive learning for sequential recommendation
//! (Xie et al., 2022) — SASRec plus an augmentation-based InfoNCE over two
//! stochastic views of each sequence.
//!
//! In the comparison this isolates the value of *sequence-level SSL
//! without multi-behavior or multi-interest machinery*: it shares
//! MBMISSL's augmentation objective but nothing else.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbssl_core::ssl::augmentation_loss;
use mbssl_core::{SequentialRecommender, TrainableRecommender};
use mbssl_data::augment::{default_ops, random_augment};
use mbssl_data::preprocess::TrainInstance;
use mbssl_data::sampler::{Batch, NegativeSampler, NegativeStrategy, PreparedBatch};
use mbssl_data::{ItemId, Sequence};
use mbssl_tensor::nn::{
    causal_mask, key_padding_mask, Embedding, Mode, Module, ParamMap, TransformerBlock,
};
use mbssl_tensor::{no_grad, Tensor};

pub struct Cl4SRec {
    item_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<TransformerBlock>,
    heads: usize,
    dim: usize,
    max_seq_len: usize,
    dropout: f32,
    /// Weight of the contrastive term.
    lambda_cl: f32,
    /// InfoNCE temperature.
    temperature: f32,
}

impl Cl4SRec {
    #[allow(clippy::too_many_arguments)] // constructor mirrors the hyperparameter list
    pub fn new(
        num_items: usize,
        dim: usize,
        heads: usize,
        num_layers: usize,
        max_seq_len: usize,
        dropout: f32,
        lambda_cl: f32,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Cl4SRec {
            item_emb: Embedding::new(num_items + 1, dim, &mut rng).with_padding_idx(0),
            pos_emb: Embedding::new(max_seq_len, dim, &mut rng),
            blocks: (0..num_layers)
                .map(|_| TransformerBlock::new(dim, heads, dim * 2, dropout, &mut rng))
                .collect(),
            heads,
            dim,
            max_seq_len,
            dropout,
            lambda_cl,
            temperature: 0.2,
        }
    }

    fn user_vec(&self, batch: &Batch, mode: &mut Mode) -> Tensor {
        let (b, l) = (batch.size, batch.max_len);
        let item = self.item_emb.forward_seq(&batch.items, b, l);
        let positions: Vec<usize> = (0..b * l).map(|i| i % l).collect();
        let pos = self.pos_emb.forward_seq(&positions, b, l);
        let mut h = mode.dropout(&item.add(&pos), self.dropout);
        let mask = key_padding_mask(&batch.valid, b, self.heads, l).maximum(&causal_mask(l));
        for block in &self.blocks {
            h = block.forward(&h, Some(&mask), mode);
        }
        crate::common::last_valid_state(&h, batch)
    }
}

impl SequentialRecommender for Cl4SRec {
    fn name(&self) -> String {
        format!("CL4SRec(d={}, λ={})", self.dim, self.lambda_cl)
    }

    fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
        no_grad(|| {
            let batch = Batch::encode_recent(histories, self.max_seq_len);
            let user = self.user_vec(&batch, &mut Mode::Eval);
            crate::common::score_from_user_vec(&user, &self.item_emb, candidates)
        })
    }
}

impl TrainableRecommender for Cl4SRec {
    fn named_params(&self) -> ParamMap {
        let mut map = ParamMap::new();
        self.item_emb.collect_params("cl4srec.item", &mut map);
        self.pos_emb.collect_params("cl4srec.pos", &mut map);
        for (i, b) in self.blocks.iter().enumerate() {
            b.collect_params(&format!("cl4srec.block{i}"), &mut map);
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
        let mut loss = crate::common::sampled_softmax_loss(&user, &self.item_emb, batch);

        if self.lambda_cl > 0.0 {
            let ops = default_ops();
            let view = |rng: &mut StdRng| -> Batch {
                let seqs: Vec<Sequence> = prepared
                    .instances
                    .iter()
                    .map(|inst| random_augment(&inst.history, &ops, rng))
                    .collect();
                let view_refs: Vec<&Sequence> = seqs.iter().collect();
                Batch::encode_histories(&view_refs)
            };
            let b1 = view(rng);
            let b2 = view(rng);
            let v1 = self.user_vec(&b1, &mut Mode::Train(rng));
            let v2 = self.user_vec(&b2, &mut Mode::Train(rng));
            let cl = augmentation_loss(&v1, &v2, self.temperature);
            loss = loss.add(&cl.mul_scalar(self.lambda_cl));
        }
        loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbssl_data::preprocess::{leave_one_out, SplitConfig};
    use mbssl_data::synthetic::SyntheticConfig;

    #[test]
    fn contrastive_term_changes_loss() {
        let g = SyntheticConfig::yelp_like(141).scaled(0.05).generate();
        let split = leave_one_out(&g.dataset, &SplitConfig::default());
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let with_cl = Cl4SRec::new(g.dataset.num_items, 8, 2, 1, 20, 0.0, 0.3, 5);
        let without = Cl4SRec::new(g.dataset.num_items, 8, 2, 1, 20, 0.0, 0.0, 5);
        let refs: Vec<&TrainInstance> = split.train.iter().take(8).collect();
        let l1 = with_cl
            .loss_on_batch(&refs, &sampler, 8, &mut StdRng::seed_from_u64(1))
            .item();
        let l2 = without
            .loss_on_batch(&refs, &sampler, 8, &mut StdRng::seed_from_u64(1))
            .item();
        assert!((l1 - l2).abs() > 1e-6);
    }

    #[test]
    fn gradients_complete_with_cl_on() {
        let g = SyntheticConfig::yelp_like(142).scaled(0.05).generate();
        let split = leave_one_out(&g.dataset, &SplitConfig::default());
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let model = Cl4SRec::new(g.dataset.num_items, 8, 2, 1, 20, 0.0, 0.3, 6);
        let refs: Vec<&TrainInstance> = split.train.iter().take(4).collect();
        model
            .loss_on_batch(&refs, &sampler, 4, &mut StdRng::seed_from_u64(2))
            .backward();
        for (name, t) in model.named_params().iter() {
            assert!(t.grad().is_some(), "{name} missing grad");
        }
    }

    #[test]
    fn eval_deterministic() {
        let model = Cl4SRec::new(30, 8, 2, 1, 10, 0.5, 0.3, 7);
        let mut h = Sequence::new();
        h.push(1, mbssl_data::Behavior::Click);
        h.push(2, mbssl_data::Behavior::Click);
        let cands: Vec<ItemId> = (1..=6).collect();
        assert_eq!(
            model.score_batch(&[&h], &[&cands]),
            model.score_batch(&[&h], &[&cands])
        );
    }
}
