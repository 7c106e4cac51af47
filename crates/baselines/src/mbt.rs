//! MBT: multi-behavior transformer (an MB-STR-style baseline).
//!
//! Item + behavior + position embeddings through a bidirectional
//! transformer with key-padding masking, plus a behavior-aware prediction
//! head: the readout is the concatenation-free sum of (a) the last valid
//! state and (b) the mean of target-behavior positions, mirroring MB-STR's
//! behavior-aware aggregation at a fraction of its machinery.

#![allow(clippy::needless_range_loop)] // multi-array index loops
#![allow(clippy::too_many_arguments)] // constructor mirrors the hyperparameter list

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbssl_core::{SequentialRecommender, TrainableRecommender};
use mbssl_data::preprocess::TrainInstance;
use mbssl_data::sampler::{Batch, NegativeSampler, NegativeStrategy, PreparedBatch};
use mbssl_data::{Behavior, ItemId, Sequence};
use mbssl_tensor::nn::{key_padding_mask, Embedding, Mode, Module, ParamMap, TransformerBlock};
use mbssl_tensor::{no_grad, Tensor};

pub struct Mbt {
    item_emb: Embedding,
    behavior_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<TransformerBlock>,
    heads: usize,
    dim: usize,
    max_seq_len: usize,
    dropout: f32,
    target_tag: usize,
}

impl Mbt {
    pub fn new(
        num_items: usize,
        target_behavior: Behavior,
        dim: usize,
        heads: usize,
        num_layers: usize,
        max_seq_len: usize,
        dropout: f32,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Mbt {
            item_emb: Embedding::new(num_items + 1, dim, &mut rng).with_padding_idx(0),
            behavior_emb: Embedding::new(Behavior::VOCAB, dim, &mut rng)
                .with_padding_idx(Behavior::PAD_INDEX),
            pos_emb: Embedding::new(max_seq_len, dim, &mut rng),
            blocks: (0..num_layers)
                .map(|_| TransformerBlock::new(dim, heads, dim * 2, dropout, &mut rng))
                .collect(),
            heads,
            dim,
            max_seq_len,
            dropout,
            target_tag: target_behavior.index(),
        }
    }

    fn user_vec(&self, batch: &Batch, mode: &mut Mode) -> Tensor {
        let (b, l) = (batch.size, batch.max_len);
        let item = self.item_emb.forward_seq(&batch.items, b, l);
        let behavior = self.behavior_emb.forward_seq(&batch.behaviors, b, l);
        let positions: Vec<usize> = (0..b * l).map(|i| i % l).collect();
        let pos = self.pos_emb.forward_seq(&positions, b, l);
        let mut h = mode.dropout(&item.add(&behavior).add(&pos), self.dropout);
        let mask = key_padding_mask(&batch.valid, b, self.heads, l);
        for block in &self.blocks {
            h = block.forward(&h, Some(&mask), mode);
        }
        // Behavior-aware readout: last state + target-behavior mean.
        let last = crate::common::last_valid_state(&h, batch);
        let mut target_mask = vec![0.0f32; b * l];
        let mut counts = vec![0.0f32; b];
        for bi in 0..b {
            for t in 0..l {
                let idx = bi * l + t;
                if batch.valid[idx] != 0.0 && batch.behaviors[idx] == self.target_tag {
                    target_mask[idx] = 1.0;
                    counts[bi] += 1.0;
                }
            }
        }
        let tm = Tensor::from_vec(target_mask, [b, l, 1]);
        let denom = Tensor::from_vec(counts.iter().map(|&c| c.max(1.0)).collect::<Vec<_>>(), [b, 1]);
        let target_mean = h.mul(&tm).sum_axis(1, false).div(&denom);
        last.add(&target_mean)
    }
}

impl SequentialRecommender for Mbt {
    fn name(&self) -> String {
        format!("MBT(d={}, L={})", self.dim, self.blocks.len())
    }

    fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
        no_grad(|| {
            let batch = Batch::encode_recent(histories, self.max_seq_len);
            let user = self.user_vec(&batch, &mut Mode::Eval);
            crate::common::score_from_user_vec(&user, &self.item_emb, candidates)
        })
    }
}

impl TrainableRecommender for Mbt {
    fn named_params(&self) -> ParamMap {
        let mut map = ParamMap::new();
        self.item_emb.collect_params("mbt.item", &mut map);
        self.behavior_emb.collect_params("mbt.behavior", &mut map);
        self.pos_emb.collect_params("mbt.pos", &mut map);
        for (i, b) in self.blocks.iter().enumerate() {
            b.collect_params(&format!("mbt.block{i}"), &mut map);
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

    #[test]
    fn behavior_aware_scoring() {
        let model = Mbt::new(20, Behavior::Purchase, 8, 2, 1, 10, 0.0, 1);
        let mut a = Sequence::new();
        a.push(1, Behavior::Click);
        a.push(2, Behavior::Purchase);
        let mut b = Sequence::new();
        b.push(1, Behavior::Purchase);
        b.push(2, Behavior::Click);
        let cands: Vec<ItemId> = (1..=5).collect();
        assert_ne!(model.score_batch(&[&a], &[&cands]), model.score_batch(&[&b], &[&cands]));
    }

    #[test]
    fn histories_without_target_behavior_still_score() {
        let model = Mbt::new(20, Behavior::Purchase, 8, 2, 1, 10, 0.0, 2);
        let mut h = Sequence::new();
        h.push(1, Behavior::Click);
        let cands: Vec<ItemId> = (1..=5).collect();
        let scores = model.score_batch(&[&h], &[&cands]);
        assert!(scores[0].iter().all(|s| s.is_finite()));
    }

    #[test]
    fn training_gradients_complete() {
        use mbssl_data::preprocess::{leave_one_out, SplitConfig};
        use mbssl_data::synthetic::SyntheticConfig;

        let g = SyntheticConfig::taobao_like(131).scaled(0.05).generate();
        let split = leave_one_out(&g.dataset, &SplitConfig::default());
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let model = Mbt::new(
            g.dataset.num_items,
            g.dataset.target_behavior,
            8,
            2,
            1,
            20,
            0.0,
            3,
        );
        let refs: Vec<&TrainInstance> = split.train.iter().take(4).collect();
        let mut rng = StdRng::seed_from_u64(0);
        model.loss_on_batch(&refs, &sampler, 4, &mut rng).backward();
        for (name, t) in model.named_params().iter() {
            assert!(t.grad().is_some(), "{name} missing grad");
        }
    }
}
