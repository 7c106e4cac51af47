//! STAMP: short-term attention/memory priority model (Liu et al., 2018).
//!
//! Attention over the session's item embeddings queried by (mean state,
//! last item), combined through two small MLPs and a trilinear-style
//! composition. A strong lightweight attention baseline that models the
//! recency bias sequential recommendation exhibits.

use rand::rngs::StdRng;
use rand::SeedableRng;

use mbssl_core::{SequentialRecommender, TrainableRecommender};
use mbssl_data::preprocess::TrainInstance;
use mbssl_data::sampler::{Batch, NegativeSampler, NegativeStrategy, PreparedBatch};
use mbssl_data::{ItemId, Sequence};
use mbssl_tensor::nn::{Embedding, Linear, Module, ParamMap};
use mbssl_tensor::{no_grad, Tensor};

pub struct Stamp {
    item_emb: Embedding,
    /// Attention projections: score = w0ᵀ σ(W1 x_i + W2 x_last + W3 mean).
    w1: Linear,
    w2: Linear,
    w3: Linear,
    w0: Linear,
    /// Output MLPs for the session (s) and last-item (t) paths.
    mlp_s: Linear,
    mlp_t: Linear,
    dim: usize,
    max_seq_len: usize,
}

impl Stamp {
    pub fn new(num_items: usize, dim: usize, max_seq_len: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Stamp {
            item_emb: Embedding::new(num_items + 1, dim, &mut rng).with_padding_idx(0),
            w1: Linear::new_no_bias(dim, dim, &mut rng),
            w2: Linear::new_no_bias(dim, dim, &mut rng),
            w3: Linear::new(dim, dim, &mut rng),
            w0: Linear::new_no_bias(dim, 1, &mut rng),
            mlp_s: Linear::new(dim, dim, &mut rng),
            mlp_t: Linear::new(dim, dim, &mut rng),
            dim,
            max_seq_len,
        }
    }

    /// User vector: `h_s ⊙ h_t` where `h_s` is the attention-pooled session
    /// state and `h_t` the transformed last item.
    fn user_vec(&self, batch: &Batch) -> Tensor {
        let (b, l, d) = (batch.size, batch.max_len, self.dim);
        let x = self.item_emb.forward_seq(&batch.items, b, l); // [B, L, D]
        let valid3 = Tensor::from_vec(batch.valid.clone(), [b, l, 1]);
        let counts: Vec<f32> = (0..b)
            .map(|bi| batch.valid[bi * l..(bi + 1) * l].iter().sum::<f32>().max(1.0))
            .collect();
        let mean = x
            .mul(&valid3)
            .sum_axis(1, false)
            .div(&Tensor::from_vec(counts, [b, 1])); // [B, D]
        let last = crate::common::last_valid_state(&x, batch); // [B, D]

        // Attention scores over positions.
        let q_last = self.w2.forward(&last).reshape([b, 1, d]);
        let q_mean = self.w3.forward(&mean).reshape([b, 1, d]);
        let keys = self.w1.forward(&x); // [B, L, D]
        let act = keys.add(&q_last).add(&q_mean).sigmoid();
        let scores = self.w0.forward(&act); // [B, L, 1]
        // Masked weighted sum (STAMP uses unnormalized attention weights).
        let weights = scores.mul(&valid3); // zero out padding
        let h_s = x.mul(&weights).sum_axis(1, false); // [B, D]

        let s_path = self.mlp_s.forward(&h_s).tanh();
        let t_path = self.mlp_t.forward(&last).tanh();
        s_path.mul(&t_path)
    }
}

impl SequentialRecommender for Stamp {
    fn name(&self) -> String {
        format!("STAMP(d={})", self.dim)
    }

    fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
        no_grad(|| {
            let batch = Batch::encode_recent(histories, self.max_seq_len);
            let user = self.user_vec(&batch);
            crate::common::score_from_user_vec(&user, &self.item_emb, candidates)
        })
    }
}

impl TrainableRecommender for Stamp {
    fn named_params(&self) -> ParamMap {
        let mut map = ParamMap::new();
        self.item_emb.collect_params("stamp.item", &mut map);
        self.w1.collect_params("stamp.w1", &mut map);
        self.w2.collect_params("stamp.w2", &mut map);
        self.w3.collect_params("stamp.w3", &mut map);
        self.w0.collect_params("stamp.w0", &mut map);
        self.mlp_s.collect_params("stamp.mlp_s", &mut map);
        self.mlp_t.collect_params("stamp.mlp_t", &mut map);
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
    fn last_item_strongly_influences_output() {
        let model = Stamp::new(30, 8, 10, 1);
        let mut a = Sequence::new();
        a.push(1, Behavior::Click);
        a.push(2, Behavior::Click);
        let mut b = Sequence::new();
        b.push(1, Behavior::Click);
        b.push(9, Behavior::Click);
        let cands: Vec<ItemId> = (1..=5).collect();
        assert_ne!(model.score_batch(&[&a], &[&cands]), model.score_batch(&[&b], &[&cands]));
    }

    #[test]
    fn padding_does_not_affect_output() {
        let model = Stamp::new(30, 8, 10, 2);
        let mut short = Sequence::new();
        short.push(3, Behavior::Click);
        short.push(4, Behavior::Click);
        let mut long = Sequence::new();
        long.push(3, Behavior::Click);
        long.push(4, Behavior::Click);
        let cands: Vec<ItemId> = (1..=5).collect();
        // Batch the short sequence with a longer one to force padding.
        let mut longer = Sequence::new();
        for i in 1..=7 {
            longer.push(i, Behavior::Click);
        }
        let alone = model.score_batch(&[&short], &[&cands]);
        let padded = model.score_batch(&[&long, &longer], &[&cands, &cands]);
        for (x, y) in alone[0].iter().zip(padded[0].iter()) {
            assert!((x - y).abs() < 1e-4, "padding changed STAMP output");
        }
    }

    #[test]
    fn training_gradients_complete() {
        use mbssl_data::preprocess::{leave_one_out, SplitConfig};
        use mbssl_data::synthetic::SyntheticConfig;

        let g = SyntheticConfig::yelp_like(151).scaled(0.05).generate();
        let split = leave_one_out(&g.dataset, &SplitConfig::default());
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let model = Stamp::new(g.dataset.num_items, 8, 20, 3);
        let refs: Vec<&TrainInstance> = split.train.iter().take(4).collect();
        let mut rng = StdRng::seed_from_u64(0);
        model.loss_on_batch(&refs, &sampler, 4, &mut rng).backward();
        for (name, t) in model.named_params().iter() {
            assert!(t.grad().is_some(), "{name} missing grad");
        }
    }
}
