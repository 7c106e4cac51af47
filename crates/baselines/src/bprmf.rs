//! BPR-MF: matrix factorization with the Bayesian personalized ranking
//! loss. Non-sequential (ignores order), included as the classic CF
//! baseline.

use rand::rngs::StdRng;

use mbssl_core::{SequentialRecommender, TrainableRecommender};
use mbssl_data::preprocess::TrainInstance;
use mbssl_data::sampler::{Batch, NegativeSampler, NegativeStrategy, PreparedBatch};
use mbssl_data::{ItemId, Sequence};
use mbssl_tensor::nn::{Embedding, Module, ParamMap};
use mbssl_tensor::{no_grad, Tensor};

/// User/item factor model scored by `⟨u, i⟩`.
///
/// At evaluation the user vector is rebuilt from the history (mean of item
/// factors) rather than looked up, so the model generalizes to histories
/// it never saw — this "fold-in" is the standard sequential-protocol
/// adaptation of MF.
pub struct BprMf {
    user_emb: Embedding,
    item_emb: Embedding,
    dim: usize,
}

impl BprMf {
    pub fn new(num_users: usize, num_items: usize, dim: usize, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        BprMf {
            user_emb: Embedding::new(num_users.max(1), dim, &mut rng),
            item_emb: Embedding::new(num_items + 1, dim, &mut rng).with_padding_idx(0),
            dim,
        }
    }

    fn fold_in(&self, histories: &[&Sequence]) -> Tensor {
        let batch = Batch::encode_recent(histories, 50);
        let (b, l) = (batch.size, batch.max_len);
        let e = self
            .item_emb
            .forward_seq(&batch.items, b, l);
        crate::common::mean_valid_state(&e, &batch)
    }
}

impl SequentialRecommender for BprMf {
    fn name(&self) -> String {
        format!("BPR-MF(d={})", self.dim)
    }

    fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
        no_grad(|| {
            let user = self.fold_in(histories);
            crate::common::score_from_user_vec(&user, &self.item_emb, candidates)
        })
    }
}

impl TrainableRecommender for BprMf {
    fn named_params(&self) -> ParamMap {
        let mut map = ParamMap::new();
        self.user_emb.collect_params("bprmf.user", &mut map);
        self.item_emb.collect_params("bprmf.item", &mut map);
        map
    }

    fn prepare_batch(
        &self,
        instances: &[&TrainInstance],
        sampler: &NegativeSampler,
        _num_negatives: usize,
        rng: &mut StdRng,
    ) -> PreparedBatch {
        // BPR is pairwise: exactly one negative per positive.
        PreparedBatch::build(instances, sampler, 1, NegativeStrategy::Uniform, None, rng)
    }

    fn loss_on_prepared(
        &self,
        prepared: &PreparedBatch,
        _sampler: &NegativeSampler,
        _num_negatives: usize,
        _rng: &mut StdRng,
    ) -> Tensor {
        // Classic pairwise BPR on (user, pos, neg) triples. The learned
        // user factor is a residual on top of the history fold-in so the
        // fold-in path used at eval time is also trained.
        let batch = &prepared.batch;
        let users: Vec<usize> = batch.users.iter().map(|&u| u as usize).collect();
        let histories: Vec<&Sequence> = prepared.histories();
        let pos_ids: Vec<usize> = batch.targets.clone();
        let neg_ids: Vec<usize> = batch.negatives.clone();
        let u = self
            .fold_in(&histories)
            .add(&self.user_emb.forward(&users));
        let pos = self.item_emb.forward(&pos_ids);
        let neg = self.item_emb.forward(&neg_ids);
        let pos_score = u.mul(&pos).sum_axis(-1, false);
        let neg_score = u.mul(&neg).sum_axis(-1, false);
        pos_score.bpr_loss(&neg_score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbssl_data::preprocess::{leave_one_out, SplitConfig};
    use mbssl_data::synthetic::SyntheticConfig;
    use rand::SeedableRng;

    #[test]
    fn loss_decreases_over_steps() {
        let g = SyntheticConfig::taobao_like(81).scaled(0.06).generate();
        let split = leave_one_out(&g.dataset, &SplitConfig::default());
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        let model = BprMf::new(g.dataset.num_users, g.dataset.num_items, 16, 3);
        let params = model.params();
        let mut opt = mbssl_tensor::optim::Adam::new(params, 0.05);
        use mbssl_tensor::optim::Optimizer;
        let refs: Vec<&TrainInstance> = split.train.iter().take(64).collect();
        let mut rng = StdRng::seed_from_u64(0);
        let first = model.loss_on_batch(&refs, &sampler, 1, &mut rng).item();
        for _ in 0..30 {
            opt.zero_grad();
            let loss = model.loss_on_batch(&refs, &sampler, 1, &mut rng);
            loss.backward();
            opt.step();
        }
        let last = model.loss_on_batch(&refs, &sampler, 1, &mut rng).item();
        assert!(last < first, "BPR loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn scoring_is_deterministic() {
        let g = SyntheticConfig::yelp_like(82).scaled(0.05).generate();
        let model = BprMf::new(g.dataset.num_users, g.dataset.num_items, 8, 4);
        let h = &g.dataset.sequences[0];
        let cands: Vec<ItemId> = (1..=10).collect();
        assert_eq!(
            model.score_batch(&[h], &[&cands]),
            model.score_batch(&[h], &[&cands])
        );
    }
}
