//! Shared plumbing for the baseline zoo: last-state readout, candidate
//! scoring from a single user vector, and the sampled softmax objective.
//! Histories are encoded with `Batch::encode_recent`, as MBMISSL's are, so
//! every model sees bit-identical input — the fair-comparison contract.

use mbssl_data::sampler::Batch;
use mbssl_data::ItemId;
use mbssl_tensor::nn::Embedding;
use mbssl_tensor::{no_grad, Tensor};

/// Gathers the hidden state at each row's last valid position:
/// `[B, L, D] -> [B, D]`. Rows with no valid positions read position 0.
pub fn last_valid_state(h: &Tensor, batch: &Batch) -> Tensor {
    let (b, l, d) = (h.dims()[0], h.dims()[1], h.dims()[2]);
    debug_assert_eq!(b, batch.size);
    debug_assert_eq!(l, batch.max_len);
    let mut indices = Vec::with_capacity(b);
    for bi in 0..b {
        let mut last = 0usize;
        for t in 0..l {
            if batch.valid[bi * l + t] != 0.0 {
                last = t;
            }
        }
        indices.push(bi * l + last);
    }
    h.reshape([b * l, d]).index_select0(&indices)
}

/// Mean of valid positions' states: `[B, L, D] -> [B, D]`.
pub fn mean_valid_state(h: &Tensor, batch: &Batch) -> Tensor {
    let (b, l, _d) = (h.dims()[0], h.dims()[1], h.dims()[2]);
    let valid = Tensor::from_vec(batch.valid.clone(), [b, l, 1]);
    let summed = h.mul(&valid).sum_axis(1, false);
    let counts: Vec<f32> = (0..b)
        .map(|bi| batch.valid[bi * l..(bi + 1) * l].iter().sum::<f32>().max(1.0))
        .collect();
    summed.div(&Tensor::from_vec(counts, [b, 1]))
}

/// Scores candidate lists by `⟨user_vec, item_emb⟩`. All lists must share
/// one length.
pub fn score_from_user_vec(
    user: &Tensor,
    emb: &Embedding,
    candidates: &[&[ItemId]],
) -> Vec<Vec<f32>> {
    let b = user.dims()[0];
    let d = user.dims()[1];
    assert_eq!(b, candidates.len());
    let c = candidates[0].len();
    assert!(candidates.iter().all(|l| l.len() == c), "ragged candidates");
    no_grad(|| {
        let flat: Vec<usize> = candidates
            .iter()
            .flat_map(|l| l.iter().map(|&i| i as usize))
            .collect();
        let ce = emb.forward(&flat).reshape([b, c, d]);
        let scores = ce.bmm(&user.unsqueeze(2)).reshape([b, c]);
        let data = scores.to_vec();
        (0..b).map(|bi| data[bi * c..(bi + 1) * c].to_vec()).collect()
    })
}

/// Sampled-softmax loss: user vectors `[B, D]` against `[target ; negs]`
/// candidate ids from the batch.
pub fn sampled_softmax_loss(user: &Tensor, emb: &Embedding, batch: &Batch) -> Tensor {
    let b = batch.size;
    let n = batch.num_negatives;
    let d = user.dims()[1];
    let c = 1 + n;
    let mut ids = Vec::with_capacity(b * c);
    for bi in 0..b {
        ids.push(batch.targets[bi]);
        ids.extend_from_slice(&batch.negatives[bi * n..(bi + 1) * n]);
    }
    let ce = emb.forward(&ids).reshape([b, c, d]);
    let logits = ce.bmm(&user.unsqueeze(2)).reshape([b, c]);
    logits.cross_entropy_logits(&vec![0usize; b])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbssl_data::{Behavior, Sequence};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seqs() -> Vec<Sequence> {
        let mut s1 = Sequence::new();
        s1.push(1, Behavior::Click);
        s1.push(2, Behavior::Click);
        s1.push(3, Behavior::Click);
        let mut s2 = Sequence::new();
        s2.push(4, Behavior::Click);
        vec![s1, s2]
    }

    #[test]
    fn last_valid_state_picks_final_position() {
        let ss = seqs();
        let refs: Vec<&Sequence> = ss.iter().collect();
        let batch = Batch::encode_recent(&refs, 10);
        // h[b, t, :] = constant t+10b for identification.
        let (b, l, d) = (batch.size, batch.max_len, 4);
        let data: Vec<f32> = (0..b * l * d)
            .map(|i| {
                let bi = i / (l * d);
                let t = (i / d) % l;
                (t + 10 * bi) as f32
            })
            .collect();
        let h = Tensor::from_vec(data, [b, l, d]);
        let last = last_valid_state(&h, &batch);
        assert_eq!(last.to_vec(), vec![2.0, 2.0, 2.0, 2.0, 10.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn mean_valid_state_ignores_padding() {
        let ss = seqs();
        let refs: Vec<&Sequence> = ss.iter().collect();
        let batch = Batch::encode_recent(&refs, 10);
        let (b, l) = (batch.size, batch.max_len);
        // h = 1.0 at valid positions, 100.0 at padding.
        let data: Vec<f32> = (0..b * l * 2)
            .map(|i| {
                let bi = i / (l * 2);
                let t = (i / 2) % l;
                if batch.valid[bi * l + t] != 0.0 {
                    1.0
                } else {
                    100.0
                }
            })
            .collect();
        let h = Tensor::from_vec(data, [b, l, 2]);
        let mean = mean_valid_state(&h, &batch);
        assert!(mean.to_vec().iter().all(|&v| (v - 1.0).abs() < 1e-5));
    }

    #[test]
    fn truncation_respected() {
        let mut s = Sequence::new();
        for i in 1..=30 {
            s.push(i, Behavior::Click);
        }
        let batch = Batch::encode_recent(&[&s], 5);
        assert_eq!(batch.max_len, 5);
        assert_eq!(batch.items[0], 26);
    }

    #[test]
    fn score_from_user_vec_ranks_by_dot() {
        let mut rng = StdRng::seed_from_u64(0);
        let emb = Embedding::new(5, 2, &mut rng);
        // Overwrite rows for determinism.
        {
            let w = emb.weight();
            let mut data = w.data_mut();
            data.copy_from_slice(&[
                0.0, 0.0, // pad
                1.0, 0.0, // item 1
                0.0, 1.0, // item 2
                -1.0, 0.0, // item 3
                0.5, 0.5, // item 4
            ]);
        }
        let user = Tensor::from_slice(&[1.0, 0.0], [1, 2]);
        let scores = score_from_user_vec(&user, &emb, &[&[1, 2, 3, 4]]);
        assert_eq!(scores[0], vec![1.0, 0.0, -1.0, 0.5]);
    }

    #[test]
    fn sampled_softmax_decreases_when_target_score_raised() {
        let mut rng = StdRng::seed_from_u64(0);
        let emb = Embedding::new(6, 2, &mut rng);
        let batch = Batch {
            size: 1,
            max_len: 1,
            items: vec![1],
            behaviors: vec![1],
            valid: vec![1.0],
            targets: vec![2],
            negatives: vec![3, 4],
            num_negatives: 2,
            users: vec![0],
        };
        let user_aligned = {
            
            emb.forward(&[2]) // user == target embedding → high logit
        };
        let user_ortho = Tensor::zeros([1, 2]);
        let la = sampled_softmax_loss(&user_aligned, &emb, &batch).item();
        let lo = sampled_softmax_loss(&user_ortho, &emb, &batch).item();
        assert!(la < lo, "aligned {la} should beat orthogonal {lo}");
    }
}
