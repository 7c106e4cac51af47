//! Cross-crate substrate integration tests: tensor ⊗ hypergraph ⊗ data ⊗
//! metrics interplay that no single crate's unit tests can cover.

use mbssl::data::preprocess::{leave_one_out, SplitConfig};
use mbssl::data::sampler::{Batch, NegativeSampler};
use mbssl::data::synthetic::SyntheticConfig;
use mbssl::data::Behavior;
use mbssl::hypergraph::{
    build_batch_incidence, HypergraphConfig, HypergraphTransformerLayer, IncidenceMasks,
};
use mbssl::tensor::nn::{Mode, Module};
use mbssl::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The hypergraph layer's gradient w.r.t. its input matches finite
/// differences — the deepest composite the engine runs.
#[test]
fn hypergraph_layer_gradcheck() {
    let mut rng = StdRng::seed_from_u64(5);
    let layer = HypergraphTransformerLayer::new(4, 1, 8, 0.0, 5, &mut rng);
    let len = 6;
    let items: Vec<usize> = (1..=len).map(|i| 1 + i % 3).collect();
    let behaviors = vec![1usize, 4, 1, 1, 4, 1];
    let valid = vec![1.0f32; len];
    let cfg = HypergraphConfig {
        behavior_tags: vec![1, 4],
        window: 3,
        max_item_edges: 2,
    };
    let incidence = build_batch_incidence(&cfg, &items, &behaviors, &valid, 1, len, 5);
    let masks = IncidenceMasks::new(&incidence, 1);

    let x0: Vec<f32> = (0..len * 4).map(|i| ((i * 13 % 17) as f32) * 0.1 - 0.8).collect();
    let weight: Vec<f32> = (0..len * 4).map(|i| ((i * 7 % 11) as f32) * 0.2 - 1.0).collect();
    let w = Tensor::from_vec(weight, [1, len, 4]);

    let f = |data: Vec<f32>| -> f32 {
        let x = Tensor::from_vec(data, [1, len, 4]);
        layer
            .forward(&x, &masks, &mut Mode::Eval)
            .mul(&w)
            .sum_all()
            .item()
    };

    let x = Tensor::from_vec(x0.clone(), [1, len, 4]).requires_grad();
    layer
        .forward(&x, &masks, &mut Mode::Eval)
        .mul(&w)
        .sum_all()
        .backward();
    let analytic = x.grad().unwrap();

    let eps = 1e-2f32;
    for i in (0..x0.len()).step_by(3) {
        let mut plus = x0.clone();
        plus[i] += eps;
        let mut minus = x0.clone();
        minus[i] -= eps;
        let numeric = (f(plus) - f(minus)) / (2.0 * eps);
        let a = analytic[i];
        let scale = a.abs().max(numeric.abs()).max(1.0);
        assert!(
            (a - numeric).abs() <= 0.05 * scale + 0.02,
            "grad mismatch at {i}: analytic {a}, numeric {numeric}"
        );
    }
}

/// Batch encoding and incidence building agree on sequence structure.
#[test]
fn batch_and_incidence_agree_on_validity() {
    let g = SyntheticConfig::taobao_like(21).scaled(0.05).generate();
    let split = leave_one_out(&g.dataset, &SplitConfig::default());
    let histories: Vec<_> = split.test.iter().take(8).map(|t| &t.history).collect();
    let batch = Batch::encode_histories(&histories);
    let cfg = HypergraphConfig {
        behavior_tags: g.dataset.behaviors.iter().map(|b| b.index()).collect(),
        window: 8,
        max_item_edges: 4,
    };
    let incidence = build_batch_incidence(
        &cfg,
        &batch.items,
        &batch.behaviors,
        &batch.valid,
        batch.size,
        batch.max_len,
        Behavior::VOCAB,
    );
    // Every valid position is a member of at least one edge; padded
    // positions of none.
    for b in 0..batch.size {
        for t in 0..batch.max_len {
            let member_count: f32 = (0..incidence.num_edges)
                .map(|e| incidence.membership[(b * incidence.num_edges + e) * batch.max_len + t])
                .sum();
            if batch.valid[b * batch.max_len + t] != 0.0 {
                assert!(member_count >= 1.0, "valid position in no hyperedge");
            } else {
                assert_eq!(member_count, 0.0, "padded position joined a hyperedge");
            }
        }
    }
}

/// Candidate lists from the sampler always contain the ground-truth target
/// at index 0 and no duplicates — the invariant the metrics rely on.
#[test]
fn eval_protocol_invariants_hold_at_scale() {
    use mbssl::data::sampler::EvalCandidates;
    let g = SyntheticConfig::tmall_like(22).scaled(0.1).generate();
    let split = leave_one_out(&g.dataset, &SplitConfig::default());
    let sampler = NegativeSampler::from_dataset(&g.dataset);
    let candidates = EvalCandidates::build(&split.test, &sampler, 99, 1);
    for (inst, list) in split.test.iter().zip(candidates.lists.iter()) {
        assert_eq!(list[0], inst.target);
        assert_eq!(list.len(), 100);
        let mut sorted = list.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "duplicate candidates");
        // Negatives never collide with the user's history.
        let seen = sampler.seen_by(inst.user);
        for &neg in &list[1..] {
            assert!(!seen.contains(&neg), "negative {neg} was interacted with");
        }
    }
}

/// A trained layer's parameters move under the optimizer through the full
/// tensor→hypergraph stack (no silently detached parameters).
#[test]
fn optimizer_updates_hypergraph_parameters() {
    use mbssl::tensor::optim::{Adam, Optimizer};
    let mut rng = StdRng::seed_from_u64(7);
    let layer = HypergraphTransformerLayer::new(8, 2, 16, 0.0, 5, &mut rng);
    let params = layer.param_map("hg");
    let before: Vec<Vec<f32>> = params.tensors().iter().map(|t| t.to_vec()).collect();
    let mut opt = Adam::new(params.tensors(), 0.01);

    let len = 8;
    let items: Vec<usize> = (1..=len).collect();
    let behaviors = vec![1usize; len];
    let valid = vec![1.0f32; len];
    let cfg = HypergraphConfig {
        behavior_tags: vec![1],
        window: 4,
        max_item_edges: 0,
    };
    let incidence = build_batch_incidence(&cfg, &items, &behaviors, &valid, 1, len, 5);
    let masks = IncidenceMasks::new(&incidence, 2);
    let x: Vec<f32> = (0..len * 8).map(|i| (i % 5) as f32 * 0.1).collect();
    let x = Tensor::from_vec(x, [1, len, 8]);
    for _ in 0..3 {
        opt.zero_grad();
        layer
            .forward(&x, &masks, &mut Mode::Eval)
            .square()
            .mean_all()
            .backward();
        opt.step();
    }
    let after: Vec<Vec<f32>> = params.tensors().iter().map(|t| t.to_vec()).collect();
    let mut moved = 0;
    for (b, a) in before.iter().zip(after.iter()) {
        if b != a {
            moved += 1;
        }
    }
    assert!(
        moved >= params.len() - 1,
        "only {moved}/{} parameter tensors moved",
        params.len()
    );
}
