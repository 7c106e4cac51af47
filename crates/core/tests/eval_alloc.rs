//! Pins the evaluator's buffer-reuse contract: `evaluate` rents exactly
//! ONE pooled scoring buffer per call — the shared flat score matrix —
//! regardless of how many scoring chunks the batch size induces. Before
//! the flat-buffer evaluator, every chunk materialized its own
//! `Vec<Vec<f32>>`, so allocation traffic scaled with `n / batch_size`.
//!
//! This lives in its own integration-test binary (own process) because the
//! allocator counters are process-global and would race with unrelated
//! tests in a shared harness.

use mbssl_core::{evaluate, SequentialRecommender};
use mbssl_data::preprocess::EvalInstance;
use mbssl_data::sampler::EvalCandidates;
use mbssl_data::{Behavior, ItemId, Sequence};
use mbssl_tensor::alloc;

/// Non-tensor scorer: contributes zero pooled allocations itself, so every
/// counted request is the evaluator's own.
struct ByIdScorer;
impl SequentialRecommender for ByIdScorer {
    fn name(&self) -> String {
        "by-id".into()
    }
    fn score_batch(&self, _h: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
        candidates
            .iter()
            .map(|l| l.iter().map(|&i| i as f32).collect())
            .collect()
    }
}

fn demo(n: usize) -> (Vec<EvalInstance>, EvalCandidates) {
    let mut instances = Vec::new();
    let mut lists = Vec::new();
    for u in 0..n {
        let mut h = Sequence::new();
        h.push(u as u32 % 7 + 1, Behavior::Click);
        instances.push(EvalInstance {
            user: u as u32,
            history: h,
            target: 5,
        });
        lists.push(vec![5, 6, 7, 8]);
    }
    (instances, EvalCandidates { lists })
}

#[test]
fn evaluate_rents_one_buffer_regardless_of_chunk_count() {
    let (instances, cands) = demo(64);
    // Warm-up so the pool holds a buffer of the right size class and the
    // measured calls are steady-state.
    evaluate(&ByIdScorer, &instances, &cands, 8);

    let requests_during = |batch_size: usize| {
        let before = alloc::stats();
        evaluate(&ByIdScorer, &instances, &cands, batch_size);
        let after = alloc::stats();
        (after.hits + after.misses) - (before.hits + before.misses)
    };
    let many_chunks = requests_during(1); // 64 scoring chunks
    let one_chunk = requests_during(64); // 1 scoring chunk
    assert_eq!(
        many_chunks, one_chunk,
        "per-chunk allocations crept back into evaluate"
    );
    assert_eq!(many_chunks, 1, "expected exactly the flat score buffer");
}
