//! The shared recommender interface and the leave-one-out evaluator all
//! models (core + baselines) run through — the "same pipeline for every
//! method" fairness contract of the evaluation.

use std::collections::HashSet;

use mbssl_data::preprocess::EvalInstance;
use mbssl_data::sampler::EvalCandidates;
use mbssl_data::{ItemId, Sequence};
use mbssl_metrics::PerInstanceMetrics;
use mbssl_telemetry as telemetry;
use mbssl_tensor::{alloc, pool};

/// Anything that can score candidate items given a user history.
///
/// Implementations must be `Sync`: [`evaluate`] scores batches from several
/// threads sharing one `&self`. Models are read-only during scoring (all
/// mutation happens in training), so this is a formality for any
/// tensor-backed model.
pub trait SequentialRecommender: Sync {
    /// Human-readable model name (with salient hyperparameters).
    fn name(&self) -> String;

    /// Scores `candidates[i]` for `histories[i]`. Higher = better. All
    /// candidate lists in one call have equal length.
    fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>>;

    /// Scores into a caller-provided flat buffer: `out[i * c + j]` is the
    /// score of `candidates[i][j]` (`c` = shared candidate-list length,
    /// `out.len() == histories.len() * c`). The default delegates to
    /// [`score_batch`](Self::score_batch) and copies; allocation-conscious
    /// implementations (the inference engine) override it to write
    /// directly. Must produce exactly the same numbers as `score_batch`.
    fn score_batch_into(&self, histories: &[&Sequence], candidates: &[&[ItemId]], out: &mut [f32]) {
        let c = candidates.first().map(|l| l.len()).unwrap_or(0);
        assert_eq!(out.len(), histories.len() * c, "output buffer shape");
        let lists = self.score_batch(histories, candidates);
        if c == 0 {
            return;
        }
        for (row, list) in out.chunks_mut(c).zip(lists.iter()) {
            row.copy_from_slice(list);
        }
    }

    /// Compiles this model into a faster scoring-only form, if it has one.
    /// [`evaluate`] and [`recommend_top_n`] call this once per invocation
    /// and run the returned recommender in place of `self`. The contract:
    /// the compiled form must score **identically** (bit-for-bit for f32
    /// engines; within the documented drift gate for quantized ones).
    /// Default: `None` (no compiled form; used as-is).
    fn prepare_inference(&self) -> Option<Box<dyn SequentialRecommender>> {
        None
    }

    /// Ranks the whole catalog `1..=num_items` for one user directly,
    /// returning the top `n` (minus `exclude`), or `None` if this model
    /// has no specialized catalog path. [`recommend_top_n`] tries this
    /// before falling back to chunked `score_batch` calls. Must rank
    /// exactly like the fallback (same scores, same tie-breaking).
    fn recommend_catalog(
        &self,
        _history: &Sequence,
        _num_items: usize,
        _n: usize,
        _exclude: &HashSet<ItemId>,
    ) -> Option<Vec<Recommendation>> {
        None
    }
}

/// Evaluates a recommender on instances with prebuilt candidate lists
/// (index 0 = positive), processing `batch_size` instances per scoring
/// call. Returns the per-instance ranks for aggregation and significance
/// testing. The lists must be non-empty and of one length, as
/// [`EvalCandidates::build`] makes them; anything else panics.
///
/// If the model offers a compiled inference form
/// ([`SequentialRecommender::prepare_inference`]), scoring runs through it;
/// since compiled engines score bit-for-bit like the source model, the
/// returned ranks are unchanged. Use [`evaluate_reference`] to force the
/// model's own `score_batch` path.
///
/// Scoring chunks run in parallel on the shared worker pool, each writing
/// its window of **one shared flat score buffer** (rented from the tensor
/// allocator and recycled afterwards — no per-chunk `Vec<Vec<f32>>`
/// allocation), so the returned metrics are identical to the sequential
/// loop for any pool size (including `MBSSL_THREADS=1`).
pub fn evaluate<R: SequentialRecommender + ?Sized>(
    model: &R,
    instances: &[EvalInstance],
    candidates: &EvalCandidates,
    batch_size: usize,
) -> PerInstanceMetrics {
    match model.prepare_inference() {
        Some(engine) => evaluate_with(engine.as_ref(), instances, candidates, batch_size),
        None => evaluate_with(model, instances, candidates, batch_size),
    }
}

/// [`evaluate`] without the engine hook: always runs `model`'s own scoring
/// path. This is the parity reference the inference tests compare against.
pub fn evaluate_reference<R: SequentialRecommender + ?Sized>(
    model: &R,
    instances: &[EvalInstance],
    candidates: &EvalCandidates,
    batch_size: usize,
) -> PerInstanceMetrics {
    evaluate_with(model, instances, candidates, batch_size)
}

fn evaluate_with<R: SequentialRecommender + ?Sized>(
    model: &R,
    instances: &[EvalInstance],
    candidates: &EvalCandidates,
    batch_size: usize,
) -> PerInstanceMetrics {
    assert_eq!(
        instances.len(),
        candidates.lists.len(),
        "one candidate list per instance"
    );
    assert!(batch_size > 0);
    let mut eval_sp = telemetry::span("eval.evaluate");
    eval_sp.add_bytes((instances.len() * std::mem::size_of::<u32>()) as u64);
    if instances.is_empty() {
        return PerInstanceMetrics::from_score_lists(&[]);
    }
    // One flat buffer for every score in the evaluation, written in place
    // by the chunk workers through `score_batch_into`: one allocator
    // request total, independent of the number of chunks.
    let c = candidates.lists[0].len();
    assert!(
        c > 0 && candidates.lists.iter().all(|l| l.len() == c),
        "candidate lists must be non-empty and of one length"
    );
    let mut flat = alloc::zeroed(instances.len() * c);
    pool::parallel_chunks_mut(&mut flat, batch_size * c, |ci, window| {
        let chunk_start = ci * batch_size;
        let chunk_end = (chunk_start + batch_size).min(instances.len());
        let histories: Vec<&Sequence> = instances[chunk_start..chunk_end]
            .iter()
            .map(|i| &i.history)
            .collect();
        let cand_refs: Vec<&[ItemId]> = candidates.lists[chunk_start..chunk_end]
            .iter()
            .map(|l| l.as_slice())
            .collect();
        // no_grad is thread-local, so the guard must live inside the
        // pool closure: evaluation never records autograd nodes or
        // allocates gradient buffers regardless of which worker runs
        // the chunk.
        let _chunk_sp = telemetry::span("eval.score_chunk");
        mbssl_tensor::no_grad(|| model.score_batch_into(&histories, &cand_refs, window));
    });
    let metrics = PerInstanceMetrics::from_flat_scores(&flat, c);
    alloc::recycle(flat);
    metrics
}

/// A ranked recommendation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Recommendation {
    /// Recommended item id.
    pub item: ItemId,
    /// Model score (higher = better).
    pub score: f32,
}

/// Heap key ordering for top-n retention: "smallest" is the entry to evict —
/// lowest score, ties broken toward the *highest* item id so that equal
/// scores keep the earliest-scored (lowest-id) item, matching the old
/// bounded-insertion behavior exactly.
#[derive(PartialEq)]
pub(crate) struct RankKey {
    pub(crate) score: f32,
    pub(crate) item: ItemId,
}

impl Eq for RankKey {}

impl Ord for RankKey {
    fn cmp(&self, other: &RankKey) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.item.cmp(&self.item))
    }
}

impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &RankKey) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Produces the top-`n` recommendations for one user by scoring the whole
/// catalog. `exclude` (typically the user's already-interacted items) are
/// skipped. This is the serving-style entry point; evaluation uses
/// [`evaluate`] with candidate sets instead.
///
/// Models with a direct catalog path
/// ([`SequentialRecommender::recommend_catalog`], possibly reached through
/// [`SequentialRecommender::prepare_inference`]) rank in one pass; others
/// fall back to scoring the catalog in `chunk_size`-item chunks
/// ([`recommend_top_n_reference`]). Both paths rank identically.
pub fn recommend_top_n<R: SequentialRecommender + ?Sized>(
    model: &R,
    history: &Sequence,
    num_items: usize,
    n: usize,
    exclude: &HashSet<ItemId>,
    chunk_size: usize,
) -> Vec<Recommendation> {
    assert!(n > 0 && chunk_size > 0);
    if let Some(recs) = model.recommend_catalog(history, num_items, n, exclude) {
        return recs;
    }
    if let Some(engine) = model.prepare_inference() {
        if let Some(recs) = engine.recommend_catalog(history, num_items, n, exclude) {
            return recs;
        }
    }
    recommend_top_n_reference(model, history, num_items, n, exclude, chunk_size)
}

/// The chunked `score_batch` top-n path, bypassing any compiled engine or
/// catalog specialization. This is the parity reference for the engine's
/// one-pass catalog ranking.
///
/// It is the naive oracle on purpose: exclusions are filtered up front and
/// every other item is pushed and then popped off a bounded heap. It must
/// stay independent of the engine's admission logic (threshold skipping,
/// exclusion checked only on admission), so that a bug there cannot hide
/// in both paths at once.
pub fn recommend_top_n_reference<R: SequentialRecommender + ?Sized>(
    model: &R,
    history: &Sequence,
    num_items: usize,
    n: usize,
    exclude: &HashSet<ItemId>,
    chunk_size: usize,
) -> Vec<Recommendation> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    assert!(n > 0 && chunk_size > 0);
    let mut topn_sp = telemetry::span("serve.top_n");
    topn_sp.add_bytes((num_items * std::mem::size_of::<f32>()) as u64);
    // Min-heap of the best n seen so far: O(log n) per candidate instead of
    // the old O(n) bounded `Vec::insert`.
    let mut heap: BinaryHeap<Reverse<RankKey>> = BinaryHeap::with_capacity(n + 1);
    let mut start: ItemId = 1;
    while (start as usize) <= num_items {
        let end = ((start as usize + chunk_size - 1).min(num_items)) as ItemId;
        let chunk: Vec<ItemId> = (start..=end).filter(|i| !exclude.contains(i)).collect();
        if !chunk.is_empty() {
            let scores = mbssl_tensor::no_grad(|| model.score_batch(&[history], &[&chunk]));
            for (&item, &score) in chunk.iter().zip(scores[0].iter()) {
                heap.push(Reverse(RankKey { score, item }));
                if heap.len() > n {
                    heap.pop();
                }
            }
        }
        start = end + 1;
    }
    let mut recs: Vec<Recommendation> = heap
        .into_iter()
        .map(|Reverse(k)| Recommendation {
            item: k.item,
            score: k.score,
        })
        .collect();
    recs.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)));
    recs
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbssl_data::Behavior;
    use std::sync::Mutex;

    /// Oracle that always scores the first candidate (the target) highest.
    struct Oracle;
    impl SequentialRecommender for Oracle {
        fn name(&self) -> String {
            "oracle".into()
        }
        fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
            assert_eq!(histories.len(), candidates.len());
            candidates
                .iter()
                .map(|l| {
                    l.iter()
                        .enumerate()
                        .map(|(i, _)| if i == 0 { 1.0 } else { 0.0 })
                        .collect()
                })
                .collect()
        }
    }

    /// Anti-oracle: target always scored lowest.
    struct AntiOracle;
    impl SequentialRecommender for AntiOracle {
        fn name(&self) -> String {
            "anti".into()
        }
        fn score_batch(&self, _h: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
            candidates
                .iter()
                .map(|l| {
                    l.iter()
                        .enumerate()
                        .map(|(i, _)| if i == 0 { -1.0 } else { 1.0 })
                        .collect()
                })
                .collect()
        }
    }

    fn demo_instances(n: usize) -> (Vec<EvalInstance>, EvalCandidates) {
        let mut instances = Vec::new();
        let mut lists = Vec::new();
        for u in 0..n {
            let mut h = Sequence::new();
            h.push(1, Behavior::Click);
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
    #[should_panic(expected = "candidate lists must be non-empty and of one length")]
    fn evaluate_rejects_ragged_candidate_lists() {
        let (instances, mut cands) = demo_instances(4);
        cands.lists[2].pop();
        evaluate(&Oracle, &instances, &cands, 3);
    }

    #[test]
    fn oracle_gets_perfect_metrics() {
        let (instances, cands) = demo_instances(10);
        let m = evaluate(&Oracle, &instances, &cands, 3).aggregate();
        assert_eq!(m.hr5, 1.0);
        assert_eq!(m.ndcg10, 1.0);
        assert_eq!(m.mrr, 1.0);
        assert_eq!(m.count, 10);
    }

    #[test]
    fn anti_oracle_gets_zero_topk() {
        let (instances, cands) = demo_instances(10);
        let m = evaluate(&AntiOracle, &instances, &cands, 4).aggregate();
        // Target ranked last among 4 candidates → rank 3 → misses HR@(<=3).
        assert_eq!(m.hr5, 1.0); // still within top-5 of a 4-candidate list
        let pim = evaluate(&AntiOracle, &instances, &cands, 4);
        assert!(pim.ranks.iter().all(|&r| r == 3));
    }

    #[test]
    fn batching_does_not_change_results() {
        let (instances, cands) = demo_instances(7);
        let a = evaluate(&Oracle, &instances, &cands, 1);
        let b = evaluate(&Oracle, &instances, &cands, 7);
        assert_eq!(a.ranks, b.ranks);
    }

    #[test]
    #[should_panic(expected = "one candidate list per instance")]
    fn mismatched_lists_panic() {
        let (instances, cands) = demo_instances(3);
        evaluate(&Oracle, &instances[..2], &cands, 2);
    }

    /// Scores items by id (higher id = better) for top-n testing.
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

    #[test]
    fn top_n_returns_best_unseen_items() {
        let mut h = Sequence::new();
        h.push(1, Behavior::Click);
        let exclude: std::collections::HashSet<ItemId> = [10, 9].into_iter().collect();
        // Catalog 1..=10; exclude 9 & 10 → best are 8, 7, 6.
        let recs = recommend_top_n(&ByIdScorer, &h, 10, 3, &exclude, 4);
        let items: Vec<ItemId> = recs.iter().map(|r| r.item).collect();
        assert_eq!(items, vec![8, 7, 6]);
        assert!(recs.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn top_n_chunking_invariant() {
        let mut h = Sequence::new();
        h.push(1, Behavior::Click);
        let exclude = std::collections::HashSet::new();
        let a = recommend_top_n(&ByIdScorer, &h, 25, 5, &exclude, 3);
        let b = recommend_top_n(&ByIdScorer, &h, 25, 5, &exclude, 25);
        assert_eq!(a, b, "chunk size changed recommendations");
    }

    /// Deterministic pseudo-random scorer with deliberate score ties, for
    /// checking the heap-based top-n against the old bounded-insertion
    /// reference.
    struct HashScorer;
    impl SequentialRecommender for HashScorer {
        fn name(&self) -> String {
            "hash".into()
        }
        fn score_batch(&self, _h: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
            candidates
                .iter()
                .map(|l| {
                    l.iter()
                        // Bucketed scores so ties occur and tie-breaking
                        // behavior is exercised.
                        .map(|&i| ((i as u64 * 2654435761) % 17) as f32)
                        .collect()
                })
                .collect()
        }
    }

    /// The pre-heap implementation, kept verbatim as the behavioral
    /// reference for ranking output.
    fn reference_top_n<R: SequentialRecommender + ?Sized>(
        model: &R,
        history: &Sequence,
        num_items: usize,
        n: usize,
        exclude: &std::collections::HashSet<ItemId>,
        chunk_size: usize,
    ) -> Vec<Recommendation> {
        let mut heap: Vec<Recommendation> = Vec::with_capacity(n + 1);
        let mut push = |rec: Recommendation| {
            let pos = heap
                .iter()
                .position(|r| rec.score > r.score)
                .unwrap_or(heap.len());
            heap.insert(pos, rec);
            heap.truncate(n);
        };
        let mut start: ItemId = 1;
        while (start as usize) <= num_items {
            let end = ((start as usize + chunk_size - 1).min(num_items)) as ItemId;
            let chunk: Vec<ItemId> = (start..=end).filter(|i| !exclude.contains(i)).collect();
            if !chunk.is_empty() {
                let scores = model.score_batch(&[history], &[&chunk]);
                for (&item, &score) in chunk.iter().zip(scores[0].iter()) {
                    push(Recommendation { item, score });
                }
            }
            start = end + 1;
        }
        heap
    }

    #[test]
    fn heap_top_n_matches_bounded_insertion_reference() {
        let mut h = Sequence::new();
        h.push(1, Behavior::Click);
        let exclude: std::collections::HashSet<ItemId> = [13, 57, 251].into_iter().collect();
        for &(num_items, n, chunk) in
            &[(300usize, 10usize, 37usize), (300, 1, 300), (50, 50, 7), (300, 25, 64)]
        {
            let got = recommend_top_n(&HashScorer, &h, num_items, n, &exclude, chunk);
            let expect = reference_top_n(&HashScorer, &h, num_items, n, &exclude, chunk);
            assert_eq!(got, expect, "num_items={num_items} n={n} chunk={chunk}");
        }
    }

    /// The sequential evaluation loop `evaluate` replaced, kept as the
    /// behavioral reference.
    fn reference_evaluate<R: SequentialRecommender + ?Sized>(
        model: &R,
        instances: &[EvalInstance],
        candidates: &EvalCandidates,
        batch_size: usize,
    ) -> PerInstanceMetrics {
        let mut score_lists: Vec<Vec<f32>> = Vec::with_capacity(instances.len());
        for chunk_start in (0..instances.len()).step_by(batch_size) {
            let chunk_end = (chunk_start + batch_size).min(instances.len());
            let histories: Vec<&Sequence> = instances[chunk_start..chunk_end]
                .iter()
                .map(|i| &i.history)
                .collect();
            let cand_refs: Vec<&[ItemId]> = candidates.lists[chunk_start..chunk_end]
                .iter()
                .map(|l| l.as_slice())
                .collect();
            score_lists.extend(model.score_batch(&histories, &cand_refs));
        }
        PerInstanceMetrics::from_score_lists(&score_lists)
    }

    /// Scorer whose output depends on the instance identity (history item
    /// and candidate ids), so any ordering mistake in the parallel
    /// evaluator shows up as changed per-instance ranks.
    struct InstanceSensitiveScorer;
    impl SequentialRecommender for InstanceSensitiveScorer {
        fn name(&self) -> String {
            "instance-sensitive".into()
        }
        fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
            histories
                .iter()
                .zip(candidates.iter())
                .map(|(h, l)| {
                    let seed = h.items.first().copied().unwrap_or(0) as u64;
                    l.iter()
                        .map(|&c| (((seed * 31 + c as u64) * 2654435761) % 1000) as f32)
                        .collect()
                })
                .collect()
        }
    }

    /// Tensor-backed scorer that records whether its outputs were tracked by
    /// autograd, to pin the no-graph contract of `evaluate`.
    struct GradProbe {
        w: mbssl_tensor::Tensor,
        tracked: Mutex<Vec<bool>>,
    }
    impl GradProbe {
        fn new() -> Self {
            GradProbe {
                w: mbssl_tensor::Tensor::ones([2, 1]).requires_grad(),
                tracked: Mutex::new(Vec::new()),
            }
        }
    }
    impl SequentialRecommender for GradProbe {
        fn name(&self) -> String {
            "grad-probe".into()
        }
        fn score_batch(&self, histories: &[&Sequence], candidates: &[&[ItemId]]) -> Vec<Vec<f32>> {
            // A real forward pass through a tracked parameter: outside
            // no_grad this would record a graph node and later allocate a
            // gradient buffer on w.
            let y = mbssl_tensor::Tensor::ones([1, 2]).matmul(&self.w);
            self.tracked.lock().unwrap().push(y.is_tracked());
            let base = y.to_vec()[0];
            histories
                .iter()
                .zip(candidates.iter())
                .map(|(_, l)| l.iter().map(|&c| base - c as f32).collect())
                .collect()
        }
    }

    #[test]
    fn evaluate_records_no_graph_nodes() {
        let (instances, cands) = demo_instances(9);
        let probe = GradProbe::new();
        evaluate(&probe, &instances, &cands, 2);
        let flags = probe.tracked.lock().unwrap();
        assert!(!flags.is_empty(), "probe never scored");
        assert!(
            flags.iter().all(|&t| !t),
            "evaluate recorded autograd nodes"
        );
        assert!(
            probe.w.grad().is_none(),
            "evaluate allocated a gradient buffer"
        );
    }

    #[test]
    fn parallel_evaluate_matches_sequential_reference() {
        // Seeded synthetic instances: enough chunks (odd batch size) to
        // exercise multi-threaded chunk claiming and the tail chunk.
        let mut instances = Vec::new();
        let mut lists = Vec::new();
        for u in 0..457u32 {
            let mut h = Sequence::new();
            h.push(u % 91 + 1, Behavior::Click);
            h.push(u % 17 + 1, Behavior::Purchase);
            instances.push(EvalInstance {
                user: u,
                history: h,
                target: u % 50 + 1,
            });
            lists.push((0..100).map(|c| (u + c) % 997 + 1).collect());
        }
        let cands = EvalCandidates { lists };
        for batch_size in [1usize, 13, 64, 457, 1000] {
            let par = evaluate(&InstanceSensitiveScorer, &instances, &cands, batch_size);
            let seq = reference_evaluate(&InstanceSensitiveScorer, &instances, &cands, batch_size);
            assert_eq!(par.ranks, seq.ranks, "batch_size={batch_size}");
        }
    }
}
