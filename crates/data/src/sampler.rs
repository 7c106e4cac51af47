//! Negative sampling and mini-batch assembly.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::preprocess::{EvalInstance, TrainInstance};
use crate::types::{Behavior, Dataset, ItemId, Sequence, UserId};

/// Negative-item sampler that never returns an item the user has touched.
pub struct NegativeSampler {
    num_items: usize,
    user_items: Vec<HashSet<ItemId>>,
    /// Cumulative popularity weights for popularity-weighted sampling.
    pop_cdf: Vec<f64>,
}

/// How negatives are drawn.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NegativeStrategy {
    /// Uniform over the unseen catalog.
    Uniform,
    /// Proportional to empirical item frequency (harder negatives).
    Popularity,
}

impl NegativeSampler {
    /// Builds the sampler from full dataset interactions.
    pub fn from_dataset(dataset: &Dataset) -> Self {
        let mut user_items = vec![HashSet::new(); dataset.num_users];
        let mut counts = vec![1.0f64; dataset.num_items + 1]; // +1 smoothing
        counts[0] = 0.0;
        for (u, seq) in dataset.sequences.iter().enumerate() {
            for &it in &seq.items {
                user_items[u].insert(it);
                counts[it as usize] += 1.0;
            }
        }
        let mut pop_cdf = vec![0.0f64; dataset.num_items + 1];
        let mut acc = 0.0;
        for it in 1..=dataset.num_items {
            acc += counts[it];
            pop_cdf[it] = acc;
        }
        NegativeSampler {
            num_items: dataset.num_items,
            user_items,
            pop_cdf,
        }
    }

    /// Catalog size the sampler draws from.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Items the user has interacted with (any behavior).
    pub fn seen_by(&self, user: UserId) -> &HashSet<ItemId> {
        &self.user_items[user as usize]
    }

    /// Samples one negative for `user`, also excluding `extra` (typically
    /// the current positive target).
    pub fn sample_one(
        &self,
        user: UserId,
        extra: ItemId,
        strategy: NegativeStrategy,
        rng: &mut StdRng,
    ) -> ItemId {
        let seen = &self.user_items[user as usize];
        assert!(
            seen.len() + 1 < self.num_items,
            "user has interacted with almost all items; cannot sample negatives"
        );
        loop {
            let candidate = match strategy {
                NegativeStrategy::Uniform => rng.gen_range(1..=self.num_items) as ItemId,
                NegativeStrategy::Popularity => self.sample_popularity(rng),
            };
            if candidate != extra && !seen.contains(&candidate) {
                return candidate;
            }
        }
    }

    fn sample_popularity(&self, rng: &mut StdRng) -> ItemId {
        let total = self.pop_cdf[self.num_items];
        let x = rng.gen::<f64>() * total;
        // Binary search for the first CDF entry ≥ x.
        let mut lo = 1usize;
        let mut hi = self.num_items;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.pop_cdf[mid] < x {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo as ItemId
    }

    /// Samples `n` distinct negatives for `user` (excluding `extra`).
    ///
    /// When the user's unseen-item pool is too small to supply `n` distinct
    /// negatives efficiently (tiny catalogs, heavy users), the seen-item
    /// exclusion is relaxed: the sampler falls back to drawing from all
    /// items except `extra`, which keeps candidate lists at exactly `n`
    /// entries (the 1-vs-N protocol's requirement) at the cost of a few
    /// already-seen negatives.
    ///
    /// # Panics
    /// Panics when the catalog itself is smaller than `n + 1`.
    pub fn sample_n(
        &self,
        user: UserId,
        extra: ItemId,
        n: usize,
        strategy: NegativeStrategy,
        rng: &mut StdRng,
    ) -> Vec<ItemId> {
        assert!(
            self.num_items > n,
            "cannot draw {n} distinct negatives from a {}-item catalog",
            self.num_items
        );
        let seen = &self.user_items[user as usize];
        let unseen_pool = self.num_items.saturating_sub(seen.len()).saturating_sub(1);
        // Rejection sampling stays efficient while the pool comfortably
        // exceeds the request; otherwise enumerate.
        if unseen_pool >= n * 2 {
            let mut out = Vec::with_capacity(n);
            let mut used: HashSet<ItemId> = HashSet::with_capacity(n);
            while out.len() < n {
                let neg = self.sample_one(user, extra, strategy, rng);
                if used.insert(neg) {
                    out.push(neg);
                }
            }
            return out;
        }
        // Fallback: all unseen items first (shuffled), topped up with seen
        // items if the unseen pool cannot fill the quota.
        use rand::seq::SliceRandom;
        let mut unseen: Vec<ItemId> = (1..=self.num_items as ItemId)
            .filter(|&i| i != extra && !seen.contains(&i))
            .collect();
        unseen.shuffle(rng);
        let mut out: Vec<ItemId> = unseen.into_iter().take(n).collect();
        if out.len() < n {
            let mut rest: Vec<ItemId> = (1..=self.num_items as ItemId)
                .filter(|&i| i != extra && seen.contains(&i))
                .collect();
            rest.shuffle(rng);
            out.extend(rest.into_iter().take(n - out.len()));
        }
        debug_assert_eq!(out.len(), n);
        out
    }
}

/// Evaluation candidate lists under the 1-vs-99 protocol: index 0 is the
/// positive target, followed by `num_negatives` sampled negatives.
pub struct EvalCandidates {
    /// One candidate list per eval instance; `lists[i][0]` is the target.
    pub lists: Vec<Vec<ItemId>>,
}

impl EvalCandidates {
    /// Builds candidate lists for `instances`, deterministically from
    /// `seed`. `num_negatives` is clamped to `catalog size − 2` so tiny
    /// test datasets still produce well-formed (if shorter) lists.
    pub fn build(
        instances: &[EvalInstance],
        sampler: &NegativeSampler,
        num_negatives: usize,
        seed: u64,
    ) -> Self {
        let num_negatives = num_negatives.min(sampler.num_items().saturating_sub(2));
        let mut rng = StdRng::seed_from_u64(seed);
        let lists = instances
            .iter()
            .map(|inst| {
                let mut list = Vec::with_capacity(num_negatives + 1);
                list.push(inst.target);
                list.extend(sampler.sample_n(
                    inst.user,
                    inst.target,
                    num_negatives,
                    NegativeStrategy::Uniform,
                    &mut rng,
                ));
                list
            })
            .collect();
        EvalCandidates { lists }
    }
}

/// A padded training mini-batch in model-ready flat layout.
///
/// All per-position arrays are row-major `[B, L]`; right-padding (real
/// events first) with `valid == 0.0` marking pads. `behaviors` uses
/// [`Behavior::index`] with [`Behavior::PAD_INDEX`] for pads.
#[derive(Clone, Debug)]
pub struct Batch {
    /// Number of instances `B`.
    pub size: usize,
    /// Padded sequence length `L`.
    pub max_len: usize,
    /// `[B, L]` item ids (0 = pad).
    pub items: Vec<usize>,
    /// `[B, L]` dense behavior indices ([`Behavior::PAD_INDEX`] = pad).
    pub behaviors: Vec<usize>,
    /// `[B, L]` validity mask: 1.0 for real events, 0.0 for pads.
    pub valid: Vec<f32>,
    /// `[B]` positive target item per instance.
    pub targets: Vec<usize>,
    /// `[B, num_negatives]` sampled negative items.
    pub negatives: Vec<usize>,
    /// Negatives per instance.
    pub num_negatives: usize,
    /// `[B]` owning user of each instance.
    pub users: Vec<UserId>,
}

impl Batch {
    /// Encodes instances into a padded batch, sampling `num_negatives`
    /// training negatives per instance.
    pub fn encode(
        instances: &[&TrainInstance],
        sampler: &NegativeSampler,
        num_negatives: usize,
        strategy: NegativeStrategy,
        rng: &mut StdRng,
    ) -> Batch {
        let histories: Vec<&Sequence> = instances.iter().map(|i| &i.history).collect();
        let mut batch = Batch::encode_histories(&histories);
        for inst in instances {
            batch.targets.push(inst.target as usize);
            batch.negatives.extend(
                sampler
                    .sample_n(inst.user, inst.target, num_negatives, strategy, rng)
                    .into_iter()
                    .map(|n| n as usize),
            );
            batch.users.push(inst.user);
        }
        batch.num_negatives = num_negatives;
        batch
    }

    /// Encodes evaluation histories (no negatives/targets needed beyond
    /// the candidate lists).
    pub fn encode_histories(histories: &[&Sequence]) -> Batch {
        Batch::encode_recent(histories, usize::MAX)
    }

    /// Encodes the last `max_len` events of each history, in place of
    /// truncating copies (`truncate_to_recent`) and encoding those.
    pub fn encode_recent(histories: &[&Sequence], max_len: usize) -> Batch {
        let size = histories.len();
        assert!(size > 0, "empty batch");
        let kept = |h: &Sequence| h.len().min(max_len);
        let max_len = histories.iter().map(|h| kept(h)).max().unwrap().max(1);
        let mut items = vec![0usize; size * max_len];
        let mut behaviors = vec![Behavior::PAD_INDEX; size * max_len];
        let mut valid = vec![0.0f32; size * max_len];
        for (b, hist) in histories.iter().enumerate() {
            let skip = hist.len() - kept(hist);
            let events = hist.items[skip..].iter().zip(&hist.behaviors[skip..]);
            for (i, (&item, &behavior)) in (b * max_len..).zip(events) {
                items[i] = item as usize;
                behaviors[i] = behavior.index();
                valid[i] = 1.0;
            }
        }
        Batch {
            size,
            max_len,
            items,
            behaviors,
            valid,
            targets: Vec::new(),
            negatives: Vec::new(),
            num_negatives: 0,
            users: Vec::new(),
        }
    }
}

/// A fully materialized training-step input, safe to build off-thread.
///
/// Owns everything the graph pass needs (`Send`, no borrows): the possibly
/// truncated instances and the encoded batch with negatives already sampled.
/// The trainer's prefetch pipeline builds these on a producer thread so data
/// preparation overlaps the previous step's forward/backward.
pub struct PreparedBatch {
    /// Owned instances, truncated to the model's window when applicable.
    pub instances: Vec<TrainInstance>,
    /// Encoded padded batch with sampled negatives.
    pub batch: Batch,
}

impl PreparedBatch {
    /// Truncates histories to the most recent `max_seq_len` events (when
    /// given) and encodes the batch, sampling `num_negatives` per instance.
    pub fn build(
        instances: &[&TrainInstance],
        sampler: &NegativeSampler,
        num_negatives: usize,
        strategy: NegativeStrategy,
        max_seq_len: Option<usize>,
        rng: &mut StdRng,
    ) -> PreparedBatch {
        let owned: Vec<TrainInstance> = instances
            .iter()
            .map(|inst| match max_seq_len {
                Some(l) => TrainInstance {
                    user: inst.user,
                    history: inst.history.truncate_to_recent(l),
                    target: inst.target,
                },
                None => (*inst).clone(),
            })
            .collect();
        let refs: Vec<&TrainInstance> = owned.iter().collect();
        let batch = Batch::encode(&refs, sampler, num_negatives, strategy, rng);
        PreparedBatch {
            instances: owned,
            batch,
        }
    }

    /// Borrowed instance references (the form model forward passes take).
    pub fn instance_refs(&self) -> Vec<&TrainInstance> {
        self.instances.iter().collect()
    }

    /// Borrowed history references.
    pub fn histories(&self) -> Vec<&Sequence> {
        self.instances.iter().map(|i| &i.history).collect()
    }
}

/// Shuffling mini-batch iterator over training instances.
pub struct BatchIterator<'a> {
    instances: &'a [TrainInstance],
    order: Vec<usize>,
    cursor: usize,
    batch_size: usize,
}

impl<'a> BatchIterator<'a> {
    /// Shuffles `instances` with `rng` and iterates them in chunks of
    /// `batch_size`.
    pub fn new(instances: &'a [TrainInstance], batch_size: usize, rng: &mut StdRng) -> Self {
        assert!(batch_size > 0);
        let mut order: Vec<usize> = (0..instances.len()).collect();
        order.shuffle(rng);
        BatchIterator {
            instances,
            order,
            cursor: 0,
            batch_size,
        }
    }

    /// Next chunk of instance references, or `None` when exhausted.
    pub fn next_chunk(&mut self) -> Option<Vec<&'a TrainInstance>> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let chunk = self.order[self.cursor..end]
            .iter()
            .map(|&i| &self.instances[i])
            .collect();
        self.cursor = end;
        Some(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{leave_one_out, SplitConfig};
    use crate::synthetic::SyntheticConfig;

    fn small_setup() -> (crate::types::Dataset, NegativeSampler) {
        let g = SyntheticConfig::taobao_like(21).scaled(0.1).generate();
        let sampler = NegativeSampler::from_dataset(&g.dataset);
        (g.dataset, sampler)
    }

    #[test]
    fn negatives_exclude_seen_items() {
        let (dataset, sampler) = small_setup();
        let mut rng = StdRng::seed_from_u64(1);
        for u in 0..dataset.num_users.min(20) {
            let user = u as UserId;
            let negs = sampler.sample_n(user, 1, 10, NegativeStrategy::Uniform, &mut rng);
            for n in negs {
                assert!(!sampler.seen_by(user).contains(&n));
                assert_ne!(n, 1);
            }
        }
    }

    #[test]
    fn popularity_strategy_excludes_seen_too() {
        let (dataset, sampler) = small_setup();
        let mut rng = StdRng::seed_from_u64(2);
        for u in 0..dataset.num_users.min(10) {
            let user = u as UserId;
            let negs = sampler.sample_n(user, 2, 5, NegativeStrategy::Popularity, &mut rng);
            for n in negs {
                assert!(!sampler.seen_by(user).contains(&n));
            }
        }
    }

    #[test]
    fn sample_n_returns_distinct() {
        let (_, sampler) = small_setup();
        let mut rng = StdRng::seed_from_u64(3);
        let negs = sampler.sample_n(0, 1, 50, NegativeStrategy::Uniform, &mut rng);
        let set: HashSet<ItemId> = negs.iter().copied().collect();
        assert_eq!(set.len(), 50);
    }

    #[test]
    fn eval_candidates_start_with_target_and_are_deterministic() {
        let (dataset, sampler) = small_setup();
        let split = leave_one_out(&dataset, &SplitConfig::default());
        let a = EvalCandidates::build(&split.test, &sampler, 99, 9);
        let b = EvalCandidates::build(&split.test, &sampler, 99, 9);
        for (inst, list) in split.test.iter().zip(a.lists.iter()) {
            assert_eq!(list[0], inst.target);
            assert_eq!(list.len(), 100);
        }
        assert_eq!(a.lists, b.lists);
    }

    #[test]
    fn batch_encoding_pads_and_masks() {
        let (dataset, sampler) = small_setup();
        let split = leave_one_out(&dataset, &SplitConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let refs: Vec<&TrainInstance> = split.train.iter().take(4).collect();
        let batch = Batch::encode(&refs, &sampler, 3, NegativeStrategy::Uniform, &mut rng);
        assert_eq!(batch.size, 4);
        assert_eq!(batch.items.len(), 4 * batch.max_len);
        assert_eq!(batch.negatives.len(), 4 * 3);
        for (b, inst) in refs.iter().enumerate() {
            let hist_len = inst.history.len();
            for t in 0..batch.max_len {
                let idx = b * batch.max_len + t;
                if t < hist_len {
                    assert_eq!(batch.valid[idx], 1.0);
                    assert!(batch.items[idx] >= 1);
                    assert_ne!(batch.behaviors[idx], Behavior::PAD_INDEX);
                } else {
                    assert_eq!(batch.valid[idx], 0.0);
                    assert_eq!(batch.items[idx], 0);
                    assert_eq!(batch.behaviors[idx], Behavior::PAD_INDEX);
                }
            }
        }
    }

    #[test]
    fn batch_iterator_covers_all_instances_once() {
        let (dataset, _) = small_setup();
        let split = leave_one_out(&dataset, &SplitConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let mut it = BatchIterator::new(&split.train, 16, &mut rng);
        let mut total = 0;
        let mut batches = 0;
        while let Some(chunk) = it.next_chunk() {
            total += chunk.len();
            batches += 1;
            assert!(chunk.len() <= 16);
        }
        assert_eq!(total, split.train.len());
        assert_eq!(batches, split.train.len().div_ceil(16));
    }

    #[test]
    fn sample_n_terminates_when_pool_smaller_than_request() {
        // Regression test: a heavy user on a tiny catalog once made
        // distinct-negative rejection sampling loop forever.
        let mut s0 = crate::types::Sequence::new();
        for i in 1..=18 {
            s0.push(i, crate::types::Behavior::Click);
        }
        let dataset = crate::types::Dataset {
            name: "tiny".into(),
            num_users: 1,
            num_items: 20,
            behaviors: vec![crate::types::Behavior::Click],
            target_behavior: crate::types::Behavior::Click,
            sequences: vec![s0],
        };
        let sampler = NegativeSampler::from_dataset(&dataset);
        let mut rng = StdRng::seed_from_u64(8);
        // User has seen 18 of 20 items; ask for 15 distinct negatives.
        let negs = sampler.sample_n(0, 19, 15, NegativeStrategy::Uniform, &mut rng);
        assert_eq!(negs.len(), 15);
        let set: HashSet<ItemId> = negs.iter().copied().collect();
        assert_eq!(set.len(), 15, "negatives must stay distinct");
        assert!(!negs.contains(&19), "positive leaked into negatives");
    }

    #[test]
    fn eval_candidates_clamp_to_catalog() {
        let mut s0 = crate::types::Sequence::new();
        s0.push(1, crate::types::Behavior::Click);
        let dataset = crate::types::Dataset {
            name: "micro".into(),
            num_users: 1,
            num_items: 10,
            behaviors: vec![crate::types::Behavior::Click],
            target_behavior: crate::types::Behavior::Click,
            sequences: vec![s0.clone()],
        };
        let sampler = NegativeSampler::from_dataset(&dataset);
        let instances = vec![crate::preprocess::EvalInstance {
            user: 0,
            history: s0,
            target: 2,
        }];
        // Request 99 negatives from a 10-item catalog: clamped to 8.
        let cands = EvalCandidates::build(&instances, &sampler, 99, 3);
        assert_eq!(cands.lists[0].len(), 9);
        assert_eq!(cands.lists[0][0], 2);
    }

    #[test]
    fn batch_iterator_shuffles() {
        let (dataset, _) = small_setup();
        let split = leave_one_out(&dataset, &SplitConfig::default());
        let mut rng1 = StdRng::seed_from_u64(6);
        let mut rng2 = StdRng::seed_from_u64(7);
        let mut a = BatchIterator::new(&split.train, split.train.len(), &mut rng1);
        let mut b = BatchIterator::new(&split.train, split.train.len(), &mut rng2);
        let ta: Vec<ItemId> = a.next_chunk().unwrap().iter().map(|i| i.target).collect();
        let tb: Vec<ItemId> = b.next_chunk().unwrap().iter().map(|i| i.target).collect();
        assert_ne!(ta, tb, "different seeds should shuffle differently");
    }
}
