//! Property-based tests on the data substrate: generator invariants,
//! split correctness, sampler guarantees, and augmentation laws.

use proptest::prelude::*;

use mbssl_data::augment::AugmentOp;
use mbssl_data::preprocess::{k_core, leave_one_out, SplitConfig};
use mbssl_data::sampler::{Batch, NegativeSampler, NegativeStrategy};
use mbssl_data::synthetic::SyntheticConfig;
use mbssl_data::{Behavior, Sequence};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tiny_dataset(seed: u64) -> mbssl_data::Dataset {
    SyntheticConfig {
        num_users: 30,
        num_items: 60,
        num_topics: 5,
        mean_events_per_user: 25,
        ..SyntheticConfig::taobao_like(seed)
    }
    .generate()
    .dataset
}

fn arb_sequence() -> impl Strategy<Value = Sequence> {
    prop::collection::vec((1u32..50, 0usize..4), 1..40).prop_map(|events| {
        let mut s = Sequence::new();
        for (item, b) in events {
            s.push(item, Behavior::ALL[b]);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn generated_datasets_always_validate(seed in 0u64..500) {
        let d = tiny_dataset(seed);
        prop_assert!(d.validate().is_ok());
    }

    #[test]
    fn split_targets_are_target_behavior_events(seed in 0u64..100) {
        let d = tiny_dataset(seed);
        let split = leave_one_out(&d, &SplitConfig::default());
        // Every eval target must be an item the user interacted with via
        // the target behavior at some point.
        for inst in split.test.iter().chain(split.val.iter()) {
            let seq = &d.sequences[inst.user as usize];
            let has = seq
                .items
                .iter()
                .zip(seq.behaviors.iter())
                .any(|(&it, &b)| it == inst.target && b == d.target_behavior);
            prop_assert!(has, "target not in user's target-behavior events");
        }
    }

    #[test]
    fn split_histories_never_exceed_max_len(
        seed in 0u64..50,
        max_len in 1usize..30
    ) {
        let d = tiny_dataset(seed);
        let cfg = SplitConfig { max_seq_len: max_len, ..SplitConfig::default() };
        let split = leave_one_out(&d, &cfg);
        for inst in &split.train {
            prop_assert!(inst.history.len() <= max_len);
        }
        for inst in split.test.iter().chain(split.val.iter()) {
            prop_assert!(inst.history.len() <= max_len);
        }
    }

    #[test]
    fn k_core_never_increases_counts(seed in 0u64..50, k in 1usize..8) {
        let d = tiny_dataset(seed);
        let filtered = k_core(&d, k, k);
        prop_assert!(filtered.num_users <= d.num_users);
        prop_assert!(filtered.num_items <= d.num_items);
        prop_assert!(filtered.num_interactions() <= d.num_interactions());
        prop_assert!(filtered.validate().is_ok());
    }

    #[test]
    fn negatives_never_equal_positive(seed in 0u64..50, n in 1usize..20) {
        let d = tiny_dataset(seed);
        let sampler = NegativeSampler::from_dataset(&d);
        let mut rng = StdRng::seed_from_u64(seed);
        let user = (seed % d.num_users as u64) as u32;
        let target = 1 + (seed % d.num_items as u64) as u32;
        let negs = sampler.sample_n(user, target, n, NegativeStrategy::Uniform, &mut rng);
        prop_assert_eq!(negs.len(), n);
        prop_assert!(!negs.contains(&target));
        // Distinctness.
        let mut sorted = negs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), n);
    }

    #[test]
    fn augmentations_preserve_invariants(seq in arb_sequence(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        for op in [
            AugmentOp::Crop { ratio: 0.5 },
            AugmentOp::Mask { ratio: 0.4 },
            AugmentOp::Reorder { ratio: 0.5 },
            AugmentOp::BehaviorSubstitute { ratio: 0.5, deeper: Behavior::Favorite },
        ] {
            let out = op.apply(&seq, &mut rng);
            // Never empty, never longer than the input.
            prop_assert!(!out.is_empty());
            prop_assert!(out.len() <= seq.len());
            // Items always drawn from the original item multiset.
            for it in &out.items {
                prop_assert!(seq.items.contains(it));
            }
            // Parallel arrays stay parallel.
            prop_assert_eq!(out.items.len(), out.behaviors.len());
        }
    }

    #[test]
    fn crop_preserves_relative_order(seq in arb_sequence(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = AugmentOp::Crop { ratio: 0.6 }.apply(&seq, &mut rng);
        // The cropped sequence must be a contiguous subsequence.
        if out.len() < seq.len() {
            let found = (0..=(seq.len() - out.len())).any(|start| {
                seq.items[start..start + out.len()] == out.items[..]
                    && seq.behaviors[start..start + out.len()] == out.behaviors[..]
            });
            prop_assert!(found, "crop output is not a contiguous window");
        }
    }

    #[test]
    fn generation_events_counts_bounded(seed in 0u64..50) {
        let cfg = SyntheticConfig {
            num_users: 20,
            num_items: 50,
            num_topics: 5,
            mean_events_per_user: 20,
            ..SyntheticConfig::taobao_like(seed)
        };
        let d = cfg.generate().dataset;
        // Each user has at least lo clicks and at most hi exposures × max
        // funnel depth events.
        for seq in &d.sequences {
            prop_assert!(!seq.is_empty());
            prop_assert!(seq.len() <= 20 * 3 / 2 * 5);
        }
    }
}

#[test]
fn encode_recent_matches_truncate_then_encode() {
    let max_len = 4;
    // Lengths 0, below, equal to and above `max_len`, in one batch.
    let seqs: Vec<Sequence> = [0usize, 2, 4, 7]
        .iter()
        .map(|&n| {
            let mut s = Sequence::new();
            for i in 0..n {
                let b = if i % 3 == 0 { Behavior::Cart } else { Behavior::Click };
                s.push(i as u32 + 1, b);
            }
            s
        })
        .collect();
    // The whole mix (padded to `max_len`) and the short ones alone.
    for batch in [&seqs[..], &seqs[..2]] {
        let refs: Vec<&Sequence> = batch.iter().collect();
        let truncated: Vec<Sequence> =
            batch.iter().map(|h| h.truncate_to_recent(max_len)).collect();
        let want = Batch::encode_histories(&truncated.iter().collect::<Vec<_>>());
        let got = Batch::encode_recent(&refs, max_len);
        assert_eq!((got.size, got.max_len), (want.size, want.max_len));
        assert_eq!(got.items, want.items);
        assert_eq!(got.behaviors, want.behaviors);
        assert_eq!(got.valid, want.valid);
    }
}
