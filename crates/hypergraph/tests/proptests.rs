//! Property-based tests on hypergraph construction invariants.

use proptest::prelude::*;

use mbssl_hypergraph::{build_batch_incidence, EdgeType, HypergraphConfig};

fn arb_sequence() -> impl Strategy<Value = (Vec<usize>, Vec<usize>, Vec<f32>)> {
    (1usize..30).prop_flat_map(|len| {
        (
            prop::collection::vec(1usize..20, len..=len),
            prop::collection::vec(prop::sample::select(vec![1usize, 2, 3, 4]), len..=len),
            prop::collection::vec(prop::sample::select(vec![0.0f32, 1.0]), len..=len),
        )
    })
}

fn config(window: usize, max_item: usize) -> HypergraphConfig {
    HypergraphConfig {
        behavior_tags: vec![1, 2, 3, 4],
        window,
        max_item_edges: max_item,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn built_hypergraphs_always_validate(
        (items, behaviors, valid) in arb_sequence(),
        window in 1usize..10,
        max_item in 0usize..5
    ) {
        let hg = config(window, max_item).build(&items, &behaviors, &valid);
        for e in 0..hg.num_edges() {
            let members = hg.edge_members(e);
            prop_assert!(!members.is_empty(), "edge {} empty", e);
            prop_assert!(members.windows(2).all(|w| w[0] < w[1]), "edge {} not sorted/deduped", e);
            prop_assert!(members.iter().all(|&m| m < items.len()), "edge {} out of range", e);
        }
    }

    #[test]
    fn valid_nodes_covered_padded_nodes_isolated(
        (items, behaviors, valid) in arb_sequence(),
        window in 1usize..10
    ) {
        let hg = config(window, 4).build(&items, &behaviors, &valid);
        for (t, &v) in valid.iter().enumerate() {
            let degree = (0..hg.num_edges()).filter(|&e| hg.edge_members(e).contains(&t)).count();
            if v != 0.0 {
                prop_assert!(degree >= 1, "valid node {t} in no edge");
            } else {
                prop_assert_eq!(degree, 0, "padded node {} joined an edge", t);
            }
        }
    }

    #[test]
    fn behavior_edges_are_homogeneous(
        (items, behaviors, valid) in arb_sequence()
    ) {
        let hg = config(4, 4).build(&items, &behaviors, &valid);
        for e in 0..hg.num_edges() {
            if let EdgeType::Behavior(tag) = hg.edge_type(e) {
                for &m in hg.edge_members(e) {
                    prop_assert_eq!(behaviors[m], tag);
                    prop_assert!(valid[m] != 0.0);
                }
            }
        }
    }

    #[test]
    fn item_edges_are_single_item(
        (items, behaviors, valid) in arb_sequence()
    ) {
        let hg = config(4, 8).build(&items, &behaviors, &valid);
        for e in 0..hg.num_edges() {
            if hg.edge_type(e) == EdgeType::Item {
                let members = hg.edge_members(e);
                prop_assert!(members.len() >= 2);
                let first = items[members[0]];
                for &m in members {
                    prop_assert_eq!(items[m], first);
                }
            }
        }
    }

    /// The non-empty slots of a one-row layout are exactly the row's
    /// hypergraph edges, and they cover only valid positions.
    #[test]
    fn batch_incidence_slots_hold_the_built_edges(
        (items, behaviors, valid) in arb_sequence(),
        window in 1usize..8
    ) {
        let len = items.len();
        let cfg = config(window, 3);
        let bi = build_batch_incidence(&cfg, &items, &behaviors, &valid, 1, len, 5);
        prop_assert_eq!(bi.num_edges, cfg.num_edge_slots(len));
        let last = valid.iter().rposition(|&v| v != 0.0).map_or(0, |t| t + 1);
        let hg = cfg.build(&items[..last], &behaviors[..last], &valid[..last]);
        let used = (0..bi.num_edges)
            .filter(|&e| bi.membership[e * len..][..len].contains(&1.0))
            .count();
        prop_assert_eq!(used, hg.num_edges());
        for (t, &v) in valid.iter().enumerate() {
            if v == 0.0 {
                prop_assert!((0..bi.num_edges).all(|e| bi.membership[e * len + t] == 0.0));
            }
        }
        // Edge-type ids in range for the embedding table.
        for &id in &bi.edge_type_ids {
            prop_assert!(id < EdgeType::vocab(5));
        }
    }

    /// A row's incidence does not depend on its batch: each history of a
    /// mixed-length batch lays out exactly as it does alone, with the
    /// batch's extra temporal slots empty.
    #[test]
    fn batch_rows_match_each_history_alone(
        histories in prop::collection::vec(
            (0usize..25).prop_flat_map(|len| (
                prop::collection::vec(1usize..12, len..=len),
                prop::collection::vec(prop::sample::select(vec![1usize, 2, 3, 4]), len..=len),
            )),
            1..=6,
        ),
        window in 1usize..10,
        max_item in 0usize..4
    ) {
        let cfg = config(window, max_item);
        let lay_out = |rows: &[&(Vec<usize>, Vec<usize>)]| {
            let l = rows.iter().map(|(items, _)| items.len()).max().unwrap().max(1);
            let (mut items, mut behaviors, mut valid) = (Vec::new(), Vec::new(), Vec::new());
            for (it, bh) in rows {
                let pad = l - it.len();
                items.extend(it.iter().copied().chain(std::iter::repeat_n(0, pad)));
                behaviors.extend(bh.iter().copied().chain(std::iter::repeat_n(0, pad)));
                valid.extend(std::iter::repeat_n(1.0, it.len()).chain(std::iter::repeat_n(0.0, pad)));
            }
            build_batch_incidence(&cfg, &items, &behaviors, &valid, rows.len(), l, 5)
        };
        let all: Vec<_> = histories.iter().collect();
        let bi = lay_out(&all);
        let (e, l) = (bi.num_edges, bi.seq_len);
        let n_b = cfg.behavior_tags.len();
        for (b, history) in histories.iter().enumerate() {
            let alone = lay_out(&[history]);
            let (e1, l1) = (alone.num_edges, alone.seq_len);
            let t1 = cfg.num_temporal_edges(l1);
            let extra = e - e1;
            // Solo slot -> batch slot: behavior and temporal slots keep
            // their index, item slots shift past the extra temporal ones.
            let slot_of = |s: usize| if s < n_b + t1 { s } else { s + extra };
            let mut mapped = vec![false; e];
            for s in 0..e1 {
                let bs = slot_of(s);
                mapped[bs] = true;
                prop_assert_eq!(bi.edge_type_ids[b * e + bs], alone.edge_type_ids[s]);
                let row = &bi.membership[(b * e + bs) * l..][..l];
                prop_assert_eq!(&row[..l1.min(l)], &alone.membership[s * l1..][..l1.min(l)], "row {} slot {}", b, bs);
                prop_assert!(row[l1.min(l)..].iter().all(|&m| m == 0.0));
            }
            for bs in (0..e).filter(|&bs| !mapped[bs]) {
                prop_assert!((n_b + t1..n_b + t1 + extra).contains(&bs));
                prop_assert!(bi.membership[(b * e + bs) * l..][..l].iter().all(|&m| m == 0.0));
            }
        }
    }

    #[test]
    fn temporal_slots_grow_with_length(window in 2usize..10) {
        let cfg = config(window, 0);
        let mut last = 0;
        for len in 1..60 {
            let n = cfg.num_temporal_edges(len);
            prop_assert!(n >= last, "temporal slot count not monotone");
            last = n;
        }
    }
}
