//! Builders: sequence → hypergraph, and the fixed-slot layout of a padded
//! batch's per-row hypergraphs as incidence tensors.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::incidence::{EdgeType, Hypergraph};

/// Configuration of the multi-granular sequence hypergraph.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HypergraphConfig {
    /// Behavior embedding indices that get a behavior-level hyperedge
    /// (typically every behavior present in the dataset).
    pub behavior_tags: Vec<usize>,
    /// Sliding temporal window size (edges cover `[t, t+w)` with stride
    /// `w/2`, so consecutive windows overlap).
    pub window: usize,
    /// Max number of item-repetition hyperedges per sequence (the most
    /// frequent repeated items win).
    pub max_item_edges: usize,
}

impl Default for HypergraphConfig {
    fn default() -> Self {
        HypergraphConfig {
            behavior_tags: Vec::new(),
            window: 8,
            max_item_edges: 4,
        }
    }
}

impl HypergraphConfig {
    /// Number of temporal window slots for sequences of length `len`.
    pub fn num_temporal_edges(&self, len: usize) -> usize {
        if len == 0 || self.window == 0 {
            return 0;
        }
        let stride = (self.window / 2).max(1);
        if len <= self.window {
            1
        } else {
            (len - self.window).div_ceil(stride) + 1
        }
    }

    /// Total edge-slot count for sequences of length `len` (fixed across a
    /// batch padded to `len`, so incidence masks stack into a tensor).
    pub fn num_edge_slots(&self, len: usize) -> usize {
        self.behavior_tags.len() + self.num_temporal_edges(len) + self.max_item_edges
    }

    /// Builds the hypergraph of one sequence.
    ///
    /// `behaviors[t]` is the behavior embedding index at position `t`
    /// (padding positions carry `valid[t] == 0` and join no edge). Temporal
    /// windows span `items.len()`, the sequence's own length. Edges that
    /// would be empty are absent from the returned hypergraph;
    /// [`build_batch_incidence`] lays these edges out in fixed batch slots.
    /// This is the one implementation of the edge rules.
    pub fn build(&self, items: &[usize], behaviors: &[usize], valid: &[f32]) -> Hypergraph {
        let len = items.len();
        assert_eq!(behaviors.len(), len);
        assert_eq!(valid.len(), len);
        let mut hg = Hypergraph::new(len);
        // Behavior edges.
        for &tag in &self.behavior_tags {
            let members: Vec<usize> = (0..len)
                .filter(|&t| valid[t] != 0.0 && behaviors[t] == tag)
                .collect();
            if !members.is_empty() {
                hg.add_edge(members, EdgeType::Behavior(tag));
            }
        }
        // Temporal edges.
        let stride = (self.window / 2).max(1);
        let mut start = 0usize;
        loop {
            let end = (start + self.window).min(len);
            let members: Vec<usize> = (start..end).filter(|&t| valid[t] != 0.0).collect();
            if !members.is_empty() {
                hg.add_edge(members, EdgeType::Temporal);
            }
            if end >= len {
                break;
            }
            start += stride;
        }
        // Item-repetition edges.
        let mut occurrences: HashMap<usize, Vec<usize>> = HashMap::new();
        for t in 0..len {
            if valid[t] != 0.0 {
                occurrences.entry(items[t]).or_default().push(t);
            }
        }
        let mut repeated: Vec<(usize, Vec<usize>)> = occurrences
            .into_iter()
            .filter(|(_, occ)| occ.len() >= 2)
            .collect();
        repeated.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        for (_, occ) in repeated.into_iter().take(self.max_item_edges) {
            hg.add_edge(occ, EdgeType::Item);
        }
        hg
    }
}

/// Batch incidence tensors ready for the hypergraph transformer layer.
pub struct BatchIncidence {
    /// Row-major `[batch, num_edges, seq_len]` membership mask (1 = node in
    /// edge).
    pub membership: Vec<f32>,
    /// Row-major `[batch, num_edges]` edge-type embedding ids (padded slots
    /// keep their slot's type id; they are fully masked anyway).
    pub edge_type_ids: Vec<usize>,
    pub batch: usize,
    pub num_edges: usize,
    pub seq_len: usize,
}

/// Lays out a padded batch's hypergraphs as fixed-slot incidence tensors.
///
/// Row `b`'s hypergraph is [`HypergraphConfig::build`] of the row's own
/// valid prefix (its positions up to the last valid one), so no edge
/// depends on the batch's padded length and a row gets the same edges in
/// any batch. Slot layout (identical for every row): one slot per
/// behavior tag, then `num_temporal_edges(seq_len)` temporal slots, then
/// `max_item_edges` item slots. A row's behavior edges take their tag's
/// slot and its temporal and item edges fill the leading slots of their
/// kind in build order. Empty slots have all-zero membership.
pub fn build_batch_incidence(
    config: &HypergraphConfig,
    items: &[usize],
    behaviors: &[usize],
    valid: &[f32],
    batch: usize,
    seq_len: usize,
    behavior_vocab: usize,
) -> BatchIncidence {
    assert_eq!(items.len(), batch * seq_len);
    assert_eq!(behaviors.len(), batch * seq_len);
    assert_eq!(valid.len(), batch * seq_len);
    let n_behavior = config.behavior_tags.len();
    let n_temporal = config.num_temporal_edges(seq_len);
    let num_edges = config.num_edge_slots(seq_len);
    // Every slot keeps its kind's type id, empty or not.
    let type_id = |kind: EdgeType| kind.type_id(behavior_vocab);
    let mut slot_types: Vec<usize> = config
        .behavior_tags
        .iter()
        .map(|&tag| type_id(EdgeType::Behavior(tag)))
        .collect();
    slot_types.resize(n_behavior + n_temporal, type_id(EdgeType::Temporal));
    slot_types.resize(num_edges, type_id(EdgeType::Item));

    let mut membership = vec![0.0f32; batch * num_edges * seq_len];
    for b in 0..batch {
        let row = b * seq_len;
        let valid_row = &valid[row..][..seq_len];
        let len = valid_row
            .iter()
            .rposition(|&v| v != 0.0)
            .map_or(0, |t| t + 1);
        let hg = config.build(
            &items[row..][..len],
            &behaviors[row..][..len],
            &valid_row[..len],
        );
        let (mut temporal, mut item) = (n_behavior, n_behavior + n_temporal);
        for e in 0..hg.num_edges() {
            let slot = match hg.edge_type(e) {
                EdgeType::Behavior(tag) => config
                    .behavior_tags
                    .iter()
                    .position(|&t| t == tag)
                    .expect("build makes behavior edges only for configured tags"),
                EdgeType::Temporal => {
                    temporal += 1;
                    temporal - 1
                }
                EdgeType::Item => {
                    item += 1;
                    item - 1
                }
            } + b * num_edges;
            for &t in hg.edge_members(e) {
                membership[slot * seq_len + t] = 1.0;
            }
        }
    }

    BatchIncidence {
        membership,
        edge_type_ids: slot_types.repeat(batch),
        batch,
        num_edges,
        seq_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_inputs() -> (Vec<usize>, Vec<usize>, Vec<f32>) {
        // len 10, behaviors alternate 1/4 (click/purchase), item 3 repeats.
        let items = vec![3, 5, 3, 7, 8, 3, 9, 2, 4, 6];
        let behaviors = vec![1, 1, 1, 4, 1, 1, 4, 1, 1, 1];
        let valid = vec![1.0; 10];
        (items, behaviors, valid)
    }

    fn demo_config() -> HypergraphConfig {
        HypergraphConfig {
            behavior_tags: vec![1, 4],
            window: 4,
            max_item_edges: 2,
        }
    }

    #[test]
    fn behavior_edges_partition_valid_positions() {
        let (items, behaviors, valid) = demo_inputs();
        let hg = demo_config().build(&items, &behaviors, &valid);
        // Edge 0 = clicks, edge 1 = purchases.
        assert_eq!(hg.edge_members(0), &[0, 1, 2, 4, 5, 7, 8, 9]);
        assert_eq!(hg.edge_members(1), &[3, 6]);
        assert_eq!(hg.edge_type(0), EdgeType::Behavior(1));
    }

    #[test]
    fn temporal_windows_overlap_and_cover() {
        let (items, behaviors, valid) = demo_inputs();
        let cfg = demo_config();
        let hg = cfg.build(&items, &behaviors, &valid);
        let temporal: Vec<usize> = (0..hg.num_edges())
            .filter(|&e| hg.edge_type(e) == EdgeType::Temporal)
            .collect();
        assert_eq!(temporal.len(), cfg.num_temporal_edges(10));
        // Every position appears in at least one temporal edge.
        let mut covered = [false; 10];
        for &e in &temporal {
            for &m in hg.edge_members(e) {
                covered[m] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn item_edges_capture_repeats() {
        let (items, behaviors, valid) = demo_inputs();
        let hg = demo_config().build(&items, &behaviors, &valid);
        let item_edges: Vec<usize> = (0..hg.num_edges())
            .filter(|&e| hg.edge_type(e) == EdgeType::Item)
            .collect();
        assert_eq!(item_edges.len(), 1); // only item 3 repeats
        assert_eq!(hg.edge_members(item_edges[0]), &[0, 2, 5]);
    }

    #[test]
    fn padded_positions_join_no_edges() {
        let (items, behaviors, mut valid) = demo_inputs();
        valid[8] = 0.0;
        valid[9] = 0.0;
        let hg = demo_config().build(&items, &behaviors, &valid);
        for e in 0..hg.num_edges() {
            assert!(hg.edge_members(e).iter().all(|&t| t < 8), "edge {e}");
        }
    }

    #[test]
    fn num_temporal_edges_formula() {
        let cfg = demo_config(); // window 4, stride 2
        assert_eq!(cfg.num_temporal_edges(0), 0);
        assert_eq!(cfg.num_temporal_edges(3), 1);
        assert_eq!(cfg.num_temporal_edges(4), 1);
        assert_eq!(cfg.num_temporal_edges(5), 2);
        assert_eq!(cfg.num_temporal_edges(10), 4);
    }

    #[test]
    fn batch_incidence_matches_single_build() {
        let (items, behaviors, valid) = demo_inputs();
        let cfg = demo_config();
        let bi = build_batch_incidence(&cfg, &items, &behaviors, &valid, 1, 10, 5);
        assert_eq!(bi.num_edges, cfg.num_edge_slots(10));
        // Every edge of the per-sequence build sits in its slot: behavior
        // edges in their tag's slot, temporal and item edges in order.
        let hg = cfg.build(&items, &behaviors, &valid);
        let slots = [0, 1, 2, 3, 4, 5, 6];
        assert_eq!(hg.num_edges(), slots.len());
        for (e, &slot) in slots.iter().enumerate() {
            for t in 0..10 {
                let expect = if hg.edge_members(e).contains(&t) {
                    1.0
                } else {
                    0.0
                };
                assert_eq!(
                    bi.membership[slot * 10 + t],
                    expect,
                    "edge {e} position {t}"
                );
            }
        }
        // Every other slot is empty.
        for e in slots.len()..bi.num_edges {
            assert!(
                bi.membership[e * 10..][..10].iter().all(|&m| m == 0.0),
                "slot {e}"
            );
        }
    }

    #[test]
    fn short_row_keeps_its_own_windows_beside_a_long_one() {
        // A 3-event row has one temporal window alone; padded to 10 beside
        // a full row it still has one, and its other temporal slots stay
        // empty.
        let (items, behaviors, valid) = demo_inputs();
        let cfg = demo_config();
        let mut all_items = items[..3].to_vec();
        let mut all_behaviors = behaviors[..3].to_vec();
        let mut all_valid = valid[..3].to_vec();
        all_items.extend([0; 7].iter().chain(&items));
        all_behaviors.extend([0; 7].iter().chain(&behaviors));
        all_valid.extend([0.0; 7].iter().chain(&valid));
        let bi = build_batch_incidence(&cfg, &all_items, &all_behaviors, &all_valid, 2, 10, 5);
        let n_b = cfg.behavior_tags.len();
        let temporal_used: Vec<bool> = (0..cfg.num_temporal_edges(10))
            .map(|s| bi.membership[(n_b + s) * 10..][..10].contains(&1.0))
            .collect();
        assert_eq!(temporal_used, vec![true, false, false, false]);
        assert_eq!(
            &bi.membership[n_b * 10..][..10],
            &[1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        );
        // The full row's windows are unchanged by its short neighbour.
        let alone = build_batch_incidence(&cfg, &items, &behaviors, &valid, 1, 10, 5);
        let per_row = bi.num_edges * 10;
        assert_eq!(&bi.membership[per_row..], &alone.membership[..]);
    }

    #[test]
    fn batch_incidence_handles_multiple_sequences() {
        let (items, behaviors, valid) = demo_inputs();
        let mut items2 = items.clone();
        items2.reverse();
        let all_items: Vec<usize> = items.iter().chain(items2.iter()).copied().collect();
        let all_behaviors: Vec<usize> = behaviors.iter().chain(behaviors.iter()).copied().collect();
        let all_valid: Vec<f32> = valid.iter().chain(valid.iter()).copied().collect();
        let cfg = demo_config();
        let bi = build_batch_incidence(&cfg, &all_items, &all_behaviors, &all_valid, 2, 10, 5);
        assert_eq!(bi.batch, 2);
        assert_eq!(bi.membership.len(), 2 * bi.num_edges * 10);
        assert_eq!(bi.edge_type_ids.len(), 2 * bi.num_edges);
    }

    #[test]
    fn empty_item_slots_are_invalid() {
        // No repeated items at all.
        let items: Vec<usize> = (1..=6).collect();
        let behaviors = vec![1; 6];
        let valid = vec![1.0; 6];
        let cfg = demo_config();
        let bi = build_batch_incidence(&cfg, &items, &behaviors, &valid, 1, 6, 5);
        let n_b = cfg.behavior_tags.len();
        let n_t = cfg.num_temporal_edges(6);
        for s in 0..cfg.max_item_edges {
            let slot = n_b + n_t + s;
            assert!(bi.membership[slot * 6..][..6].iter().all(|&m| m == 0.0));
        }
    }
}
