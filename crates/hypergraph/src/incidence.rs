//! Hypergraph incidence structures.
//!
//! A hypergraph over `n` nodes is a set of hyperedges, each a non-empty set
//! of node indices plus a type tag. The representation is a plain edge list
//! (sorted, deduplicated member vectors); [`crate::build_batch_incidence`]
//! lays it out as the attention layers' dense masks.

use serde::{Deserialize, Serialize};

/// The type of a hyperedge, used to select its learned query embedding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeType {
    /// All positions sharing a behavior (the tag is the behavior's dense
    /// embedding index).
    Behavior(usize),
    /// A sliding temporal window.
    Temporal,
    /// Repeated occurrences of the same item.
    Item,
}

impl EdgeType {
    /// Dense id for edge-type embeddings. Behavior tags occupy
    /// `0..behavior_vocab`, then temporal, then item.
    pub fn type_id(self, behavior_vocab: usize) -> usize {
        match self {
            EdgeType::Behavior(b) => {
                assert!(b < behavior_vocab, "behavior tag out of range");
                b
            }
            EdgeType::Temporal => behavior_vocab,
            EdgeType::Item => behavior_vocab + 1,
        }
    }

    /// Size of the edge-type embedding vocabulary.
    pub fn vocab(behavior_vocab: usize) -> usize {
        behavior_vocab + 2
    }
}

/// A hypergraph over sequence positions.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Hypergraph {
    num_nodes: usize,
    members: Vec<Vec<usize>>,
    types: Vec<EdgeType>,
}

impl Hypergraph {
    pub fn new(num_nodes: usize) -> Self {
        Hypergraph {
            num_nodes,
            members: Vec::new(),
            types: Vec::new(),
        }
    }

    /// Adds a hyperedge; members are sorted and deduplicated. Empty or
    /// out-of-range member sets are rejected.
    pub fn add_edge(&mut self, mut members: Vec<usize>, edge_type: EdgeType) {
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "hyperedge must have members");
        assert!(
            members.iter().all(|&m| m < self.num_nodes),
            "hyperedge member out of range"
        );
        self.members.push(members);
        self.types.push(edge_type);
    }

    pub fn num_edges(&self) -> usize {
        self.members.len()
    }

    pub fn edge_members(&self, e: usize) -> &[usize] {
        &self.members[e]
    }

    pub fn edge_type(&self, e: usize) -> EdgeType {
        self.types[e]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_sorts_and_dedups() {
        let mut hg = Hypergraph::new(5);
        hg.add_edge(vec![3, 1, 3, 0], EdgeType::Temporal);
        assert_eq!(hg.edge_members(0), &[0, 1, 3]);
    }

    #[test]
    fn type_ids_are_distinct() {
        let vocab = 5;
        let ids: Vec<usize> = vec![
            EdgeType::Behavior(0).type_id(vocab),
            EdgeType::Behavior(4).type_id(vocab),
            EdgeType::Temporal.type_id(vocab),
            EdgeType::Item.type_id(vocab),
        ];
        let set: std::collections::HashSet<usize> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len());
        assert!(ids.iter().all(|&i| i < EdgeType::vocab(vocab)));
    }

    #[test]
    #[should_panic(expected = "must have members")]
    fn empty_edge_panics() {
        Hypergraph::new(3).add_edge(vec![], EdgeType::Temporal);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oob_member_panics() {
        Hypergraph::new(2).add_edge(vec![5], EdgeType::Temporal);
    }
}
