//! Core data types for multi-behavior interaction logs.

use serde::{Deserialize, Serialize};

/// User identifier (dense, `0..num_users`).
pub type UserId = u32;

/// Item identifier. **Id 0 is reserved for padding**; real items are
/// `1..=num_items`.
pub type ItemId = u32;

/// The behavior taxonomy used across the workspace, ordered by "depth"
/// (how strong a preference signal the behavior carries).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Behavior {
    /// Shallow, high-volume, noisy implicit feedback.
    Click,
    /// Add-to-cart (e-commerce) or equivalent mid-funnel action.
    Cart,
    /// Favorite / collect: explicit, low-noise.
    Favorite,
    /// Purchase: the deepest conversion signal.
    Purchase,
}

impl Behavior {
    /// All behaviors in funnel order.
    pub const ALL: [Behavior; 4] = [
        Behavior::Click,
        Behavior::Cart,
        Behavior::Favorite,
        Behavior::Purchase,
    ];

    /// Dense index used for behavior embeddings (padding uses index
    /// [`Behavior::PAD_INDEX`]).
    pub fn index(self) -> usize {
        match self {
            Behavior::Click => 1,
            Behavior::Cart => 2,
            Behavior::Favorite => 3,
            Behavior::Purchase => 4,
        }
    }

    /// Inverse of [`Behavior::index`]: decodes the dense behavior code used
    /// by embeddings and by the `.mbds` on-disk column ([`crate::format`]).
    /// Returns `None` for [`Behavior::PAD_INDEX`] and out-of-range codes.
    pub fn from_index(index: usize) -> Option<Behavior> {
        match index {
            1 => Some(Behavior::Click),
            2 => Some(Behavior::Cart),
            3 => Some(Behavior::Favorite),
            4 => Some(Behavior::Purchase),
            _ => None,
        }
    }

    /// Embedding index reserved for padded positions.
    pub const PAD_INDEX: usize = 0;

    /// Size of a behavior embedding table covering all behaviors + padding.
    pub const VOCAB: usize = 5;

    /// Funnel depth (higher = deeper/cleaner signal).
    pub fn depth(self) -> usize {
        match self {
            Behavior::Click => 0,
            Behavior::Cart => 1,
            Behavior::Favorite => 2,
            Behavior::Purchase => 3,
        }
    }

    /// Parses the TSV token used by [`crate::io`].
    pub fn from_token(tok: &str) -> Option<Behavior> {
        match tok {
            "click" => Some(Behavior::Click),
            "cart" => Some(Behavior::Cart),
            "favorite" | "fav" => Some(Behavior::Favorite),
            "purchase" | "buy" => Some(Behavior::Purchase),
            _ => None,
        }
    }

    /// TSV token.
    pub fn token(self) -> &'static str {
        match self {
            Behavior::Click => "click",
            Behavior::Cart => "cart",
            Behavior::Favorite => "favorite",
            Behavior::Purchase => "purchase",
        }
    }
}

/// One logged user–item event.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Interaction {
    /// Dense user id.
    pub user: UserId,
    /// Dense item id (`1..=num_items`; 0 is reserved for padding).
    pub item: ItemId,
    /// Behavior type of the event.
    pub behavior: Behavior,
    /// Event time (unix seconds or any monotone per-user ordering key).
    pub timestamp: i64,
}

/// A time-ordered multi-behavior event sequence (parallel arrays).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Sequence {
    /// Item of each event, in time order.
    pub items: Vec<ItemId>,
    /// Behavior of each event, parallel to `items`.
    pub behaviors: Vec<Behavior>,
}

impl Sequence {
    /// Empty sequence.
    pub fn new() -> Self {
        Sequence::default()
    }

    /// Appends one event.
    pub fn push(&mut self, item: ItemId, behavior: Behavior) {
        self.items.push(item);
        self.behaviors.push(behavior);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the sequence holds no events.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Events with the given behavior, in order.
    pub fn filter_behavior(&self, behavior: Behavior) -> Sequence {
        let mut out = Sequence::new();
        for (&it, &b) in self.items.iter().zip(self.behaviors.iter()) {
            if b == behavior {
                out.push(it, b);
            }
        }
        out
    }

    /// Keeps only the last `n` events.
    pub fn truncate_to_recent(&self, n: usize) -> Sequence {
        let start = self.len().saturating_sub(n);
        Sequence {
            items: self.items[start..].to_vec(),
            behaviors: self.behaviors[start..].to_vec(),
        }
    }

    /// Positions (indices) whose behavior equals `behavior`.
    pub fn positions_of(&self, behavior: Behavior) -> Vec<usize> {
        self.behaviors
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == behavior).then_some(i))
            .collect()
    }
}

/// A full multi-behavior dataset: one sequence per user.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Dataset {
    /// Human-readable dataset name (typically the source file stem).
    pub name: String,
    /// Number of users; user ids are `0..num_users`.
    pub num_users: usize,
    /// Number of real items; item ids are `1..=num_items` (0 = padding).
    pub num_items: usize,
    /// Behaviors present, in funnel order.
    pub behaviors: Vec<Behavior>,
    /// The behavior whose next item the task predicts.
    pub target_behavior: Behavior,
    /// Per-user time-ordered event sequences, indexed by `UserId`.
    pub sequences: Vec<Sequence>,
}

impl Dataset {
    /// Total number of events.
    pub fn num_interactions(&self) -> usize {
        self.sequences.iter().map(Sequence::len).sum()
    }

    /// Number of events with the given behavior.
    pub fn count_behavior(&self, behavior: Behavior) -> usize {
        self.sequences
            .iter()
            .map(|s| s.behaviors.iter().filter(|&&b| b == behavior).count())
            .sum()
    }

    /// Average events per user (all behaviors).
    pub fn avg_seq_len(&self) -> f64 {
        if self.num_users == 0 {
            return 0.0;
        }
        self.num_interactions() as f64 / self.num_users as f64
    }

    /// Validates the structural invariants: item ids in range, behaviors
    /// from the declared set, one sequence per user. Returns a description
    /// of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.sequences.len() != self.num_users {
            return Err(format!(
                "expected {} sequences, found {}",
                self.num_users,
                self.sequences.len()
            ));
        }
        if !self.behaviors.contains(&self.target_behavior) {
            return Err("target behavior not in behavior set".to_string());
        }
        for (u, seq) in self.sequences.iter().enumerate() {
            if seq.items.len() != seq.behaviors.len() {
                return Err(format!("user {u}: ragged sequence"));
            }
            for &it in &seq.items {
                if it == 0 || it as usize > self.num_items {
                    return Err(format!("user {u}: item id {it} out of range"));
                }
            }
            for &b in &seq.behaviors {
                if !self.behaviors.contains(&b) {
                    return Err(format!("user {u}: undeclared behavior {b:?}"));
                }
            }
        }
        Ok(())
    }
}

/// Summary statistics for Table 1 of the experiment suite.
#[derive(Clone, Debug, Serialize)]
pub struct DatasetStats {
    /// Dataset name.
    pub name: String,
    /// Number of users.
    pub users: usize,
    /// Number of distinct items.
    pub items: usize,
    /// Total event count across all behaviors.
    pub interactions: usize,
    /// `(behavior token, event count)` pairs in funnel order.
    pub per_behavior: Vec<(String, usize)>,
    /// Mean events per user.
    pub avg_seq_len: f64,
    /// Interactions / (users × items).
    pub density: f64,
}

impl Dataset {
    /// Per-item interaction counts (index 0 unused).
    pub fn item_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_items + 1];
        for seq in &self.sequences {
            for &it in &seq.items {
                counts[it as usize] += 1;
            }
        }
        counts
    }

    /// Gini coefficient of item popularity (0 = uniform, → 1 = extreme
    /// concentration). Real interaction logs sit around 0.6–0.9; this is
    /// the realism check for the synthetic generator's Zipf process.
    pub fn popularity_gini(&self) -> f64 {
        gini(&self.item_counts()[1..])
    }

    /// Summary statistics (the Table-1 row for this dataset).
    pub fn stats(&self) -> DatasetStats {
        let mut per = [0usize; Behavior::VOCAB];
        for seq in &self.sequences {
            for &b in &seq.behaviors {
                per[b.index()] += 1;
            }
        }
        DatasetStats::from_counts(
            &self.name,
            self.num_users,
            self.num_items,
            &self.behaviors,
            &per,
        )
    }
}

impl DatasetStats {
    /// The Table-1 row of a log from its event count per behavior index
    /// (`per_behavior[b.index()]`); `behaviors` picks and orders the
    /// reported behaviors. Shared by [`Dataset::stats`] and
    /// [`MbdsFile::stats`](crate::format::MbdsFile::stats).
    pub(crate) fn from_counts(
        name: &str,
        users: usize,
        items: usize,
        behaviors: &[Behavior],
        per_behavior: &[usize; Behavior::VOCAB],
    ) -> DatasetStats {
        let interactions: usize = per_behavior.iter().sum();
        let ratio = |den: f64| {
            if den == 0.0 {
                0.0
            } else {
                interactions as f64 / den
            }
        };
        DatasetStats {
            name: name.to_string(),
            users,
            items,
            interactions,
            per_behavior: behaviors
                .iter()
                .map(|&b| (b.token().to_string(), per_behavior[b.index()]))
                .collect(),
            avg_seq_len: ratio(users as f64),
            density: ratio(users as f64 * items as f64),
        }
    }
}

/// Gini coefficient of per-item interaction counts, via the sorted-rank
/// formula. Shared by [`Dataset::popularity_gini`] and
/// [`MbdsFile::popularity_gini`](crate::format::MbdsFile::popularity_gini).
pub(crate) fn gini(item_counts: &[usize]) -> f64 {
    let mut counts = item_counts.to_vec();
    counts.sort_unstable();
    let n = counts.len() as f64;
    let total: f64 = counts.iter().map(|&c| c as f64).sum();
    if n == 0.0 || total == 0.0 {
        return 0.0;
    }
    let weighted: f64 = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| (i as f64 + 1.0) * c as f64)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_dataset() -> Dataset {
        let mut s0 = Sequence::new();
        s0.push(1, Behavior::Click);
        s0.push(2, Behavior::Purchase);
        let mut s1 = Sequence::new();
        s1.push(2, Behavior::Click);
        Dataset {
            name: "tiny".into(),
            num_users: 2,
            num_items: 2,
            behaviors: vec![Behavior::Click, Behavior::Purchase],
            target_behavior: Behavior::Purchase,
            sequences: vec![s0, s1],
        }
    }

    #[test]
    fn behavior_indices_distinct_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for b in Behavior::ALL {
            let i = b.index();
            assert_ne!(i, Behavior::PAD_INDEX);
            assert!(i < Behavior::VOCAB);
            assert!(seen.insert(i));
        }
    }

    #[test]
    fn behavior_token_roundtrip() {
        for b in Behavior::ALL {
            assert_eq!(Behavior::from_token(b.token()), Some(b));
        }
        assert_eq!(Behavior::from_token("nope"), None);
    }

    #[test]
    fn depth_increases_along_funnel() {
        let depths: Vec<usize> = Behavior::ALL.iter().map(|b| b.depth()).collect();
        assert!(depths.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sequence_filter_and_positions() {
        let mut s = Sequence::new();
        s.push(1, Behavior::Click);
        s.push(2, Behavior::Purchase);
        s.push(3, Behavior::Click);
        let clicks = s.filter_behavior(Behavior::Click);
        assert_eq!(clicks.items, vec![1, 3]);
        assert_eq!(s.positions_of(Behavior::Purchase), vec![1]);
    }

    #[test]
    fn truncate_keeps_most_recent() {
        let mut s = Sequence::new();
        for i in 1..=5 {
            s.push(i, Behavior::Click);
        }
        let t = s.truncate_to_recent(2);
        assert_eq!(t.items, vec![4, 5]);
        assert_eq!(s.truncate_to_recent(10).len(), 5);
    }

    #[test]
    fn dataset_counts() {
        let d = tiny_dataset();
        assert_eq!(d.num_interactions(), 3);
        assert_eq!(d.count_behavior(Behavior::Click), 2);
        assert_eq!(d.count_behavior(Behavior::Purchase), 1);
        assert!((d.avg_seq_len() - 1.5).abs() < 1e-9);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn validate_catches_bad_item() {
        let mut d = tiny_dataset();
        d.sequences[0].items[0] = 99;
        assert!(d.validate().is_err());
        d.sequences[0].items[0] = 0;
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_catches_undeclared_behavior() {
        let mut d = tiny_dataset();
        d.sequences[1].behaviors[0] = Behavior::Cart;
        assert!(d.validate().is_err());
    }

    #[test]
    fn item_counts_match_events() {
        let d = tiny_dataset();
        let counts = d.item_counts();
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 2);
        assert_eq!(counts.iter().sum::<usize>(), d.num_interactions());
    }

    #[test]
    fn gini_zero_for_uniform_popularity() {
        let mut s = Sequence::new();
        s.push(1, Behavior::Click);
        s.push(2, Behavior::Click);
        let d = Dataset {
            name: "uniform".into(),
            num_users: 1,
            num_items: 2,
            behaviors: vec![Behavior::Click],
            target_behavior: Behavior::Click,
            sequences: vec![s],
        };
        assert!(d.popularity_gini().abs() < 1e-9);
    }

    #[test]
    fn gini_high_for_concentrated_popularity() {
        let mut s = Sequence::new();
        for _ in 0..99 {
            s.push(1, Behavior::Click);
        }
        s.push(2, Behavior::Click);
        let d = Dataset {
            name: "skewed".into(),
            num_users: 1,
            num_items: 2,
            behaviors: vec![Behavior::Click],
            target_behavior: Behavior::Click,
            sequences: vec![s],
        };
        assert!(d.popularity_gini() > 0.45, "gini {}", d.popularity_gini());
    }

    #[test]
    fn stats_shape() {
        let st = tiny_dataset().stats();
        assert_eq!(st.users, 2);
        assert_eq!(st.per_behavior.len(), 2);
        assert!(st.density > 0.0);
    }
}
