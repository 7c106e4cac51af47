//! Preprocessing: k-core filtering, chronological leave-one-out splits, and
//! streaming TSV→`.mbds` conversion in bounded memory.

#![allow(clippy::needless_range_loop)] // multi-array index loops are clearer here

use std::collections::HashMap;
use std::io::BufRead;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::format::{FormatError, MbdsStreamWriter};
use crate::io::{parse_interaction_line, IoError};
use crate::types::{Behavior, Dataset, Interaction, ItemId, Sequence, UserId};

/// Iteratively removes users with fewer than `k_user` events and items with
/// fewer than `k_item` events until stable, then densely remaps ids.
///
/// This is the standard k-core cleanup of recommendation pipelines; it also
/// guarantees every surviving user has enough history to split.
pub fn k_core(dataset: &Dataset, k_user: usize, k_item: usize) -> Dataset {
    // Counts over the kept users' kept items; item `it` is slot `it - 1`.
    let count = |keep_user: &[bool],
                 keep_item: &[bool],
                 users: &mut [usize],
                 items: &mut [usize]| {
        for (u, seq) in dataset.sequences.iter().enumerate().filter(|&(u, _)| keep_user[u]) {
            for &it in seq.items.iter().filter(|&&it| keep_item[it as usize - 1]) {
                users[u] += 1;
                items[it as usize - 1] += 1;
            }
        }
        Ok::<(), std::convert::Infallible>(())
    };
    let (num_users, num_items) = (dataset.num_users, dataset.num_items);
    let (mut user_counts, mut item_counts) = (vec![0; num_users], vec![0; num_items]);
    let all = |n| vec![true; n];
    let Ok(()) = count(&all(num_users), &all(num_items), &mut user_counts, &mut item_counts);
    let Ok((keep_user, keep_item)) =
        k_core_fixpoint(&mut user_counts, &mut item_counts, k_user, k_item, count);

    // Dense remap of surviving items (1-based) and users.
    let mut item_map: HashMap<ItemId, ItemId> = HashMap::new();
    let mut next_item: ItemId = 1;
    for it in 1..=dataset.num_items {
        if keep_item[it - 1] {
            item_map.insert(it as ItemId, next_item);
            next_item += 1;
        }
    }
    let mut sequences = Vec::new();
    for (u, seq) in dataset.sequences.iter().enumerate() {
        if !keep_user[u] {
            continue;
        }
        let mut new_seq = Sequence::new();
        for (&it, &b) in seq.items.iter().zip(seq.behaviors.iter()) {
            if let Some(&mapped) = item_map.get(&it) {
                new_seq.push(mapped, b);
            }
        }
        if !new_seq.is_empty() {
            sequences.push(new_seq);
        }
    }
    Dataset {
        name: dataset.name.clone(),
        num_users: sequences.len(),
        num_items: (next_item - 1) as usize,
        behaviors: dataset.behaviors.clone(),
        target_behavior: dataset.target_behavior,
        sequences,
    }
}

/// The k-core fixpoint of [`k_core`] and [`convert_tsv_streaming`], over
/// per-user and per-item event counts that start out counting the whole
/// log. Each round drops the users under `k_user`, then the items under
/// `k_item`; after a round that dropped any, the counts are zeroed and
/// `recount` fills them again over the kept users' kept items. Returns the
/// `(users, items)` keep sets; the counts are then those of the kept
/// events.
fn k_core_fixpoint<E>(
    user_counts: &mut [usize],
    item_counts: &mut [usize],
    k_user: usize,
    k_item: usize,
    mut recount: impl FnMut(&[bool], &[bool], &mut [usize], &mut [usize]) -> Result<(), E>,
) -> Result<(Vec<bool>, Vec<bool>), E> {
    let mut keep_user = vec![true; user_counts.len()];
    let mut keep_item = vec![true; item_counts.len()];
    loop {
        let mut changed = false;
        for (keep, counts, k) in
            [(&mut keep_user, &*user_counts, k_user), (&mut keep_item, &*item_counts, k_item)]
        {
            for (keep, &count) in keep.iter_mut().zip(counts) {
                if *keep && count < k {
                    *keep = false;
                    changed = true;
                }
            }
        }
        if !changed {
            return Ok((keep_user, keep_item));
        }
        user_counts.fill(0);
        item_counts.fill(0);
        recount(&keep_user, &keep_item, user_counts, item_counts)?;
    }
}

/// Why a streaming TSV→`.mbds` conversion failed.
#[derive(Debug)]
pub enum ConvertError {
    /// TSV-level failure (parse error, filesystem error, empty log, target
    /// behavior absent) — same errors the in-memory loader produces.
    Io(IoError),
    /// `.mbds` writer failure.
    Format(FormatError),
    /// The TSV is not grouped by ascending user id with nondecreasing
    /// timestamps per user — the precondition for single-pass streaming.
    /// Callers should warn and fall back to [`convert_tsv_in_memory`].
    NotSorted {
        /// 1-based line number of the first out-of-order event.
        line: usize,
        /// What was out of order.
        message: String,
    },
}

impl std::fmt::Display for ConvertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvertError::Io(e) => write!(f, "{e}"),
            ConvertError::Format(e) => write!(f, "{e}"),
            ConvertError::NotSorted { line, message } => {
                write!(f, "line {line}: not sorted for streaming ({message})")
            }
        }
    }
}

impl std::error::Error for ConvertError {}

impl From<IoError> for ConvertError {
    fn from(e: IoError) -> Self {
        ConvertError::Io(e)
    }
}

impl From<FormatError> for ConvertError {
    fn from(e: FormatError) -> Self {
        ConvertError::Format(e)
    }
}

impl From<std::io::Error> for ConvertError {
    fn from(e: std::io::Error) -> Self {
        ConvertError::Io(IoError::Io(e))
    }
}

/// What a TSV→`.mbds` conversion did: raw log size, surviving size after
/// k-core, number of full passes over the TSV, and output bytes.
#[derive(Clone, Copy, Debug)]
pub struct ConvertReport {
    /// Distinct users in the raw log.
    pub users_in: usize,
    /// Distinct items in the raw log.
    pub items_in: usize,
    /// Events in the raw log.
    pub events_in: usize,
    /// Users surviving k-core.
    pub users_out: usize,
    /// Items surviving k-core.
    pub items_out: usize,
    /// Events surviving k-core.
    pub events_out: usize,
    /// Full scans over the TSV (1 census + one per k-core re-count + 1 write).
    pub passes: usize,
    /// Size of the written `.mbds` file in bytes.
    pub bytes_written: u64,
}

/// Scans a TSV file once, invoking `f` for every event row.
fn scan_tsv(
    path: &Path,
    mut f: impl FnMut(usize, Interaction) -> Result<(), ConvertError>,
) -> Result<(), ConvertError> {
    let file = std::fs::File::open(path).map_err(IoError::Io)?;
    let reader = std::io::BufReader::new(file);
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(IoError::Io)?;
        if let Some(inter) = parse_interaction_line(lineno, &line)? {
            f(lineno, inter)?;
        }
    }
    Ok(())
}

/// Converts a sorted TSV log to `.mbds` with k-core filtering in bounded
/// memory: O(users + items) state, never materializing the event log.
///
/// Requires the TSV to be grouped by ascending raw user id with
/// nondecreasing timestamps within each user (what [`crate::io::save_tsv`]
/// and `mbssl synth` emit); otherwise fails with [`ConvertError::NotSorted`]
/// and the caller should fall back to [`convert_tsv_in_memory`]. For inputs
/// in that order, the output dataset is **identical** to
/// `k_core(load_tsv(path, target), k_user, k_item)` — same dense ids, same
/// event order — because a stable sort by `(user, timestamp)` of an
/// already-grouped log is the log itself.
///
/// The algorithm makes `2 + r` sequential passes over the TSV, where `r` is
/// the number of k-core refinement rounds that changed something: one
/// census pass (count per user/item, verify ordering), `r` re-count passes
/// restricted to surviving users/items, and one write pass streaming the
/// surviving events through [`MbdsStreamWriter`].
pub fn convert_tsv_streaming(
    tsv: &Path,
    out: &Path,
    target: Behavior,
    k_user: usize,
    k_item: usize,
) -> Result<ConvertReport, ConvertError> {
    // Pass 1 (census): verify streaming order, assign dense ids by first
    // appearance, count events per user/item, collect the behavior set.
    let mut user_raw: Vec<UserId> = Vec::new();
    let mut user_counts: Vec<usize> = Vec::new();
    let mut item_index: HashMap<ItemId, u32> = HashMap::new();
    let mut item_counts: Vec<usize> = Vec::new();
    let mut behaviors_present: Vec<Behavior> = Vec::new();
    let mut events_in = 0usize;
    let mut prev: Option<(UserId, i64)> = None;
    scan_tsv(tsv, |lineno, inter| {
        match prev {
            Some((pu, _)) if inter.user < pu => {
                return Err(ConvertError::NotSorted {
                    line: lineno + 1,
                    message: format!("user {} after user {pu}", inter.user),
                });
            }
            Some((pu, pt)) if inter.user == pu && inter.timestamp < pt => {
                return Err(ConvertError::NotSorted {
                    line: lineno + 1,
                    message: format!(
                        "timestamp {} after {pt} for user {pu}",
                        inter.timestamp
                    ),
                });
            }
            _ => {}
        }
        if prev.map(|(pu, _)| pu) != Some(inter.user) {
            user_raw.push(inter.user);
            user_counts.push(0);
        }
        prev = Some((inter.user, inter.timestamp));
        *user_counts.last_mut().unwrap() += 1;
        let next = item_index.len() as u32;
        let idx = *item_index.entry(inter.item).or_insert(next);
        if idx as usize == item_counts.len() {
            item_counts.push(0);
        }
        item_counts[idx as usize] += 1;
        if !behaviors_present.contains(&inter.behavior) {
            behaviors_present.push(inter.behavior);
        }
        events_in += 1;
        Ok(())
    })?;
    if events_in == 0 {
        return Err(ConvertError::Io(IoError::Empty));
    }
    behaviors_present.sort_by_key(|b| b.depth());
    if !behaviors_present.contains(&target) {
        return Err(ConvertError::Io(IoError::Parse {
            line: 0,
            message: format!("target behavior {target:?} absent from log"),
        }));
    }
    let num_users_in = user_raw.len();
    let num_items_in = item_index.len();

    // The k-core fixpoint; each changed round re-counts with one
    // sequential pass over the TSV.
    let mut passes = 1usize;
    let recount = |keep_user: &[bool],
                   keep_item: &[bool],
                   users: &mut [usize],
                   items: &mut [usize]| {
        passes += 1;
        let mut cursor = usize::MAX; // advances through user runs in order
        let mut cur_raw: Option<UserId> = None;
        scan_tsv(tsv, |lineno, inter| {
            if cur_raw != Some(inter.user) {
                cursor = cursor.wrapping_add(1);
                cur_raw = Some(inter.user);
                if user_raw.get(cursor) != Some(&inter.user) {
                    return Err(ConvertError::NotSorted {
                        line: lineno + 1,
                        message: "file changed between passes".to_string(),
                    });
                }
            }
            let idx = item_index[&inter.item] as usize;
            if keep_user[cursor] && keep_item[idx] {
                users[cursor] += 1;
                items[idx] += 1;
            }
            Ok(())
        })
    };
    let (keep_user, keep_item) =
        k_core_fixpoint(&mut user_counts, &mut item_counts, k_user, k_item, recount)?;

    // Dense remap of survivors: items in first-appearance order (their old
    // dense order), users in file order — matching `k_core`'s remap of
    // `load_tsv`'s id assignment.
    let mut item_remap: Vec<ItemId> = vec![0; num_items_in];
    let mut next_item: ItemId = 1;
    for i in 0..num_items_in {
        if keep_item[i] {
            item_remap[i] = next_item;
            next_item += 1;
        }
    }
    let items_out = (next_item - 1) as usize;
    let users_out = (0..num_users_in)
        .filter(|&u| keep_user[u] && user_counts[u] > 0)
        .count();
    let events_out: usize = (0..num_users_in)
        .filter(|&u| keep_user[u])
        .map(|u| user_counts[u])
        .sum();

    // Write pass: stream surviving events through the columnar writer,
    // buffering only one user's events at a time.
    let name = tsv
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "dataset".to_string());
    let mut writer = MbdsStreamWriter::create(out, &name, &behaviors_present, target)?;
    writer.set_kcore(k_user, k_item);
    let mut buf_items: Vec<ItemId> = Vec::new();
    let mut buf_behaviors: Vec<Behavior> = Vec::new();
    let mut buf_ts: Vec<i64> = Vec::new();
    let mut cursor = usize::MAX;
    let mut cur_raw: Option<UserId> = None;
    {
        let flush = |bi: &mut Vec<ItemId>,
                         bb: &mut Vec<Behavior>,
                         bt: &mut Vec<i64>,
                         w: &mut MbdsStreamWriter|
         -> Result<(), ConvertError> {
            if !bi.is_empty() {
                w.append_user(bi, bb, bt)?;
                bi.clear();
                bb.clear();
                bt.clear();
            }
            Ok(())
        };
        scan_tsv(tsv, |lineno, inter| {
            if cur_raw != Some(inter.user) {
                flush(&mut buf_items, &mut buf_behaviors, &mut buf_ts, &mut writer)?;
                cursor = cursor.wrapping_add(1);
                cur_raw = Some(inter.user);
                if user_raw.get(cursor) != Some(&inter.user) {
                    return Err(ConvertError::NotSorted {
                        line: lineno + 1,
                        message: "file changed between passes".to_string(),
                    });
                }
            }
            let idx = item_index[&inter.item] as usize;
            if keep_user[cursor] && keep_item[idx] {
                buf_items.push(item_remap[idx]);
                buf_behaviors.push(inter.behavior);
                buf_ts.push(inter.timestamp);
            }
            Ok(())
        })?;
        flush(&mut buf_items, &mut buf_behaviors, &mut buf_ts, &mut writer)?;
    }
    passes += 1;
    let bytes_written = writer.finish(items_out)?;

    Ok(ConvertReport {
        users_in: num_users_in,
        items_in: num_items_in,
        events_in,
        users_out,
        items_out,
        events_out,
        passes,
        bytes_written,
    })
}

/// Fallback conversion for TSVs that are not stream-sorted: materializes
/// the log via [`crate::io::load_tsv`], applies [`k_core`], and writes the
/// result with [`crate::format::write_mbds`]. O(events) memory. Note the
/// original timestamps are replaced by the per-user event index (the sort
/// has already been applied), exactly as [`crate::io::save_tsv`] does.
pub fn convert_tsv_in_memory(
    tsv: &Path,
    out: &Path,
    target: Behavior,
    k_user: usize,
    k_item: usize,
) -> Result<ConvertReport, ConvertError> {
    let raw = crate::io::load_tsv(tsv, target)?;
    let filtered = k_core(&raw, k_user, k_item);
    let bytes_written = crate::format::write_mbds(&filtered, out, k_user, k_item)?;
    Ok(ConvertReport {
        users_in: raw.num_users,
        items_in: raw.num_items,
        events_in: raw.num_interactions(),
        users_out: filtered.num_users,
        items_out: filtered.num_items,
        events_out: filtered.num_interactions(),
        passes: 1,
        bytes_written,
    })
}

/// One training example: predict `target` (a target-behavior item) from the
/// multi-behavior `history` strictly before it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainInstance {
    /// Owning user.
    pub user: UserId,
    /// Multi-behavior history strictly before the target.
    pub history: Sequence,
    /// The target-behavior item to predict.
    pub target: ItemId,
}

/// One ranking-evaluation example (validation or test).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EvalInstance {
    /// Owning user.
    pub user: UserId,
    /// Multi-behavior history strictly before the target.
    pub history: Sequence,
    /// The held-out target-behavior item.
    pub target: ItemId,
}

/// Output of the leave-one-out protocol.
#[derive(Clone, Debug)]
pub struct Split {
    /// Training examples (second-to-last target and earlier).
    pub train: Vec<TrainInstance>,
    /// Validation examples (second-to-last target per user).
    pub val: Vec<EvalInstance>,
    /// Test examples (last target per user).
    pub test: Vec<EvalInstance>,
    /// Per-user full training history (events before the validation
    /// target), used by non-parametric baselines (POP, ItemKNN).
    pub train_histories: Vec<(UserId, Sequence)>,
    /// Catalog size carried over from the source dataset.
    pub num_items: usize,
    /// The behavior whose next item is predicted.
    pub target_behavior: Behavior,
}

/// Split options.
#[derive(Clone, Copy, Debug)]
pub struct SplitConfig {
    /// Keep at most this many most-recent events in any history.
    pub max_seq_len: usize,
    /// Users need at least this many target-behavior events to contribute
    /// val/test instances (the standard is 3: ≥1 train + 1 val + 1 test).
    pub min_target_events: usize,
    /// Cap on per-user training instances (most recent kept) to bound
    /// epoch cost; `usize::MAX` disables.
    pub max_train_per_user: usize,
}

impl Default for SplitConfig {
    fn default() -> Self {
        SplitConfig {
            max_seq_len: 50,
            min_target_events: 3,
            max_train_per_user: 8,
        }
    }
}

/// Chronological leave-one-out:
/// - the **last** target-behavior event of each user is the test target;
/// - the **second-to-last** is the validation target;
/// - every earlier target-behavior event yields a training instance.
///
/// Histories always contain *all* behaviors before the target event and are
/// truncated to the most recent `max_seq_len` events.
pub fn leave_one_out(dataset: &Dataset, config: &SplitConfig) -> Split {
    let target = dataset.target_behavior;
    let mut train = Vec::new();
    let mut val = Vec::new();
    let mut test = Vec::new();
    let mut train_histories = Vec::new();

    for (u, seq) in dataset.sequences.iter().enumerate() {
        let user = u as UserId;
        let target_positions = seq.positions_of(target);
        if target_positions.len() < config.min_target_events {
            // Not enough signal to hold out; keep all events as training
            // instances (if ≥1 target and non-empty history).
            for &pos in &target_positions {
                if pos == 0 {
                    continue;
                }
                train.push(TrainInstance {
                    user,
                    history: history_before(seq, pos, config.max_seq_len),
                    target: seq.items[pos],
                });
            }
            if !target_positions.is_empty() {
                let last = *target_positions.last().unwrap();
                train_histories.push((user, history_before(seq, last + 1, config.max_seq_len)));
            }
            continue;
        }
        let test_pos = *target_positions.last().unwrap();
        let val_pos = target_positions[target_positions.len() - 2];

        let mut user_train: Vec<TrainInstance> = Vec::new();
        for &pos in &target_positions[..target_positions.len() - 2] {
            if pos == 0 {
                continue;
            }
            user_train.push(TrainInstance {
                user,
                history: history_before(seq, pos, config.max_seq_len),
                target: seq.items[pos],
            });
        }
        if user_train.len() > config.max_train_per_user {
            let skip = user_train.len() - config.max_train_per_user;
            user_train.drain(..skip);
        }
        train.extend(user_train);

        if val_pos > 0 {
            val.push(EvalInstance {
                user,
                history: history_before(seq, val_pos, config.max_seq_len),
                target: seq.items[val_pos],
            });
        }
        test.push(EvalInstance {
            user,
            history: history_before(seq, test_pos, config.max_seq_len),
            target: seq.items[test_pos],
        });
        train_histories.push((user, history_before(seq, val_pos, config.max_seq_len)));
    }

    Split {
        train,
        val,
        test,
        train_histories,
        num_items: dataset.num_items,
        target_behavior: target,
    }
}

/// The multi-behavior history strictly before event index `pos`, truncated
/// to the last `max_len` events.
fn history_before(seq: &Sequence, pos: usize, max_len: usize) -> Sequence {
    Sequence {
        items: seq.items[..pos].to_vec(),
        behaviors: seq.behaviors[..pos].to_vec(),
    }
    .truncate_to_recent(max_len)
}

/// Global temporal split: per user, the first `1 - val_frac - test_frac`
/// fraction of target-behavior events trains, the next `val_frac` fraction
/// validates, and the remainder tests — the alternative protocol to
/// leave-one-out, closer to production retraining cadence (no per-user
/// single holdout; late events are never used as training history for
/// earlier targets).
///
/// Fractions apply to each user's own timeline, which approximates a
/// global time cut when user activity spans the log uniformly (true for
/// the synthetic generator).
pub fn temporal_split(
    dataset: &Dataset,
    config: &SplitConfig,
    val_frac: f64,
    test_frac: f64,
) -> Split {
    assert!(val_frac >= 0.0 && test_frac > 0.0 && val_frac + test_frac < 1.0);
    let target = dataset.target_behavior;
    let mut train = Vec::new();
    let mut val = Vec::new();
    let mut test = Vec::new();
    let mut train_histories = Vec::new();

    for (u, seq) in dataset.sequences.iter().enumerate() {
        let user = u as UserId;
        let positions = seq.positions_of(target);
        if positions.len() < config.min_target_events {
            continue;
        }
        let n = positions.len();
        let test_start = ((n as f64) * (1.0 - test_frac)).floor() as usize;
        let val_start = ((n as f64) * (1.0 - test_frac - val_frac)).floor() as usize;
        let val_start = val_start.min(test_start).max(1); // ≥1 training target
        let test_start = test_start.clamp(val_start, n - 1);

        let mut user_train = Vec::new();
        for &pos in &positions[..val_start] {
            if pos == 0 {
                continue;
            }
            user_train.push(TrainInstance {
                user,
                history: history_before(seq, pos, config.max_seq_len),
                target: seq.items[pos],
            });
        }
        if user_train.len() > config.max_train_per_user {
            let skip = user_train.len() - config.max_train_per_user;
            user_train.drain(..skip);
        }
        train.extend(user_train);
        for &pos in &positions[val_start..test_start] {
            val.push(EvalInstance {
                user,
                history: history_before(seq, pos, config.max_seq_len),
                target: seq.items[pos],
            });
        }
        for &pos in &positions[test_start..] {
            test.push(EvalInstance {
                user,
                history: history_before(seq, pos, config.max_seq_len),
                target: seq.items[pos],
            });
        }
        let boundary = positions[val_start];
        train_histories.push((user, history_before(seq, boundary, config.max_seq_len)));
    }

    Split {
        train,
        val,
        test,
        train_histories,
        num_items: dataset.num_items,
        target_behavior: target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::SyntheticConfig;

    fn build_seq(events: &[(ItemId, Behavior)]) -> Sequence {
        let mut s = Sequence::new();
        for &(i, b) in events {
            s.push(i, b);
        }
        s
    }

    fn toy_dataset() -> Dataset {
        use Behavior::*;
        Dataset {
            name: "toy".into(),
            num_users: 2,
            num_items: 6,
            behaviors: vec![Click, Purchase],
            target_behavior: Purchase,
            sequences: vec![
                build_seq(&[
                    (1, Click),
                    (1, Purchase),
                    (2, Click),
                    (3, Click),
                    (3, Purchase),
                    (4, Click),
                    (4, Purchase),
                    (5, Click),
                    (5, Purchase),
                ]),
                build_seq(&[(2, Click), (2, Purchase), (3, Click)]),
            ],
        }
    }

    #[test]
    fn loo_assigns_last_to_test_second_last_to_val() {
        let split = leave_one_out(&toy_dataset(), &SplitConfig::default());
        // User 0 has 4 purchases (1,3,4,5): test=5, val=4, train targets {1,3}.
        assert_eq!(split.test.len(), 1);
        assert_eq!(split.test[0].target, 5);
        assert_eq!(split.val[0].target, 4);
        let train_targets: Vec<ItemId> = split
            .train
            .iter()
            .filter(|t| t.user == 0)
            .map(|t| t.target)
            .collect();
        assert_eq!(train_targets, vec![1, 3]);
    }

    #[test]
    fn histories_are_strictly_before_target() {
        let split = leave_one_out(&toy_dataset(), &SplitConfig::default());
        let test = &split.test[0];
        // History before the last purchase of item 5 contains the click on 5.
        assert_eq!(*test.history.items.last().unwrap(), 5);
        assert_eq!(*test.history.behaviors.last().unwrap(), Behavior::Click);
        // And does not contain the target event itself.
        assert_eq!(test.history.len(), 8);
    }

    #[test]
    fn short_users_stay_in_training_only() {
        let split = leave_one_out(&toy_dataset(), &SplitConfig::default());
        // User 1 has a single purchase: no val/test, 1 training instance.
        assert!(split.test.iter().all(|t| t.user == 0));
        assert!(split.val.iter().all(|t| t.user == 0));
        let u1: Vec<_> = split.train.iter().filter(|t| t.user == 1).collect();
        assert_eq!(u1.len(), 1);
        assert_eq!(u1[0].target, 2);
    }

    #[test]
    fn max_seq_len_truncates() {
        let cfg = SplitConfig {
            max_seq_len: 2,
            ..SplitConfig::default()
        };
        let split = leave_one_out(&toy_dataset(), &cfg);
        assert!(split.test[0].history.len() <= 2);
    }

    #[test]
    fn max_train_per_user_caps_and_keeps_recent() {
        let cfg = SplitConfig {
            max_train_per_user: 1,
            ..SplitConfig::default()
        };
        let split = leave_one_out(&toy_dataset(), &cfg);
        let u0: Vec<_> = split.train.iter().filter(|t| t.user == 0).collect();
        assert_eq!(u0.len(), 1);
        assert_eq!(u0[0].target, 3); // the more recent of {1, 3}
    }

    #[test]
    fn k_core_removes_sparse_and_remaps() {
        let d = toy_dataset();
        let filtered = k_core(&d, 4, 2);
        filtered.validate().unwrap();
        // User 1 (3 events) is removed.
        assert_eq!(filtered.num_users, 1);
        // All item ids dense in 1..=num_items.
        for seq in &filtered.sequences {
            for &it in &seq.items {
                assert!(it >= 1 && it as usize <= filtered.num_items);
            }
        }
    }

    #[test]
    fn k_core_is_idempotent() {
        let g = SyntheticConfig::taobao_like(11).scaled(0.1).generate();
        let once = k_core(&g.dataset, 5, 3);
        let twice = k_core(&once, 5, 3);
        assert_eq!(once.num_users, twice.num_users);
        assert_eq!(once.num_items, twice.num_items);
        assert_eq!(once.num_interactions(), twice.num_interactions());
    }

    #[test]
    fn temporal_split_ordering_invariants() {
        let g = SyntheticConfig::taobao_like(14).scaled(0.1).generate();
        let split = temporal_split(&g.dataset, &SplitConfig::default(), 0.1, 0.2);
        assert!(!split.train.is_empty());
        assert!(!split.test.is_empty());
        // Multiple test instances per user are allowed; the test set must
        // be larger than the leave-one-out one for 20% test fraction.
        let loo = leave_one_out(&g.dataset, &SplitConfig::default());
        assert!(split.test.len() >= loo.test.len() / 2);
        // Every history respects max_seq_len and is non-empty.
        for inst in split.test.iter().chain(split.val.iter()) {
            assert!(!inst.history.is_empty());
            assert!(inst.history.len() <= 50);
        }
    }

    #[test]
    fn temporal_split_train_strictly_precedes_test_per_user() {
        let g = SyntheticConfig::yelp_like(15).scaled(0.1).generate();
        let cfg = SplitConfig {
            max_seq_len: usize::MAX >> 1,
            ..SplitConfig::default()
        };
        let split = temporal_split(&g.dataset, &cfg, 0.1, 0.2);
        // For each user: max train history length < min test history
        // length (histories are prefixes, so length orders events in time).
        use std::collections::HashMap;
        let mut max_train: HashMap<u32, usize> = HashMap::new();
        for t in &split.train {
            let e = max_train.entry(t.user).or_insert(0);
            *e = (*e).max(t.history.len());
        }
        for t in &split.test {
            if let Some(&mt) = max_train.get(&t.user) {
                assert!(
                    t.history.len() >= mt,
                    "test event earlier than a training event for user {}",
                    t.user
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn temporal_split_rejects_bad_fractions() {
        let g = SyntheticConfig::yelp_like(16).scaled(0.05).generate();
        temporal_split(&g.dataset, &SplitConfig::default(), 0.6, 0.6);
    }

    #[test]
    fn streaming_convert_matches_in_memory_pipeline() {
        let g = SyntheticConfig::taobao_like(21).scaled(0.1).generate();
        let dir = std::env::temp_dir().join(format!("mbssl_conv_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tsv = dir.join("log.tsv");
        crate::io::save_tsv(&g.dataset, &tsv).unwrap();
        let out = dir.join("log.mbds");
        let report =
            convert_tsv_streaming(&tsv, &out, g.dataset.target_behavior, 5, 3).unwrap();
        let expected = k_core(
            &crate::io::load_tsv(&tsv, g.dataset.target_behavior).unwrap(),
            5,
            3,
        );
        let loaded = crate::format::MbdsFile::open(&out).unwrap().to_dataset();
        assert_eq!(loaded.num_users, expected.num_users);
        assert_eq!(loaded.num_items, expected.num_items);
        assert_eq!(loaded.behaviors, expected.behaviors);
        assert_eq!(loaded.sequences, expected.sequences);
        assert_eq!(report.users_out, expected.num_users);
        assert_eq!(report.events_out, expected.num_interactions());
        assert!(report.passes >= 2);
        std::fs::remove_file(&tsv).ok();
        std::fs::remove_file(&out).ok();
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn streaming_convert_rejects_unsorted() {
        let dir = std::env::temp_dir().join(format!("mbssl_unsort_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let tsv = dir.join("log.tsv");
        std::fs::write(&tsv, "1\t1\tclick\t0\n0\t1\tpurchase\t1\n").unwrap();
        let out = dir.join("log.mbds");
        let err = convert_tsv_streaming(&tsv, &out, Behavior::Purchase, 0, 0).unwrap_err();
        assert!(matches!(err, ConvertError::NotSorted { line: 2, .. }));
        assert!(!out.exists());
        std::fs::remove_file(&tsv).ok();
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn split_on_synthetic_covers_most_users() {
        let g = SyntheticConfig::taobao_like(13).scaled(0.15).generate();
        let split = leave_one_out(&g.dataset, &SplitConfig::default());
        assert!(!split.train.is_empty());
        assert!(split.test.len() > g.dataset.num_users / 2);
        assert_eq!(split.val.len(), split.test.len());
        // Eval targets are valid items.
        for inst in split.test.iter().chain(split.val.iter()) {
            assert!(inst.target >= 1 && inst.target as usize <= split.num_items);
            assert!(!inst.history.is_empty());
        }
    }
}
