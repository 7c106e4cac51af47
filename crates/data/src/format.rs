//! `.mbds` — the mmap'd binary columnar dataset format.
//!
//! This module implements the on-disk "data substrate" described in
//! DESIGN.md §16: a compact, versioned columnar encoding of a preprocessed
//! [`Dataset`] that loads in O(1) via `mmap(2)` instead of re-parsing (and
//! re-k-coring) a TSV log on every run. A `.mbds` file is a
//! [`crate::container`] file of seven sections:
//!
//! ```text
//! catalog (u64: num_items) | codes (u8 × 4) | name | user_offsets (u64 × U+1)
//! | items (u32 × E) | behaviors (u8 × E) | timestamps (i64 × E)
//! ```
//!
//! The container owns the header, the section table, alignment, padding,
//! truncation and the mmap-or-buffer open, so the typed column views
//! handed out by [`MbdsFile`] are plain aligned reinterpret-casts of the
//! mapping — no copies, no decoding pass. This module keeps the semantic
//! checks: [`MbdsFile::open`] validates offsets, item ids and behavior
//! codes and rejects anything suspect with a typed [`FormatError`], never
//! a partially validated mapping. A hostile or truncated file must
//! produce an error, never UB.
//!
//! Writing goes through [`MbdsStreamWriter`], which buffers only O(users)
//! state (the offsets column) and streams the event columns through
//! temporary files, so TSV→`.mbds` conversion and synthetic generation stay
//! in bounded memory at 10M+ events. [`write_mbds`] is the convenience
//! wrapper for an already materialized [`Dataset`].

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::container::{self, as_bytes, corrupt, Container, Source, Spec};
use crate::types::{gini, Behavior, Dataset, DatasetStats, ItemId, Sequence};

pub use crate::container::FormatError;

/// Magic bytes at offset 0 of every `.mbds` file.
pub const MAGIC: &[u8; 8] = b"MBSSLDS\0";

/// The format version this build reads and writes.
pub const VERSION: u32 = 2;

const SPEC: Spec = Spec {
    magic: MAGIC,
    version: VERSION,
    widths: &[8, 1, 1, 8, 4, 1, 8],
};

// Section indices, in file order.
const CATALOG: usize = 0;
const CODES: usize = 1;
const NAME: usize = 2;
const OFFSETS: usize = 3;
const ITEMS: usize = 4;
const BEHAVIORS: usize = 5;
const TIMESTAMPS: usize = 6;

/// An open, fully validated `.mbds` file exposing zero-copy column views.
///
/// All accessors are plain slices into the backing mapping; materializing a
/// heap [`Dataset`] is explicit via [`MbdsFile::to_dataset`]. Dropping the
/// handle unmaps the file.
pub struct MbdsFile {
    file: Container,
    name: String,
    num_users: usize,
    num_items: usize,
    num_events: usize,
    behaviors: Vec<Behavior>,
    target_behavior: Behavior,
}

impl MbdsFile {
    /// Opens and fully validates a `.mbds` file (through `mmap` unless
    /// [`container::mmap_enabled`] is off). Any structural violation yields
    /// a typed [`FormatError`]; a returned handle is safe to index without
    /// further checks.
    pub fn open(path: &Path) -> Result<MbdsFile, FormatError> {
        Self::validate(Container::open(path, &SPEC)?)
    }

    fn validate(file: Container) -> Result<MbdsFile, FormatError> {
        let [num_items] = file.fixed::<u64, 1>(CATALOG)?;
        let [target_code, behavior_mask, ..] = file.fixed::<u8, 4>(CODES)?;
        if num_items >= u64::from(u32::MAX) {
            return Err(corrupt(format!(
                "num_items {num_items} exceeds the u32 item-id space"
            )));
        }
        let num_events = file.view::<ItemId>(ITEMS).len();
        for (column, len) in [
            ("behaviors", file.view::<u8>(BEHAVIORS).len()),
            ("timestamps", file.view::<i64>(TIMESTAMPS).len()),
        ] {
            if len != num_events {
                return Err(corrupt(format!(
                    "{column} column holds {len} events, items column {num_events}"
                )));
            }
        }
        let offsets = file.view::<u64>(OFFSETS);
        let num_users = offsets.len().checked_sub(1).ok_or_else(|| corrupt("no user_offsets"))?;
        // Decode the behavior set: one bit per dense behavior code - 1.
        if behavior_mask == 0 || behavior_mask & !0b1111 != 0 {
            return Err(corrupt(format!("behavior mask {behavior_mask:#04x} invalid")));
        }
        let behaviors: Vec<Behavior> = Behavior::ALL
            .iter()
            .copied()
            .filter(|bh| behavior_mask & (1 << (bh.index() - 1)) != 0)
            .collect();
        let target_behavior = Behavior::from_index(target_code as usize)
            .ok_or_else(|| corrupt(format!("target behavior code {target_code} invalid")))?;
        if behavior_mask & (1 << (target_behavior.index() - 1)) == 0 {
            return Err(corrupt(format!(
                "target behavior {} not in the declared behavior set",
                target_behavior.token()
            )));
        }
        let name = std::str::from_utf8(file.section(NAME))
            .map_err(|_| corrupt("dataset name is not UTF-8"))?
            .to_string();
        // Column-level validation: offsets monotone and spanning exactly
        // num_events; every item id in 1..=num_items; every behavior code in
        // the declared mask. One O(E) pass at open so accessors stay
        // check-free.
        if offsets[0] != 0 {
            return Err(corrupt("user_offsets[0] != 0"));
        }
        if offsets.windows(2).any(|w| w[1] < w[0]) {
            return Err(corrupt("user_offsets not monotone"));
        }
        if offsets[num_users] != num_events as u64 {
            return Err(corrupt(format!(
                "user_offsets end at {} but the columns hold {num_events} events",
                offsets[num_users]
            )));
        }
        for (i, &it) in file.view::<ItemId>(ITEMS).iter().enumerate() {
            if it == 0 || u64::from(it) > num_items {
                return Err(corrupt(format!(
                    "event {i}: item id {it} out of range 1..={num_items}"
                )));
            }
        }
        for (i, &code) in file.view::<u8>(BEHAVIORS).iter().enumerate() {
            if !(1..=4).contains(&code) || behavior_mask & (1 << (code - 1)) == 0 {
                return Err(corrupt(format!(
                    "event {i}: behavior code {code} not in declared set"
                )));
            }
        }
        Ok(MbdsFile {
            file,
            name,
            num_users,
            num_items: num_items as usize,
            num_events,
            behaviors,
            target_behavior,
        })
    }

    /// Dataset name recorded at write time (typically the TSV file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of users; user ids are `0..num_users`.
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of real items; item ids are `1..=num_items`.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Total event count across all users.
    pub fn num_events(&self) -> usize {
        self.num_events
    }

    /// Behaviors present, in funnel order (decoded from the behavior mask).
    pub fn behaviors(&self) -> &[Behavior] {
        &self.behaviors
    }

    /// The prediction-target behavior recorded at write time.
    pub fn target_behavior(&self) -> Behavior {
        self.target_behavior
    }

    /// True when backed by an `mmap` mapping rather than an owned buffer.
    pub fn is_mmap(&self) -> bool {
        self.file.is_mmap()
    }

    /// Total size of the backing file in bytes.
    pub fn file_len(&self) -> usize {
        self.file.file_len()
    }

    /// The user-offsets column: `num_users + 1` monotone event indices;
    /// user `u`'s events are `items()[offsets[u]..offsets[u+1]]`.
    pub fn user_offsets(&self) -> &[u64] {
        self.file.view(OFFSETS)
    }

    /// The item-id column (`num_events` entries, each in `1..=num_items`).
    pub fn items(&self) -> &[ItemId] {
        self.file.view(ITEMS)
    }

    /// The raw behavior-code column (`num_events` entries, dense codes as
    /// produced by [`Behavior::index`]).
    pub fn behavior_codes(&self) -> &[u8] {
        self.file.view(BEHAVIORS)
    }

    /// The timestamps column (`num_events` i64 entries; per-user event
    /// index when the source had no real timestamps).
    pub fn timestamps(&self) -> &[i64] {
        self.file.view(TIMESTAMPS)
    }

    /// Materializes a heap [`Dataset`] from the columns. `.mbds` files
    /// store already-preprocessed (k-cored, densely remapped) data, so no
    /// further preprocessing is applied on load.
    pub fn to_dataset(&self) -> Dataset {
        let items = self.items();
        let codes = self.behavior_codes();
        let offsets = self.user_offsets();
        let mut sequences = Vec::with_capacity(self.num_users);
        for u in 0..self.num_users {
            let r = offsets[u] as usize..offsets[u + 1] as usize;
            sequences.push(Sequence {
                items: items[r.clone()].to_vec(),
                behaviors: codes[r]
                    .iter()
                    .map(|&c| Behavior::from_index(c as usize).unwrap())
                    .collect(),
            });
        }
        Dataset {
            name: self.name.clone(),
            num_users: self.num_users,
            num_items: self.num_items,
            behaviors: self.behaviors.clone(),
            target_behavior: self.target_behavior,
            sequences,
        }
    }

    /// Summary statistics computed directly over the columns, without
    /// materializing a [`Dataset`]. O(E) time, O(items) memory.
    pub fn stats(&self) -> DatasetStats {
        let mut per = [0usize; Behavior::VOCAB];
        for &c in self.behavior_codes() {
            per[c as usize] += 1;
        }
        DatasetStats::from_counts(
            &self.name,
            self.num_users,
            self.num_items,
            &self.behaviors,
            &per,
        )
    }

    /// Gini coefficient of item popularity computed over the item column
    /// (same formula as [`Dataset::popularity_gini`]), O(items) memory.
    pub fn popularity_gini(&self) -> f64 {
        let mut counts = vec![0usize; self.num_items];
        for &it in self.items() {
            counts[it as usize - 1] += 1;
        }
        gini(&counts)
    }
}

impl std::fmt::Debug for MbdsFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MbdsFile")
            .field("name", &self.name)
            .field("num_users", &self.num_users)
            .field("num_items", &self.num_items)
            .field("num_events", &self.num_events)
            .field("behaviors", &self.behaviors)
            .field("target_behavior", &self.target_behavior)
            .field("backing", &if self.is_mmap() { "mmap" } else { "owned" })
            .finish()
    }
}

fn behavior_mask_of(behaviors: &[Behavior]) -> u8 {
    behaviors.iter().fold(0u8, |m, b| m | 1 << (b.index() - 1))
}

/// Streaming `.mbds` writer with O(users) memory.
///
/// Event columns (items, behavior codes, timestamps) are appended to
/// buffered temporary files next to the output path; only the offsets
/// column is held in memory. [`MbdsStreamWriter::finish`] publishes the
/// container (the in-memory sections, then the spliced column files)
/// through [`container::write_atomic`]. The temporaries are removed when
/// the writer is dropped, finished or not. Users must be appended in
/// dense-id order.
pub struct MbdsStreamWriter {
    out_path: PathBuf,
    tmp_paths: [PathBuf; 3],
    items_w: BufWriter<File>,
    behaviors_w: BufWriter<File>,
    timestamps_w: BufWriter<File>,
    offsets: Vec<u64>,
    name: String,
    behaviors: Vec<Behavior>,
    target: Behavior,
    kcore: (u8, u8),
    max_item: ItemId,
}

/// Temporary-file path next to `out`. The process id is part of the name so
/// two concurrent conversions targeting the same output path write disjoint
/// temporaries instead of silently interleaving into each other's files.
fn tmp_path(out: &Path, suffix: &str) -> PathBuf {
    let mut os = out.as_os_str().to_owned();
    os.push(format!(".{}{suffix}", std::process::id()));
    PathBuf::from(os)
}

impl MbdsStreamWriter {
    /// Starts a new `.mbds` file at `out`. `behaviors` is the declared
    /// behavior set (must be non-empty, in funnel order, and contain
    /// `target`).
    pub fn create(
        out: &Path,
        name: &str,
        behaviors: &[Behavior],
        target: Behavior,
    ) -> Result<MbdsStreamWriter, FormatError> {
        if behaviors.is_empty() {
            return Err(corrupt("empty behavior set"));
        }
        if !behaviors.contains(&target) {
            return Err(corrupt(format!(
                "target behavior {} not in the declared behavior set",
                target.token()
            )));
        }
        if behaviors.windows(2).any(|w| w[0].depth() >= w[1].depth()) {
            return Err(corrupt("behavior set not strictly in funnel order"));
        }
        let tmp_paths = [
            tmp_path(out, ".items.part"),
            tmp_path(out, ".behaviors.part"),
            tmp_path(out, ".timestamps.part"),
        ];
        let items_w = BufWriter::new(File::create(&tmp_paths[0])?);
        let behaviors_w = BufWriter::new(File::create(&tmp_paths[1])?);
        let timestamps_w = BufWriter::new(File::create(&tmp_paths[2])?);
        Ok(MbdsStreamWriter {
            out_path: out.to_path_buf(),
            tmp_paths,
            items_w,
            behaviors_w,
            timestamps_w,
            offsets: vec![0],
            name: name.to_string(),
            behaviors: behaviors.to_vec(),
            target,
            kcore: (0, 0),
            max_item: 0,
        })
    }

    /// Records the k-core thresholds the events were filtered with in the
    /// `codes` section, as provenance for tools that read the header. `0`
    /// means unspecified (the default); values above `u8::MAX` are also
    /// stored as unspecified rather than saturated, so a reader never
    /// sees a wrong threshold.
    pub fn set_kcore(&mut self, k_user: usize, k_item: usize) {
        let enc = |k: usize| u8::try_from(k).unwrap_or(0);
        self.kcore = (enc(k_user), enc(k_item));
    }

    /// Appends the next user's time-ordered events. The three slices must
    /// have equal length; item ids must be nonzero (range vs. `num_items`
    /// is checked at [`MbdsStreamWriter::finish`]); behaviors must come
    /// from the declared set.
    pub fn append_user(
        &mut self,
        items: &[ItemId],
        behaviors: &[Behavior],
        timestamps: &[i64],
    ) -> Result<(), FormatError> {
        if items.len() != behaviors.len() || items.len() != timestamps.len() {
            return Err(corrupt("ragged user columns"));
        }
        for (&it, &bh) in items.iter().zip(behaviors) {
            if it == 0 {
                return Err(corrupt("item id 0 is reserved for padding"));
            }
            if !self.behaviors.contains(&bh) {
                return Err(corrupt(format!("behavior {} not in the declared set", bh.token())));
            }
            self.max_item = self.max_item.max(it);
            self.items_w.write_all(&it.to_le_bytes())?;
            self.behaviors_w.write_all(&[bh.index() as u8])?;
        }
        self.timestamps_w.write_all(as_bytes(timestamps))?;
        let last = *self.offsets.last().unwrap();
        self.offsets.push(last + items.len() as u64);
        Ok(())
    }

    /// Appends a user's [`Sequence`], synthesizing the per-user event index
    /// as the timestamp column (matching `save_tsv`).
    pub fn append_user_seq(&mut self, seq: &Sequence) -> Result<(), FormatError> {
        let ts: Vec<i64> = (0..seq.len() as i64).collect();
        self.append_user(&seq.items, &seq.behaviors, &ts)
    }

    /// Number of events appended so far.
    pub fn events_written(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Publishes the `.mbds` file. `num_items` is the declared catalog
    /// size; every appended item id must be `<= num_items`. Returns the
    /// total file size in bytes.
    pub fn finish(mut self, num_items: usize) -> Result<u64, FormatError> {
        if (self.max_item as usize) > num_items {
            return Err(corrupt(format!(
                "item id {} exceeds declared num_items {num_items}",
                self.max_item
            )));
        }
        if num_items >= u32::MAX as usize {
            return Err(corrupt(format!(
                "num_items {num_items} exceeds the u32 item-id space"
            )));
        }
        self.items_w.flush()?;
        self.behaviors_w.flush()?;
        self.timestamps_w.flush()?;
        let events = self.events_written();
        let codes = [
            self.target.index() as u8,
            behavior_mask_of(&self.behaviors),
            self.kcore.0,
            self.kcore.1,
        ];
        let [items, behaviors, timestamps] = &self.tmp_paths;
        container::publish(
            &self.out_path,
            &SPEC,
            &[
                Source::Bytes(as_bytes(&[num_items as u64])),
                Source::Bytes(&codes),
                Source::Bytes(self.name.as_bytes()),
                Source::Bytes(as_bytes(&self.offsets)),
                Source::File(items, events * 4),
                Source::File(behaviors, events),
                Source::File(timestamps, events * 8),
            ],
        )
    }
}

impl Drop for MbdsStreamWriter {
    fn drop(&mut self) {
        for tmp in &self.tmp_paths {
            let _ = std::fs::remove_file(tmp);
        }
    }
}

/// Writes an in-memory [`Dataset`] as a `.mbds` file (timestamps are the
/// per-user event index, matching `save_tsv`), recording the
/// `(k_user, k_item)` k-core thresholds the dataset was filtered with
/// (`0` = unspecified). Returns total bytes written.
pub fn write_mbds(
    dataset: &Dataset,
    path: &Path,
    k_user: usize,
    k_item: usize,
) -> Result<u64, FormatError> {
    let mut w = MbdsStreamWriter::create(
        path,
        &dataset.name,
        &dataset.behaviors,
        dataset.target_behavior,
    )?;
    w.set_kcore(k_user, k_item);
    for seq in &dataset.sequences {
        w.append_user_seq(seq)?;
    }
    w.finish(dataset.num_items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        let mut s0 = Sequence::new();
        s0.push(1, Behavior::Click);
        s0.push(3, Behavior::Purchase);
        let mut s1 = Sequence::new();
        s1.push(2, Behavior::Click);
        s1.push(2, Behavior::Cart);
        s1.push(1, Behavior::Purchase);
        Dataset {
            name: "sample".to_string(),
            num_users: 2,
            num_items: 3,
            behaviors: vec![Behavior::Click, Behavior::Cart, Behavior::Purchase],
            target_behavior: Behavior::Purchase,
            sequences: vec![s0, s1],
        }
    }

    #[test]
    fn roundtrip() {
        let dir = std::env::temp_dir().join(format!("mbds_rt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.mbds");
        let ds = sample();
        let bytes = write_mbds(&ds, &path, 0, 0).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        let f = MbdsFile::open(&path).unwrap();
        assert_eq!(f.num_users(), 2);
        assert_eq!(f.num_items(), 3);
        assert_eq!(f.num_events(), 5);
        assert_eq!(f.name(), "sample");
        assert_eq!(f.target_behavior(), Behavior::Purchase);
        assert_eq!(f.behaviors(), &ds.behaviors[..]);
        assert_eq!(f.user_offsets(), &[0, 2, 5]);
        assert_eq!(f.items(), &[1, 3, 2, 2, 1]);
        assert_eq!(f.timestamps(), &[0, 1, 0, 1, 2]);
        let back = f.to_dataset();
        assert_eq!(back.sequences, ds.sequences);
        assert_eq!(back.num_items, ds.num_items);
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn kcore_thresholds_roundtrip_through_header() {
        let dir = std::env::temp_dir().join(format!("mbds_kcore_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("kcore.mbds");
        let ds = sample();
        // The `codes` section's last two bytes, 0 for unspecified.
        let kcore = |path: &Path| {
            let file = Container::open(path, &SPEC).unwrap();
            let [.., k_user, k_item] = file.fixed::<u8, 4>(CODES).unwrap();
            (k_user, k_item)
        };

        write_mbds(&ds, &path, 0, 0).unwrap();
        assert_eq!(kcore(&path), (0, 0));

        write_mbds(&ds, &path, 5, 3).unwrap();
        assert_eq!(kcore(&path), (5, 3));

        // Thresholds above the u8 range are stored as unspecified, never
        // saturated to a wrong value.
        write_mbds(&ds, &path, 300, 3).unwrap();
        assert_eq!(kcore(&path), (0, 3));

        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn clobbered_column_temp_is_corrupt_at_finish() {
        let dir = std::env::temp_dir().join(format!("mbds_clobber_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clobber.mbds");
        let ds = sample();
        let mut w = MbdsStreamWriter::create(
            &path,
            &ds.name,
            &ds.behaviors,
            ds.target_behavior,
        )
        .unwrap();
        for seq in &ds.sequences {
            w.append_user_seq(seq).unwrap();
        }
        // Simulate another process truncating the items temp out from
        // under the writer: flush first so the append is durable, then
        // clobber the file on disk.
        w.items_w.flush().unwrap();
        std::fs::write(&w.tmp_paths[0], b"xx").unwrap();
        match w.finish(ds.num_items) {
            Err(FormatError::Corrupt(msg)) => {
                assert!(msg.contains("layout expects"), "{msg}")
            }
            other => panic!("expected Corrupt(short column temp), got {other:?}"),
        }
        // The half-assembled output must not have been renamed into place.
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let dir = std::env::temp_dir().join(format!("mbds_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.mbds");
        write_mbds(&sample(), &path, 0, 0).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(MbdsFile::open(&path), Err(FormatError::BadMagic)));
        bytes[0] = b'M';
        bytes[8] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(MbdsFile::open(&path), Err(FormatError::BadVersion(99))));
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }
}
