//! `.mbds` — the mmap'd binary columnar dataset format.
//!
//! This module implements the on-disk "data substrate" described in
//! DESIGN.md §16: a compact, versioned, little-endian columnar encoding of a
//! preprocessed [`Dataset`] that loads in O(1) via `mmap(2)` instead of
//! re-parsing (and re-k-coring) a TSV log on every run. The layout is four
//! column sections behind a 64-byte header:
//!
//! ```text
//! header | name | user_offsets (u64 × U+1) | items (u32 × E)
//!        | behaviors (u8 × E) | timestamps (i64 × E)
//! ```
//!
//! Every section starts on an 8-byte boundary (zero padding in between), so
//! the typed column views handed out by [`MbdsFile`] are plain aligned
//! reinterpret-casts of the mapping — no copies, no decoding pass.
//!
//! Validation mirrors the `.ivf` index loader: [`MbdsFile::open`] fully
//! validates the file (magic, version, declared sizes vs. actual length,
//! offset monotonicity, item-id ranges, behavior codes) and rejects anything
//! suspect with a typed [`FormatError`] — callers are expected to
//! warn-and-degrade to the TSV path, never to trust a partially validated
//! mapping. A hostile or truncated file must produce an error, never UB.
//!
//! Writing goes through [`MbdsStreamWriter`], which buffers only O(users)
//! state (the offsets column) and streams the event columns through
//! temporary files, so TSV→`.mbds` conversion and synthetic generation stay
//! in bounded memory at 10M+ events. [`write_mbds`] is the convenience
//! wrapper for an already materialized [`Dataset`].
//!
//! `MBSSL_DATA_MMAP=off` (or `0` / `none`) disables the `mmap` fast path:
//! the file is then read into an owned, 8-byte-aligned buffer through the
//! same validation code. Non-unix targets always take the buffered path.

use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::types::{Behavior, Dataset, ItemId, Sequence};

/// Magic bytes at offset 0 of every `.mbds` file.
pub const MAGIC: &[u8; 8] = b"MBSSLDS\0";

/// Current (and only) format version.
pub const VERSION: u32 = 1;

/// Fixed header length in bytes for version 1.
pub const HEADER_LEN: u64 = 64;

const ALIGN: u64 = 8;

/// Why a `.mbds` file was rejected. Mirrors the `.ivf` loader's rejection
/// modes so CLI consumers can warn-and-degrade uniformly.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// First 8 bytes are not [`MAGIC`] — not a `.mbds` file at all.
    BadMagic,
    /// Recognized file, but written by an incompatible format version.
    BadVersion(u32),
    /// File is shorter than its header-declared layout requires.
    Truncated {
        /// Bytes the declared layout requires.
        needed: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// Structurally invalid content (bad offsets, out-of-range ids,
    /// trailing bytes, …). The message names the first violation.
    Corrupt(String),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "io error: {e}"),
            FormatError::BadMagic => write!(f, "bad magic (not a .mbds file)"),
            FormatError::BadVersion(v) => {
                write!(f, "unsupported .mbds version {v} (supported: {VERSION})")
            }
            FormatError::Truncated { needed, actual } => {
                write!(f, "truncated: layout needs {needed} bytes, file has {actual}")
            }
            FormatError::Corrupt(msg) => write!(f, "corrupt: {msg}"),
        }
    }
}

impl std::error::Error for FormatError {}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

/// Whether the `mmap` fast path is enabled (`MBSSL_DATA_MMAP`, default on;
/// `off` / `0` / `none` fall back to an owned aligned buffer). Also governs
/// whether the CLI auto-discovers `.mbds` siblings next to TSV logs. The
/// switch stays because the buffered read is a production path (non-unix
/// targets have no `mmap`) and this is how CI covers it on unix.
pub fn mmap_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("MBSSL_DATA_MMAP").as_deref(),
            Ok("off") | Ok("0") | Ok("none")
        )
    })
}

fn align_up(x: u64) -> Option<u64> {
    x.checked_add(ALIGN - 1).map(|v| v & !(ALIGN - 1))
}

/// Byte ranges of each section, derived purely from header counts.
struct Layout {
    name: (u64, u64),
    offsets: (u64, u64),
    items: (u64, u64),
    behaviors: (u64, u64),
    timestamps: (u64, u64),
    total: u64,
}

fn layout(num_users: u64, num_events: u64, name_len: u64) -> Result<Layout, FormatError> {
    let overflow = || FormatError::Corrupt("section sizes overflow u64".to_string());
    let mut pos = HEADER_LEN;
    let mut section = |len: u64| -> Result<(u64, u64), FormatError> {
        let start = pos;
        let end = start.checked_add(len).ok_or_else(overflow)?;
        pos = align_up(end).ok_or_else(overflow)?;
        Ok((start, end))
    };
    let name = section(name_len)?;
    let offsets_len = num_users
        .checked_add(1)
        .and_then(|n| n.checked_mul(8))
        .ok_or_else(overflow)?;
    let offsets = section(offsets_len)?;
    let items = section(num_events.checked_mul(4).ok_or_else(overflow)?)?;
    let behaviors = section(num_events)?;
    let timestamps = section(num_events.checked_mul(8).ok_or_else(overflow)?)?;
    // The file ends exactly at the end of the timestamps section — the final
    // section is NOT padded, so `total` may not be 8-aligned.
    Ok(Layout {
        name,
        offsets,
        items,
        behaviors,
        timestamps,
        total: timestamps.1,
    })
}

#[cfg(unix)]
mod sys {
    //! Minimal raw bindings to the two libc symbols we need. The workspace
    //! is zero-dependency, so there is no `libc` crate; `std` already links
    //! the platform libc on unix, making these `extern "C"` declarations
    //! resolve at link time.
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// The bytes behind an open file: either a read-only private mapping or an
/// owned buffer. The owned buffer is backed by `Vec<u64>` so its base is
/// 8-aligned like a page-aligned mapping — the typed column views rely on
/// section starts being at least 4/8-aligned relative to an aligned base.
enum Backing {
    #[cfg(unix)]
    Mmap { ptr: *mut u8, len: usize },
    Owned { buf: Vec<u64>, len: usize },
}

// SAFETY: the mapping is PROT_READ + MAP_PRIVATE and never mutated after
// open; sharing immutable views across threads is sound.
unsafe impl Send for Backing {}
unsafe impl Sync for Backing {}

impl Backing {
    fn bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            Backing::Mmap { ptr, len } => unsafe {
                std::slice::from_raw_parts(*ptr, *len)
            },
            Backing::Owned { buf, len } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len)
            },
        }
    }

    fn is_mmap(&self) -> bool {
        match self {
            #[cfg(unix)]
            Backing::Mmap { .. } => true,
            Backing::Owned { .. } => false,
        }
    }
}

impl Drop for Backing {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Backing::Mmap { ptr, len } = self {
            // SAFETY: ptr/len came from a successful mmap of exactly len.
            unsafe {
                sys::munmap(*ptr as *mut std::ffi::c_void, *len);
            }
        }
    }
}

fn read_owned(file: &mut File, len: u64) -> Result<Backing, FormatError> {
    let len_usize =
        usize::try_from(len).map_err(|_| FormatError::Corrupt("file too large".to_string()))?;
    let words = len_usize.div_ceil(8);
    let mut buf = vec![0u64; words];
    // SAFETY: the Vec<u64> allocation covers words*8 >= len bytes and u64 has
    // no invalid bit patterns, so filling it as raw bytes is sound.
    let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len_usize) };
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(dst)?;
    Ok(Backing::Owned { buf, len: len_usize })
}

#[cfg(unix)]
fn map_file(file: &File, len: u64) -> Result<Backing, FormatError> {
    use std::os::unix::io::AsRawFd;
    let len_usize =
        usize::try_from(len).map_err(|_| FormatError::Corrupt("file too large".to_string()))?;
    // SAFETY: fd is valid for the lifetime of the call; a failed map returns
    // MAP_FAILED which we turn into an error instead of dereferencing.
    let ptr = unsafe {
        sys::mmap(
            std::ptr::null_mut(),
            len_usize,
            sys::PROT_READ,
            sys::MAP_PRIVATE,
            file.as_raw_fd(),
            0,
        )
    };
    if ptr as isize == -1 {
        return Err(FormatError::Io(io::Error::last_os_error()));
    }
    Ok(Backing::Mmap { ptr: ptr as *mut u8, len: len_usize })
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().unwrap())
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().unwrap())
}

/// An open, fully validated `.mbds` file exposing zero-copy column views.
///
/// All accessors are plain slices into the backing mapping; materializing a
/// heap [`Dataset`] is explicit via [`MbdsFile::to_dataset`]. Dropping the
/// handle unmaps the file.
pub struct MbdsFile {
    backing: Backing,
    name: String,
    num_users: usize,
    num_items: usize,
    num_events: usize,
    behaviors: Vec<Behavior>,
    target_behavior: Behavior,
    kcore: (u8, u8),
    offsets_at: usize,
    items_at: usize,
    behaviors_at: usize,
    timestamps_at: usize,
}

impl MbdsFile {
    /// Opens and fully validates a `.mbds` file. Uses `mmap` when
    /// [`mmap_enabled`] (unix only); otherwise reads the file into an
    /// aligned owned buffer. Any structural violation yields a typed
    /// [`FormatError`]; a returned handle is safe to index without further
    /// checks.
    pub fn open(path: &Path) -> Result<MbdsFile, FormatError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        if file_len < HEADER_LEN {
            return Err(FormatError::Truncated { needed: HEADER_LEN, actual: file_len });
        }
        #[cfg(unix)]
        let backing = if mmap_enabled() {
            map_file(&file, file_len)?
        } else {
            read_owned(&mut file, file_len)?
        };
        #[cfg(not(unix))]
        let backing = read_owned(&mut file, file_len)?;
        Self::validate(backing, file_len)
    }

    fn validate(backing: Backing, file_len: u64) -> Result<MbdsFile, FormatError> {
        let b = backing.bytes();
        if &b[0..8] != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let version = read_u32(b, 8);
        if version != VERSION {
            return Err(FormatError::BadVersion(version));
        }
        let header_len = read_u32(b, 12);
        if u64::from(header_len) != HEADER_LEN {
            return Err(FormatError::Corrupt(format!(
                "header_len {header_len}, expected {HEADER_LEN}"
            )));
        }
        let num_users = read_u64(b, 16);
        let num_items = read_u64(b, 24);
        let num_events = read_u64(b, 32);
        let target_code = b[40];
        let behavior_mask = b[41];
        let kcore = (b[42], b[43]);
        let name_len = u64::from(read_u32(b, 44));
        if b[48..64].iter().any(|&x| x != 0) {
            return Err(FormatError::Corrupt("reserved header bytes not zero".to_string()));
        }
        if num_items >= u64::from(u32::MAX) {
            return Err(FormatError::Corrupt(format!(
                "num_items {num_items} exceeds the u32 item-id space"
            )));
        }
        let lay = layout(num_users, num_events, name_len)?;
        if file_len < lay.total {
            return Err(FormatError::Truncated { needed: lay.total, actual: file_len });
        }
        if file_len > lay.total {
            return Err(FormatError::Corrupt(format!(
                "{} trailing bytes after the timestamps section",
                file_len - lay.total
            )));
        }
        // Decode the behavior set: one bit per dense behavior code - 1.
        if behavior_mask == 0 || behavior_mask & !0b1111 != 0 {
            return Err(FormatError::Corrupt(format!(
                "behavior mask {behavior_mask:#04x} invalid"
            )));
        }
        let behaviors: Vec<Behavior> = Behavior::ALL
            .iter()
            .copied()
            .filter(|bh| behavior_mask & (1 << (bh.index() - 1)) != 0)
            .collect();
        let target_behavior = Behavior::from_index(target_code as usize).ok_or_else(|| {
            FormatError::Corrupt(format!("target behavior code {target_code} invalid"))
        })?;
        if behavior_mask & (1 << (target_behavior.index() - 1)) == 0 {
            return Err(FormatError::Corrupt(format!(
                "target behavior {} not in the declared behavior set",
                target_behavior.token()
            )));
        }
        let name_bytes = &b[lay.name.0 as usize..lay.name.1 as usize];
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| FormatError::Corrupt("dataset name is not UTF-8".to_string()))?
            .to_string();
        // Inter-section padding must be zero (normative, keeps files
        // byte-reproducible).
        for (end, next) in [
            (lay.name.1, lay.offsets.0),
            (lay.offsets.1, lay.items.0),
            (lay.items.1, lay.behaviors.0),
            (lay.behaviors.1, lay.timestamps.0),
        ] {
            if b[end as usize..next as usize].iter().any(|&x| x != 0) {
                return Err(FormatError::Corrupt("nonzero section padding".to_string()));
            }
        }
        let this = MbdsFile {
            name,
            num_users: num_users as usize,
            num_items: num_items as usize,
            num_events: num_events as usize,
            behaviors,
            target_behavior,
            kcore,
            offsets_at: lay.offsets.0 as usize,
            items_at: lay.items.0 as usize,
            behaviors_at: lay.behaviors.0 as usize,
            timestamps_at: lay.timestamps.0 as usize,
            backing,
        };
        // Column-level validation: offsets monotone and spanning exactly
        // num_events; every item id in 1..=num_items; every behavior code in
        // the declared mask. One O(E) pass at open so accessors stay
        // check-free.
        let offsets = this.user_offsets();
        if offsets.first() != Some(&0) && this.num_users > 0 {
            return Err(FormatError::Corrupt("user_offsets[0] != 0".to_string()));
        }
        if this.num_users == 0 && offsets != [0] {
            return Err(FormatError::Corrupt("empty dataset with nonzero offsets".to_string()));
        }
        for w in offsets.windows(2) {
            if w[1] < w[0] {
                return Err(FormatError::Corrupt("user_offsets not monotone".to_string()));
            }
        }
        if *offsets.last().unwrap() != this.num_events as u64 {
            return Err(FormatError::Corrupt(format!(
                "user_offsets end at {} but num_events is {}",
                offsets.last().unwrap(),
                this.num_events
            )));
        }
        for (i, &it) in this.items().iter().enumerate() {
            if it == 0 || it as usize > this.num_items {
                return Err(FormatError::Corrupt(format!(
                    "event {i}: item id {it} out of range 1..={}",
                    this.num_items
                )));
            }
        }
        for (i, &code) in this.behavior_codes().iter().enumerate() {
            let ok = (1..=4).contains(&code) && behavior_mask & (1 << (code - 1)) != 0;
            if !ok {
                return Err(FormatError::Corrupt(format!(
                    "event {i}: behavior code {code} not in declared set"
                )));
            }
        }
        Ok(this)
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

    /// Behaviors present, in funnel order (decoded from the header mask).
    pub fn behaviors(&self) -> &[Behavior] {
        &self.behaviors
    }

    /// The prediction-target behavior recorded at write time.
    pub fn target_behavior(&self) -> Behavior {
        self.target_behavior
    }

    /// The `(k_user, k_item)` k-core thresholds recorded at write time
    /// (header bytes 42/43), or `None` when the writer left them
    /// unspecified. Loaders that assume a particular preprocessing (the
    /// CLI's sibling auto-discovery expects the default 5/3-core) use this
    /// to detect a file converted with different thresholds.
    pub fn kcore_thresholds(&self) -> Option<(usize, usize)> {
        match self.kcore {
            (0, _) | (_, 0) => None,
            (ku, ki) => Some((ku as usize, ki as usize)),
        }
    }

    /// True when backed by an `mmap` mapping rather than an owned buffer.
    pub fn is_mmap(&self) -> bool {
        self.backing.is_mmap()
    }

    /// Total size of the backing file in bytes.
    pub fn file_len(&self) -> usize {
        self.backing.bytes().len()
    }

    fn cast_slice<T: Copy>(&self, at: usize, n: usize) -> &[T] {
        let b = self.backing.bytes();
        let bytes = &b[at..at + n * std::mem::size_of::<T>()];
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: the section start is 8-aligned relative to an 8-aligned
        // base (page-aligned mmap or Vec<u64>), the length was validated
        // against the file size at open, and T is a plain-old-data integer
        // type with no invalid bit patterns.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, n) }
    }

    /// The user-offsets column: `num_users + 1` monotone event indices;
    /// user `u`'s events are `items()[offsets[u]..offsets[u+1]]`.
    pub fn user_offsets(&self) -> &[u64] {
        self.cast_slice(self.offsets_at, self.num_users + 1)
    }

    /// The item-id column (`num_events` entries, each in `1..=num_items`).
    pub fn items(&self) -> &[ItemId] {
        self.cast_slice(self.items_at, self.num_events)
    }

    /// The raw behavior-code column (`num_events` entries, dense codes as
    /// produced by [`Behavior::index`]).
    pub fn behavior_codes(&self) -> &[u8] {
        let b = self.backing.bytes();
        &b[self.behaviors_at..self.behaviors_at + self.num_events]
    }

    /// The timestamps column (`num_events` i64 entries; per-user event
    /// index when the source had no real timestamps).
    pub fn timestamps(&self) -> &[i64] {
        self.cast_slice(self.timestamps_at, self.num_events)
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
    pub fn stats(&self) -> crate::types::DatasetStats {
        let mut per = [0usize; Behavior::VOCAB];
        for &c in self.behavior_codes() {
            per[c as usize] += 1;
        }
        let cells = self.num_users as f64 * self.num_items as f64;
        crate::types::DatasetStats {
            name: self.name.clone(),
            users: self.num_users,
            items: self.num_items,
            interactions: self.num_events,
            per_behavior: self
                .behaviors
                .iter()
                .map(|&bh| (bh.token().to_string(), per[bh.index()]))
                .collect(),
            avg_seq_len: if self.num_users == 0 {
                0.0
            } else {
                self.num_events as f64 / self.num_users as f64
            },
            density: if cells == 0.0 { 0.0 } else { self.num_events as f64 / cells },
        }
    }

    /// Gini coefficient of item popularity computed over the item column
    /// (same formula as [`Dataset::popularity_gini`]), O(items) memory.
    pub fn popularity_gini(&self) -> f64 {
        let mut counts = vec![0f64; self.num_items];
        for &it in self.items() {
            counts[it as usize - 1] += 1.0;
        }
        counts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = counts.len() as f64;
        let total: f64 = counts.iter().sum();
        if n == 0.0 || total == 0.0 {
            return 0.0;
        }
        let weighted: f64 =
            counts.iter().enumerate().map(|(i, &c)| (i as f64 + 1.0) * c).sum();
        (2.0 * weighted) / (n * total) - (n + 1.0) / n
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
/// column is held in memory. [`MbdsStreamWriter::finish`] assembles the
/// final file (header + name + offsets + spliced column files) and removes
/// the temporaries. Users must be appended in dense-id order.
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
    finished: bool,
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
            return Err(FormatError::Corrupt("empty behavior set".to_string()));
        }
        if !behaviors.contains(&target) {
            return Err(FormatError::Corrupt(format!(
                "target behavior {} not in the declared behavior set",
                target.token()
            )));
        }
        if behaviors.windows(2).any(|w| w[0].depth() >= w[1].depth()) {
            return Err(FormatError::Corrupt(
                "behavior set not strictly in funnel order".to_string(),
            ));
        }
        if u64::try_from(name.len()).is_err() || name.len() > u32::MAX as usize {
            return Err(FormatError::Corrupt("dataset name too long".to_string()));
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
            finished: false,
        })
    }

    /// Records the k-core thresholds the events were filtered with; they
    /// are stored in header bytes 42/43 so loaders can detect a `.mbds`
    /// file converted with different thresholds than they expect. `0`
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
            return Err(FormatError::Corrupt("ragged user columns".to_string()));
        }
        for (&it, &bh) in items.iter().zip(behaviors) {
            if it == 0 {
                return Err(FormatError::Corrupt("item id 0 is reserved for padding".to_string()));
            }
            if !self.behaviors.contains(&bh) {
                return Err(FormatError::Corrupt(format!(
                    "behavior {} not in the declared set",
                    bh.token()
                )));
            }
            self.max_item = self.max_item.max(it);
            self.items_w.write_all(&it.to_le_bytes())?;
            self.behaviors_w.write_all(&[bh.index() as u8])?;
        }
        for &ts in timestamps {
            self.timestamps_w.write_all(&ts.to_le_bytes())?;
        }
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

    /// Number of users appended so far.
    pub fn users_written(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of events appended so far.
    pub fn events_written(&self) -> u64 {
        *self.offsets.last().unwrap()
    }

    /// Assembles the final `.mbds` file and removes the temporaries.
    /// `num_items` is the declared catalog size; every appended item id
    /// must be `<= num_items`. Returns the total file size in bytes.
    pub fn finish(mut self, num_items: usize) -> Result<u64, FormatError> {
        if (self.max_item as usize) > num_items {
            return Err(FormatError::Corrupt(format!(
                "item id {} exceeds declared num_items {num_items}",
                self.max_item
            )));
        }
        if num_items >= u32::MAX as usize {
            return Err(FormatError::Corrupt(format!(
                "num_items {num_items} exceeds the u32 item-id space"
            )));
        }
        self.items_w.flush()?;
        self.behaviors_w.flush()?;
        self.timestamps_w.flush()?;

        let num_users = self.users_written() as u64;
        let num_events = self.events_written();
        let lay = layout(num_users, num_events, self.name.len() as u64)?;

        // Assemble into a pid-unique temporary and atomically rename it
        // into place, so readers never observe a half-written file and
        // concurrent conversions to the same path each produce a complete
        // file (last rename wins).
        let final_tmp = tmp_path(&self.out_path, ".part");
        let assemble = || -> Result<(), FormatError> {
            let mut out = BufWriter::new(File::create(&final_tmp)?);
            let mut header = [0u8; HEADER_LEN as usize];
            header[0..8].copy_from_slice(MAGIC);
            header[8..12].copy_from_slice(&VERSION.to_le_bytes());
            header[12..16].copy_from_slice(&(HEADER_LEN as u32).to_le_bytes());
            header[16..24].copy_from_slice(&num_users.to_le_bytes());
            header[24..32].copy_from_slice(&(num_items as u64).to_le_bytes());
            header[32..40].copy_from_slice(&num_events.to_le_bytes());
            header[40] = self.target.index() as u8;
            header[41] = behavior_mask_of(&self.behaviors);
            header[42] = self.kcore.0;
            header[43] = self.kcore.1;
            header[44..48].copy_from_slice(&(self.name.len() as u32).to_le_bytes());
            out.write_all(&header)?;

            let pad = |w: &mut BufWriter<File>, end: u64, next: u64| -> io::Result<()> {
                w.write_all(&vec![0u8; (next - end) as usize])
            };
            out.write_all(self.name.as_bytes())?;
            pad(&mut out, lay.name.1, lay.offsets.0)?;
            for &o in &self.offsets {
                out.write_all(&o.to_le_bytes())?;
            }
            pad(&mut out, lay.offsets.1, lay.items.0)?;
            // Each column temp must splice in exactly the byte count the
            // layout promises; a short or long copy means the temp was
            // clobbered and the output would only fail later at open.
            let expected = [
                lay.items.1 - lay.items.0,
                lay.behaviors.1 - lay.behaviors.0,
                lay.timestamps.1 - lay.timestamps.0,
            ];
            for (i, tmp) in self.tmp_paths.iter().enumerate() {
                let mut f = File::open(tmp)?;
                let copied = io::copy(&mut f, &mut out)?;
                if copied != expected[i] {
                    return Err(FormatError::Corrupt(format!(
                        "column temp {} holds {copied} bytes, layout expects {}",
                        tmp.display(),
                        expected[i]
                    )));
                }
                match i {
                    0 => pad(&mut out, lay.items.1, lay.behaviors.0)?,
                    1 => pad(&mut out, lay.behaviors.1, lay.timestamps.0)?,
                    _ => {}
                }
            }
            out.flush()?;
            Ok(())
        };
        if let Err(e) = assemble() {
            let _ = std::fs::remove_file(&final_tmp);
            return Err(e);
        }
        if let Err(e) = std::fs::rename(&final_tmp, &self.out_path) {
            let _ = std::fs::remove_file(&final_tmp);
            return Err(e.into());
        }
        for tmp in &self.tmp_paths {
            let _ = std::fs::remove_file(tmp);
        }
        self.finished = true;
        Ok(lay.total)
    }
}

impl Drop for MbdsStreamWriter {
    fn drop(&mut self) {
        if !self.finished {
            for tmp in &self.tmp_paths {
                let _ = std::fs::remove_file(tmp);
            }
        }
    }
}

/// Writes an in-memory [`Dataset`] as a `.mbds` file (timestamps are the
/// per-user event index, matching `save_tsv`). The k-core thresholds are
/// left unspecified in the header — use [`write_mbds_kcore`] when they are
/// known. Returns total bytes written.
pub fn write_mbds(dataset: &Dataset, path: &Path) -> Result<u64, FormatError> {
    write_mbds_kcore(dataset, path, 0, 0)
}

/// [`write_mbds`] recording the `(k_user, k_item)` k-core thresholds the
/// dataset was filtered with in header bytes 42/43 (`0` = unspecified).
pub fn write_mbds_kcore(
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
        let bytes = write_mbds(&ds, &path).unwrap();
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

        write_mbds(&ds, &path).unwrap();
        assert_eq!(MbdsFile::open(&path).unwrap().kcore_thresholds(), None);

        write_mbds_kcore(&ds, &path, 5, 3).unwrap();
        assert_eq!(MbdsFile::open(&path).unwrap().kcore_thresholds(), Some((5, 3)));

        // Thresholds above the u8 range are stored as unspecified, never
        // saturated to a wrong value.
        write_mbds_kcore(&ds, &path, 300, 3).unwrap();
        assert_eq!(MbdsFile::open(&path).unwrap().kcore_thresholds(), None);

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
        write_mbds(&sample(), &path).unwrap();
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
