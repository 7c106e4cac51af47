//! The one on-disk layout under every binary file the system reads: the
//! `.mbds` dataset ([`crate::format`]), the IVF index and the model
//! checkpoint (both in `mbssl-core`). DESIGN.md §16.1 is the spec:
//!
//! ```text
//! magic (8 bytes) | u32 version | u32 section count S | S × u64 section lengths
//! | section 0 | pad to 8 | section 1 | pad to 8 | … | section S-1
//! ```
//!
//! This module owns what the formats share: magic and version, the
//! section table, alignment and zero padding, truncation and trailing
//! bytes, opening (an `mmap(2)` mapping, or an 8-aligned owned buffer
//! under `MBSSL_DATA_MMAP=off` and on non-unix targets), atomic
//! publication ([`write_atomic`]) and the one [`FormatError`]. A format
//! declares a [`Spec`] and keeps only its own semantic checks. Section
//! views are reinterpret-casts, so the module builds for little-endian
//! targets only.

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const _: () = assert!(cfg!(target_endian = "little"), "the container format is little-endian");

/// Bytes before the section table: magic, version and section count.
pub const HEADER_LEN: u64 = 16;

/// Why a container file was rejected or could not be written.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The first 8 bytes are not the format's magic: not this kind of file.
    BadMagic,
    /// The right kind of file, written by another format version.
    BadVersion(u32),
    /// The file is shorter than its header and section table require.
    Truncated {
        /// Bytes the declared layout requires.
        needed: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// Structurally invalid content (section table, padding, trailing
    /// bytes, or a format's own semantic check). The message names the
    /// first violation.
    Corrupt(String),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "io error: {e}"),
            FormatError::BadMagic => write!(f, "bad magic (not this kind of file)"),
            FormatError::BadVersion(v) => write!(f, "unsupported format version {v}"),
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

/// Shorthand for a [`FormatError::Corrupt`].
pub fn corrupt(msg: impl Into<String>) -> FormatError {
    FormatError::Corrupt(msg.into())
}

/// Whether files open through `mmap` (`MBSSL_DATA_MMAP`, default on;
/// `off` / `0` / `none` read them into an owned aligned buffer instead).
/// The switch stays because the buffered read is a production path
/// (non-unix targets have no `mmap`) and this is how CI covers it on unix.
pub fn mmap_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        !matches!(
            std::env::var("MBSSL_DATA_MMAP").as_deref(),
            Ok("off") | Ok("0") | Ok("none")
        )
    })
}

/// One format's identity and shape: its magic, its version and the
/// element width in bytes of each of its sections, in order.
pub struct Spec {
    /// The 8 bytes every file of the format starts with.
    pub magic: &'static [u8; 8],
    /// The only version a reader accepts.
    pub version: u32,
    /// Element width of each section; a section's length must be a whole
    /// number of its elements.
    pub widths: &'static [usize],
}

/// Plain integer and float types a section can be viewed as: every bit
/// pattern is a valid value, and the width divides 8.
///
/// # Safety
/// Implementors must be `Copy` types without padding or invalid bit
/// patterns, with an alignment of at most 8.
pub unsafe trait Pod: Copy {}

// SAFETY: primitive numbers; every bit pattern is valid.
unsafe impl Pod for u8 {}
unsafe impl Pod for u32 {}
unsafe impl Pod for u64 {}
unsafe impl Pod for i64 {}
unsafe impl Pod for f32 {}

/// The bytes of `values`, as a section of them is laid out on disk.
pub fn as_bytes<T: Pod>(values: &[T]) -> &[u8] {
    let len = std::mem::size_of_val(values);
    // SAFETY: `T: Pod` has no padding, so every byte is initialized.
    unsafe { std::slice::from_raw_parts(values.as_ptr() as *const u8, len) }
}

/// The byte range of each section and the total file length for the
/// given section lengths; overflow of the layout is `Corrupt`.
fn layout(lens: &[u64]) -> Result<(Vec<(u64, u64)>, u64), FormatError> {
    let overflow = || corrupt("section sizes overflow u64");
    let mut pos = HEADER_LEN + 8 * lens.len() as u64;
    let mut end = pos;
    let mut ranges = Vec::with_capacity(lens.len());
    for &len in lens {
        end = pos.checked_add(len).ok_or_else(overflow)?;
        ranges.push((pos, end));
        pos = end.checked_add(7).ok_or_else(overflow)? & !7;
    }
    Ok((ranges, end))
}

/// The encoded size of a file whose sections have these lengths.
pub fn encoded_len(lens: &[u64]) -> u64 {
    layout(lens).map(|(_, total)| total).unwrap_or(u64::MAX)
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
/// 8-aligned like a page-aligned mapping; with 8-aligned section offsets,
/// every section view is aligned for its element type.
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
            Backing::Mmap { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
            Backing::Owned { buf, len } => unsafe {
                std::slice::from_raw_parts(buf.as_ptr() as *const u8, *len)
            },
        }
    }

    /// An aligned owned buffer of `len` bytes, filled by `fill`.
    fn owned(len: usize, fill: impl FnOnce(&mut [u8]) -> io::Result<()>) -> io::Result<Backing> {
        let mut buf = vec![0u64; len.div_ceil(8)];
        // SAFETY: the Vec<u64> allocation covers at least len bytes and u64
        // has no invalid bit patterns, so filling it as raw bytes is sound.
        fill(unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) })?;
        Ok(Backing::Owned { buf, len })
    }

    #[cfg(unix)]
    fn map(file: &File, len: usize) -> io::Result<Backing> {
        use std::os::unix::io::AsRawFd;
        let fd = file.as_raw_fd();
        // SAFETY: fd is valid for the lifetime of the call; a failed map
        // returns MAP_FAILED, which becomes an error instead of a pointer.
        let ptr = unsafe {
            sys::mmap(std::ptr::null_mut(), len, sys::PROT_READ, sys::MAP_PRIVATE, fd, 0)
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Backing::Mmap { ptr: ptr as *mut u8, len })
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

/// An open container whose header, section table, padding and length
/// have been validated against its [`Spec`]. Section views are slices
/// into the backing bytes; dropping the container unmaps the file.
pub struct Container {
    backing: Backing,
    sections: Vec<(usize, usize)>,
}

impl Container {
    /// Opens and validates the file at `path`: through `mmap` when
    /// [`mmap_enabled`] (unix only), otherwise into an owned aligned
    /// buffer.
    pub fn open(path: &Path, spec: &Spec) -> Result<Container, FormatError> {
        let mut file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).map_err(|_| corrupt("file too large"))?;
        // A mapping cannot be empty, and a header-less file is rejected
        // from its few bytes alone.
        #[cfg(unix)]
        if mmap_enabled() && len as u64 >= HEADER_LEN {
            return Container::parse(Backing::map(&file, len)?, spec);
        }
        Container::parse(Backing::owned(len, |dst| file.read_exact(dst))?, spec)
    }

    /// Validates in-memory bytes, copied into an aligned buffer.
    pub fn from_bytes(bytes: &[u8], spec: &Spec) -> Result<Container, FormatError> {
        let backing = Backing::owned(bytes.len(), |dst| {
            dst.copy_from_slice(bytes);
            Ok(())
        })?;
        Container::parse(backing, spec)
    }

    fn parse(backing: Backing, spec: &Spec) -> Result<Container, FormatError> {
        let b = backing.bytes();
        let actual = b.len() as u64;
        let head = b.len().min(8);
        if b[..head] != spec.magic[..head] {
            return Err(FormatError::BadMagic);
        }
        if actual < HEADER_LEN {
            return Err(FormatError::Truncated { needed: HEADER_LEN, actual });
        }
        let u32_at = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
        let version = u32_at(8);
        if version != spec.version {
            return Err(FormatError::BadVersion(version));
        }
        let count = u32_at(12) as usize;
        if count != spec.widths.len() {
            return Err(corrupt(format!(
                "{count} sections, version {version} has {}",
                spec.widths.len()
            )));
        }
        let table_end = HEADER_LEN + 8 * count as u64;
        if actual < table_end {
            return Err(FormatError::Truncated { needed: table_end, actual });
        }
        let lens: Vec<u64> = b[HEADER_LEN as usize..table_end as usize]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let (ranges, total) = layout(&lens)?;
        if actual < total {
            return Err(FormatError::Truncated { needed: total, actual });
        }
        if actual > total {
            return Err(corrupt(format!(
                "{} trailing bytes after the last section",
                actual - total
            )));
        }
        // Padding must be zero (normative: keeps files byte-reproducible).
        for pair in ranges.windows(2) {
            if b[pair[0].1 as usize..pair[1].0 as usize].iter().any(|&x| x != 0) {
                return Err(corrupt("nonzero section padding"));
            }
        }
        for (i, (&len, &width)) in lens.iter().zip(spec.widths).enumerate() {
            if len % width as u64 != 0 {
                return Err(corrupt(format!(
                    "section {i} holds {len} bytes, not a whole number of {width}-byte elements"
                )));
            }
        }
        let sections = ranges.iter().map(|&(s, e)| (s as usize, e as usize)).collect();
        Ok(Container { backing, sections })
    }

    /// The bytes of section `i`.
    pub fn section(&self, i: usize) -> &[u8] {
        let (start, end) = self.sections[i];
        &self.backing.bytes()[start..end]
    }

    /// Section `i` as a slice of `T`, the element its [`Spec`] declares
    /// (the length was checked to be a whole number of them at open).
    pub fn view<T: Pod>(&self, i: usize) -> &[T] {
        let bytes = self.section(i);
        let size = std::mem::size_of::<T>();
        debug_assert_eq!(bytes.len() % size, 0);
        debug_assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<T>(), 0);
        // SAFETY: the section starts 8-aligned relative to an 8-aligned
        // base (page-aligned mapping or Vec<u64>), lies within the backing,
        // and T is plain old data.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const T, bytes.len() / size) }
    }

    /// Section `i`, which must hold exactly `N` elements (a fixed-size
    /// metadata section).
    pub fn fixed<T: Pod, const N: usize>(&self, i: usize) -> Result<[T; N], FormatError> {
        let view = self.view::<T>(i);
        view.try_into()
            .map_err(|_| corrupt(format!("section {i} holds {} entries, expected {N}", view.len())))
    }

    /// True when backed by an `mmap` mapping rather than an owned buffer.
    pub fn is_mmap(&self) -> bool {
        match self.backing {
            #[cfg(unix)]
            Backing::Mmap { .. } => true,
            Backing::Owned { .. } => false,
        }
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> usize {
        self.backing.bytes().len()
    }
}

/// Where the writer takes one section's bytes from.
pub enum Source<'a> {
    /// Bytes in memory.
    Bytes(&'a [u8]),
    /// A file that must hold exactly the declared number of bytes (the
    /// streaming `.mbds` writer's column temporaries).
    File(&'a Path, u64),
}

impl Source<'_> {
    fn len(&self) -> u64 {
        match self {
            Source::Bytes(bytes) => bytes.len() as u64,
            Source::File(_, len) => *len,
        }
    }
}

/// Writes a container of `sections` to `out`. Returns the bytes written.
/// A file source that does not hold exactly its declared length is
/// `Corrupt`: the output would otherwise only fail later, at open.
pub fn write<W: Write>(out: &mut W, spec: &Spec, sections: &[Source]) -> Result<u64, FormatError> {
    debug_assert_eq!(sections.len(), spec.widths.len(), "section count");
    let lens: Vec<u64> = sections.iter().map(Source::len).collect();
    let (ranges, total) = layout(&lens)?;
    out.write_all(spec.magic)?;
    out.write_all(&spec.version.to_le_bytes())?;
    out.write_all(&(sections.len() as u32).to_le_bytes())?;
    out.write_all(as_bytes(&lens))?;
    let mut pos = HEADER_LEN + 8 * lens.len() as u64;
    for (source, &(start, end)) in sections.iter().zip(&ranges) {
        out.write_all(&[0u8; 8][..(start - pos) as usize])?;
        match source {
            Source::Bytes(bytes) => out.write_all(bytes)?,
            Source::File(path, len) => {
                let copied = io::copy(&mut File::open(path)?.take(len + 1), out)?;
                if copied != *len {
                    return Err(corrupt(format!(
                        "section source {} holds {copied} bytes, layout expects {len}",
                        path.display()
                    )));
                }
            }
        }
        pos = end;
    }
    Ok(total)
}

/// Publishes a container at `path` atomically ([`write_atomic`]).
/// Returns the file size in bytes.
pub fn publish(path: &Path, spec: &Spec, sections: &[Source]) -> Result<u64, FormatError> {
    let mut total = 0;
    write_atomic(path, |out| write(out, spec, sections).map(|n| total = n))?;
    Ok(total)
}

/// Publishes a file atomically. `write` fills a sibling temp file named
/// `<name>.<pid>.<n>.tmp`, unique per process and call; the writer is
/// flushed with its error checked, the file synced and then renamed over
/// `path`, and the directory synced so the rename is durable. A reader
/// never sees a partial file. On error the temp file is removed and an
/// earlier file at `path` is left as it was (a directory at `path` makes
/// the rename fail). A `path` that exists as neither a file nor a
/// directory (a device such as `/dev/full`, a pipe, a socket) is refused
/// before anything is written: the rename would replace it.
pub fn write_atomic<E: From<io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> Result<(), E> {
    if let Ok(meta) = std::fs::metadata(path) {
        if !meta.is_file() && !meta.is_dir() {
            let msg = format!("{} is not a regular file", path.display());
            return Err(io::Error::new(io::ErrorKind::InvalidInput, msg).into());
        }
    }
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.{call}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    let written = (|| {
        let mut writer = BufWriter::new(File::create(&tmp)?);
        write(&mut writer)?;
        let file = writer.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        File::open(parent.unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(())
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SPEC: Spec = Spec { magic: b"TESTFMT\0", version: 3, widths: &[8, 1, 4] };

    fn sample() -> Vec<u8> {
        let (counts, name, ids) = ([2u64, 5], b"hello", [7u32, 8, 9]);
        let mut out = Vec::new();
        let sections =
            [Source::Bytes(as_bytes(&counts)), Source::Bytes(name), Source::Bytes(as_bytes(&ids))];
        let total = write(&mut out, &SPEC, &sections).unwrap();
        assert_eq!(total, out.len() as u64);
        out
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let name = format!("mbssl_container_{tag}_{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn layout_follows_the_spec_prose() {
        let bytes = sample();
        // 16-byte header, 3 × u64 lengths, then sections at 40, 56, 64.
        assert_eq!(&bytes[..8], b"TESTFMT\0");
        assert_eq!(bytes[8..16], [3, 0, 0, 0, 3, 0, 0, 0]);
        assert_eq!(bytes[16..40], *as_bytes(&[16u64, 5, 12]));
        assert_eq!(bytes[56..61], *b"hello");
        assert_eq!(bytes[61..64], [0, 0, 0]);
        assert_eq!(bytes.len(), 76, "the last section is not padded");
        let c = Container::from_bytes(&bytes, &SPEC).unwrap();
        assert_eq!(c.fixed::<u64, 2>(0).unwrap(), [2, 5]);
        assert_eq!(c.section(1), b"hello");
        assert_eq!(c.view::<u32>(2), &[7, 8, 9]);
        assert!(c.fixed::<u64, 3>(0).is_err());
        assert_eq!(encoded_len(&[16, 5, 12]), 76);
    }

    #[test]
    fn header_errors_are_typed() {
        let bytes = sample();
        let open = |b: &[u8]| Container::from_bytes(b, &SPEC).err().unwrap();
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert!(matches!(open(&wrong), FormatError::BadMagic));
        assert!(matches!(open(b"NOPE"), FormatError::BadMagic));
        assert!(matches!(open(b"TEST"), FormatError::Truncated { needed: 16, actual: 4 }));
        wrong = bytes.clone();
        wrong[8] = 1;
        assert!(matches!(open(&wrong), FormatError::BadVersion(1)));
        wrong = bytes.clone();
        wrong[12] = 2;
        assert!(matches!(open(&wrong), FormatError::Corrupt(m) if m.contains("2 sections")));
        wrong = bytes.clone();
        wrong.push(0);
        assert!(matches!(open(&wrong), FormatError::Corrupt(m) if m.contains("trailing")));
        wrong = bytes.clone();
        wrong[62] = 1;
        assert!(matches!(open(&wrong), FormatError::Corrupt(m) if m.contains("padding")));
        wrong = bytes.clone();
        wrong[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(open(&wrong), FormatError::Corrupt(m) if m.contains("overflow")));
        wrong = bytes;
        wrong[32] = 11;
        wrong.pop();
        assert!(matches!(open(&wrong), FormatError::Corrupt(m) if m.contains("whole number")));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Any single-byte change is a typed error or a container whose
        // sections still have the declared shape; never a panic.
        #[test]
        fn single_byte_corruption_is_typed(at_frac in 0.0f64..1.0, val in 0u8..=255) {
            let mut bytes = sample();
            let at = ((bytes.len() - 1) as f64 * at_frac) as usize;
            let val = if bytes[at] == val { val.wrapping_add(1) } else { val };
            bytes[at] = val;
            if let Ok(c) = Container::from_bytes(&bytes, &SPEC) {
                prop_assert_eq!(c.view::<u64>(0).len() * 8, c.section(0).len());
                prop_assert_eq!(c.view::<u32>(2).len() * 4, c.section(2).len());
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample();
        for len in 0..bytes.len() {
            match Container::from_bytes(&bytes[..len], &SPEC) {
                Err(FormatError::Truncated { needed, actual }) => {
                    assert_eq!(actual, len as u64);
                    assert!(needed > actual);
                }
                other => panic!("prefix of {len} bytes: {:?}", other.err()),
            }
        }
    }

    #[test]
    fn open_reads_a_published_file() {
        let dir = scratch_dir("open");
        let path = dir.join("f.bin");
        let sections =
            [Source::Bytes(as_bytes(&[1u64, 2])), Source::Bytes(b"x"), Source::Bytes(&[])];
        let total = publish(&path, &SPEC, &sections).unwrap();
        let c = Container::open(&path, &SPEC).unwrap();
        assert_eq!((c.file_len() as u64, c.is_mmap()), (total, mmap_enabled()));
        assert_eq!(c.view::<u64>(0), &[1, 2]);
        assert!(c.view::<u32>(2).is_empty());
        std::fs::write(&path, b"").unwrap();
        assert!(matches!(
            Container::open(&path, &SPEC),
            Err(FormatError::Truncated { needed: 16, actual: 0 })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_source_of_the_wrong_length_is_corrupt() {
        let dir = scratch_dir("source");
        let (column, path) = (dir.join("column.part"), dir.join("out.bin"));
        std::fs::write(&column, b"xx").unwrap();
        for declared in [1u64, 3] {
            let column = Source::File(&column, declared * 4);
            let sections = [Source::Bytes(&[]), Source::Bytes(&[]), column];
            match publish(&path, &SPEC, &sections) {
                Err(FormatError::Corrupt(msg)) => assert!(msg.contains("layout expects"), "{msg}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        assert_eq!(names(&dir), ["column.part"], "no output and no temp file");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_replaces_or_leaves_the_earlier_file() {
        let dir = scratch_dir("atomic");
        let path = dir.join("m.bin");
        write_atomic(&path, |w| w.write_all(b"old")).unwrap();
        write_atomic(&path, |w| w.write_all(b"new")).unwrap();
        assert_eq!(names(&dir), ["m.bin"], "a temp file is left");
        assert_eq!(std::fs::read(&path).unwrap(), b"new");

        // A write that fails part way leaves no temp file, and the earlier
        // file byte for byte.
        let failed = write_atomic(&path, |w| {
            w.write_all(b"partial")?;
            Err(io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(names(&dir), ["m.bin"], "a temp file is left");
        assert_eq!(std::fs::read(&path).unwrap(), b"new");

        // So does one whose rename fails (the target is a directory).
        let blocked = dir.join("blocked");
        std::fs::create_dir(&blocked).unwrap();
        assert!(write_atomic(&blocked, |w| w.write_all(b"x")).is_err());
        assert!(blocked.is_dir());
        assert_eq!(names(&dir), ["blocked", "m.bin"]);
        // A device is refused before anything is written.
        #[cfg(target_os = "linux")]
        {
            let err = write_atomic(Path::new("/dev/full"), |w| w.write_all(b"x")).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
