//! Parameter checkpointing.
//!
//! A checkpoint is a versioned binary file:
//! ```text
//! magic "MBSL" | u32 version | u32 n_entries
//! per entry: u32 name_len | name bytes | u32 rank | u64 dims.. | f32 data..
//! ```
//! All integers little-endian. The format intentionally stores names, so a
//! checkpoint can be loaded into a freshly constructed model by matching
//! the [`crate::nn::ParamMap`] names — no positional coupling.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::nn::ParamMap;
use crate::shape::Shape;
use crate::tensor::Tensor;

const MAGIC: &[u8; 4] = b"MBSL";
const VERSION: u32 = 1;

/// Errors arising from checkpoint IO.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying read/write failure.
    Io(io::Error),
    /// File does not start with the `MBSL` magic bytes.
    BadMagic,
    /// File uses a format version this build cannot read.
    BadVersion(u32),
    /// Structurally invalid file (truncation, bad counts, non-UTF-8 names).
    Corrupt(String),
    /// Checkpoint lacks a parameter the model requires.
    MissingParam(String),
    /// Stored tensor shape disagrees with the model's parameter.
    ShapeMismatch {
        /// Parameter name.
        name: String,
        /// Shape the model declares.
        expected: Vec<usize>,
        /// Shape found in the checkpoint.
        found: Vec<usize>,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::BadMagic => write!(f, "not an mbssl checkpoint (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint: {msg}"),
            CheckpointError::MissingParam(name) => {
                write!(f, "checkpoint has no entry for parameter {name}")
            }
            CheckpointError::ShapeMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "parameter {name} shape mismatch: model {expected:?}, checkpoint {found:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Serializes every parameter in `params` to `writer`.
pub fn save_params<W: Write>(params: &ParamMap, writer: &mut W) -> Result<(), CheckpointError> {
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&(params.len() as u32).to_le_bytes())?;
    for (name, tensor) in params.iter() {
        let name_bytes = name.as_bytes();
        writer.write_all(&(name_bytes.len() as u32).to_le_bytes())?;
        writer.write_all(name_bytes)?;
        let dims = tensor.dims();
        writer.write_all(&(dims.len() as u32).to_le_bytes())?;
        for &d in dims {
            writer.write_all(&(d as u64).to_le_bytes())?;
        }
        let data = tensor.data();
        let mut buf = Vec::with_capacity(data.len() * 4);
        for &v in data.iter() {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        writer.write_all(&buf)?;
    }
    Ok(())
}

/// Saves to a file path atomically ([`write_atomic`]): a reader, such as
/// a serving hot-swap, sees the earlier checkpoint or the whole new one.
pub fn save_params_to_file(params: &ParamMap, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    write_atomic(path.as_ref(), |writer| save_params(params, writer))
}

/// Publishes a file atomically. `write` fills a sibling temp file named
/// `<name>.<pid>.<n>.tmp`, unique per process and call; the writer is
/// flushed with its error checked, the file synced and then renamed over
/// `path`, and the directory synced so the rename is durable. A reader
/// never sees a partial file. On error the temp file is removed and an
/// earlier file at `path` is left as it was.
pub fn write_atomic<E: From<io::Error>>(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), E>,
) -> Result<(), E> {
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

fn read_u32<R: Read>(r: &mut R) -> Result<u32, CheckpointError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, CheckpointError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Reads all entries of a checkpoint into a name → tensor map.
pub fn read_checkpoint<R: Read>(reader: &mut R) -> Result<HashMap<String, Tensor>, CheckpointError> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = read_u32(reader)?;
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let n = read_u32(reader)? as usize;
    let mut entries = HashMap::with_capacity(n);
    for _ in 0..n {
        let name_len = read_u32(reader)? as usize;
        if name_len > 4096 {
            return Err(CheckpointError::Corrupt(format!(
                "implausible name length {name_len}"
            )));
        }
        let mut name_buf = vec![0u8; name_len];
        reader.read_exact(&mut name_buf)?;
        let name = String::from_utf8(name_buf)
            .map_err(|_| CheckpointError::Corrupt("non-utf8 name".into()))?;
        let rank = read_u32(reader)? as usize;
        if rank > 16 {
            return Err(CheckpointError::Corrupt(format!("implausible rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u64(reader)? as usize);
        }
        let shape = Shape::new(dims);
        let numel = shape.numel();
        let mut data = vec![0.0f32; numel];
        let mut buf = vec![0u8; numel * 4];
        reader.read_exact(&mut buf)?;
        for (i, chunk) in buf.chunks_exact(4).enumerate() {
            data[i] = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        entries.insert(name, Tensor::from_vec(data, shape));
    }
    Ok(entries)
}

/// Loads checkpoint values into an existing parameter map, in place.
/// Every model parameter must be present with a matching shape.
pub fn load_params<R: Read>(params: &ParamMap, reader: &mut R) -> Result<(), CheckpointError> {
    let entries = read_checkpoint(reader)?;
    for (name, tensor) in params.iter() {
        let loaded = entries
            .get(name)
            .ok_or_else(|| CheckpointError::MissingParam(name.to_string()))?;
        if loaded.dims() != tensor.dims() {
            return Err(CheckpointError::ShapeMismatch {
                name: name.to_string(),
                expected: tensor.dims().to_vec(),
                found: loaded.dims().to_vec(),
            });
        }
        tensor.data_mut().copy_from_slice(&loaded.data());
    }
    Ok(())
}

/// Loads from a file path.
pub fn load_params_from_file(params: &ParamMap, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
    load_params(params, &mut file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_params() -> ParamMap {
        let mut map = ParamMap::new();
        map.insert("w", Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0], [2, 2]).requires_grad());
        map.insert("b", Tensor::from_slice(&[-1.0, 0.5], [2]).requires_grad());
        map
    }

    #[test]
    fn roundtrip_preserves_values() {
        let params = sample_params();
        let mut buf = Vec::new();
        save_params(&params, &mut buf).unwrap();

        let mut fresh = ParamMap::new();
        fresh.insert("w", Tensor::zeros([2, 2]).requires_grad());
        fresh.insert("b", Tensor::zeros([2]).requires_grad());
        load_params(&fresh, &mut buf.as_slice()).unwrap();
        assert_eq!(fresh.get("w").unwrap().to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(fresh.get("b").unwrap().to_vec(), vec![-1.0, 0.5]);
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00".to_vec();
        let err = read_checkpoint(&mut bytes.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::BadMagic));
    }

    #[test]
    fn missing_param_rejected() {
        let params = sample_params();
        let mut buf = Vec::new();
        save_params(&params, &mut buf).unwrap();

        let mut other = ParamMap::new();
        other.insert("unknown", Tensor::zeros([1]));
        let err = load_params(&other, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::MissingParam(_)));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let params = sample_params();
        let mut buf = Vec::new();
        save_params(&params, &mut buf).unwrap();

        let mut other = ParamMap::new();
        other.insert("w", Tensor::zeros([4]));
        other.insert("b", Tensor::zeros([2]));
        let err = load_params(&other, &mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }));
    }

    #[test]
    fn truncated_file_is_corrupt_or_io() {
        let params = sample_params();
        let mut buf = Vec::new();
        save_params(&params, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let fresh = sample_params();
        assert!(load_params(&fresh, &mut buf.as_slice()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mbssl_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.bin");
        let params = sample_params();
        save_params_to_file(&params, &path).unwrap();
        let fresh = sample_params();
        fresh.get("w").unwrap().data_mut().fill(0.0);
        load_params_from_file(&fresh, &path).unwrap();
        assert_eq!(fresh.get("w").unwrap().to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_to_file_replaces_atomically() {
        let dir = std::env::temp_dir().join(format!("mbssl_ckpt_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt");
        let params = sample_params();
        save_params_to_file(&params, &path).unwrap();
        params.get("w").unwrap().data_mut().fill(7.0);
        save_params_to_file(&params, &path).unwrap();
        let entries = || -> Vec<_> {
            let dir = std::fs::read_dir(&dir).unwrap();
            dir.map(|e| e.unwrap().file_name()).collect()
        };
        assert_eq!(entries(), ["m.ckpt"], "a temp file is left");
        let saved = std::fs::read(&path).unwrap();
        let loaded = read_checkpoint(&mut saved.as_slice()).unwrap();
        assert_eq!(loaded["w"].to_vec(), vec![7.0; 4]);

        // A write that fails part way leaves no temp file, and the earlier
        // checkpoint byte for byte.
        let failed = write_atomic(&path, |w| {
            w.write_all(b"MBSL partial")?;
            Err(io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(entries(), ["m.ckpt"], "a temp file is left");
        assert_eq!(std::fs::read(&path).unwrap(), saved);

        // So does one whose rename fails (the target is a directory).
        let blocked = dir.join("blocked.ckpt");
        std::fs::create_dir(&blocked).unwrap();
        assert!(save_params_to_file(&params, &blocked).is_err());
        assert!(blocked.is_dir());
        let mut names = entries();
        names.sort();
        assert_eq!(names, ["blocked.ckpt", "m.ckpt"]);
        assert_eq!(std::fs::read(&path).unwrap(), saved);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
