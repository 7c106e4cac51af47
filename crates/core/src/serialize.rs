//! Model checkpoints (DESIGN.md §16.1).
//!
//! A checkpoint is a [`mbssl_data::container`] file of two sections:
//!
//! - a JSON manifest, `{"config": ModelConfig, "params": [[name, [dims…]], …]}`;
//! - every parameter's f32 values, concatenated in manifest order.
//!
//! Loading matches parameters by name, not position, and the recorded
//! [`ModelConfig`] rebuilds the model the parameters came from
//! ([`crate::Mbmissl::from_checkpoint`]), so scoring needs no flags that
//! must match training. The container checks the header and layout; this
//! module keeps the checkpoint's own checks: the manifest parses, the
//! config validates, the shapes account for every value, and each model
//! parameter is present with its shape.

use std::io::{Read, Write};
use std::path::Path;

use serde::{Deserialize, Serialize};

use mbssl_data::container::{self, as_bytes, corrupt, Container, FormatError, Source, Spec};
use mbssl_tensor::nn::ParamMap;

use crate::config::ModelConfig;

const SPEC: Spec = Spec {
    magic: b"MBSSLCKP",
    version: 2,
    widths: &[1, 4],
};
const MANIFEST: usize = 0;
const VALUES: usize = 1;

/// The first 8 bytes of every version-1 checkpoint: its 4-byte magic
/// `MBSL`, then `u32` version 1.
const V1_HEAD: &[u8; 8] = b"MBSL\x01\0\0\0";

/// Errors arising from checkpoint IO.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read or written, or was rejected (bad magic
    /// or version, truncation, a corrupt manifest or value section).
    Format(FormatError),
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
            CheckpointError::Format(e) => write!(f, "checkpoint: {e}"),
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

impl From<FormatError> for CheckpointError {
    fn from(e: FormatError) -> Self {
        CheckpointError::Format(e)
    }
}

#[derive(Serialize, Deserialize)]
struct Manifest {
    config: ModelConfig,
    params: Vec<(String, Vec<usize>)>,
}

/// Serializes `config` and every parameter in `params` to `writer`.
pub fn save_params<W: Write>(
    config: &ModelConfig,
    params: &ParamMap,
    writer: &mut W,
) -> Result<(), CheckpointError> {
    encode(config, params, |sections| container::write(writer, &SPEC, sections))
}

/// Saves to a file path atomically ([`container::write_atomic`]): a
/// reader, such as a serving hot-swap, sees the earlier checkpoint or the
/// whole new one.
pub fn save_params_to_file(
    config: &ModelConfig,
    params: &ParamMap,
    path: impl AsRef<Path>,
) -> Result<(), CheckpointError> {
    encode(config, params, |sections| container::publish(path.as_ref(), &SPEC, sections))
}

fn encode(
    config: &ModelConfig,
    params: &ParamMap,
    put: impl FnOnce(&[Source]) -> Result<u64, FormatError>,
) -> Result<(), CheckpointError> {
    let manifest = Manifest {
        config: config.clone(),
        params: params.iter().map(|(name, t)| (name.to_string(), t.dims().to_vec())).collect(),
    };
    let json = serde_json::to_string(&manifest).map_err(|e| corrupt(format!("manifest: {e}")))?;
    let mut values = Vec::with_capacity(params.numel());
    for (_, tensor) in params.iter() {
        values.extend_from_slice(&tensor.data());
    }
    put(&[Source::Bytes(json.as_bytes()), Source::Bytes(as_bytes(&values))])?;
    Ok(())
}

/// A validated checkpoint: its model config and named parameter values.
pub struct Checkpoint {
    config: ModelConfig,
    /// Name, shape and first value index of each parameter, in file order.
    params: Vec<(String, Vec<usize>, usize)>,
    file: Container,
}

/// A version-1 checkpoint has another magic; name it by its version.
fn legacy(e: FormatError, head: &[u8]) -> FormatError {
    match e {
        FormatError::BadMagic if head.starts_with(V1_HEAD) => FormatError::BadVersion(1),
        e => e,
    }
}

impl Checkpoint {
    /// Opens and validates a checkpoint file (through `mmap` unless
    /// [`container::mmap_enabled`] is off).
    pub fn open(path: impl AsRef<Path>) -> Result<Checkpoint, CheckpointError> {
        let path = path.as_ref();
        let file = Container::open(path, &SPEC).map_err(|e| {
            let mut head = Vec::new();
            let _ = std::fs::File::open(path).and_then(|f| f.take(8).read_to_end(&mut head));
            legacy(e, &head)
        })?;
        Self::parse(file)
    }

    /// Validates an in-memory checkpoint.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let file = Container::from_bytes(bytes, &SPEC).map_err(|e| legacy(e, bytes))?;
        Self::parse(file)
    }

    fn parse(file: Container) -> Result<Checkpoint, CheckpointError> {
        let text = std::str::from_utf8(file.section(MANIFEST))
            .map_err(|_| corrupt("manifest is not UTF-8"))?;
        let manifest: Manifest =
            serde_json::from_str(text).map_err(|e| corrupt(format!("manifest: {e}")))?;
        manifest.config.validate().map_err(|e| corrupt(format!("model config: {e}")))?;
        let total = file.view::<f32>(VALUES).len();
        let mut params: Vec<(String, Vec<usize>, usize)> = Vec::new();
        let mut at = 0usize;
        for (name, dims) in manifest.params {
            if params.iter().any(|(seen, ..)| *seen == name) {
                return Err(corrupt(format!("parameter {name} appears twice")).into());
            }
            let numel = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
            match numel.and_then(|n| n.checked_add(at)) {
                Some(end) if end <= total => {
                    params.push((name, dims, at));
                    at = end;
                }
                _ => {
                    return Err(corrupt(format!("parameter {name} {dims:?} overruns the values")).into())
                }
            }
        }
        if at != total {
            return Err(corrupt(format!("{total} values, the manifest's shapes hold {at}")).into());
        }
        Ok(Checkpoint {
            config: manifest.config,
            params,
            file,
        })
    }

    /// The config of the model the parameters were saved from.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Copies the checkpoint's values into `params`, in place. Every
    /// parameter must be present with a matching shape.
    pub fn load_into(&self, params: &ParamMap) -> Result<(), CheckpointError> {
        let values = self.file.view::<f32>(VALUES);
        for (name, tensor) in params.iter() {
            let (_, dims, at) = self
                .params
                .iter()
                .find(|(stored, ..)| stored == name)
                .ok_or_else(|| CheckpointError::MissingParam(name.to_string()))?;
            if dims != tensor.dims() {
                return Err(CheckpointError::ShapeMismatch {
                    name: name.to_string(),
                    expected: tensor.dims().to_vec(),
                    found: dims.clone(),
                });
            }
            tensor.data_mut().copy_from_slice(&values[*at..at + tensor.numel()]);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbssl_tensor::Tensor;
    use proptest::prelude::*;

    fn sample_params() -> ParamMap {
        let mut map = ParamMap::new();
        map.insert("w", Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0], [2, 2]).requires_grad());
        map.insert("b", Tensor::from_slice(&[-1.0, 0.5], [2]).requires_grad());
        map
    }

    fn sample_bytes() -> Vec<u8> {
        let mut buf = Vec::new();
        save_params(&ModelConfig::default(), &sample_params(), &mut buf).unwrap();
        buf
    }

    fn zeroed() -> ParamMap {
        let mut fresh = ParamMap::new();
        fresh.insert("w", Tensor::zeros([2, 2]).requires_grad());
        fresh.insert("b", Tensor::zeros([2]).requires_grad());
        fresh
    }

    #[test]
    fn roundtrip_preserves_values() {
        let config =
            ModelConfig { dim: 16, num_interests: 2, lambda_aug: 0.3, ..ModelConfig::default() };
        let mut buf = Vec::new();
        save_params(&config, &sample_params(), &mut buf).unwrap();
        let checkpoint = Checkpoint::from_bytes(&buf).unwrap();
        let fresh = zeroed();
        checkpoint.load_into(&fresh).unwrap();
        assert_eq!(fresh.get("w").unwrap().to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(fresh.get("b").unwrap().to_vec(), vec![-1.0, 0.5]);
        let loaded = checkpoint.config();
        assert_eq!((loaded.dim, loaded.num_interests), (16, 2));
        assert_eq!(loaded.lambda_aug.to_bits(), 0.3f32.to_bits());
        assert_eq!(serde_json::to_string(loaded).unwrap(), serde_json::to_string(&config).unwrap());
    }

    #[test]
    fn manifest_integers_are_exact() {
        // A seed above 2^53 comes back as written, not rounded to an f64.
        let seed = 9_007_199_254_740_993;
        let config = ModelConfig {
            seed,
            ..ModelConfig::default()
        };
        let mut buf = Vec::new();
        save_params(&config, &sample_params(), &mut buf).unwrap();
        assert_eq!(Checkpoint::from_bytes(&buf).unwrap().config().seed, seed);
        // A fractional dimension is refused, not truncated to 16.
        let config = serde_json::to_string(&ModelConfig::default()).unwrap();
        assert!(config.contains("\"dim\":48,"));
        let manifest = format!(
            "{{\"config\":{},\"params\":[[\"w\",[2,2]],[\"b\",[2]]]}}",
            config.replace("\"dim\":48,", "\"dim\":16.5,")
        );
        let mut buf = Vec::new();
        let values = [0.5f32; 6];
        let sections = [Source::Bytes(manifest.as_bytes()), Source::Bytes(as_bytes(&values))];
        container::write(&mut buf, &SPEC, &sections).unwrap();
        match Checkpoint::from_bytes(&buf) {
            Err(CheckpointError::Format(FormatError::Corrupt(msg))) => {
                assert!(msg.contains("16.5"), "{msg}")
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|c| c.config().dim)),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00".to_vec();
        let err = Checkpoint::from_bytes(&bytes).err().unwrap();
        assert!(matches!(err, CheckpointError::Format(FormatError::BadMagic)));
    }

    /// The head of a version-1 checkpoint: `MBSL`, version 1, two entries.
    #[test]
    fn version_1_checkpoint_is_bad_version() {
        let v1 = b"MBSL\x01\x00\x00\x00\x02\x00\x00\x00\x01\x00\x00\x00w".to_vec();
        let err = Checkpoint::from_bytes(&v1).err().unwrap();
        assert!(matches!(err, CheckpointError::Format(FormatError::BadVersion(1))), "{err}");
        let dir = std::env::temp_dir().join(format!("mbssl_ckpt_v1_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.ckpt");
        std::fs::write(&path, &v1).unwrap();
        let err = Checkpoint::open(&path).err().unwrap();
        assert!(matches!(err, CheckpointError::Format(FormatError::BadVersion(1))), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_param_rejected() {
        let mut other = ParamMap::new();
        other.insert("unknown", Tensor::zeros([1]));
        let err = Checkpoint::from_bytes(&sample_bytes()).unwrap().load_into(&other).unwrap_err();
        assert!(matches!(err, CheckpointError::MissingParam(_)));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut other = ParamMap::new();
        other.insert("w", Tensor::zeros([4]));
        other.insert("b", Tensor::zeros([2]));
        let err = Checkpoint::from_bytes(&sample_bytes()).unwrap().load_into(&other).unwrap_err();
        assert!(matches!(err, CheckpointError::ShapeMismatch { .. }));
    }

    #[test]
    fn truncated_file_is_corrupt_or_io() {
        let bytes = sample_bytes();
        for len in 0..bytes.len() {
            match Checkpoint::from_bytes(&bytes[..len]) {
                Err(CheckpointError::Format(FormatError::Truncated { needed, actual })) => {
                    assert!(needed > actual && actual == len as u64, "cut at {len}")
                }
                Err(e) => panic!("cut at {len}: {e}"),
                Ok(_) => panic!("a prefix of {len} bytes was accepted"),
            }
        }
    }

    #[test]
    fn inconsistent_manifest_is_corrupt() {
        let config = ModelConfig::default();
        let mut values = Vec::new();
        let mut with = |params: &str, n: usize| {
            let manifest = format!(
                "{{\"config\":{},\"params\":{params}}}",
                serde_json::to_string(&config).unwrap()
            );
            let mut buf = Vec::new();
            values.resize(n, 0.5f32);
            let sections = [Source::Bytes(manifest.as_bytes()), Source::Bytes(as_bytes(&values))];
            container::write(&mut buf, &SPEC, &sections).unwrap();
            match Checkpoint::from_bytes(&buf) {
                Err(CheckpointError::Format(FormatError::Corrupt(msg))) => msg,
                other => panic!("{params}: expected Corrupt, got {:?}", other.err()),
            }
        };
        assert!(with("[[\"w\",[2,2]]]", 5).contains("the manifest's shapes hold 4"));
        assert!(with("[[\"w\",[2,2]]]", 3).contains("overruns"));
        assert!(with("[[\"w\",[1]],[\"w\",[1]]]", 2).contains("twice"));
        assert!(with("[[\"w\",[4294967296,4294967296]]]", 2).contains("overruns"));
        assert!(with("{}", 0).contains("manifest"));
        let bad_config = ModelConfig { heads: 0, ..ModelConfig::default() };
        let mut buf = Vec::new();
        save_params(&bad_config, &sample_params(), &mut buf).unwrap();
        let err = Checkpoint::from_bytes(&buf).err().unwrap();
        assert!(err.to_string().contains("model config"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        // Any single-byte change is a typed error or a checkpoint whose
        // manifest and values pass every check and load; never a panic.
        #[test]
        fn single_byte_corruption_is_typed(at_frac in 0.0f64..1.0, val in 0u8..=255) {
            let mut bytes = sample_bytes();
            let at = ((bytes.len() - 1) as f64 * at_frac) as usize;
            let val = if bytes[at] == val { val.wrapping_add(1) } else { val };
            bytes[at] = val;
            if let Ok(checkpoint) = Checkpoint::from_bytes(&bytes) {
                prop_assert!(checkpoint.config().validate().is_ok());
                match checkpoint.load_into(&zeroed()) {
                    Ok(()) | Err(CheckpointError::MissingParam(_))
                    | Err(CheckpointError::ShapeMismatch { .. }) => {}
                    Err(e) => prop_assert!(false, "load failed untyped: {}", e),
                }
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mbssl_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("params.bin");
        let params = sample_params();
        save_params_to_file(&ModelConfig::default(), &params, &path).unwrap();
        let fresh = sample_params();
        fresh.get("w").unwrap().data_mut().fill(0.0);
        Checkpoint::open(&path).unwrap().load_into(&fresh).unwrap();
        assert_eq!(fresh.get("w").unwrap().to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_to_file_replaces_atomically() {
        let dir = std::env::temp_dir().join(format!("mbssl_ckpt_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ckpt");
        let (config, params) = (ModelConfig::default(), sample_params());
        save_params_to_file(&config, &params, &path).unwrap();
        params.get("w").unwrap().data_mut().fill(7.0);
        save_params_to_file(&config, &params, &path).unwrap();
        let entries = || -> Vec<_> {
            let dir = std::fs::read_dir(&dir).unwrap();
            dir.map(|e| e.unwrap().file_name()).collect()
        };
        assert_eq!(entries(), ["m.ckpt"], "a temp file is left");
        let saved = std::fs::read(&path).unwrap();
        let loaded = zeroed();
        Checkpoint::from_bytes(&saved).unwrap().load_into(&loaded).unwrap();
        assert_eq!(loaded.get("w").unwrap().to_vec(), vec![7.0; 4]);

        // A save whose rename fails (the target is a directory) leaves no
        // temp file, and the earlier checkpoint byte for byte.
        let blocked = dir.join("blocked.ckpt");
        std::fs::create_dir(&blocked).unwrap();
        assert!(save_params_to_file(&config, &params, &blocked).is_err());
        assert!(blocked.is_dir());
        let mut names = entries();
        names.sort();
        assert_eq!(names, ["blocked.ckpt", "m.ckpt"]);
        assert_eq!(std::fs::read(&path).unwrap(), saved);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
