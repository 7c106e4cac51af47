//! TSV import/export of interaction logs.
//!
//! Format (header optional, `#` comments skipped):
//! ```text
//! user \t item \t behavior \t timestamp
//! ```
//! Users and items may be arbitrary non-negative integers; loading densely
//! remaps them (items to `1..=n`, users to `0..m`) and orders each user's
//! events by timestamp (stable on ties).

use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::Path;

use crate::types::{Behavior, Dataset, Interaction, ItemId, Sequence, UserId};

/// Errors from TSV parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// The file parsed but contained no interactions.
    Empty,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Parse { line, message } => write!(f, "line {line}: {message}"),
            IoError::Empty => write!(f, "no interactions found"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses one TSV line (0-based `lineno`). Returns `Ok(None)` for blank
/// lines, `#` comments, and the optional first-line header. Shared by the
/// in-memory reader and the streaming converter in [`crate::preprocess`] so
/// both accept byte-identical inputs.
pub fn parse_interaction_line(lineno: usize, line: &str) -> Result<Option<Interaction>, IoError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    if lineno == 0 && trimmed.to_ascii_lowercase().starts_with("user") {
        return Ok(None); // header
    }
    let fields: Vec<&str> = trimmed.split('\t').collect();
    if fields.len() != 4 {
        return Err(IoError::Parse {
            line: lineno + 1,
            message: format!("expected 4 tab-separated fields, got {}", fields.len()),
        });
    }
    let parse_num = |s: &str, what: &str| {
        s.parse::<i64>().map_err(|_| IoError::Parse {
            line: lineno + 1,
            message: format!("bad {what}: {s:?}"),
        })
    };
    let user = parse_num(fields[0], "user id")?;
    let item = parse_num(fields[1], "item id")?;
    let behavior = Behavior::from_token(fields[2]).ok_or_else(|| IoError::Parse {
        line: lineno + 1,
        message: format!("unknown behavior {:?}", fields[2]),
    })?;
    let timestamp = parse_num(fields[3], "timestamp")?;
    if user < 0 || item < 0 {
        return Err(IoError::Parse {
            line: lineno + 1,
            message: "negative ids not allowed".into(),
        });
    }
    Ok(Some(Interaction {
        user: user as UserId,
        item: item as ItemId,
        behavior,
        timestamp,
    }))
}

/// Parses interactions from a TSV reader.
pub fn read_interactions<R: BufRead>(reader: R) -> Result<Vec<Interaction>, IoError> {
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if let Some(inter) = parse_interaction_line(lineno, &line)? {
            out.push(inter);
        }
    }
    Ok(out)
}

/// Assembles raw interactions into a [`Dataset`], remapping ids densely and
/// sorting each user's events chronologically.
pub fn dataset_from_interactions(
    name: &str,
    mut interactions: Vec<Interaction>,
    target_behavior: Behavior,
) -> Result<Dataset, IoError> {
    if interactions.is_empty() {
        return Err(IoError::Empty);
    }
    interactions.sort_by_key(|i| (i.user, i.timestamp));

    let mut user_map: HashMap<UserId, UserId> = HashMap::new();
    let mut item_map: HashMap<ItemId, ItemId> = HashMap::new();
    let mut behaviors_present: Vec<Behavior> = Vec::new();
    for inter in &interactions {
        let next_u = user_map.len() as UserId;
        user_map.entry(inter.user).or_insert(next_u);
        let next_i = item_map.len() as ItemId + 1;
        item_map.entry(inter.item).or_insert(next_i);
        if !behaviors_present.contains(&inter.behavior) {
            behaviors_present.push(inter.behavior);
        }
    }
    behaviors_present.sort_by_key(|b| b.depth());
    if !behaviors_present.contains(&target_behavior) {
        return Err(IoError::Parse {
            line: 0,
            message: format!("target behavior {target_behavior:?} absent from log"),
        });
    }

    let mut sequences = vec![Sequence::new(); user_map.len()];
    for inter in &interactions {
        let u = user_map[&inter.user] as usize;
        sequences[u].push(item_map[&inter.item], inter.behavior);
    }
    let dataset = Dataset {
        name: name.to_string(),
        num_users: user_map.len(),
        num_items: item_map.len(),
        behaviors: behaviors_present,
        target_behavior,
        sequences,
    };
    dataset.validate().map_err(|m| IoError::Parse {
        line: 0,
        message: m,
    })?;
    Ok(dataset)
}

/// Loads a dataset from a TSV file.
pub fn load_tsv(path: impl AsRef<Path>, target_behavior: Behavior) -> Result<Dataset, IoError> {
    let file = std::fs::File::open(&path)?;
    let interactions = read_interactions(std::io::BufReader::new(file))?;
    let name = path
        .as_ref()
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "dataset".to_string());
    dataset_from_interactions(&name, interactions, target_behavior)
}

/// Writes a dataset back to TSV (timestamps are the per-user event index),
/// published atomically ([`crate::container::write_atomic`]): a reader
/// sees the earlier file or the whole new one.
pub fn save_tsv(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), IoError> {
    crate::container::write_atomic(path.as_ref(), |w| {
        writeln!(w, "user\titem\tbehavior\ttimestamp")?;
        for (u, seq) in dataset.sequences.iter().enumerate() {
            for (t, (&it, &b)) in seq.items.iter().zip(seq.behaviors.iter()).enumerate() {
                writeln!(w, "{u}\t{it}\t{}\t{t}", b.token())?;
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "user\titem\tbehavior\ttimestamp\n\
        0\t10\tclick\t1\n\
        0\t10\tpurchase\t2\n\
        # comment line\n\
        1\t20\tclick\t5\n\
        1\t10\tclick\t3\n";

    #[test]
    fn parses_and_skips_header_and_comments() {
        let inters = read_interactions(SAMPLE.as_bytes()).unwrap();
        assert_eq!(inters.len(), 4);
        assert_eq!(inters[1].behavior, Behavior::Purchase);
    }

    #[test]
    fn dataset_orders_by_timestamp() {
        let inters = read_interactions(SAMPLE.as_bytes()).unwrap();
        let d = dataset_from_interactions("t", inters, Behavior::Purchase).unwrap();
        assert_eq!(d.num_users, 2);
        assert_eq!(d.num_items, 2);
        // User 1's events must be time-ordered: item 10 (t=3) before 20 (t=5).
        let u1 = &d.sequences[1];
        assert_eq!(u1.items.len(), 2);
        assert_eq!(u1.items[0], item_id_of(&d, 10));
        fn item_id_of(_d: &Dataset, _orig: u32) -> ItemId {
            // item 10 appeared first in the log → remapped to 1.
            1
        }
    }

    #[test]
    fn bad_behavior_is_error() {
        let text = "0\t1\tzap\t0\n";
        assert!(read_interactions(text.as_bytes()).is_err());
    }

    #[test]
    fn wrong_field_count_is_error() {
        let text = "0\t1\tclick\n";
        let err = read_interactions(text.as_bytes()).unwrap_err();
        assert!(matches!(err, IoError::Parse { .. }));
    }

    #[test]
    fn missing_target_behavior_is_error() {
        let text = "0\t1\tclick\t0\n";
        let inters = read_interactions(text.as_bytes()).unwrap();
        assert!(dataset_from_interactions("t", inters, Behavior::Purchase).is_err());
    }

    #[test]
    fn empty_log_is_error() {
        assert!(matches!(
            dataset_from_interactions("t", Vec::new(), Behavior::Click),
            Err(IoError::Empty)
        ));
    }

    #[test]
    fn tsv_roundtrip_preserves_structure() {
        let inters = read_interactions(SAMPLE.as_bytes()).unwrap();
        let d = dataset_from_interactions("t", inters, Behavior::Purchase).unwrap();
        let dir = std::env::temp_dir().join("mbssl_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.tsv");
        save_tsv(&d, &path).unwrap();
        let d2 = load_tsv(&path, Behavior::Purchase).unwrap();
        assert_eq!(d2.num_users, d.num_users);
        assert_eq!(d2.num_items, d.num_items);
        assert_eq!(d2.num_interactions(), d.num_interactions());
        std::fs::remove_file(&path).ok();
    }

    /// A device such as `/dev/full` is refused before anything is written:
    /// publishing renames over the target.
    #[cfg(target_os = "linux")]
    #[test]
    fn save_tsv_reports_a_failed_final_flush() {
        let inters = read_interactions(SAMPLE.as_bytes()).unwrap();
        let d = dataset_from_interactions("t", inters, Behavior::Purchase).unwrap();
        assert!(save_tsv(&d, "/dev/full").is_err());
    }

    #[test]
    fn save_tsv_replaces_atomically() {
        let inters = read_interactions(SAMPLE.as_bytes()).unwrap();
        let d = dataset_from_interactions("t", inters, Behavior::Purchase).unwrap();
        let dir = std::env::temp_dir().join(format!("mbssl_tsv_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.tsv");
        save_tsv(&d, &path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        let entries = || -> Vec<_> {
            let mut names: Vec<_> =
                std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
            names.sort();
            names
        };
        assert_eq!(entries(), ["log.tsv"], "a temp file is left");

        // A save whose rename is blocked (the target is a directory) fails,
        // leaves the earlier log byte for byte and no temp sibling.
        let blocked = dir.join("blocked.tsv");
        std::fs::create_dir(&blocked).unwrap();
        assert!(save_tsv(&d, &blocked).is_err());
        assert!(blocked.is_dir());
        assert_eq!(entries(), ["blocked.tsv", "log.tsv"]);
        assert_eq!(std::fs::read(&path).unwrap(), saved);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
