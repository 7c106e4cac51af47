//! Hostile-input and roundtrip properties of the `.mbds` on-disk format
//! (DESIGN.md §16).
//!
//! The contract under test: `MbdsFile::open` either returns a handle whose
//! materialized [`Dataset`] passes `validate()`, or a typed [`FormatError`]
//! — never a panic, never an out-of-bounds read. Every truncation length,
//! single-byte corruption, and targeted header/column mutation must land on
//! one side of that line.
//!
//! The section-offset arithmetic is deliberately re-derived here from the
//! DESIGN.md §16.1 prose instead of calling into the crate, so these tests
//! double as a conformance check that the spec matches the implementation.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use mbssl_data::format::{write_mbds, FormatError, MbdsFile, MAGIC, VERSION};
use mbssl_data::io::{load_tsv, save_tsv};
use mbssl_data::preprocess::{convert_tsv_streaming, k_core};
use mbssl_data::synthetic::SyntheticConfig;
use mbssl_data::Dataset;

/// Fresh scratch path per call; unique across parallel test threads.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "mbssl-format-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn tiny_dataset(seed: u64, preset: usize) -> Dataset {
    let base = match preset {
        0 => SyntheticConfig::taobao_like(seed),
        1 => SyntheticConfig::yelp_like(seed),
        _ => SyntheticConfig::tmall_like(seed),
    };
    SyntheticConfig {
        num_users: 25,
        num_items: 50,
        num_topics: 5,
        mean_events_per_user: 20,
        ..base
    }
    .generate()
    .dataset
}

/// Writes `seed`'s tiny dataset and returns its raw bytes (plus the path the
/// mutated copies reuse).
fn valid_file_bytes(seed: u64, preset: usize) -> (Dataset, Vec<u8>) {
    let d = tiny_dataset(seed, preset);
    let path = scratch("valid");
    write_mbds(&d, &path, 0, 0).expect("write");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    (d, bytes)
}

fn open_bytes(bytes: &[u8]) -> Result<MbdsFile, FormatError> {
    let path = scratch("mutated");
    std::fs::write(&path, bytes).expect("write mutated");
    let out = MbdsFile::open(&path);
    std::fs::remove_file(&path).ok();
    out
}

/// §16.1 section arithmetic, re-derived from the spec prose: a 16-byte
/// header (8-byte magic, u32 version, u32 section count S), a table of S
/// little-endian u64 section lengths, then the sections in table order —
/// the first right after the table, each later one at the previous end
/// rounded up to a multiple of 8 — and nothing after the last.
fn spec_sections(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let align8 = |x: usize| (x + 7) & !7;
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut pos = 16 + 8 * count;
    (0..count)
        .map(|i| {
            let at = 16 + 8 * i;
            let len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
            let range = pos..pos + len;
            pos = align8(pos + len);
            range
        })
        .collect()
}

// The `.mbds` sections of §16.1, in order.
const CATALOG: usize = 0;
const CODES: usize = 1;
const NAME: usize = 2;
const OFFSETS: usize = 3;
const ITEMS: usize = 4;
const BEHAVIORS: usize = 5;
const TIMESTAMPS: usize = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Write → open → materialize reproduces every column of the source
    // dataset, across behavior schemas (taobao/yelp/tmall presets).
    #[test]
    fn roundtrip_preserves_every_column(seed in 0u64..200, preset in 0usize..3) {
        let (d, bytes) = valid_file_bytes(seed, preset);
        let file = open_bytes(&bytes).expect("valid file must open");
        prop_assert_eq!(file.name(), d.name.as_str());
        prop_assert_eq!(file.num_users(), d.num_users);
        prop_assert_eq!(file.num_items(), d.num_items);
        prop_assert_eq!(file.num_events(), d.num_interactions());
        prop_assert_eq!(file.behaviors(), d.behaviors.as_slice());
        prop_assert_eq!(file.target_behavior(), d.target_behavior);
        let back = file.to_dataset();
        prop_assert_eq!(back.sequences, d.sequences);
    }

    // Flipping any single byte either yields a typed error or a file whose
    // materialized dataset still validates (timestamp/name/in-range column
    // edits are legitimately accepted) — and never panics.
    #[test]
    fn single_byte_corruption_never_breaks_the_contract(
        seed in 0u64..50,
        preset in 0usize..3,
        at_frac in 0.0f64..1.0,
        val in 0u8..=255,
    ) {
        let (_, mut bytes) = valid_file_bytes(seed, preset);
        let at = ((bytes.len() - 1) as f64 * at_frac) as usize;
        // Always flip to a *different* value (the shim has no prop_assume).
        let val = if bytes[at] == val { val.wrapping_add(1) } else { val };
        bytes[at] = val;
        match open_bytes(&bytes) {
            Ok(file) => prop_assert!(file.to_dataset().validate().is_ok(),
                "accepted a corrupt file that materializes an invalid dataset (byte {at})"),
            Err(_) => {} // typed rejection is the expected common case
        }
    }

    // Streaming conversion of a user-sorted TSV is exactly the in-memory
    // load_tsv + k_core pipeline, across presets and core thresholds.
    #[test]
    fn streaming_convert_equals_in_memory_pipeline(
        seed in 0u64..40,
        preset in 0usize..3,
        k in 2usize..5,
    ) {
        let d = tiny_dataset(seed, preset);
        let tsv = scratch("conv-tsv");
        let out = scratch("conv-mbds");
        save_tsv(&d, &tsv).expect("save tsv");
        let report = convert_tsv_streaming(&tsv, &out, d.target_behavior, k, k)
            .expect("streaming convert");
        let expected = k_core(&load_tsv(&tsv, d.target_behavior).expect("load tsv"), k, k);
        let file = MbdsFile::open(&out).expect("open converted");
        prop_assert_eq!(file.num_users(), expected.num_users);
        prop_assert_eq!(file.num_items(), expected.num_items);
        prop_assert_eq!(file.behaviors(), expected.behaviors.as_slice());
        prop_assert_eq!(report.events_out as usize, expected.num_interactions());
        prop_assert_eq!(file.to_dataset().sequences, expected.sequences);
        std::fs::remove_file(&tsv).ok();
        std::fs::remove_file(&out).ok();
    }
}

// Every proper prefix of a valid file is rejected with a typed error —
// exhaustive over all lengths, not sampled, so every section boundary and
// every mid-section cut is covered.
#[test]
fn every_truncation_is_rejected() {
    let (_, bytes) = valid_file_bytes(7, 0);
    for len in 0..bytes.len() {
        match open_bytes(&bytes[..len]) {
            Err(FormatError::Truncated { needed, actual }) => {
                assert_eq!(actual, len as u64, "truncation at {len}");
                assert!(needed > actual, "truncation at {len}");
            }
            Err(_) => {} // shorter prefixes can die on other typed checks
            Ok(_) => panic!("prefix of {len}/{} bytes was accepted", bytes.len()),
        }
    }
}

#[test]
fn trailing_bytes_are_rejected() {
    let (_, mut bytes) = valid_file_bytes(7, 0);
    bytes.push(0);
    match open_bytes(&bytes) {
        Err(FormatError::Corrupt(msg)) => assert!(msg.contains("trailing"), "{msg}"),
        other => panic!("expected Corrupt(trailing), got {other:?}"),
    }
}

#[test]
fn bad_magic_and_version_are_typed() {
    let (_, bytes) = valid_file_bytes(7, 0);
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] = b'X';
    assert!(matches!(open_bytes(&wrong_magic), Err(FormatError::BadMagic)));
    let mut wrong_version = bytes.clone();
    wrong_version[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
    assert!(matches!(
        open_bytes(&wrong_version),
        Err(FormatError::BadVersion(v)) if v == VERSION + 1
    ));
    assert_eq!(&bytes[0..8], MAGIC);
}

#[test]
fn sections_follow_the_spec_prose() {
    let (d, bytes) = valid_file_bytes(7, 0);
    let sections = spec_sections(&bytes);
    assert_eq!(sections.len(), 7);
    assert_eq!(sections[TIMESTAMPS].end, bytes.len(), "the file ends at the last section");
    let u64s = |r: &std::ops::Range<usize>| -> Vec<u64> {
        let words = bytes[r.clone()].chunks_exact(8);
        words.map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect()
    };
    assert_eq!(u64s(&sections[CATALOG]), [d.num_items as u64]);
    let codes = &bytes[sections[CODES].clone()];
    assert_eq!(codes[0] as usize, d.target_behavior.index());
    assert_eq!(&bytes[sections[NAME].clone()], d.name.as_bytes());
    let offsets = u64s(&sections[OFFSETS]);
    assert_eq!(offsets.len(), d.num_users + 1);
    let events = d.num_interactions();
    assert_eq!(offsets[d.num_users], events as u64);
    assert_eq!(sections[ITEMS].len(), 4 * events);
    assert_eq!(sections[BEHAVIORS].len(), events);
    assert_eq!(sections[TIMESTAMPS].len(), 8 * events);
    let first = &d.sequences[0];
    let items_at = sections[ITEMS].start;
    assert_eq!(bytes[items_at..items_at + 4], first.items[0].to_le_bytes());
    assert_eq!(bytes[sections[BEHAVIORS].start] as usize, first.behaviors[0].index());
    for pair in sections.windows(2) {
        assert!(bytes[pair[0].end..pair[1].start].iter().all(|&b| b == 0), "padding is zero");
    }
}

// A version-1 file (its 64-byte header of §16's first layout) is refused
// by version, never parsed as version 2.
#[test]
fn version_1_file_is_bad_version() {
    let mut v1 = Vec::from(&MAGIC[..]);
    v1.extend_from_slice(&1u32.to_le_bytes());
    v1.extend_from_slice(&64u32.to_le_bytes());
    v1.extend_from_slice(&[0u8; 24]); // no users, items or events
    v1.extend_from_slice(&[4, 0b1001, 5, 3, 0, 0, 0, 0]);
    v1.extend_from_slice(&[0u8; 16]);
    v1.extend_from_slice(&0u64.to_le_bytes()); // user_offsets = [0]
    assert!(matches!(open_bytes(&v1), Err(FormatError::BadVersion(1))));
}

// Targeted column corruption through the §16.1 offsets: an item id above
// num_items and an undeclared behavior code must both be Corrupt, with the
// offending event named.
#[test]
fn out_of_range_ids_are_corrupt() {
    let (_, bytes) = valid_file_bytes(7, 0);
    let sections = spec_sections(&bytes);
    let (items_at, behaviors_at) = (sections[ITEMS].start, sections[BEHAVIORS].start);

    let mut big_item = bytes.clone();
    big_item[items_at..items_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    match open_bytes(&big_item) {
        Err(FormatError::Corrupt(msg)) => {
            assert!(msg.contains("item id") && msg.contains("event 0"), "{msg}")
        }
        other => panic!("expected Corrupt(item id), got {other:?}"),
    }

    let mut zero_item = bytes.clone();
    zero_item[items_at..items_at + 4].copy_from_slice(&0u32.to_le_bytes());
    assert!(matches!(open_bytes(&zero_item), Err(FormatError::Corrupt(_))));

    let mut bad_behavior = bytes;
    bad_behavior[behaviors_at] = 7;
    match open_bytes(&bad_behavior) {
        Err(FormatError::Corrupt(msg)) => {
            assert!(msg.contains("behavior code 7"), "{msg}")
        }
        other => panic!("expected Corrupt(behavior code), got {other:?}"),
    }
}
