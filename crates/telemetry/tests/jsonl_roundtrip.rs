//! Round-trip property tests for the hand-rolled JSONL writer: every
//! record produced by `record_to_jsonl` / `meta_record_with` /
//! `progress_record` must parse back through the workspace `serde_json`
//! parser with all string fields byte-identical — across quotes,
//! backslashes, control characters, and non-ASCII text.
//!
//! This pins the escaping contract between the telemetry writer (which
//! formats JSON by hand to stay dependency-free) and the reader used by
//! `mbssl trace summary`/`diff` (the serde-shim `Value` parser).

use proptest::prelude::*;

use mbssl_telemetry::{meta_record_with, progress_record, record_to_jsonl, LabelStats, RecordKind};
use serde::value::Value;

/// Characters chosen to stress the escaper: JSON-significant punctuation,
/// every escape class (quote, backslash, control, DEL-adjacent), multi-byte
/// UTF-8, and the `;`/space separators the collapsed-stack format uses.
const CHARSET: &[char] = &[
    'a', 'Z', '0', ' ', ';', ':', ',', '{', '}', '[', ']', '"', '\\', '/', '\n', '\r', '\t',
    '\u{0}', '\u{1}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'é', 'ß', '漢', '🦀',
];

fn string_from(indices: Vec<usize>) -> String {
    indices.into_iter().map(|i| CHARSET[i % CHARSET.len()]).collect()
}

fn obj_get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, val)| val),
        _ => None,
    }
}

fn get_str(v: &Value, key: &str) -> String {
    match obj_get(v, key) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("field {key} is not a string: {other:?}"),
    }
}

fn get_num(v: &Value, key: &str) -> f64 {
    let field = obj_get(v, key);
    field
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("field {key} is not a number: {field:?}"))
}

fn span_stats(label: String, parent: String, count: u64, total_ns: u64, bytes: u64) -> LabelStats {
    LabelStats {
        label,
        parent,
        kind: RecordKind::Span,
        count,
        total_ns,
        min_ns: total_ns.min(1),
        max_ns: total_ns,
        p50_ns: total_ns / 2,
        p90_ns: total_ns,
        p99_ns: total_ns,
        bytes,
        value: 0,
    }
}

proptest! {
    #[test]
    fn span_records_roundtrip(
        label_idx in prop::collection::vec(0usize..1000, 1..24),
        parent_idx in prop::collection::vec(0usize..1000, 0..24),
        section_idx in prop::collection::vec(0usize..1000, 0..12),
        // u64 survives the f64-backed Value only below 2^53; the writer's
        // integers are nanosecond/byte counts that stay far below that in
        // practice, so the contract is pinned for that range.
        count in 0u64..(1 << 53),
        total_ns in 0u64..(1 << 53),
        bytes in 0u64..(1 << 53)
    ) {
        let label = string_from(label_idx);
        let parent = string_from(parent_idx);
        let section = string_from(section_idx);
        let rec = span_stats(label.clone(), parent.clone(), count, total_ns, bytes);
        let line = record_to_jsonl(&rec, &section);
        let v: Value = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("unparseable span record: {e}\n{line}"));
        prop_assert_eq!(get_str(&v, "kind"), "span".to_string());
        prop_assert_eq!(get_str(&v, "section"), section);
        prop_assert_eq!(get_str(&v, "label"), label);
        prop_assert_eq!(get_str(&v, "parent"), parent);
        prop_assert_eq!(get_num(&v, "count"), count as f64);
        prop_assert_eq!(get_num(&v, "total_ns"), total_ns as f64);
        prop_assert_eq!(get_num(&v, "p50_ns"), (total_ns / 2) as f64);
        prop_assert_eq!(get_num(&v, "p99_ns"), total_ns as f64);
        prop_assert_eq!(get_num(&v, "bytes"), bytes as f64);
    }

    #[test]
    fn counter_records_roundtrip(
        label_idx in prop::collection::vec(0usize..1000, 1..24),
        value in 0u64..(1 << 53),
        is_gauge in 0u8..2
    ) {
        let label = string_from(label_idx);
        let kind = if is_gauge == 1 { RecordKind::Gauge } else { RecordKind::Counter };
        let rec = LabelStats {
            label: label.clone(),
            parent: String::new(),
            kind,
            count: 0,
            total_ns: 0,
            min_ns: 0,
            max_ns: 0,
            p50_ns: 0,
            p90_ns: 0,
            p99_ns: 0,
            bytes: 0,
            value,
        };
        let line = record_to_jsonl(&rec, "bench");
        let v: Value = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("unparseable counter record: {e}\n{line}"));
        prop_assert_eq!(
            get_str(&v, "kind"),
            if is_gauge == 1 { "gauge" } else { "counter" }.to_string()
        );
        prop_assert_eq!(get_str(&v, "label"), label);
        prop_assert_eq!(get_num(&v, "value"), value as f64);
        // Counters and gauges carry no parent edge.
        prop_assert!(obj_get(&v, "parent").is_none());
    }

    #[test]
    fn meta_records_roundtrip(
        section_idx in prop::collection::vec(0usize..1000, 0..12),
        rev_idx in prop::collection::vec(0usize..1000, 0..16),
        key_idx in prop::collection::vec(0usize..1000, 1..10),
        val_idx in prop::collection::vec(0usize..1000, 0..16),
        with_rev in 0u8..2
    ) {
        let section = string_from(section_idx);
        let rev = string_from(rev_idx);
        // Env keys collide after the charset-fold; one adversarial pair and
        // one fixed pair keeps the object well-formed with distinct keys.
        let key = format!("MBSSL_{}", string_from(key_idx));
        let val = string_from(val_idx);
        let env = vec![
            (key.clone(), val.clone()),
            ("MBSSL_THREADS".to_string(), "4".to_string()),
        ];
        let rev_opt = if with_rev == 1 { Some(rev.as_str()) } else { None };
        let line = meta_record_with(&section, rev_opt, &env);
        let v: Value = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("unparseable meta record: {e}\n{line}"));
        prop_assert_eq!(get_str(&v, "kind"), "meta".to_string());
        prop_assert_eq!(get_str(&v, "section"), section);
        match (with_rev == 1, obj_get(&v, "git_rev")) {
            (true, Some(Value::Str(s))) => prop_assert_eq!(s.clone(), rev),
            (false, Some(Value::Null)) => {}
            other => panic!("bad git_rev field: {other:?}\n{line}"),
        }
        let env_obj = obj_get(&v, "env").expect("meta lacks env");
        prop_assert_eq!(get_str(env_obj, &key), val);
        prop_assert_eq!(get_str(env_obj, "MBSSL_THREADS"), "4".to_string());
    }

    #[test]
    fn progress_records_roundtrip(
        msg_idx in prop::collection::vec(0usize..1000, 0..48)
    ) {
        let message = string_from(msg_idx);
        let line = progress_record(&message);
        let v: Value = serde_json::from_str(&line)
            .unwrap_or_else(|e| panic!("unparseable progress record: {e}\n{line}"));
        prop_assert_eq!(get_str(&v, "kind"), "progress".to_string());
        prop_assert_eq!(get_str(&v, "message"), message);
        prop_assert!(get_num(&v, "unix_time_s") > 0.0);
    }
}
