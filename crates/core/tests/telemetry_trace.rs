//! Telemetry regression tests: tracing must never change training results,
//! and a JSONL trace of a real training run must be parseable and cover
//! every instrumented layer (trainer, evaluator, kernels, allocator, pool).
//!
//! The trace mode is process-global, so every test that touches it holds
//! `MODE_LOCK` and restores `TraceMode::Off` before releasing it.

use std::sync::Mutex;

use mbssl_core::{
    BehaviorSchema, Mbmissl, ModelConfig, TrainConfig, TrainableRecommender, Trainer,
};
use mbssl_data::preprocess::{leave_one_out, SplitConfig};
use mbssl_data::sampler::NegativeSampler;
use mbssl_data::synthetic::SyntheticConfig;
use mbssl_telemetry as telemetry;
use serde::value::Value;

static MODE_LOCK: Mutex<()> = Mutex::new(());

/// Trains a small MBMISSL for 2 epochs on synthetic data under the given
/// trace mode; returns the final parameters and per-epoch loss history.
fn train_once(mode: telemetry::TraceMode) -> (Vec<Vec<f32>>, Vec<f32>) {
    train_once_in(mode, None)
}

/// Like [`train_once`] but additionally writing a run-ledger directory.
fn train_once_in(
    mode: telemetry::TraceMode,
    run_dir: Option<String>,
) -> (Vec<Vec<f32>>, Vec<f32>) {
    telemetry::set_mode(mode);
    let g = SyntheticConfig::taobao_like(77).scaled(0.05).generate();
    let split = leave_one_out(&g.dataset, &SplitConfig::default());
    let sampler = NegativeSampler::from_dataset(&g.dataset);
    let schema = BehaviorSchema::new(g.dataset.behaviors.clone(), g.dataset.target_behavior);
    let model = Mbmissl::new(
        g.dataset.num_items,
        schema,
        ModelConfig {
            dim: 16,
            heads: 2,
            num_layers: 1,
            ffn_hidden: 32,
            num_interests: 2,
            extractor_hidden: 16,
            seed: 9,
            ..ModelConfig::default()
        },
    );
    let trainer = Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 64,
        num_negatives: 8,
        seed: 9,
        verbose: false,
        run_dir,
        ..TrainConfig::default()
    });
    let report = trainer.fit(&model, &split, &sampler);
    let params = model.params().iter().map(|p| p.to_vec()).collect();
    let losses = report.history.iter().map(|e| e.train_loss).collect();
    (params, losses)
}

fn obj_get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, val)| val),
        _ => None,
    }
}

fn as_str<'a>(v: &'a Value) -> Option<&'a str> {
    match v {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

fn as_num(v: &Value) -> Option<f64> {
    v.as_f64()
}

/// The tentpole contract in one test: training with `MBSSL_TRACE=off` and
/// with a JSONL trace attached produces bit-for-bit identical parameters
/// and losses, and the trace itself is valid JSONL covering at least 8
/// distinct span labels across all instrumented layers.
#[test]
fn jsonl_trace_is_valid_and_does_not_perturb_training() {
    let _guard = MODE_LOCK.lock().unwrap();
    let trace_path = std::env::temp_dir().join(format!(
        "mbssl_trace_test_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&trace_path);

    let (params_off, losses_off) = train_once(telemetry::TraceMode::Off);
    let (params_on, losses_on) = train_once(telemetry::TraceMode::Jsonl(
        trace_path.to_string_lossy().into_owned(),
    ));
    // Write out everything the traced run accumulated, then disarm.
    telemetry::flush_section("train");
    telemetry::set_mode(telemetry::TraceMode::Off);

    // 1. Determinism: telemetry must not touch the RNG streams or change
    //    accumulation order anywhere in the training path.
    assert_eq!(losses_off, losses_on, "loss history diverged under tracing");
    assert_eq!(params_off.len(), params_on.len());
    for (i, (a, b)) in params_off.iter().zip(params_on.iter()).enumerate() {
        assert_eq!(a, b, "parameter tensor {i} diverged under tracing");
    }

    // 2. Trace validity: every line parses as a JSON object with a known
    //    record kind and well-formed fields.
    let text = std::fs::read_to_string(&trace_path).expect("trace file missing");
    let _ = std::fs::remove_file(&trace_path);
    let mut span_labels = Vec::new();
    let mut span_edges: Vec<(String, String, f64)> = Vec::new(); // (parent, label, total_ns)
    let mut gauge_labels = Vec::new();
    let mut saw_meta = false;
    for (lineno, line) in text.lines().enumerate() {
        let rec: Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("line {} is not valid JSON: {e}\n{line}", lineno + 1));
        let kind = obj_get(&rec, "kind").and_then(as_str).expect("record without kind");
        match kind {
            "meta" => {
                saw_meta = true;
                assert!(obj_get(&rec, "git_rev").is_some(), "meta lacks git_rev");
                assert!(
                    obj_get(&rec, "cores").and_then(as_num).unwrap_or(0.0) >= 1.0,
                    "meta lacks a plausible core count"
                );
                let env = obj_get(&rec, "env").expect("meta lacks env stamp");
                for key in [
                    "MBSSL_THREADS",
                    "MBSSL_SIMD",
                    "MBSSL_DATA_MMAP",
                    "MBSSL_TRACE",
                ] {
                    assert!(obj_get(env, key).is_some(), "env stamp lacks {key}");
                }
            }
            "span" => {
                let label = obj_get(&rec, "label").and_then(as_str).expect("span without label");
                let count = obj_get(&rec, "count").and_then(as_num).expect("span without count");
                let total = obj_get(&rec, "total_ns").and_then(as_num).unwrap();
                let min = obj_get(&rec, "min_ns").and_then(as_num).unwrap();
                let max = obj_get(&rec, "max_ns").and_then(as_num).unwrap();
                assert!(obj_get(&rec, "bytes").is_some(), "span {label} lacks bytes");
                assert!(count >= 1.0, "span {label} with zero count");
                assert!(min <= max && max <= total.max(max), "span {label} ns ordering");
                let parent = obj_get(&rec, "parent")
                    .and_then(as_str)
                    .unwrap_or_else(|| panic!("span {label} lacks a parent field"));
                span_edges.push((parent.to_string(), label.to_string(), total));
                span_labels.push(label.to_string());
            }
            "counter" | "gauge" => {
                let label = obj_get(&rec, "label").and_then(as_str).expect("record without label");
                assert!(obj_get(&rec, "value").is_some(), "{kind} {label} lacks value");
                if kind == "gauge" {
                    gauge_labels.push(label.to_string());
                }
            }
            "progress" => {
                assert!(obj_get(&rec, "message").is_some(), "progress without message");
            }
            other => panic!("unknown record kind {other:?}"),
        }
    }
    assert!(saw_meta, "trace has no meta record");

    // 3. Coverage: ≥8 distinct span labels, spanning every layer the issue
    //    names — trainer, evaluation, kernels — plus allocator and pool
    //    state bridged in as gauges.
    span_labels.sort();
    span_labels.dedup();
    assert!(
        span_labels.len() >= 8,
        "expected ≥8 distinct span labels, got {}: {span_labels:?}",
        span_labels.len()
    );
    for prefix in ["trainer.", "eval.", "kernel."] {
        assert!(
            span_labels.iter().any(|l| l.starts_with(prefix)),
            "no {prefix}* span in trace: {span_labels:?}"
        );
    }
    assert!(
        span_labels.iter().any(|l| l == "trainer.train_step"),
        "trainer.train_step missing: {span_labels:?}"
    );
    for prefix in ["alloc.", "pool."] {
        assert!(
            gauge_labels.iter().any(|l| l.starts_with(prefix)),
            "no {prefix}* gauge in trace: {gauge_labels:?}"
        );
    }

    // 4. Hierarchy: spans carry their recording parent. The training step
    //    must be an edge under the epoch span, and kernels must appear as
    //    children of the step — not as roots.
    assert!(
        span_edges
            .iter()
            .any(|(p, l, _)| p == "trainer.epoch" && l == "trainer.train_step"),
        "trainer.train_step not recorded under trainer.epoch: {span_edges:?}"
    );
    assert!(
        span_edges
            .iter()
            .any(|(p, l, _)| p == "trainer.train_step" && l.starts_with("kernel.")),
        "no kernel.* edge under trainer.train_step: {span_edges:?}"
    );

    // 5. Self-time identity: children are strictly nested inside their
    //    parent's guard, so summed child time can exceed the label's own
    //    total only by clock jitter. `self = total − child` must be a
    //    meaningful (≥0 within 1%) quantity for the hot training span.
    let label_total = |label: &str| -> f64 {
        span_edges.iter().filter(|(_, l, _)| l == label).map(|(_, _, t)| t).sum()
    };
    let child_total = |label: &str| -> f64 {
        span_edges.iter().filter(|(p, _, _)| p == label).map(|(_, _, t)| t).sum()
    };
    for label in ["trainer.train_step", "trainer.epoch"] {
        let total = label_total(label);
        let child = child_total(label);
        assert!(total > 0.0, "{label} has zero total time");
        assert!(
            child <= total * 1.01,
            "{label}: child time {child} exceeds total {total} by more than 1% — \
             self-time (total − child) would be nonsense"
        );
    }
}

/// Training with the run ledger active is bit-for-bit identical to
/// training without it, and the run directory it leaves behind is complete
/// and parseable.
#[test]
fn run_ledger_does_not_perturb_training_and_roundtrips() {
    let _guard = MODE_LOCK.lock().unwrap();
    let run_dir = std::env::temp_dir().join(format!(
        "mbssl_ledger_run_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);

    let (params_off, losses_off) = train_once(telemetry::TraceMode::Off);
    let (params_led, losses_led) = train_once_in(
        telemetry::TraceMode::Off,
        Some(run_dir.to_string_lossy().into_owned()),
    );
    telemetry::set_mode(telemetry::TraceMode::Off);

    assert_eq!(losses_off, losses_led, "loss history diverged under the run ledger");
    for (i, (a, b)) in params_off.iter().zip(params_led.iter()).enumerate() {
        assert_eq!(a, b, "parameter tensor {i} diverged under the run ledger");
    }

    let run = mbssl_core::read_run_dir(&run_dir).expect("run dir unreadable");
    let _ = std::fs::remove_dir_all(&run_dir);
    assert!(run.manifest.model.contains("MBMISSL"), "{}", run.manifest.model);
    assert_eq!(run.manifest.config.epochs, 2);
    assert!(run.manifest.cores >= 1);
    assert!(run.manifest.num_params > 0);
    assert!(run.manifest.train_instances > 0);
    assert!(run.manifest.val_instances > 0);
    assert_eq!(run.epochs.len(), losses_led.len());
    for (i, epoch) in run.epochs.iter().enumerate() {
        assert_eq!(epoch.epoch, i);
        assert_eq!(epoch.train_loss, losses_led[i] as f64, "epoch {i} loss mismatch");
        assert!(epoch.items_per_sec > 0.0, "epoch {i} has no throughput");
        assert!(epoch.seconds > 0.0);
        assert!(epoch.val_ndcg10.is_some(), "epoch {i} skipped validation");
        assert!(epoch.val_hr5.is_some() && epoch.val_ndcg5.is_some());
    }
    // The report renderer must at least show the run and its curves.
    let rendered = mbssl_core::render_report(&[run]);
    assert!(rendered.contains("NDCG@10"), "{rendered}");
    assert!(rendered.contains("items/s"), "{rendered}");
}

/// `progress` lines must land in the JSONL trace immediately (not at
/// flush), carrying the message verbatim.
#[test]
fn progress_lines_are_recorded_in_jsonl_traces() {
    let _guard = MODE_LOCK.lock().unwrap();
    let trace_path = std::env::temp_dir().join(format!(
        "mbssl_progress_test_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&trace_path);
    telemetry::set_mode(telemetry::TraceMode::Jsonl(
        trace_path.to_string_lossy().into_owned(),
    ));
    telemetry::progress("epoch 0: loss 1.2345");
    telemetry::set_mode(telemetry::TraceMode::Off);

    let text = std::fs::read_to_string(&trace_path).expect("trace file missing");
    let _ = std::fs::remove_file(&trace_path);
    let rec: Value = serde_json::from_str(text.lines().next().unwrap()).unwrap();
    assert_eq!(obj_get(&rec, "kind").and_then(as_str), Some("progress"));
    assert_eq!(
        obj_get(&rec, "message").and_then(as_str),
        Some("epoch 0: loss 1.2345")
    );
}
