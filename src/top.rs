//! `mbssl top` — a terminal dashboard over serve metrics snapshots.
//!
//! `mbssl serve --metrics-out PATH` atomically rewrites `PATH` with an
//! `mbssl.serve.metrics/1` JSON snapshot on an interval;
//! `mbssl top PATH` polls that file and renders a QPS sparkline (rate of
//! the `requests` counter between polls, timed by the snapshots' own
//! capture clocks), the per-stage latency quantile table, queue depth,
//! and the cache hit rate. There is no socket transport — the snapshot
//! file *is* the wire format (DESIGN.md §17), so `top` works identically
//! on a live server and on a snapshot file copied off a host.

use std::collections::VecDeque;
use std::time::Duration;

use serde::value::Value;

use mbssl_core::serve::METRICS_SCHEMA;
use mbssl_core::sparkline;

/// How many polls of QPS history the sparkline keeps.
const QPS_HISTORY: usize = 32;

/// Options for [`run`], parsed from `mbssl top` flags.
pub struct TopOptions {
    /// Poll interval between frames (`--interval MS`, default 1s).
    pub interval: Duration,
    /// Stop after this many frames (`--frames N`; `None` = until ^C).
    pub frames: Option<u64>,
    /// Redraw in place with an ANSI clear (off under `--no-clear`).
    pub clear: bool,
}

impl Default for TopOptions {
    fn default() -> TopOptions {
        TopOptions { interval: Duration::from_millis(1000), frames: None, clear: true }
    }
}

fn obj_get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn get_num(v: &Value, key: &str) -> f64 {
    obj_get(v, key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn get_bool(v: &Value, key: &str) -> bool {
    matches!(obj_get(v, key), Some(Value::Bool(true)))
}

/// `"12.3s"` / `"4m02s"` — compact uptime.
fn fmt_uptime(ms: f64) -> String {
    let secs = ms / 1e3;
    if secs < 60.0 {
        format!("{secs:.1}s")
    } else {
        format!("{}m{:02}s", (secs / 60.0) as u64, (secs % 60.0) as u64)
    }
}

/// One `count/p50/p90/p99/max` row from a histogram object in the
/// snapshot (nanosecond values, rendered as µs).
fn stage_row(out: &mut String, name: &str, h: &Value) {
    out.push_str(&format!(
        "  {:<8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        name,
        get_num(h, "count") as u64,
        (get_num(h, "p50") / 1e3) as u64,
        (get_num(h, "p90") / 1e3) as u64,
        (get_num(h, "p99") / 1e3) as u64,
        (get_num(h, "max") / 1e3) as u64,
    ));
}

/// Renders one dashboard frame from a parsed snapshot. Pure — all I/O
/// (polling, clearing, printing) lives in [`run`]; tests feed fixture
/// JSON straight in.
pub fn render(snapshot: &Value, source: &str, qps: &[Option<f64>]) -> String {
    let mut out = String::new();
    let counters = obj_get(snapshot, "counters").cloned().unwrap_or(Value::Obj(Vec::new()));
    let requests = get_num(&counters, "requests") as u64;
    let batches = get_num(&counters, "batches") as u64;

    out.push_str(&format!(
        "mbssl top — {source}  (uptime {}, epoch {})\n",
        fmt_uptime(get_num(snapshot, "uptime_ms")),
        get_num(snapshot, "epoch") as u64,
    ));
    let last_qps = qps.iter().rev().find_map(|v| *v);
    out.push_str(&format!(
        "  qps      {}  {}\n",
        sparkline(qps),
        match last_qps {
            Some(q) => format!("{q:.1}"),
            None => "warming up".to_string(),
        },
    ));
    out.push_str(&format!(
        "  load     {requests} requests in {batches} batches (mean {:.2}/batch), queue depth {}\n",
        get_num(snapshot, "mean_batch"),
        get_num(snapshot, "queue_depth") as u64,
    ));
    out.push_str(&format!(
        "  cache    hit rate {:.0}% ({} hits / {} misses), {} sessions\n",
        100.0 * get_num(snapshot, "cache_hit_rate"),
        get_num(&counters, "cache_hits") as u64,
        get_num(&counters, "cache_misses") as u64,
        get_num(snapshot, "sessions") as u64,
    ));
    let budget = match obj_get(snapshot, "ann_budget_us").and_then(Value::as_f64) {
        Some(b) => format!("budget {}µs", b as u64),
        None => "no budget".to_string(),
    };
    out.push_str(&format!(
        "  ann      ewma {}µs, {budget}{}, {} degraded requests\n",
        get_num(snapshot, "ann_ewma_us") as u64,
        if get_bool(snapshot, "ann_degraded_now") { " [DEGRADED]" } else { "" },
        get_num(&counters, "ann_degraded") as u64,
    ));
    out.push_str(&format!(
        "  ops      {} engine swaps, {} tail-sampled requests\n",
        get_num(&counters, "swaps") as u64,
        get_num(&counters, "tail_sampled") as u64,
    ));

    out.push_str(&format!(
        "  {:<8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "stage", "count", "p50 µs", "p90 µs", "p99 µs", "max µs"
    ));
    if let Some(Value::Obj(stages)) = obj_get(snapshot, "stages") {
        for (name, h) in stages {
            stage_row(&mut out, name, h);
        }
    }

    if let Some(Value::Arr(buckets)) = obj_get(obj_get(snapshot, "batch").unwrap_or(&Value::Null), "buckets") {
        let sizes: Vec<String> = buckets
            .iter()
            .filter_map(|b| match b {
                Value::Arr(t) if t.len() == 3 => match (t[0].as_f64(), t[2].as_f64()) {
                    (Some(lower), Some(count)) => {
                        Some(format!("{}:{}", lower as u64, count as u64))
                    }
                    _ => None,
                },
                _ => None,
            })
            .collect();
        out.push_str(&format!("  batches  {}\n", sizes.join(" ")));
    }
    out
}

/// Polls `path` and renders frames until `frames` run out (or forever).
///
/// `host:port`-shaped arguments get a pointed error: the dashboard reads
/// snapshot files, not sockets.
pub fn run(path: &str, opts: &TopOptions) -> Result<(), String> {
    let looks_like_addr = !std::path::Path::new(path).exists()
        && matches!(
            path.rsplit_once(':'),
            Some((host, port)) if !host.is_empty()
                && !port.is_empty()
                && port.bytes().all(|b| b.is_ascii_digit())
        );
    if looks_like_addr {
        return Err(format!(
            "mbssl top reads metrics snapshot files, not network addresses (got {path:?}); \
             run `mbssl serve --metrics-out FILE` and pass FILE"
        ));
    }

    let mut history: VecDeque<Option<f64>> = VecDeque::with_capacity(QPS_HISTORY);
    // (requests, unix_time_ms) from the previous poll; QPS is the delta
    // between snapshot capture clocks, so it is right even when the
    // writer interval and the poll interval disagree.
    let mut prev: Option<(f64, f64)> = None;
    let mut frame = 0u64;
    loop {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let snapshot: Value =
            serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e:?}"))?;
        match obj_get(&snapshot, "schema") {
            Some(Value::Str(s)) if s == METRICS_SCHEMA => {}
            other => {
                return Err(format!(
                    "{path} is not a serve metrics snapshot (schema {other:?}, want {METRICS_SCHEMA:?})"
                ))
            }
        }

        let requests = get_num(&obj_get(&snapshot, "counters").cloned().unwrap_or(Value::Null), "requests");
        let now_ms = get_num(&snapshot, "unix_time_ms");
        let qps = prev.and_then(|(req0, ms0)| {
            let dt = (now_ms - ms0) / 1e3;
            // A fresh snapshot with a going-backwards counter means the
            // server restarted; skip the sample rather than plot noise.
            (dt > 0.0 && requests >= req0).then(|| (requests - req0) / dt)
        });
        prev = Some((requests, now_ms));
        if history.len() == QPS_HISTORY {
            history.pop_front();
        }
        history.push_back(qps);

        let frame_text = render(&snapshot, path, &history.iter().copied().collect::<Vec<_>>());
        if opts.clear {
            print!("\x1b[2J\x1b[H");
        }
        print!("{frame_text}");
        use std::io::Write;
        let _ = std::io::stdout().flush();

        frame += 1;
        if opts.frames.is_some_and(|n| frame >= n) {
            return Ok(());
        }
        std::thread::sleep(opts.interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"{"schema":"mbssl.serve.metrics/1","unix_time_ms":1700000000000,
        "uptime_ms":72500,"epoch":2,"queue_depth":1,"sessions":9,
        "counters":{"requests":600,"batches":200,"cache_hits":400,"cache_misses":200,
                    "ann_degraded":3,"swaps":2,"tail_sampled":11},
        "cache_hit_rate":0.6666,"mean_batch":3.0,"ann_budget_us":500,"ann_ewma_us":120,
        "ann_degraded_now":false,
        "batch":{"count":200,"sum":600,"min":1,"max":4,"p50":3,"p90":4,"p99":4,
                 "buckets":[[1,2,20],[4,5,180]]},
        "stages":{"queue":{"count":600,"sum":1,"min":1,"max":9000,"p50":1000,"p90":2000,
                           "p99":8000,"buckets":[[512,544,600]]},
                  "total":{"count":600,"sum":1,"min":1,"max":90000,"p50":21000,"p90":42000,
                           "p99":88000,"buckets":[[512,544,600]]}}}"#;

    #[test]
    fn renders_all_dashboard_sections() {
        let v: Value = serde_json::from_str(FIXTURE).unwrap();
        let frame = render(&v, "snap.json", &[None, Some(10.0), Some(40.0)]);
        for needle in [
            "uptime 1m12s",
            "epoch 2",
            "600 requests in 200 batches",
            "queue depth 1",
            "hit rate 67%",
            "9 sessions",
            "ewma 120µs, budget 500µs",
            "2 engine swaps, 11 tail-sampled",
            "stage",
            "queue",
            "total",
            "40.0",
            "batches  1:20 4:180",
        ] {
            assert!(frame.contains(needle), "missing {needle:?} in:\n{frame}");
        }
        // queue p99 8000ns → 8µs in the table.
        assert!(frame.contains(" 8 "), "{frame}");
    }

    #[test]
    fn addr_shaped_target_gets_a_pointed_error() {
        let err = run("metrics.example.com:9100", &TopOptions::default()).unwrap_err();
        assert!(err.contains("not network addresses"), "{err}");
        assert!(err.contains("--metrics-out"), "{err}");
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let dir = std::env::temp_dir().join(format!("mbssl-top-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bogus.json");
        std::fs::write(&path, "{\"schema\":\"other/9\"}").unwrap();
        let opts = TopOptions { frames: Some(1), ..TopOptions::default() };
        let err = run(path.to_str().unwrap(), &opts).unwrap_err();
        assert!(err.contains("not a serve metrics snapshot"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
