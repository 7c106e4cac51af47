//! Serving metrics: the per-request stage taxonomy and the
//! point-in-time snapshot the `metrics` protocol command and `mbssl
//! top` consume (DESIGN.md §17).
//!
//! The snapshot renders two ways from one struct: [`MetricsSnapshot::to_json`]
//! (schema `mbssl.serve.metrics/1`, the machine interface `mbssl top`
//! and the CI validator parse) and [`MetricsSnapshot::to_prometheus`]
//! (the standard text exposition format, so a scraper can sit in front
//! of a snapshot file or a future socket transport unchanged).

use mbssl_telemetry::Histogram;

use super::protocol::MetricsFormat;
use super::server::ServeStats;

/// The serve pipeline stages, in request order (DESIGN.md §17). Stage
/// names are the identifiers used in snapshot JSON keys, Prometheus
/// `stage` labels, and tail-sample records; they mirror the
/// `serve.<stage>` span vocabulary where a span exists for the stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Queue wait: submit → the drain that picked the request up.
    Queue = 0,
    /// Engine/session snapshot + interest-cache resolve (`serve.resolve`).
    Resolve = 1,
    /// Batched encoder forwards for cache misses (`serve.forward`).
    Forward = 2,
    /// Catalog ranking — ANN probe + candidate re-rank or exhaustive
    /// scoring (`serve.rank`).
    Rank = 3,
    /// Re-rank chain application (`serve.rerank`).
    Rerank = 4,
    /// Reply delivery to the submitter's channel.
    Reply = 5,
    /// End to end: submit → reply sent.
    Total = 6,
}

/// Number of stages (length of [`Stage::ALL`]).
pub const NUM_STAGES: usize = 7;

impl Stage {
    /// Every stage, in pipeline order — indexes match `ServeStats::stages`.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::Queue,
        Stage::Resolve,
        Stage::Forward,
        Stage::Rank,
        Stage::Rerank,
        Stage::Reply,
        Stage::Total,
    ];

    /// The stage identifier used in snapshots, labels, and tail samples.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Resolve => "resolve",
            Stage::Forward => "forward",
            Stage::Rank => "rank",
            Stage::Rerank => "rerank",
            Stage::Reply => "reply",
            Stage::Total => "total",
        }
    }
}

/// Schema tag stamped into every JSON snapshot; bump on breaking layout
/// changes.
pub const METRICS_SCHEMA: &str = "mbssl.serve.metrics/1";

/// A point-in-time copy of everything the server knows about itself:
/// counters, gauges, the batch-size histogram, and one latency
/// histogram per [`Stage`]. Produced by `Server::metrics_snapshot`.
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Wall-clock capture time (ms since the Unix epoch).
    pub unix_time_ms: u64,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Current engine epoch (bumped by every hot-swap).
    pub epoch: u64,
    /// Requests enqueued but not yet drained at capture time.
    pub queue_depth: u64,
    /// Users with at least one session event in the store.
    pub sessions: u64,
    /// The `MBSSL_ANN_BUDGET_US` budget, if armed.
    pub ann_budget_us: Option<u64>,
    /// Integer EWMA of per-request ANN ranking time in µs (0 = no
    /// sample yet).
    pub ann_ewma_us: u64,
    /// Whether the EWMA currently exceeds the budget (the degradation
    /// policy would shrink the next batch's probe width).
    pub ann_degraded_now: bool,
    /// Counters + batch/stage histograms at capture time.
    pub stats: ServeStats,
}

fn push_hist_json(out: &mut String, h: &Histogram) {
    out.push_str(&format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        h.quantile(0.5),
        h.quantile(0.9),
        h.quantile(0.99),
    ));
    for (i, b) in h.nonzero_buckets().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{},{},{}]", b.lower, b.upper, b.count));
    }
    out.push_str("]}");
}

impl MetricsSnapshot {
    /// The snapshot in `format`, as a `metrics` request asks for it.
    pub fn render(&self, format: MetricsFormat) -> String {
        match format {
            MetricsFormat::Json => self.to_json(),
            MetricsFormat::Prom => self.to_prometheus(),
        }
    }

    /// One-line JSON rendering (schema [`METRICS_SCHEMA`]). Latency
    /// histograms are in nanoseconds; buckets are `[lower, upper,
    /// count]` triples over the non-empty buckets only.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "{{\"schema\":\"{}\",\"unix_time_ms\":{},\"uptime_ms\":{},\"epoch\":{},\"queue_depth\":{},\"sessions\":{}",
            METRICS_SCHEMA, self.unix_time_ms, self.uptime_ms, self.epoch, self.queue_depth, self.sessions,
        );
        out.push_str(&format!(
            ",\"counters\":{{\"requests\":{},\"batches\":{},\"cache_hits\":{},\"cache_misses\":{},\"ann_degraded\":{},\"swaps\":{},\"tail_sampled\":{}}}",
            s.requests, s.batches, s.cache_hits, s.cache_misses, s.ann_degraded, s.swaps, s.tail_sampled,
        ));
        out.push_str(&format!(
            ",\"cache_hit_rate\":{},\"mean_batch\":{}",
            s.cache_hit_rate(),
            s.mean_batch()
        ));
        match self.ann_budget_us {
            Some(b) => out.push_str(&format!(",\"ann_budget_us\":{b}")),
            None => out.push_str(",\"ann_budget_us\":null"),
        }
        out.push_str(&format!(
            ",\"ann_ewma_us\":{},\"ann_degraded_now\":{}",
            self.ann_ewma_us, self.ann_degraded_now
        ));
        out.push_str(",\"batch\":");
        push_hist_json(&mut out, &s.batch);
        out.push_str(",\"stages\":{");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":", stage.name()));
            push_hist_json(&mut out, &s.stages[*stage as usize]);
        }
        out.push_str("}}");
        out
    }

    /// Prometheus text exposition (one scrape's worth). Stage durations
    /// are exported in seconds per convention; bucket `le` bounds are
    /// the histogram's non-empty bucket upper bounds plus `+Inf`.
    pub fn to_prometheus(&self) -> String {
        let s = &self.stats;
        let mut out = String::new();
        let mut counter = |name: &str, help: &str, v: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"
            ));
        };
        counter("mbssl_serve_requests_total", "Requests served.", s.requests);
        counter("mbssl_serve_batches_total", "Micro-batches executed.", s.batches);
        counter("mbssl_serve_cache_hits_total", "Interest-cache hits.", s.cache_hits);
        counter("mbssl_serve_cache_misses_total", "Interest-cache misses.", s.cache_misses);
        counter(
            "mbssl_serve_ann_degraded_total",
            "Requests served with a budget-degraded probe width.",
            s.ann_degraded,
        );
        counter("mbssl_serve_engine_swaps_total", "Checkpoint hot-swaps.", s.swaps);
        counter(
            "mbssl_serve_tail_sampled_total",
            "Slow/sampled requests written to the tail log.",
            s.tail_sampled,
        );
        let mut gauge = |name: &str, help: &str, v: f64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"
            ));
        };
        gauge("mbssl_serve_queue_depth", "Requests enqueued but not drained.", self.queue_depth as f64);
        gauge("mbssl_serve_engine_epoch", "Current engine epoch.", self.epoch as f64);
        gauge("mbssl_serve_sessions", "Users in the session store.", self.sessions as f64);
        gauge("mbssl_serve_cache_hit_rate", "Cache hits / requests.", s.cache_hit_rate());
        gauge("mbssl_serve_ann_ewma_us", "EWMA of per-request ANN time (us).", self.ann_ewma_us as f64);
        if let Some(b) = self.ann_budget_us {
            gauge("mbssl_serve_ann_budget_us", "Armed ANN latency budget (us).", b as f64);
        }
        gauge(
            "mbssl_serve_ann_degraded_now",
            "1 when the ANN EWMA currently exceeds the budget.",
            if self.ann_degraded_now { 1.0 } else { 0.0 },
        );

        out.push_str("# HELP mbssl_serve_stage_duration_seconds Per-stage request latency.\n");
        out.push_str("# TYPE mbssl_serve_stage_duration_seconds histogram\n");
        for stage in Stage::ALL {
            let h = &s.stages[stage as usize];
            let name = stage.name();
            let mut cum = 0u64;
            for b in h.nonzero_buckets() {
                cum += b.count;
                out.push_str(&format!(
                    "mbssl_serve_stage_duration_seconds_bucket{{stage=\"{name}\",le=\"{}\"}} {cum}\n",
                    b.upper as f64 / 1e9
                ));
            }
            out.push_str(&format!(
                "mbssl_serve_stage_duration_seconds_bucket{{stage=\"{name}\",le=\"+Inf\"}} {}\n",
                h.count()
            ));
            out.push_str(&format!(
                "mbssl_serve_stage_duration_seconds_sum{{stage=\"{name}\"}} {}\n",
                h.sum() as f64 / 1e9
            ));
            out.push_str(&format!(
                "mbssl_serve_stage_duration_seconds_count{{stage=\"{name}\"}} {}\n",
                h.count()
            ));
        }

        out.push_str("# HELP mbssl_serve_batch_size Requests per executed micro-batch.\n");
        out.push_str("# TYPE mbssl_serve_batch_size histogram\n");
        let mut cum = 0u64;
        for b in s.batch.nonzero_buckets() {
            cum += b.count;
            out.push_str(&format!(
                "mbssl_serve_batch_size_bucket{{le=\"{}\"}} {cum}\n",
                b.upper.saturating_sub(1)
            ));
        }
        out.push_str(&format!(
            "mbssl_serve_batch_size_bucket{{le=\"+Inf\"}} {}\n",
            s.batch.count()
        ));
        out.push_str(&format!("mbssl_serve_batch_size_sum {}\n", s.batch.sum()));
        out.push_str(&format!("mbssl_serve_batch_size_count {}\n", s.batch.count()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbssl_telemetry::Histogram;

    fn snapshot_fixture() -> MetricsSnapshot {
        let mut batch = Histogram::new();
        batch.record(4);
        batch.record(2);
        let mut stages = vec![Histogram::new(); NUM_STAGES];
        for (i, h) in stages.iter_mut().enumerate() {
            h.record_n(1000 * (i as u64 + 1), 6);
        }
        MetricsSnapshot {
            unix_time_ms: 1_700_000_000_000,
            uptime_ms: 1234,
            epoch: 2,
            queue_depth: 1,
            sessions: 9,
            ann_budget_us: Some(500),
            ann_ewma_us: 120,
            ann_degraded_now: false,
            stats: ServeStats {
                requests: 6,
                batches: 2,
                cache_hits: 4,
                cache_misses: 2,
                ann_degraded: 0,
                swaps: 2,
                tail_sampled: 1,
                batch,
                stages,
            },
        }
    }

    #[test]
    fn json_snapshot_is_schema_complete() {
        let json = snapshot_fixture().to_json();
        for key in [
            "\"schema\":\"mbssl.serve.metrics/1\"",
            "\"unix_time_ms\":",
            "\"uptime_ms\":1234",
            "\"epoch\":2",
            "\"queue_depth\":1",
            "\"sessions\":9",
            "\"requests\":6",
            "\"tail_sampled\":1",
            "\"cache_hit_rate\":",
            "\"ann_budget_us\":500",
            "\"batch\":{",
            "\"queue\":{",
            "\"total\":{",
            "\"p99\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Every stage's histogram counts every request.
        for stage in Stage::ALL {
            assert!(json.contains(&format!("\"{}\":{{\"count\":6", stage.name())), "{json}");
        }
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let text = snapshot_fixture().to_prometheus();
        assert!(text.contains("mbssl_serve_requests_total 6"));
        assert!(text.contains("# TYPE mbssl_serve_stage_duration_seconds histogram"));
        for stage in Stage::ALL {
            assert!(text.contains(&format!(
                "mbssl_serve_stage_duration_seconds_count{{stage=\"{}\"}} 6",
                stage.name()
            )));
            assert!(text.contains(&format!(
                "mbssl_serve_stage_duration_seconds_bucket{{stage=\"{}\",le=\"+Inf\"}} 6",
                stage.name()
            )));
        }
        // Every line is either a comment or `name{labels} value` /
        // `name value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#')
                    || line
                        .rsplit_once(' ')
                        .map(|(metric, value)| {
                            !metric.is_empty() && value.parse::<f64>().is_ok()
                        })
                        .unwrap_or(false),
                "malformed exposition line: {line}"
            );
        }
    }
}
