//! Serving load test — closed-loop concurrent clients against the
//! micro-batched request engine (DESIGN.md §15), in three phases over the
//! same engine and request stream:
//!
//! 1. `sequential` — batch 1, one worker, cache off: the per-request
//!    baseline, equivalent to looping `recommend_top_n`;
//! 2. `batched`    — cross-request micro-batching, cache off: what the
//!    batcher alone buys under concurrency;
//! 3. `cached`     — batching plus the per-user interest cache: the
//!    steady-state serving configuration.
//!
//! Reports QPS, p50/p90/p99 latency, the per-stage quantile breakdown,
//! the batch-size histogram, and the cache hit rate per phase
//! (`results/serve.json`); the last stage of `scripts/ci.sh` compares
//! the sequential phase of telemetry-off and traced runs. The
//! figure of record is `cached QPS / sequential QPS` at ≥16 clients —
//! the full engine against single-request serving. The batched-only
//! ratio is reported alongside; on a single-core host it hovers near 1×
//! (the encoder is compute-bound, so batch amortization needs either
//! the cache or spare cores to pay off), which is why the cache ships on
//! by default.
//!
//! Flags: `--clients N` (default 16), `--reqs N` per client (default 64),
//! `--batch N` (default 16), `--top N` (default 10).

use std::sync::Arc;
use std::time::Instant;

use mbssl_bench::{build_workload, write_json, ExpOptions};
use mbssl_core::serve::{RerankChain, ServeConfig, Server, SessionStore, Stage};
use mbssl_core::{BehaviorSchema, InferenceModel, Mbmissl};
use mbssl_data::UserId;
use mbssl_telemetry::LatencyHistogram;
use serde::Serialize;

#[derive(Serialize)]
struct StageRow {
    stage: String,
    count: u64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    max_us: u64,
}

#[derive(Serialize)]
struct PhaseRow {
    phase: String,
    clients: usize,
    requests: usize,
    wall_ms: f64,
    qps: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    mean_batch: f64,
    cache_hit_rate: f64,
    /// `batch_hist[s]` = batches that served exactly `s` requests
    /// (exact for batch sizes ≤ 32, i.e. every realistic `--batch`).
    batch_hist: Vec<u64>,
    /// Server-side per-stage latency quantiles (queue → reply), from the
    /// constant-memory stage histograms in [`mbssl_core::ServeStats`].
    stages: Vec<StageRow>,
}

#[derive(Serialize)]
struct ServeReport {
    dataset: String,
    num_users: usize,
    num_items: usize,
    top_n: usize,
    threads: usize,
    phases: Vec<PhaseRow>,
    /// Batched (cache-off) QPS over the sequential baseline.
    batched_speedup: f64,
    /// Full-engine (batch + cache) QPS over the sequential baseline —
    /// the serving figure of record.
    cached_speedup: f64,
}

/// Nearest-rank percentile over exact samples — kept only for the
/// debug-build cross-check against the histogram quantiles.
#[cfg(debug_assertions)]
fn percentile(sorted_ns: &[u64], p: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx]
}

/// Debug builds keep every exact latency alongside the histogram and
/// assert the histogram quantiles stay within the documented bucket
/// error bound (`mbssl_telemetry::hist::REL_ERROR`). Release builds
/// record into the constant-memory histogram only.
#[cfg(debug_assertions)]
fn cross_check(exact_ns: &mut Vec<u64>, hist: &mbssl_telemetry::Histogram) {
    use mbssl_telemetry::hist::REL_ERROR;
    exact_ns.sort_unstable();
    assert_eq!(hist.count(), exact_ns.len() as u64, "histogram lost samples");
    for q in [0.50, 0.90, 0.99] {
        let want = percentile(exact_ns, q);
        let got = hist.quantile(q);
        let tol = (want as f64 * REL_ERROR).max(1.0);
        assert!(
            (got as f64 - want as f64).abs() <= tol,
            "histogram q{q} = {got}ns vs exact {want}ns exceeds ±{tol:.0}ns"
        );
    }
}

/// One closed-loop phase: `clients` threads each issue `reqs` blocking
/// requests round-robin over the user base. Client-observed latencies go
/// into one shared lock-free histogram (constant memory regardless of
/// request count).
fn run_phase(
    phase: &str,
    engine: InferenceModel,
    dataset: &mbssl_data::Dataset,
    config: ServeConfig,
    clients: usize,
    reqs: usize,
    top_n: usize,
) -> PhaseRow {
    let server = Server::start(
        engine,
        Arc::new(SessionStore::from_dataset(dataset)),
        RerankChain::empty(),
        config,
    );
    let num_users = dataset.num_users;
    let hist = LatencyHistogram::new();
    #[cfg(debug_assertions)]
    let exact = std::sync::Mutex::new(Vec::new());
    let started = Instant::now();
    let server_ref = &server;
    let hist_ref = &hist;
    #[cfg(debug_assertions)]
    let exact_ref = &exact;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    #[cfg(debug_assertions)]
                    let mut lat = Vec::with_capacity(reqs);
                    for i in 0..reqs {
                        let user = ((c * reqs + i) % num_users) as UserId;
                        let t0 = Instant::now();
                        let reply = server_ref.submit(user, top_n).expect("server closed");
                        let ns = t0.elapsed().as_nanos() as u64;
                        hist_ref.record(ns);
                        #[cfg(debug_assertions)]
                        lat.push(ns);
                        assert_eq!(reply.recs.len(), top_n.min(num_users.max(top_n)));
                    }
                    #[cfg(debug_assertions)]
                    exact_ref.lock().unwrap().extend(lat);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    let wall = started.elapsed();
    let stats = server.shutdown();
    let lat = hist.snapshot();
    #[cfg(debug_assertions)]
    cross_check(&mut exact.into_inner().unwrap(), &lat);

    // Reconstruct the exact per-size batch counts from the histogram:
    // batch sizes ≤ 32 land in exact unit-width buckets, so `lower` IS
    // the batch size for every realistic `--batch`.
    let mut batch_hist = vec![0u64; stats.batch.max() as usize + 1];
    for b in stats.batch.nonzero_buckets() {
        let top = batch_hist.len() - 1;
        batch_hist[(b.lower as usize).min(top)] += b.count;
    }

    let stages = Stage::ALL
        .iter()
        .map(|&s| {
            let h = stats.stage(s);
            StageRow {
                stage: s.name().to_string(),
                count: h.count(),
                p50_us: h.quantile(0.50) / 1_000,
                p90_us: h.quantile(0.90) / 1_000,
                p99_us: h.quantile(0.99) / 1_000,
                max_us: h.max() / 1_000,
            }
        })
        .collect();

    let total = clients * reqs;
    PhaseRow {
        phase: phase.to_string(),
        clients,
        requests: total,
        wall_ms: wall.as_secs_f64() * 1e3,
        qps: total as f64 / wall.as_secs_f64(),
        p50_us: lat.quantile(0.50) / 1_000,
        p90_us: lat.quantile(0.90) / 1_000,
        p99_us: lat.quantile(0.99) / 1_000,
        mean_batch: stats.mean_batch(),
        cache_hit_rate: stats.cache_hit_rate(),
        batch_hist,
        stages,
    }
}

fn main() {
    let opts = ExpOptions::parse_args();
    let clients: usize = opts
        .flag_value("--clients")
        .map(|v| v.parse().expect("--clients"))
        .unwrap_or(16);
    let reqs: usize = opts
        .flag_value("--reqs")
        .map(|v| v.parse().expect("--reqs"))
        .unwrap_or(64);
    let max_batch: usize = opts
        .flag_value("--batch")
        .map(|v| v.parse().expect("--batch"))
        .unwrap_or(16);
    let top_n: usize = opts
        .flag_value("--top")
        .map(|v| v.parse().expect("--top"))
        .unwrap_or(10);

    let preset = opts.flag_value("--dataset").unwrap_or("taobao-like").to_string();
    let workload = build_workload(&preset, opts.scale, opts.seed);
    let d = &workload.dataset;
    let schema = BehaviorSchema::new(d.behaviors.clone(), d.target_behavior);
    let model = Mbmissl::new(d.num_items, schema, mbssl_bench::bench_model_config(opts.seed));

    println!(
        "serve load test on {preset}: {} users / {} items, {} clients × {} reqs, top-{top_n}, \
         batch≤{max_batch}, {} worker thread(s)",
        d.num_users,
        d.num_items,
        clients,
        reqs,
        mbssl_tensor::pool::threads()
    );

    // Fresh engine per phase (the server consumes it); compilation is
    // deterministic so every phase serves the identical model.
    // `MBSSL_SERVE_WAIT_US` / `MBSSL_SERVE_QUEUE` tune all three phases;
    // batch width and caching are pinned per phase below.
    let engine = || InferenceModel::compile(&model);
    let base = ServeConfig::from_env();
    let phases = vec![
        run_phase(
            "sequential",
            engine(),
            d,
            ServeConfig { max_batch: 1, workers: 1, cache: false, ..base.clone() },
            clients,
            reqs,
            top_n,
        ),
        run_phase(
            "batched",
            engine(),
            d,
            ServeConfig { max_batch, workers: 2, cache: false, ..base.clone() },
            clients,
            reqs,
            top_n,
        ),
        run_phase(
            "cached",
            engine(),
            d,
            ServeConfig { max_batch, workers: 2, cache: true, ..base.clone() },
            clients,
            reqs,
            top_n,
        ),
    ];

    println!(
        "{:<12} {:>9} {:>10} {:>10} {:>10} {:>10} {:>11} {:>10}",
        "phase", "qps", "p50 µs", "p90 µs", "p99 µs", "mean batch", "cache hit%", "wall ms"
    );
    for p in &phases {
        println!(
            "{:<12} {:>9.0} {:>10} {:>10} {:>10} {:>10.2} {:>11.0} {:>10.1}",
            p.phase,
            p.qps,
            p.p50_us,
            p.p90_us,
            p.p99_us,
            p.mean_batch,
            100.0 * p.cache_hit_rate,
            p.wall_ms
        );
    }
    // Server-side stage breakdown for the steady-state configuration.
    let cached = &phases[2];
    println!("stage breakdown ({}):", cached.phase);
    println!(
        "  {:<8} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50 µs", "p90 µs", "p99 µs", "max µs"
    );
    for s in &cached.stages {
        println!(
            "  {:<8} {:>9} {:>10} {:>10} {:>10} {:>10}",
            s.stage, s.count, s.p50_us, s.p90_us, s.p99_us, s.max_us
        );
    }
    let batched_speedup = phases[1].qps / phases[0].qps;
    let cached_speedup = phases[2].qps / phases[0].qps;
    println!(
        "serve engine speedup (batch+cache): {cached_speedup:.2}x over single-request \
         serving at {clients} clients (batching alone: {batched_speedup:.2}x)"
    );

    let report = ServeReport {
        dataset: preset,
        num_users: d.num_users,
        num_items: d.num_items,
        top_n,
        threads: mbssl_tensor::pool::threads(),
        phases,
        batched_speedup: (batched_speedup * 100.0).round() / 100.0,
        cached_speedup: (cached_speedup * 100.0).round() / 100.0,
    };
    write_json(&opts, "serve", &report);
}
