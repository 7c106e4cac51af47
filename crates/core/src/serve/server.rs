//! The micro-batched request engine (DESIGN.md §15).
//!
//! Worker threads loop on [`BatchQueue::drain_into`], turning whatever
//! one drain hands them into:
//!
//! 1. **one session snapshot pass** (per-user shard locks only),
//! 2. **one batched encoder forward** for all of the batch's cache misses
//!    (`serve.forward` span); each row encodes bit-identically to a solo
//!    forward whatever lengths share the batch, see
//!    [`InferenceModel::encode_interests`],
//! 3. **one catalog-ranking call** for the whole batch
//!    ([`InferenceModel::rank_from_interests`]: single arena rental, one
//!    fused score-and-select pass over the catalog on the exhaustive path,
//!    arena-scratch probes on the ANN path),
//! 4. the re-rank chain and the per-request response sends
//!    (`serve.rerank` span).
//!
//! The checkpoint hot-swap is an `ArcSwap`-style epoch pointer: readers
//! clone an `Arc<EngineEpoch>` under a briefly-held `RwLock` read guard,
//! [`Server::swap_engine`] replaces it under the write guard and bumps
//! the epoch. In-flight batches keep serving on their cloned `Arc`, so
//! the old engine drains gracefully — it is freed when the last batch
//! holding it finishes. Session caches are epoch-keyed, so a swap lazily
//! invalidates every cached encoding without walking the store.
//!
//! `MBSSL_ANN_BUDGET_US` arms the probe-degradation policy: an integer
//! EWMA tracks per-request ANN time, and when it exceeds the budget —
//! or the queue backs up past one full batch — `nprobe` shrinks
//! proportionally for the next batch (never below 1), counted through
//! the `serve.ann_degraded` counter. Recall degrades; latency holds.

use std::collections::HashSet;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use mbssl_data::{Behavior, ItemId, Sequence, UserId};
use mbssl_telemetry as telemetry;
use telemetry::{Histogram, LatencyHistogram};

use crate::infer::{CatalogQuery, InferenceModel};
use crate::recommender::Recommendation;

use super::batcher::BatchQueue;
use super::metrics::{MetricsSnapshot, Stage, NUM_STAGES};
use super::rerank::{RerankChain, RerankContext};
use super::session::{SessionStore, UserSnapshot};

/// Server tuning, read from `MBSSL_SERVE_*` by [`ServeConfig::from_env`]
/// or set directly (tests, `exp_serve`).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Largest micro-batch one drain may collect (`MBSSL_SERVE_BATCH`,
    /// default 16). 1 disables cross-request batching.
    pub max_batch: usize,
    /// Straggler window after the first job of a batch
    /// (`MBSSL_SERVE_WAIT_US`, default 200 µs). Zero drains only what is
    /// already queued.
    pub wait: Duration,
    /// Worker threads (`MBSSL_SERVE_WORKERS`, default 2 — each forward
    /// already fans out over the tensor worker pool, so a few batch
    /// pipelines saturate the cores).
    pub workers: usize,
    /// Bounded queue capacity (`MBSSL_SERVE_QUEUE`, default
    /// `4 × max_batch`, at least 64).
    pub queue_capacity: usize,
    /// Per-request ANN latency budget in µs (`MBSSL_ANN_BUDGET_US`,
    /// default unset = never degrade).
    pub ann_budget_us: Option<u64>,
    /// Per-user interest cache (`MBSSL_SERVE_CACHE`, default on; `off`
    /// re-encodes every request — the honest setting for encoder
    /// throughput measurements).
    pub cache: bool,
    /// Hard-exclude already-seen items at retrieval (the
    /// `recommend_top_n` contract). [`Server::start`] turns this off
    /// automatically when the chain has a `seen` stage, which demotes
    /// instead of banning.
    pub exclude_seen: bool,
    /// Tail-sampling threshold: requests with an end-to-end latency at
    /// or above this many µs emit a structured JSONL record with their
    /// stage timings (`MBSSL_SERVE_SLOW_US`, default unset = off).
    pub slow_us: Option<u64>,
    /// Unconditional 1-in-N tail sampling: every Nth request emits a
    /// record regardless of latency (`MBSSL_SERVE_SAMPLE`, default
    /// unset = off). Combines with `slow_us` (either trigger fires).
    pub sample_every: Option<u64>,
    /// Where tail samples go: a JSONL file (appended; from
    /// `$MBSSL_RUN_DIR/serve_slow.jsonl` when the run ledger is
    /// active), or stderr when `None`.
    pub tail_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 16,
            wait: Duration::from_micros(200),
            workers: 2,
            queue_capacity: 64,
            ann_budget_us: None,
            cache: true,
            exclude_seen: true,
            slow_us: None,
            sample_every: None,
            tail_log: None,
        }
    }
}

impl ServeConfig {
    /// Reads the `MBSSL_SERVE_BATCH` / `MBSSL_SERVE_WAIT_US` /
    /// `MBSSL_SERVE_WORKERS` / `MBSSL_SERVE_QUEUE` /
    /// `MBSSL_ANN_BUDGET_US` / `MBSSL_SERVE_CACHE` /
    /// `MBSSL_SERVE_SLOW_US` / `MBSSL_SERVE_SAMPLE` environment (reading
    /// live, not cached — the server is constructed once per process).
    /// When `MBSSL_RUN_DIR` is set, tail samples append to
    /// `<run_dir>/serve_slow.jsonl` next to the run ledger; otherwise
    /// they go to stderr.
    pub fn from_env() -> ServeConfig {
        let parse = |name: &str| -> Option<u64> {
            std::env::var(name).ok().and_then(|v| v.parse().ok())
        };
        let max_batch = parse("MBSSL_SERVE_BATCH").map(|v| v.max(1) as usize).unwrap_or(16);
        ServeConfig {
            max_batch,
            wait: Duration::from_micros(parse("MBSSL_SERVE_WAIT_US").unwrap_or(200)),
            workers: parse("MBSSL_SERVE_WORKERS").map(|v| v.max(1) as usize).unwrap_or(2),
            queue_capacity: parse("MBSSL_SERVE_QUEUE")
                .map(|v| v.max(1) as usize)
                .unwrap_or((4 * max_batch).max(64)),
            ann_budget_us: parse("MBSSL_ANN_BUDGET_US"),
            cache: !matches!(
                std::env::var("MBSSL_SERVE_CACHE").as_deref(),
                Ok("off") | Ok("0") | Ok("none")
            ),
            exclude_seen: true,
            slow_us: parse("MBSSL_SERVE_SLOW_US"),
            sample_every: parse("MBSSL_SERVE_SAMPLE").filter(|&n| n > 0),
            tail_log: std::env::var("MBSSL_RUN_DIR")
                .ok()
                .filter(|d| !d.is_empty())
                .map(|d| PathBuf::from(d).join("serve_slow.jsonl")),
        }
    }
}

/// Why a submission failed.
#[derive(Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The server is shutting down (or a worker panicked mid-request).
    Closed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "server closed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One served recommendation response.
#[derive(Debug)]
pub struct ServeReply {
    /// The ranked recommendations.
    pub recs: Vec<Recommendation>,
    /// How many requests shared this request's micro-batch.
    pub batch_size: usize,
    /// Whether the user's cached encoding was reused (no forward).
    pub cache_hit: bool,
    /// Whether the ANN probe width was degraded under the latency budget.
    pub degraded: bool,
    /// Engine epoch that served this request.
    pub epoch: u64,
}

struct ServeJob {
    user: UserId,
    n: usize,
    tx: mpsc::SyncSender<ServeReply>,
    /// When `submit` pushed the job — the start of its queue stage and
    /// of its end-to-end (`total`) latency.
    enqueued: Instant,
}

/// A compiled engine pinned to a swap epoch.
struct EngineEpoch {
    engine: InferenceModel,
    epoch: u64,
}

/// Monotone counters + the batch-size and per-stage latency
/// histograms, shared by all workers. The histograms are **always on**
/// (independent of `MBSSL_TRACE`): the `metrics` snapshot and
/// `exp_serve` read them in untraced runs, and a record is a handful of
/// relaxed atomics — the span registry routing stays behind
/// `telemetry::enabled()` as before.
struct ServeStatsInner {
    requests: AtomicU64,
    batches: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    ann_degraded: AtomicU64,
    swaps: AtomicU64,
    tail_sampled: AtomicU64,
    /// Distribution of requests-per-batch (values ≤ 32 land in exact
    /// single-integer buckets, which covers the default `max_batch`).
    batch_hist: LatencyHistogram,
    /// One latency histogram per [`Stage`], indexed by `Stage as usize`;
    /// values are nanoseconds. Per-batch stages record once per request
    /// in the batch, so every stage's `count` equals `requests`.
    stages: [LatencyHistogram; NUM_STAGES],
    /// Monotone request sequence for 1-in-N tail sampling.
    sample_seq: AtomicU64,
}

/// A point-in-time copy of the server counters and histograms.
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Requests served.
    pub requests: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Requests answered from the per-user interest cache.
    pub cache_hits: u64,
    /// Requests that needed an encoder forward.
    pub cache_misses: u64,
    /// Requests served with a budget-degraded probe width.
    pub ann_degraded: u64,
    /// Checkpoint hot-swaps performed.
    pub swaps: u64,
    /// Slow/sampled requests written to the tail log.
    pub tail_sampled: u64,
    /// Distribution of requests-per-batch (exact for sizes ≤ 32).
    pub batch: Histogram,
    /// Per-[`Stage`] latency histograms in nanoseconds, indexed by
    /// `Stage as usize` (see [`ServeStats::stage`]). Every stage's
    /// count equals `requests`: per-batch stages (resolve, forward,
    /// rank) attribute their duration once per request in the batch.
    pub stages: Vec<Histogram>,
}

impl ServeStats {
    /// Mean requests per micro-batch.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Cache hits / requests.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.requests as f64
        }
    }

    /// The latency histogram for one pipeline stage (nanoseconds).
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }
}

struct ServerInner {
    engine: RwLock<Arc<EngineEpoch>>,
    epoch: AtomicU64,
    store: Arc<SessionStore>,
    chain: RerankChain,
    config: ServeConfig,
    exclude_seen: bool,
    queue: BatchQueue<ServeJob>,
    stats: ServeStatsInner,
    /// Integer EWMA of per-request ANN ranking time in µs (0 = no sample
    /// yet); `new = (7·old + sample) / 8`.
    ann_ewma_us: AtomicU64,
    /// When the server started (for snapshot uptime).
    started: Instant,
    /// Tail-sample sink, present iff `slow_us` or `sample_every` is set.
    tail: Option<TailSink>,
}

/// Where tail samples are written: a lazily-opened append-mode JSONL
/// file, or stderr when no path is configured.
struct TailSink {
    path: Option<PathBuf>,
    file: Mutex<Option<std::fs::File>>,
}

impl TailSink {
    fn write_line(&self, line: &str) {
        match &self.path {
            Some(path) => {
                let mut guard = self.file.lock().unwrap();
                if guard.is_none() {
                    if let Some(dir) = path.parent() {
                        let _ = std::fs::create_dir_all(dir);
                    }
                    *guard = std::fs::OpenOptions::new().create(true).append(true).open(path).ok();
                }
                if let Some(f) = guard.as_mut() {
                    let _ = writeln!(f, "{line}");
                }
            }
            None => eprintln!("{line}"),
        }
    }
}

/// The long-lived serving engine. Construct with [`Server::start`];
/// worker threads run until [`Server::shutdown`].
pub struct Server {
    inner: Arc<ServerInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Compiles nothing — takes an already-compiled engine (with any
    /// index attached), a session store, a re-rank chain, and the tuning
    /// config, and spawns the worker threads.
    pub fn start(
        engine: InferenceModel,
        store: Arc<SessionStore>,
        chain: RerankChain,
        config: ServeConfig,
    ) -> Server {
        assert_eq!(
            engine.num_items(),
            store.num_items(),
            "engine and session store disagree on the catalog size"
        );
        // A `seen` chain stage wants repeats demoted, not banned: soft
        // penalty replaces the hard exclude.
        let exclude_seen = config.exclude_seen && !chain.has_stage("seen");
        let max_batch = config.max_batch.max(1);
        let inner = Arc::new(ServerInner {
            engine: RwLock::new(Arc::new(EngineEpoch { engine, epoch: 0 })),
            epoch: AtomicU64::new(0),
            store,
            chain,
            exclude_seen,
            queue: BatchQueue::new(config.queue_capacity.max(max_batch)),
            stats: ServeStatsInner {
                requests: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
                ann_degraded: AtomicU64::new(0),
                swaps: AtomicU64::new(0),
                tail_sampled: AtomicU64::new(0),
                batch_hist: LatencyHistogram::new(),
                stages: std::array::from_fn(|_| LatencyHistogram::new()),
                sample_seq: AtomicU64::new(0),
            },
            ann_ewma_us: AtomicU64::new(0),
            started: Instant::now(),
            tail: (config.slow_us.is_some() || config.sample_every.is_some()).then(|| TailSink {
                path: config.tail_log.clone(),
                file: Mutex::new(None),
            }),
            config,
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("mbssl-serve-{i}"))
                    .spawn(move || worker_loop(inner))
                    .expect("spawning serve worker")
            })
            .collect();
        Server {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Ranks the catalog for `user`, blocking until a worker serves the
    /// micro-batch the request lands in. Callable from any number of
    /// threads; concurrent callers are what batching feeds on.
    pub fn submit(&self, user: UserId, n: usize) -> Result<ServeReply, ServeError> {
        assert!(n > 0);
        let (tx, rx) = mpsc::sync_channel(1);
        self.inner
            .queue
            .push(ServeJob { user, n, tx, enqueued: Instant::now() })
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Submits every `(user, n)` request concurrently, one scoped thread
    /// each, so they can share micro-batches, and returns the replies in
    /// request order.
    pub fn submit_all(&self, requests: &[(UserId, usize)]) -> Vec<Result<ServeReply, ServeError>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .map(|&(user, n)| scope.spawn(move || self.submit(user, n)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submit panics only on n == 0"))
                .collect()
        })
    }

    /// Appends one event to `user`'s session (invalidating only that
    /// user's cached encoding).
    pub fn ingest(&self, user: UserId, item: ItemId, behavior: Behavior) -> Result<(), String> {
        self.inner.store.ingest(user, item, behavior)
    }

    /// Hot-swaps the serving engine. The new engine serves every batch
    /// that snapshots after the swap; in-flight batches finish on the old
    /// one, which is freed when the last of them drops its `Arc` — a
    /// graceful drain with no barrier. Returns the new epoch.
    pub fn swap_engine(&self, engine: InferenceModel) -> u64 {
        assert_eq!(
            engine.num_items(),
            self.inner.store.num_items(),
            "swapped engine disagrees with the session store on catalog size"
        );
        let epoch = self.inner.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        *self.inner.engine.write().unwrap() = Arc::new(EngineEpoch { engine, epoch });
        self.inner.stats.swaps.fetch_add(1, Ordering::Relaxed);
        telemetry::counter_add("serve.swap", 1);
        epoch
    }

    /// The shared session store.
    pub fn store(&self) -> &Arc<SessionStore> {
        &self.inner.store
    }

    /// Pending (not yet drained) requests.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.len()
    }

    /// A point-in-time copy of the counters and histograms.
    pub fn stats(&self) -> ServeStats {
        let s = &self.inner.stats;
        ServeStats {
            requests: s.requests.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_misses: s.cache_misses.load(Ordering::Relaxed),
            ann_degraded: s.ann_degraded.load(Ordering::Relaxed),
            swaps: s.swaps.load(Ordering::Relaxed),
            tail_sampled: s.tail_sampled.load(Ordering::Relaxed),
            batch: s.batch_hist.snapshot(),
            stages: s.stages.iter().map(|h| h.snapshot()).collect(),
        }
    }

    /// A point-in-time [`MetricsSnapshot`] — counters, gauges, the
    /// batch-size histogram, and one latency histogram per [`Stage`] —
    /// for the `metrics` protocol command and `mbssl top`.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        // Per-request stage records land just after the reply send
        // unblocks the submitter, so a snapshot taken immediately after
        // a reply can catch a worker mid-record. Wait briefly for the
        // stage counts to catch up with the request counter — on a
        // quiesced server this makes "every stage covers every replied
        // request" exact; under live load the bounded wait just expires.
        for _ in 0..40 {
            let s = &self.inner.stats;
            let requests = s.requests.load(Ordering::Relaxed);
            if s.stages.iter().all(|h| h.count() >= requests) {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        let ewma = self.inner.ann_ewma_us.load(Ordering::Relaxed);
        let budget = self.inner.config.ann_budget_us;
        MetricsSnapshot {
            unix_time_ms: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            uptime_ms: self.inner.started.elapsed().as_millis() as u64,
            epoch: self.inner.epoch.load(Ordering::SeqCst),
            queue_depth: self.inner.queue.len() as u64,
            sessions: self.inner.store.len() as u64,
            ann_budget_us: budget,
            ann_ewma_us: ewma,
            ann_degraded_now: budget.is_some_and(|b| ewma > b),
            stats: self.stats(),
        }
    }

    /// Closes the queue, serves every already-enqueued request, joins the
    /// workers, and returns the final counters.
    pub fn shutdown(self) -> ServeStats {
        self.inner.queue.close();
        let workers = std::mem::take(&mut *self.workers.lock().unwrap());
        for handle in workers {
            let _ = handle.join();
        }
        self.stats()
    }
}

fn worker_loop(inner: Arc<ServerInner>) {
    let mut jobs: Vec<ServeJob> = Vec::with_capacity(inner.config.max_batch);
    loop {
        jobs.clear();
        let alive = {
            let _wait_sp = telemetry::span("serve.wait");
            inner
                .queue
                .drain_into(inner.config.max_batch.max(1), inner.config.wait, &mut jobs)
        };
        if !alive {
            break;
        }
        serve_batch(&inner, &mut jobs);
    }
}

/// Serves one drained micro-batch end to end. See the module docs for
/// the four phases; every span here is hierarchical under `serve.batch`.
///
/// Stage attribution (DESIGN.md §17): batch-level stages (resolve,
/// forward, rank) are timed once per batch and recorded once **per
/// request** (`record_n`), so every stage histogram's count equals the
/// request count; queue, rerank, reply, and total are timed per
/// request. The stage histograms are always on — the telemetry spans
/// remain the only part gated by `MBSSL_TRACE`.
fn serve_batch(inner: &ServerInner, jobs: &mut Vec<ServeJob>) {
    let r = jobs.len();
    debug_assert!(r > 0);
    let drained_at = Instant::now();
    let mut batch_sp = telemetry::span("serve.batch");
    batch_sp.add_bytes(r as u64);
    telemetry::gauge_set("serve.queue_depth", inner.queue.len() as u64);
    let stats = &inner.stats;
    stats.batches.fetch_add(1, Ordering::Relaxed);
    stats.requests.fetch_add(r as u64, Ordering::Relaxed);
    stats.batch_hist.record(r as u64);
    let queue_ns: Vec<u64> = jobs
        .iter()
        .map(|job| drained_at.saturating_duration_since(job.enqueued).as_nanos() as u64)
        .collect();

    let resolve_sp = telemetry::span("serve.resolve");
    // Engine snapshot: in-flight batches pin their epoch's engine.
    let snap = inner.engine.read().unwrap().clone();
    let engine = &snap.engine;
    let epoch = snap.epoch;
    let (k, d) = (engine.num_interests(), engine.dim());

    // Phase 1: session snapshots (shard locks only; encoding and ranking
    // below run lock-free on the copies).
    let sessions: Vec<UserSnapshot> = jobs
        .iter()
        .map(|job| inner.store.snapshot(job.user, epoch))
        .collect();

    // Phase 2: resolve cached encodings, then ONE batched forward for
    // every miss (a row encodes alike in any batch — see
    // `encode_interests`).
    let mut z_all = vec![0.0f32; r * k * d];
    let mut hit = vec![false; r];
    let mut misses: Vec<usize> = Vec::new();
    let cache_on = inner.config.cache;
    for (i, session) in sessions.iter().enumerate() {
        match session.cached.as_ref().filter(|_| cache_on) {
            Some(z) => {
                z_all[i * k * d..][..k * d].copy_from_slice(z);
                hit[i] = true;
                stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                misses.push(i);
                stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    drop(resolve_sp);
    let resolved_at = Instant::now();
    {
        let _fwd_sp = telemetry::span("serve.forward");
        let histories: Vec<&Sequence> = misses.iter().map(|&i| &sessions[i].history).collect();
        let z = engine.encode_interests(&histories);
        for (row, &i) in z.chunks_exact(k * d).zip(&misses) {
            z_all[i * k * d..][..k * d].copy_from_slice(row);
            if cache_on {
                inner
                    .store
                    .store_interests(jobs[i].user, sessions[i].version, epoch, row);
            }
        }
    }
    let forwarded_at = Instant::now();

    // Phase 3: probe-width policy, then one ranking call for the batch.
    let (nprobe_override, degraded) = effective_nprobe(inner, engine.attached_nprobe());
    if degraded {
        stats.ann_degraded.fetch_add(r as u64, Ordering::Relaxed);
        telemetry::counter_add("serve.ann_degraded", r as u64);
    }
    static NO_EXCLUDE: std::sync::OnceLock<HashSet<ItemId>> = std::sync::OnceLock::new();
    let no_exclude = NO_EXCLUDE.get_or_init(HashSet::new);
    let overscan = inner.chain.overscan();
    let num_items = engine.num_items();
    let queries: Vec<CatalogQuery<'_>> = jobs
        .iter()
        .zip(sessions.iter())
        .map(|(job, session)| CatalogQuery {
            n: job.n.saturating_mul(overscan).min(num_items),
            exclude: if inner.exclude_seen {
                &session.seen
            } else {
                no_exclude
            },
        })
        .collect();
    let rank_started = Instant::now();
    let ranked = {
        let _rank_sp = telemetry::span("serve.rank");
        engine.rank_from_interests(&z_all, &queries, num_items, nprobe_override)
    };
    if engine.attached_nprobe().is_some() && ranked.iter().any(|q| q.used_ann) {
        observe_ann_us(inner, rank_started.elapsed().as_micros() as u64 / r as u64);
    }
    let ranked_at = Instant::now();

    // Batch-level stages: attributed once per request so every stage
    // histogram covers every replied request.
    let n_req = r as u64;
    stats.stages[Stage::Resolve as usize]
        .record_n(resolved_at.duration_since(drained_at).as_nanos() as u64, n_req);
    stats.stages[Stage::Forward as usize]
        .record_n(forwarded_at.duration_since(resolved_at).as_nanos() as u64, n_req);
    stats.stages[Stage::Rank as usize]
        .record_n(ranked_at.duration_since(forwarded_at).as_nanos() as u64, n_req);

    // Phase 4: re-rank chain + responses.
    let mut rr_sp = telemetry::span("serve.rerank");
    rr_sp.add_bytes(r as u64);
    let popularity = |item: ItemId| inner.store.popularity(item);
    for (i, ((job, session), outcome)) in
        jobs.iter().zip(sessions.iter()).zip(ranked).enumerate()
    {
        let apply_started = Instant::now();
        let mut recs = outcome.recs;
        if !inner.chain.is_empty() {
            let ctx = RerankContext {
                seen: &session.seen,
                popularity: &popularity,
            };
            inner.chain.apply(&ctx, &mut recs);
            recs.truncate(job.n);
        }
        let send_started = Instant::now();
        // A dropped receiver (submitter gone) is not an error here.
        let _ = job.tx.send(ServeReply {
            recs,
            batch_size: r,
            cache_hit: hit[i],
            degraded,
            epoch,
        });
        let done = Instant::now();
        let rerank_ns = send_started.duration_since(apply_started).as_nanos() as u64;
        let reply_ns = done.duration_since(send_started).as_nanos() as u64;
        let total_ns = done.saturating_duration_since(job.enqueued).as_nanos() as u64;

        // Tail sampling: slow requests (and an optional 1-in-N sample)
        // emit a structured record with the full stage breakdown. This
        // runs BEFORE the stage-histogram records so that once the stage
        // counts cover a request, its tail record is durable too (the
        // quiescence wait in `metrics_snapshot` relies on that order).
        if let Some(tail) = &inner.tail {
            let sampled = match inner.config.sample_every {
                Some(every) => stats.sample_seq.fetch_add(1, Ordering::Relaxed) % every == 0,
                None => false,
            };
            let slow = inner.config.slow_us.is_some_and(|t| total_ns / 1_000 >= t);
            if slow || sampled {
                stats.tail_sampled.fetch_add(1, Ordering::Relaxed);
                tail.write_line(&tail_record(
                    if slow { "slow" } else { "sample" },
                    job,
                    r,
                    epoch,
                    hit[i],
                    degraded,
                    &[
                        queue_ns[i],
                        resolved_at.duration_since(drained_at).as_nanos() as u64,
                        forwarded_at.duration_since(resolved_at).as_nanos() as u64,
                        ranked_at.duration_since(forwarded_at).as_nanos() as u64,
                        rerank_ns,
                        reply_ns,
                        total_ns,
                    ],
                ));
            }
        }

        stats.stages[Stage::Queue as usize].record(queue_ns[i]);
        stats.stages[Stage::Rerank as usize].record(rerank_ns);
        stats.stages[Stage::Reply as usize].record(reply_ns);
        stats.stages[Stage::Total as usize].record(total_ns);
    }
}

/// The JSONL line for one tail sample (no trailing newline). Stage
/// timings are µs, in [`Stage::ALL`] order; goes to the run ledger
/// (`serve_slow.jsonl`), never into trace files, whose parser rejects
/// unknown record kinds.
fn tail_record(
    reason: &str,
    job: &ServeJob,
    batch_size: usize,
    epoch: u64,
    cache_hit: bool,
    degraded: bool,
    stage_ns: &[u64; NUM_STAGES],
) -> String {
    let unix_time_ms = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut s = format!(
        "{{\"kind\":\"serve_slow\",\"reason\":\"{reason}\",\"unix_time_ms\":{unix_time_ms},\"user\":{},\"n\":{},\"batch_size\":{batch_size},\"epoch\":{epoch},\"cache_hit\":{cache_hit},\"degraded\":{degraded}",
        job.user, job.n,
    );
    for (stage, ns) in Stage::ALL.iter().zip(stage_ns) {
        s.push_str(&format!(",\"{}_us\":{}", stage.name(), ns / 1_000));
    }
    s.push('}');
    s
}

/// The `MBSSL_ANN_BUDGET_US` policy: shrink the probe width
/// proportionally when the ANN EWMA exceeds the budget, and halve it
/// when the queue backs up past one full batch. Returns `(override,
/// degraded)` — `None` means "use the attached width".
fn effective_nprobe(inner: &ServerInner, base: Option<usize>) -> (Option<usize>, bool) {
    let (Some(base), Some(budget)) = (base, inner.config.ann_budget_us) else {
        return (None, false);
    };
    let mut eff = base;
    let ewma = inner.ann_ewma_us.load(Ordering::Relaxed);
    if ewma > budget {
        eff = ((base as u64 * budget / ewma) as usize).max(1);
    }
    if inner.queue.len() > inner.config.max_batch {
        eff = (eff / 2).max(1);
    }
    if eff < base {
        (Some(eff), true)
    } else {
        (None, false)
    }
}

fn observe_ann_us(inner: &ServerInner, sample_us: u64) {
    let old = inner.ann_ewma_us.load(Ordering::Relaxed);
    let new = if old == 0 {
        sample_us.max(1)
    } else {
        (old * 7 + sample_us) / 8
    };
    inner.ann_ewma_us.store(new.max(1), Ordering::Relaxed);
}
