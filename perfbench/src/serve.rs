//! The `serve-cold` and `serve-zipf` workloads: a closed loop of one
//! client thread per core calling `Server::submit` (and, on serve-zipf,
//! `Server::ingest`) against a seeded, untrained model.
//!
//! Each client owns a disjoint share of the users, so a client's ingests
//! and requests for one user are ordered and every reply can be checked
//! against the history the client knows the user has. A run is several
//! rounds; in each the server is set up afresh and every client sends the
//! same fixed number of seeded operations back to back, with no think
//! time. Throughput is replies per CPU-second the process used (see
//! [`crate::cpu`]); the wall-clock rate and latencies are reported beside
//! it. Traced, the run replays the same seeded streams through the direct
//! calls the server makes — `SessionStore::snapshot`, `encode_interests` /
//! `store_interests`, `rank_from_interests` — with `probe_into` timed
//! beside them and kept out of the traced wall time, since
//! `rank_from_interests` probes the attached index itself.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mbssl_core::infer::CatalogQuery;
use mbssl_core::recommender::Recommendation;
use mbssl_core::serve::{RerankChain, ServeConfig, Server, SessionStore, Stage};
use mbssl_core::{BehaviorSchema, InferenceModel, IvfIndex, Mbmissl};
use mbssl_data::format::MbdsFile;
use mbssl_data::{Behavior, Dataset, ItemId, Sequence, UserId};

use crate::sample::{permutation, SplitMix64, Zipf};
use crate::stats::{median, overhead_pct, quantile, recall, Attribution};
use crate::{cpu, ms, Outcome};

/// Users in the generated log (the `scale-1m` preset's size).
pub const USERS: usize = 1_000_000;
/// Rounds per untraced run. Each round sets the server up afresh and
/// sends the same seeded operations, so every round does the same work;
/// `setup_s` is the median set-up and the throughput the median of the
/// rounds the host left alone (see [`cpu::least_stolen`]). A set-up and
/// its teardown take 3 to 4 s at this store size, which bounds how many
/// rounds fit in one run.
const ROUNDS: usize = 3;
/// Rounds of a traced run, which reads its layer figures from one round
/// and then replays that round's operations by direct calls.
const TRACED_ROUNDS: usize = 1;
/// Rounds the throughput is taken from, at least.
const MIN_KEPT: usize = 2;
/// Recommendations per request.
const TOP_N: usize = 10;
/// Zipf exponent of user popularity on serve-zipf.
const ZIPF_S: f64 = 1.0;
/// Share of serve-zipf operations that are ingests.
const INGEST_SHARE: f64 = 0.1;
/// Unmeasured operations per client before the measured phase.
const WARMUP_OPS: usize = 64;
/// One request in this many is kept for the direct-call and recall checks.
const SAMPLE_EVERY: usize = 16;
/// Cap on kept samples per client.
const SAMPLE_CAP: usize = 128;
/// Salts keeping the permutation and the client streams apart.
const PERM_SALT: u64 = 0x9e12;
const STREAM_SALT: u64 = 0x57e4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Cold,
    Zipf,
}

impl Kind {
    /// Measured operations per client for each second of `--seconds`,
    /// shared out over the rounds: about what one client completes per
    /// second on a 2-vCPU host, so the rounds' measured phases add up to
    /// about `--seconds`. The work is a fixed count rather than whatever
    /// fits in a timed window because on serve-zipf the interest cache
    /// warms with every request, so a faster run would otherwise also
    /// serve a larger share of hits.
    fn ops_per_client_second(self) -> usize {
        match self {
            Kind::Cold => 200,
            Kind::Zipf => 700,
        }
    }
}

/// The server's configuration, set field by field (never from the
/// environment).
fn serve_config() -> ServeConfig {
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

#[derive(Clone, Copy)]
enum Op {
    Request(UserId),
    Ingest(UserId, ItemId),
}

/// One client's seeded operation stream over its own share of the users.
struct OpStream {
    rng: SplitMix64,
    users: Vec<UserId>,
    zipf: Option<Zipf>,
    cursor: usize,
    num_items: usize,
}

impl OpStream {
    /// The streams of all `clients`: client `c` owns every `clients`-th
    /// user of a seeded permutation of the store.
    fn all(
        kind: Kind,
        seed: u64,
        clients: usize,
        num_users: usize,
        num_items: usize,
    ) -> Vec<OpStream> {
        let perm = permutation(num_users, seed ^ PERM_SALT);
        (0..clients)
            .map(|c| {
                let users: Vec<UserId> = perm.iter().skip(c).step_by(clients).copied().collect();
                OpStream {
                    rng: SplitMix64::stream(seed ^ STREAM_SALT, c as u64),
                    zipf: (kind == Kind::Zipf).then(|| Zipf::new(users.len(), ZIPF_S)),
                    users,
                    cursor: 0,
                    num_items,
                }
            })
            .collect()
    }

    fn next(&mut self) -> Op {
        match &self.zipf {
            None => {
                let user = self.users[self.cursor % self.users.len()];
                self.cursor += 1;
                Op::Request(user)
            }
            Some(zipf) => {
                let ingest = self.rng.next_f64() < INGEST_SHARE;
                let user = self.users[zipf.sample(&mut self.rng)];
                if ingest {
                    Op::Ingest(user, 1 + self.rng.below(self.num_items) as ItemId)
                } else {
                    Op::Request(user)
                }
            }
        }
    }
}

/// What one serving set-up built, with the timing of each part.
struct Setup {
    dataset: Dataset,
    model: Mbmissl,
    index_bytes: Option<Vec<u8>>,
    server: Server,
    open_ms: f64,
    compile_ms: f64,
    build_ms: f64,
    session_load_ms: f64,
    start_ms: f64,
}

impl Setup {
    /// The user-visible set-up time: the timed parts only, not the copy
    /// of the index the checks keep.
    fn seconds(&self) -> f64 {
        (self.open_ms + self.compile_ms + self.build_ms + self.session_load_ms + self.start_ms)
            / 1e3
    }
}

fn setup(path: &Path, kind: Kind) -> Result<Setup, String> {
    let t = Instant::now();
    let file = MbdsFile::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    let dataset = file.to_dataset();
    drop(file);
    let open_ms = ms(t.elapsed());

    let t = Instant::now();
    let schema = BehaviorSchema::new(dataset.behaviors.clone(), dataset.target_behavior);
    let model = Mbmissl::new(dataset.num_items, schema, crate::model_config());
    let mut engine = InferenceModel::compile_with_mode(&model, mbssl_tensor::quant::QuantMode::Off);
    let compile_ms = ms(t.elapsed());

    let (mut build_ms, mut index_bytes) = (0.0, None);
    if kind == Kind::Zipf {
        let t = Instant::now();
        let index = engine.build_index(crate::MODEL_SEED);
        build_ms = ms(t.elapsed());
        let mut bytes = Vec::new();
        index
            .save(&mut bytes)
            .map_err(|e| format!("copying the index: {e}"))?;
        index_bytes = Some(bytes);
        let t = Instant::now();
        engine
            .attach_index(index)
            .map_err(|e| format!("attaching the index: {e}"))?;
        build_ms += ms(t.elapsed());
    }

    let t = Instant::now();
    let store = Arc::new(SessionStore::from_dataset(&dataset));
    let session_load_ms = ms(t.elapsed());
    let t = Instant::now();
    let server = Server::start(engine, store, RerankChain::empty(), serve_config());
    let start_ms = ms(t.elapsed());
    Ok(Setup {
        dataset,
        model,
        index_bytes,
        server,
        open_ms,
        compile_ms,
        build_ms,
        session_load_ms,
        start_ms,
    })
}

fn load_index(bytes: &[u8]) -> IvfIndex {
    IvfIndex::load(&mut &bytes[..]).expect("the index copy loads")
}

/// A reply kept for the direct-call and recall checks, with the history
/// the user had when the request was made.
struct Sample {
    history: Sequence,
    recs: Vec<Recommendation>,
}

#[derive(Default)]
struct ClientResult {
    /// Latency of each measured request, in ns.
    latencies_ns: Vec<u64>,
    ops: u64,
    ingests: u64,
    failed: u64,
    cache_hits: u64,
    samples: Vec<Sample>,
}

/// The user's history as the client knows it: the log plus its own ingests.
fn history_of(
    dataset: &Dataset,
    ingested: &HashMap<UserId, Vec<ItemId>>,
    user: UserId,
) -> Sequence {
    let mut h = dataset.sequences[user as usize].clone();
    for &item in ingested.get(&user).map(Vec::as_slice).unwrap_or(&[]) {
        h.push(item, Behavior::Click);
    }
    h
}

fn client(
    server: &Server,
    dataset: &Dataset,
    mut stream: OpStream,
    warmup: &Barrier,
    ops: usize,
) -> ClientResult {
    let mut res = ClientResult::default();
    let mut ingested: HashMap<UserId, Vec<ItemId>> = HashMap::new();
    let mut sampler = SplitMix64::new(stream.rng.next_u64());
    let mut step = |res: &mut ClientResult, measured: bool| {
        res.ops += 1;
        match stream.next() {
            Op::Ingest(user, item) => {
                res.ingests += 1;
                match server.ingest(user, item, Behavior::Click) {
                    Ok(()) => ingested.entry(user).or_default().push(item),
                    Err(_) => res.failed += 1,
                }
            }
            Op::Request(user) => {
                let t = Instant::now();
                let reply = server.submit(user, TOP_N);
                let ns = t.elapsed().as_nanos() as u64;
                let Ok(reply) = reply else {
                    res.failed += 1;
                    return;
                };
                let own = ingested.get(&user).map(Vec::as_slice).unwrap_or(&[]);
                let seen = |item: &ItemId| {
                    dataset.sequences[user as usize].items.contains(item) || own.contains(item)
                };
                if reply.recs.len() != TOP_N || reply.recs.iter().any(|r| seen(&r.item)) {
                    res.failed += 1;
                }
                if measured {
                    res.latencies_ns.push(ns);
                    res.cache_hits += reply.cache_hit as u64;
                }
                if res.samples.len() < SAMPLE_CAP && sampler.below(SAMPLE_EVERY) == 0 {
                    let history = history_of(dataset, &ingested, user);
                    res.samples.push(Sample {
                        history,
                        recs: reply.recs,
                    });
                }
            }
        }
    };
    for _ in 0..WARMUP_OPS {
        step(&mut res, false);
    }
    warmup.wait();
    for _ in 0..ops {
        step(&mut res, true);
    }
    res
}

/// One round's measured phase and what each client saw in it.
struct Round {
    window: cpu::Window,
    results: Vec<ClientResult>,
    mean_batch: f64,
}

impl Round {
    fn requests(&self) -> u64 {
        self.results
            .iter()
            .map(|r| r.latencies_ns.len() as u64)
            .sum()
    }
}

/// Runs one client per stream against the set-up's server, each sending
/// `per_client` measured operations after its warm-up; measures from the
/// moment all have warmed up until the last one is done.
fn drive(
    s: &Setup,
    streams: Vec<OpStream>,
    per_client: usize,
) -> Result<(Vec<ClientResult>, cpu::Window), String> {
    let warmup = Barrier::new(streams.len() + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                let (server, dataset, warmup) = (&s.server, &s.dataset, &warmup);
                scope.spawn(move || client(server, dataset, stream, warmup, per_client))
            })
            .collect();
        warmup.wait();
        cpu::measure(|| {
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    })
}

/// Ranks one history the way a served request is ranked, by direct calls.
fn rank_direct(engine: &InferenceModel, history: &Sequence) -> (Vec<Recommendation>, bool) {
    let seen: HashSet<ItemId> = history.items.iter().copied().collect();
    let z = engine.encode_interests(&[history]);
    let query = CatalogQuery {
        n: TOP_N,
        exclude: &seen,
    };
    let mut ranked = engine.rank_from_interests(&z, &[query], engine.num_items(), None);
    let q = ranked.pop().expect("one query, one result");
    (q.recs, q.used_ann)
}

fn same_recs(a: &[Recommendation], b: &[Recommendation]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits())
}

pub fn run(
    path: &Path,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let per_client = kind.ops_per_client_second() * seconds as usize / ROUNDS;
    let (mut setups, mut rounds) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..if trace { TRACED_ROUNDS } else { ROUNDS } {
        drop(last.take());
        let s = setup(path, kind)?;
        setups.push([
            s.seconds(),
            s.open_ms,
            s.compile_ms,
            s.build_ms,
            s.session_load_ms,
        ]);
        let (num_users, num_items) = (s.dataset.num_users, s.dataset.num_items);
        let streams = OpStream::all(kind, seed, clients, num_users, num_items);
        mbssl_tensor::alloc::reset_stats();
        let (results, window) = drive(&s, streams, per_client)?;
        let alloc = mbssl_tensor::alloc::stats();
        let stats = s.server.shutdown();
        if kind == Kind::Cold {
            out.check("serve-cold: no cache hit", stats.cache_hits == 0);
        }
        out.attempted += results.iter().map(|r| r.ops).sum::<u64>();
        out.failed += results.iter().map(|r| r.failed).sum::<u64>();
        rounds.push(Round {
            window,
            results,
            mean_batch: stats.mean_batch(),
        });
        last = Some((s.dataset, s.model, s.index_bytes, stats, alloc));
    }
    let (dataset, model, index_bytes, stats, alloc) = last.expect("at least one round");
    let (num_users, num_items) = (dataset.num_users, dataset.num_items);
    let col = |i: usize| median(&setups.iter().map(|r| r[i]).collect::<Vec<_>>());
    out.set("setup_s", col(0));
    out.set("data.open_ms", col(1));
    out.set("infer.compile_ms", col(2));
    out.set("ann.build_ms", col(3));
    out.set("serve.session_load_ms", col(4));

    let kept = cpu::least_stolen(
        rounds
            .iter()
            .enumerate()
            .map(|(i, r)| (r.window.steal_pct, i))
            .collect(),
        MIN_KEPT,
    );
    for (i, r) in rounds.iter().enumerate() {
        out.note(format!(
            "property {kind:?} round {i}: {} replies, mean batch {:.2}, {:.2} s wall, {:.2} s process CPU, host steal {:.1}%, {:.1} replies per CPU-second, {:.1} per wall second{}",
            r.requests(),
            r.mean_batch,
            r.window.wall_s,
            r.window.cpu_s,
            r.window.steal_pct,
            r.requests() as f64 / r.window.cpu_s,
            r.requests() as f64 / r.window.wall_s,
            if kept.contains(&i) { "" } else { " (dropped: host steal)" }
        ));
    }
    let rates: Vec<f64> = kept
        .iter()
        .map(|&i| rounds[i].requests() as f64 / rounds[i].window.cpu_s)
        .collect();
    let mut latencies: Vec<u64> = kept
        .iter()
        .flat_map(|&i| rounds[i].results.iter())
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    latencies.sort_unstable();
    if latencies.is_empty() {
        return Err("no request completed in the measured phase".into());
    }
    // Every round sends the same operations; the last one's results
    // stand for the run in the property and sample checks.
    let results = &rounds.last().expect("at least one round").results;
    let requests: u64 = results.iter().map(|r| r.latencies_ns.len() as u64).sum();
    let ops: u64 = results.iter().map(|r| r.ops).sum();
    let ingests: u64 = results.iter().map(|r| r.ingests).sum();
    let hits: u64 = results.iter().map(|r| r.cache_hits).sum();

    // Direct-call and recall checks on the last round's sampled replies,
    // outside timing.
    let mut direct = InferenceModel::compile_with_mode(&model, mbssl_tensor::quant::QuantMode::Off);
    let exhaustive = InferenceModel::compile_with_mode(&model, mbssl_tensor::quant::QuantMode::Off);
    if let Some(bytes) = &index_bytes {
        direct
            .attach_index(load_index(bytes))
            .map_err(|e| format!("attaching the index: {e}"))?;
    }
    let (mut equal, mut recalls, mut ann_served) = (0usize, Vec::new(), 0usize);
    let samples: Vec<&Sample> = results.iter().flat_map(|r| r.samples.iter()).collect();
    for sample in &samples {
        let (recs, used_ann) = rank_direct(&direct, &sample.history);
        equal += same_recs(&recs, &sample.recs) as usize;
        ann_served += used_ann as usize;
        let (truth, _) = rank_direct(&exhaustive, &sample.history);
        let ids = |r: &[Recommendation]| r.iter().map(|x| x.item).collect::<Vec<_>>();
        recalls.push(recall(&ids(&sample.recs), &ids(&truth)));
    }
    out.check("serve: sampled replies exist", !samples.is_empty());
    out.check(
        "serve: sampled replies equal the direct-call ranking",
        equal == samples.len(),
    );
    let ann_pct = 100.0 * ann_served as f64 / samples.len().max(1) as f64;
    let hit_pct = 100.0 * hits as f64 / requests as f64;
    let ingest_pct = 100.0 * ingests as f64 / ops.max(1) as f64;
    if kind == Kind::Cold {
        out.check("serve-cold: no ANN-served reply", ann_served == 0);
    }
    out.note(format!(
        "property {kind:?}: {clients} clients, {num_users} users, {num_items} items, {requests} measured requests, {ingests} ingests ({ingest_pct:.1}% of {ops} ops), cache hits {hit_pct:.1}%, ANN-served {ann_pct:.1}% of {} sampled replies, mean batch {:.2}",
        samples.len(),
        stats.mean_batch()
    ));

    let p50 = quantile(&latencies, 0.50) as f64 / 1e3;
    let p90 = quantile(&latencies, 0.90) as f64 / 1e3;
    out.note(format!(
        "property {kind:?}: {} latency samples, p50 {p50:.0} us, p90 {p90:.0} us, p99 {:.0} us",
        latencies.len(),
        quantile(&latencies, 0.99) as f64 / 1e3
    ));
    if !trace {
        out.set("throughput_per_cpu_s", median(&rates));
        out.set(
            "quality_at10",
            recalls.iter().sum::<f64>() / recalls.len().max(1) as f64,
        );
        return Ok(out);
    }

    let queue = stats.stage(Stage::Queue);
    out.set(
        "serve.stats_queue_p50_us",
        queue.quantile(0.50) as f64 / 1e3,
    );
    out.set(
        "serve.stats_queue_p90_us",
        queue.quantile(0.90) as f64 / 1e3,
    );
    out.set("serve.mean_batch", stats.mean_batch());
    out.set("serve.cache_hit_pct", 100.0 * stats.cache_hit_rate());
    out.set("tensor.alloc_hit_pct", alloc.hit_rate_pct());

    // Replay the same streams by direct calls, twice over, one operation
    // of each replay in turn: one untimed inside, the other timed call by
    // call. Taking turns cancels the host's drift out of the overhead, and
    // swapping which goes first cancels the second one's warmer caches. The side probe is work the server does not do twice, so
    // its time stays out of the traced wall.
    let index = index_bytes.as_deref().map(load_index);
    let (plain_store, traced_store) = (
        SessionStore::from_dataset(&dataset),
        SessionStore::from_dataset(&dataset),
    );
    let mut plain_streams = OpStream::all(kind, seed, clients, num_users, num_items);
    let mut traced_streams = OpStream::all(kind, seed, clients, num_users, num_items);
    let mut tr = Traced::default();
    // One round's operations, taken in the clients' turn.
    let n_ops = per_client * clients;
    let mut untraced_ns = 0u64;
    for op in 0..n_ops {
        let c = op % clients;
        for traced in [op % 2 == 1, op % 2 == 0] {
            let t = Instant::now();
            if traced {
                replay_op(
                    &direct,
                    index.as_ref(),
                    &traced_store,
                    &mut traced_streams[c],
                    Some(&mut tr),
                );
                tr.attr.wall_ns += t.elapsed().as_nanos() as u64;
            } else {
                replay_op(&direct, None, &plain_store, &mut plain_streams[c], None);
                untraced_ns += t.elapsed().as_nanos() as u64;
            }
        }
    }
    tr.attr.wall_ns -= tr.probe_ns;
    let per = |name, count: u64| {
        if count == 0 {
            0.0
        } else {
            tr.attr.part_ns(name) as f64 / count as f64 / 1e3
        }
    };
    out.set("serve.snapshot_us", per("serve.snapshot", tr.requests));
    out.set("infer.encode_us", per("infer.encode", tr.encodes));
    out.set("infer.rank_us", per("infer.rank", tr.requests));
    out.set(
        "ann.probe_us",
        tr.probe_ns as f64 / tr.probes.max(1) as f64 / 1e3,
    );
    out.set("serve.ingest_us", per("serve.ingest", tr.ingests));
    out.set(
        "ann.candidates_per_query",
        tr.candidates as f64 / tr.probes.max(1) as f64,
    );
    out.set(
        "ann.used_pct",
        100.0 * tr.used_ann as f64 / tr.requests.max(1) as f64,
    );
    tr.direct_ns.sort_unstable();
    if !tr.direct_ns.is_empty() {
        out.set(
            "serve.queue_p50_us",
            p50 - quantile(&tr.direct_ns, 0.50) as f64 / 1e3,
        );
        out.set(
            "serve.queue_p90_us",
            p90 - quantile(&tr.direct_ns, 0.90) as f64 / 1e3,
        );
    }
    out.set("trace.unattributed_pct", tr.attr.unattributed_pct());
    out.set(
        "trace.overhead_pct",
        overhead_pct(tr.attr.wall_ns, untraced_ns),
    );
    out.note(format!(
        "property {kind:?} replay: {n_ops} ops, {} requests, {} encodes, {} ingests",
        tr.requests, tr.encodes, tr.ingests
    ));
    out.attribution = Some(tr.attr);
    Ok(out)
}

/// Timings and counts of the traced replay.
#[derive(Default)]
struct Traced {
    attr: Attribution,
    requests: u64,
    encodes: u64,
    ingests: u64,
    probes: u64,
    /// Time of the side probes, which no attribution part covers.
    probe_ns: u64,
    candidates: u64,
    used_ann: u64,
    /// Per request: snapshot + encode + store + rank, the server's work
    /// for it without batching or queueing.
    direct_ns: Vec<u64>,
}

/// Starts a lap when tracing; an untraced replay reads no clock.
fn lap_start(tr: &Option<&mut Traced>) -> Option<Instant> {
    tr.is_some().then(Instant::now)
}

/// Ends a lap: charges its time to `layer` and returns it (0 untraced).
fn lap(tr: &mut Option<&mut Traced>, layer: &'static str, t: Option<Instant>) -> u64 {
    match (tr, t) {
        (Some(tr), Some(t)) => {
            let ns = t.elapsed().as_nanos() as u64;
            tr.attr.add(layer, ns);
            ns
        }
        _ => 0,
    }
}

/// One operation by direct calls, timed call by call when `tr` is given.
fn replay_op(
    engine: &InferenceModel,
    index: Option<&IvfIndex>,
    store: &SessionStore,
    stream: &mut OpStream,
    mut tr: Option<&mut Traced>,
) {
    match stream.next() {
        Op::Ingest(user, item) => {
            let t = lap_start(&tr);
            store
                .ingest(user, item, Behavior::Click)
                .expect("a generated ingest is valid");
            lap(&mut tr, "serve.ingest", t);
            if let Some(tr) = tr {
                tr.ingests += 1;
            }
        }
        Op::Request(user) => {
            let t = lap_start(&tr);
            let snap = store.snapshot(user, 0);
            let mut direct = lap(&mut tr, "serve.snapshot", t);
            let encoded = snap.cached.is_none();
            let z = match snap.cached {
                Some(z) => z,
                None => {
                    let t = lap_start(&tr);
                    let z = engine.encode_interests(&[&snap.history]);
                    direct += lap(&mut tr, "infer.encode", t);
                    let t = lap_start(&tr);
                    store.store_interests(user, snap.version, 0, &z);
                    direct += lap(&mut tr, "serve.store_interests", t);
                    z
                }
            };
            let mut probe = None;
            if let (Some(index), Some(nprobe), true) =
                (index, engine.attached_nprobe(), tr.is_some())
            {
                let t = Instant::now();
                let mut cands = Vec::new();
                index.probe_into(&z, engine.num_interests(), nprobe, &mut cands);
                probe = Some((cands.len() as u64, t.elapsed().as_nanos() as u64));
            }
            let t = lap_start(&tr);
            let query = CatalogQuery {
                n: TOP_N,
                exclude: &snap.seen,
            };
            let ranked = engine.rank_from_interests(&z, &[query], engine.num_items(), None);
            direct += lap(&mut tr, "infer.rank", t);
            if let Some(tr) = tr {
                tr.requests += 1;
                tr.encodes += encoded as u64;
                tr.used_ann += ranked.iter().filter(|q| q.used_ann).count() as u64;
                if let Some((candidates, ns)) = probe {
                    tr.probes += 1;
                    tr.candidates += candidates;
                    tr.probe_ns += ns;
                }
                tr.direct_ns.push(direct);
            }
        }
    }
}
