//! `mbssl` command-line interface: train, evaluate, and serve
//! recommendations on your own TSV interaction logs, plus trace analysis
//! and run-ledger reporting.
//!
//! ```text
//! mbssl train     --data log.tsv --target favorite --model out.ckpt [--epochs N] [--dim D] [--interests K] [--run-dir DIR]
//! mbssl evaluate  --data log.tsv --target favorite --model out.ckpt
//! mbssl recommend --data log.tsv --target favorite --model out.ckpt --user 42 --top 10 [--index out.ckpt.ivf]
//! mbssl serve     --data log.tsv --target favorite --model out.ckpt [--replay FILE] [--rerank SPEC] [--top N] [--index out.ckpt.ivf] [--metrics-out FILE]
//! mbssl top       snapshot.json [--interval MS] [--frames N] [--no-clear]
//! mbssl dataset stats log.tsv|log.mbds [--target favorite]
//! mbssl synth     --out log.tsv [--preset taobao|yelp] [--scale F] [--seed S]
//! mbssl index build --data log.tsv --target favorite --model out.ckpt [--out out.ckpt.ivf] [--nlist N]
//! mbssl index stats INDEX.ivf
//! mbssl trace summary trace.jsonl [--section S] [--collapsed OUT.folded]
//! mbssl trace diff base.jsonl new.jsonl [--tol PCT] [--metric mean|total|share] [--min-share PCT]
//! mbssl report RUN_DIR [RUN_DIR...]
//! ```
//!
//! TSV format: `user \t item \t behavior \t timestamp` with behaviors in
//! {click, cart, favorite, purchase}; a header line is allowed.
//!
//! A command reads only the files its flags name. `--data` is parsed as a
//! TSV log and 5/3-core filtered, or opened as is when it names a `.mbds`
//! file (from `mbssl convert`). `recommend` and `serve` rank through an
//! IVF index only when `--index` names one; a serve `swap` attaches that
//! same index to the new checkpoint.
//!
//! A checkpoint records the model config it was trained with, so
//! `--dim` / `--interests` are `train` flags only: every scoring command
//! (and a serve `swap`) builds the model the checkpoint describes.
//!
//! `mbssl serve` runs the micro-batched request engine (DESIGN.md §15)
//! over the line protocol of `mbssl::core::serve::protocol` (`rec`,
//! `event`, `swap`, `mark`, `stats`, `metrics`, `quit`), read from
//! `--replay FILE` or stdin. Consecutive `rec` lines form one concurrent
//! wave, whose replies print in input order; EOF shuts down like `quit`.
//!
//! Recommendation lines on stdout match `mbssl recommend` exactly; all
//! serving diagnostics (batch sizes, cache hits, counters, the
//! steady-state allocation report) go to stderr, so replay output is
//! byte-diffable across batching configurations. Tuning comes from the
//! `MBSSL_SERVE_BATCH` / `MBSSL_SERVE_WAIT_US` / `MBSSL_SERVE_WORKERS` /
//! `MBSSL_SERVE_CACHE` / `MBSSL_ANN_BUDGET_US` environment; tail
//! sampling of slow requests from `MBSSL_SERVE_SLOW_US` /
//! `MBSSL_SERVE_SAMPLE` (records land in `MBSSL_RUN_DIR/serve_slow.jsonl`
//! or on stderr). `--metrics-out FILE` rewrites FILE with a JSON snapshot
//! every `--metrics-interval` ms (default 1000) for `mbssl top FILE`.
//!
//! Every command accepts `--trace MODE` (`off`, `summary`, or
//! `jsonl:<path>`), equivalent to setting `MBSSL_TRACE`: `summary` prints a
//! span table to stderr on exit, `jsonl:<path>` appends machine-readable
//! trace records to `<path>`. `mbssl trace summary`/`diff` analyze those
//! JSONL files after the fact; `trace diff` exits nonzero when any span
//! regresses beyond the tolerance (`--tol`, default 2%).

use std::collections::HashSet;
use std::io::Write;
use std::process::ExitCode;

use mbssl::core::serve::protocol::write_recs;
use mbssl::core::{
    evaluate, recommend_top_n, BehaviorSchema, InferenceModel, IvfIndex, Mbmissl, ModelConfig,
    TrainConfig, Trainer,
};
use mbssl::data::container::write_atomic;
use mbssl::data::format::MbdsFile;
use mbssl::data::io::load_tsv;
use mbssl::data::preprocess::{
    convert_tsv_in_memory, convert_tsv_streaming, k_core, leave_one_out, ConvertError,
    SplitConfig,
};
use mbssl::data::sampler::{EvalCandidates, NegativeSampler};
use mbssl::data::types::DatasetStats;
use mbssl::data::{Behavior, Dataset};
use mbssl::trace::{collapsed_stacks, diff, render_diff, render_summary, DiffMetric, DiffOptions, Trace};

struct Args {
    command: String,
    /// Bare (non `--flag`) arguments after the command, in order — e.g.
    /// the subcommand and file paths of `trace diff base.jsonl new.jsonl`.
    positionals: Vec<String>,
    values: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Option<Args> {
        let mut argv = std::env::args().skip(1);
        let command = argv.next()?;
        let mut positionals = Vec::new();
        let mut values = Vec::new();
        let mut key: Option<String> = None;
        for arg in argv {
            if let Some(stripped) = arg.strip_prefix("--") {
                if let Some(k) = key.take() {
                    values.push((k, "true".to_string()));
                }
                key = Some(stripped.to_string());
            } else if let Some(k) = key.take() {
                values.push((k, arg));
            } else {
                positionals.push(arg);
            }
        }
        if let Some(k) = key.take() {
            values.push((k, "true".to_string()));
        }
        Some(Args { command, positionals, values })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn positional(&self, index: usize, what: &str) -> Result<&str, String> {
        self.positionals
            .get(index)
            .map(|s| s.as_str())
            .ok_or_else(|| format!("missing {what} argument"))
    }
}

fn usage() {
    eprintln!(
        "usage:\n  \
         mbssl train     --data LOG.tsv --target BEHAVIOR --model OUT.ckpt \
[--epochs N] [--dim D] [--interests K] [--seed S] [--run-dir DIR]\n  \
         mbssl evaluate  --data LOG.tsv --target BEHAVIOR --model IN.ckpt\n  \
         mbssl recommend --data LOG.tsv --target BEHAVIOR --model IN.ckpt --user U [--top N] [--index PATH.ivf]\n  \
         mbssl serve     --data LOG.tsv --target BEHAVIOR --model IN.ckpt [--replay FILE] [--rerank SPEC] [--top N] [--index PATH.ivf] [--metrics-out FILE [--metrics-interval MS]]\n  \
         mbssl top       SNAPSHOT.json [--interval MS] [--frames N] [--no-clear]\n  \
         mbssl synth     --out LOG.tsv|OUT.mbds [--preset taobao|yelp|tmall|scale-10k|scale-100k|scale-1m] [--users N] [--scale F] [--seed S]\n  \
         mbssl convert   --data LOG.tsv --target BEHAVIOR [--out PATH.mbds] [--k-user N] [--k-item N]\n  \
         mbssl dataset stats PATH.mbds|LOG.tsv [--target BEHAVIOR]\n  \
         mbssl index build --data LOG.tsv --target BEHAVIOR --model IN.ckpt [--out PATH.ivf] [--nlist N] [--seed S]\n  \
         mbssl index stats INDEX.ivf\n  \
         mbssl trace summary TRACE.jsonl [--section S] [--collapsed OUT.folded]\n  \
         mbssl trace diff BASE.jsonl NEW.jsonl [--tol PCT] [--metric mean|total|share] [--min-share PCT] [--section S]\n  \
         mbssl report RUN_DIR [RUN_DIR...]\n\n\
         BEHAVIOR ∈ {{click, cart, favorite, purchase}}\n\
         --data LOG.tsv is parsed and 5/3-core filtered; --data PATH.mbds (from `mbssl convert`) is opened as is\n\
         --index PATH.ivf (from `mbssl index build`) turns on two-stage retrieval; without it ranking is exhaustive\n\
         --dim/--interests are train-only: a checkpoint records its model config\n\
         all commands accept --trace off|summary|jsonl:PATH (telemetry; see also MBSSL_TRACE);\n\
         train writes a run ledger when --run-dir or MBSSL_RUN_DIR is set (read back by `mbssl report`)"
    );
}

/// Parses a `--target` token.
fn behavior(token: &str) -> Result<Behavior, String> {
    Behavior::from_token(token).ok_or_else(|| "unknown --target behavior".to_string())
}

/// Loads `--data`, exactly the file it names: a `.mbds` file is opened,
/// any other path is parsed as a TSV log and 5/3-core filtered. A `.mbds`
/// file records its target behavior, so `--target` is optional for it and
/// cross-checked when given.
fn load_dataset(args: &Args) -> Result<(Dataset, Behavior), String> {
    let path = args.require("data")?;
    let requested = args.get("target").map(behavior).transpose()?;
    if !path.ends_with(".mbds") {
        return load_plain_tsv(path, requested.ok_or("missing --target")?);
    }
    let file =
        MbdsFile::open(std::path::Path::new(path)).map_err(|e| format!("loading {path}: {e}"))?;
    let target = file.target_behavior();
    if let Some(req) = requested.filter(|&req| req != target) {
        return Err(format!(
            "--target {} but {path} was converted for target {}",
            req.token(),
            target.token()
        ));
    }
    let dataset = file.to_dataset();
    if dataset.num_users == 0 {
        return Err(format!("{path} contains no users"));
    }
    Ok((dataset, target))
}

/// Parses a TSV log and applies the default 5/3-core filtering.
fn load_plain_tsv(path: &str, target: Behavior) -> Result<(Dataset, Behavior), String> {
    let raw = load_tsv(path, target).map_err(|e| format!("loading {path}: {e}"))?;
    let dataset = k_core(&raw, 5, 3);
    if dataset.num_users == 0 {
        return Err("no users survive 5/3-core filtering".into());
    }
    Ok((dataset, target))
}

/// Streams a synthetic log to `path` as TSV, one user at a time, without
/// materializing the full dataset, and publishes it atomically. The byte
/// format is `save_tsv`'s: a header line then `user\titem\tbehavior\tindex`
/// rows with the per-user event index as the timestamp — already
/// user-sorted, so the streaming converter's single-census path accepts
/// it. Returns `(users, events)` written.
fn write_synth_tsv(
    config: &mbssl::data::synthetic::SyntheticConfig,
    path: &str,
) -> Result<(usize, usize), String> {
    let (mut users, mut events) = (0usize, 0usize);
    write_atomic(std::path::Path::new(path), |out| {
        out.write_all(b"user\titem\tbehavior\ttimestamp\n")?;
        let mut written = Ok(());
        config.for_each_user(|user, seq, _noise| {
            if written.is_err() {
                return;
            }
            users += 1;
            for (t, (&item, &behavior)) in seq.items.iter().zip(seq.behaviors.iter()).enumerate() {
                written = writeln!(out, "{user}\t{item}\t{}\t{t}", behavior.token());
                if written.is_err() {
                    return;
                }
                events += 1;
            }
        });
        written
    })
    .map_err(|e| format!("writing {path}: {e}"))?;
    Ok((users, events))
}

/// One-line stderr note for scoring commands: they run on the compiled
/// inference engine.
const ENGINE_BANNER: &str = "scoring via inference engine";

/// `--k-user` / `--k-item`, the k-core thresholds of a `.mbds` conversion.
fn kcore_thresholds(args: &Args) -> Result<(usize, usize), String> {
    Ok((
        args.get_or("k-user", "5").parse().map_err(|_| "bad --k-user")?,
        args.get_or("k-item", "3").parse().map_err(|_| "bad --k-item")?,
    ))
}

fn seed(args: &Args) -> Result<u64, String> {
    args.get_or("seed", "42").parse().map_err(|_| "bad --seed".into())
}

/// The model `train` builds, from `--dim` / `--interests` / `--seed`.
fn model_config(args: &Args) -> Result<ModelConfig, String> {
    let dim: usize = args.get_or("dim", "32").parse().map_err(|_| "bad --dim")?;
    let config = ModelConfig {
        dim,
        heads: 2,
        num_layers: 1,
        ffn_hidden: 2 * dim,
        num_interests: args.get_or("interests", "4").parse().map_err(|_| "bad --interests")?,
        extractor_hidden: dim,
        seed: seed(args)?,
        ..ModelConfig::default()
    };
    config.validate().map_err(|e| format!("bad --dim/--interests: {e}"))?;
    Ok(config)
}

/// Loads the checkpoint `ckpt` for `dataset`, as the model its recorded
/// config describes, and compiles it into the inference engine that every
/// scoring command runs. The IVF index `--index` names, if any, is
/// attached; a missing, corrupt or mismatched index warns and leaves the
/// engine ranking exhaustively.
fn load_engine(
    args: &Args,
    dataset: &Dataset,
    target: Behavior,
    ckpt: &str,
) -> Result<InferenceModel, String> {
    let schema = BehaviorSchema::new(dataset.behaviors.clone(), target);
    let model = Mbmissl::from_checkpoint(ckpt, dataset.num_items, schema)
        .map_err(|e| format!("loading {ckpt}: {e}"))?;
    let mut engine = InferenceModel::compile(&model);
    let Some(path) = args.get("index") else {
        return Ok(engine);
    };
    let attached = IvfIndex::load_from_file(path).and_then(|index| {
        let nlist = index.nlist();
        engine.attach_index(index).map(|()| nlist)
    });
    match attached {
        Ok(nlist) => eprintln!(
            "two-stage retrieval via {path} (nlist={nlist}, nprobe={})",
            mbssl::core::ann::default_nprobe(nlist)
        ),
        Err(e) => eprintln!("warning: ignoring index {path}: {e}; ranking exhaustively"),
    }
    Ok(engine)
}

/// The dataset-shape lines of `dataset stats`; `target` is
/// the behavior a `.mbds` header records.
fn print_dataset_stats(stats: &DatasetStats, target: Option<Behavior>, gini: f64) {
    println!("  users        : {}", stats.users);
    println!("  items        : {}", stats.items);
    println!("  interactions : {}", stats.interactions);
    for (b, c) in &stats.per_behavior {
        println!("    {b:>9}: {c}");
    }
    if let Some(target) = target {
        println!("  target       : {}", target.token());
    }
    println!("  avg seq len  : {:.2}", stats.avg_seq_len);
    println!("  density      : {:.5}", stats.density);
    println!("  pop. gini    : {gini:.3}");
}

fn stdout_error(e: std::io::Error) -> String {
    format!("writing stdout: {e}")
}

/// Publishes the snapshot atomically, so `mbssl top` (or any scraper)
/// polling the file never reads a torn snapshot.
fn write_snapshot_atomic(path: &std::path::Path, body: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    write_atomic(path, |w| writeln!(w, "{body}"))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `mbssl serve`: the micro-batched request engine over the line protocol
/// of `mbssl::core::serve::protocol`. Consecutive `rec` lines are
/// submitted as one concurrent wave (that concurrency is what the batcher
/// turns into shared encoder forwards), and replies print in input order
/// so replay output is deterministic.
fn serve_command(args: &Args) -> Result<(), String> {
    use std::io::BufRead;
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::Arc;

    use mbssl::core::serve::protocol::{parse_line, read_lines, Request};
    use mbssl::core::serve::{RerankChain, ServeConfig, ServeStats, Server, SessionStore};

    let (dataset, target) = load_dataset(args)?;
    let top_default: usize = args.get_or("top", "10").parse().map_err(|_| "bad --top")?;
    let chain = RerankChain::parse(args.get_or("rerank", ""))
        .map_err(|e| format!("bad --rerank: {e}"))?;
    let config = ServeConfig::from_env();
    let metrics_out = args.get("metrics-out").map(std::path::PathBuf::from);
    let metrics_interval_ms: u64 = args
        .get_or("metrics-interval", "1000")
        .parse()
        .map_err(|_| "bad --metrics-interval")?;

    let server = Server::start(
        load_engine(args, &dataset, target, args.require("model")?)?,
        Arc::new(SessionStore::from_dataset(&dataset)),
        chain,
        config.clone(),
    );
    eprintln!("{ENGINE_BANNER}");
    eprintln!(
        "serve: up — {} sessions, batch≤{}, wait {}µs, {} workers, cache {}",
        dataset.num_users,
        config.max_batch,
        config.wait.as_micros(),
        config.workers,
        if config.cache { "on" } else { "off" },
    );

    let input: Box<dyn BufRead> = match args.get("replay") {
        Some(path) => Box::new(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?,
        )),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    };

    let print_stats = |s: &ServeStats| {
        eprintln!(
            "serve: {} requests in {} batches (mean {:.2}/batch), cache hit rate {:.0}%, \
             {} swaps, {} degraded",
            s.requests,
            s.batches,
            s.mean_batch(),
            100.0 * s.cache_hit_rate(),
            s.swaps,
            s.ann_degraded,
        );
        // Batch sizes ≤ 32 land in exact unit-width histogram buckets,
        // so `lower` IS the batch size at any realistic MBSSL_SERVE_BATCH.
        let hist: Vec<String> = s
            .batch
            .nonzero_buckets()
            .map(|b| format!("{}:{}", b.lower, b.count))
            .collect();
        eprintln!("serve: batch histogram: {}", hist.join(" "));
    };

    // Answers one wave of consecutive `rec` lines: submitted concurrently,
    // printed in input order.
    let flush_wave = |wave: &mut Vec<(u32, usize)>| -> Result<(), String> {
        let mut out = std::io::stdout().lock();
        for (&(user, n), reply) in wave.iter().zip(server.submit_all(wave)) {
            let reply = reply.map_err(|e| format!("rec {user}: {e}"))?;
            writeln!(out, "top-{n} recommendations for user {user}:").map_err(stdout_error)?;
            write_recs(&mut out, &reply.recs).map_err(stdout_error)?;
            eprintln!(
                "serve: rec user={user} batch={} cache={} epoch={}{}",
                reply.batch_size,
                if reply.cache_hit { "hit" } else { "miss" },
                reply.epoch,
                if reply.degraded { " degraded" } else { "" },
            );
        }
        wave.clear();
        Ok(())
    };

    // The protocol loop runs inside a scope so an optional snapshot
    // writer (`--metrics-out`) can borrow the server alongside it. However
    // the loop ends, `_stop` drops with it, which wakes the writer for its
    // final write before the scope joins it.
    let marked = std::thread::scope(|scope| -> Result<bool, String> {
        let (_stop, stopped) = std::sync::mpsc::channel::<()>();
        if let Some(path) = &metrics_out {
            let server = &server;
            let interval = std::time::Duration::from_millis(metrics_interval_ms.max(1));
            scope.spawn(move || {
                let publish = || write_snapshot_atomic(path, &server.metrics_snapshot().to_json());
                let _ = publish();
                while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout) {
                    let _ = publish();
                }
                let _ = publish();
            });
        }
        let mut wave: Vec<(u32, usize)> = Vec::new();
        let mut marked = false;
        for (line_no, line) in read_lines(input).enumerate() {
            let line = line.map_err(|e| format!("reading input: {e}"))?;
            let at = |msg: String| format!("line {}: {msg}", line_no + 1);
            let request = line.and_then(|line| parse_line(&line, top_default));
            // Any other line, an invalid one included, first answers the
            // pending wave.
            if !matches!(request, Ok(None | Some(Request::Rec { .. }))) {
                flush_wave(&mut wave)?;
            }
            match request.map_err(|e| at(e.to_string()))? {
                None => {}
                Some(Request::Rec { user, n }) => wave.push((user, n)),
                Some(Request::Event { user, item, behavior }) => {
                    server.ingest(user, item, behavior).map_err(at)?
                }
                // A checkpoint that cannot be loaded leaves the old engine
                // serving, as a bad index leaves it ranking exhaustively.
                Some(Request::Swap(path)) => {
                    match load_engine(args, &dataset, target, &path) {
                        Ok(engine) => {
                            let epoch = server.swap_engine(engine);
                            eprintln!("serve: swapped to {path} (epoch {epoch})");
                        }
                        Err(e) => eprintln!("error: {}", at(format!("swap {path}: {e}"))),
                    }
                }
                Some(Request::Mark) => {
                    mbssl::tensor::alloc::reset_stats();
                    marked = true;
                    eprintln!("serve: mark — steady-state window opened");
                }
                Some(Request::Stats) => print_stats(&server.stats()),
                Some(Request::Metrics { format, path }) => {
                    // Snapshots go to PATH or stderr: stdout stays reserved
                    // for `rec` replies so replays remain byte-diffable.
                    let body = server.metrics_snapshot().render(format);
                    match path {
                        Some(path) => {
                            write_snapshot_atomic(std::path::Path::new(&path), &body)
                                .map_err(at)?;
                            eprintln!("serve: metrics ({}) -> {path}", format.token());
                        }
                        None => eprintln!("{body}"),
                    }
                }
                Some(Request::Quit) => break,
            }
        }
        flush_wave(&mut wave)?;
        Ok(marked)
    })?;

    let stats = server.shutdown();
    print_stats(&stats);
    if marked {
        eprintln!(
            "serve: steady-state alloc misses: {}",
            mbssl::tensor::alloc::stats().misses
        );
    }
    eprintln!("serve: clean shutdown");
    Ok(())
}

/// Retired environment variables: a retired option left in the
/// environment must not pass silently. Each entry names the variable, the
/// values refused and the reason given.
type Retired = (&'static str, fn(&str) -> bool, &'static str);
const RETIRED_ENV: [Retired; 4] = [
    (
        "MBSSL_QUANT",
        |v| !matches!(v, "" | "off"),
        "the engine always ranks the exact catalog through its i8 screen (DESIGN.md §13)",
    ),
    (
        "MBSSL_ANN",
        |v| matches!(v, "off" | "0" | "none"),
        "ranking is exhaustive unless --index names an IVF index (DESIGN.md §14)",
    ),
    (
        "MBSSL_ANN_NLIST",
        |_| true,
        "`mbssl index build --nlist N` sets the list count (DESIGN.md §14)",
    ),
    (
        "MBSSL_ANN_NPROBE",
        |_| true,
        "an attached index probes nlist/16 lists per interest (DESIGN.md §14)",
    ),
];

fn run() -> Result<(), String> {
    for (name, refused, reason) in RETIRED_ENV {
        if std::env::var(name).is_ok_and(|v| refused(&v)) {
            return Err(format!("{name} is retired: {reason}; unset it"));
        }
    }
    let Some(args) = Args::parse() else {
        usage();
        return Err("no command given".into());
    };
    let seed = seed(&args)?;
    if let Some(trace) = args.get("trace") {
        let mode = mbssl::tensor::telemetry::TraceMode::parse(trace)
            .map_err(|e| format!("bad --trace: {e}"))?;
        mbssl::tensor::telemetry::set_mode(mode);
    }

    let result = match args.command.as_str() {
        "train" => {
            let (dataset, target) = load_dataset(&args)?;
            let out = args.require("model")?;
            let epochs: usize = args.get_or("epochs", "20").parse().map_err(|_| "bad --epochs")?;
            let split = leave_one_out(&dataset, &SplitConfig::default());
            let sampler = NegativeSampler::from_dataset(&dataset);
            let schema = BehaviorSchema::new(dataset.behaviors.clone(), target);
            let model = Mbmissl::new(dataset.num_items, schema, model_config(&args)?);
            println!(
                "training MBMISSL on {} users / {} items ({} train instances) …",
                dataset.num_users,
                dataset.num_items,
                split.train.len()
            );
            let trainer = Trainer::new(TrainConfig {
                epochs,
                patience: 4,
                verbose: true,
                seed,
                run_dir: args.get("run-dir").map(String::from),
                ..TrainConfig::default()
            });
            let report = trainer.fit(&model, &split, &sampler);
            println!(
                "done: {} epochs, best val NDCG@10 = {:.4}",
                report.epochs_run, report.best_val_ndcg10
            );
            model.save(out).map_err(|e| format!("saving {out}: {e}"))?;
            println!("model written to {out}");
            Ok(())
        }
        "evaluate" => {
            let (dataset, target) = load_dataset(&args)?;
            let engine = load_engine(&args, &dataset, target, args.require("model")?)?;
            let split = leave_one_out(&dataset, &SplitConfig::default());
            let sampler = NegativeSampler::from_dataset(&dataset);
            let candidates = EvalCandidates::build(&split.test, &sampler, 99, seed);
            eprintln!("{ENGINE_BANNER}");
            let metrics = evaluate(&engine, &split.test, &candidates, 256).aggregate();
            println!("test metrics (1-vs-99): {}", metrics.summary());
            Ok(())
        }
        "recommend" => {
            let (dataset, target) = load_dataset(&args)?;
            let ckpt = args.require("model")?;
            let user: usize = args.require("user")?.parse().map_err(|_| "bad --user")?;
            let top: usize =
                args.get_or("top", "10").parse().ok().filter(|&n| n > 0).ok_or("bad --top")?;
            if user >= dataset.num_users {
                return Err(format!(
                    "user {user} out of range (dataset has {} users after k-core remapping)",
                    dataset.num_users
                ));
            }
            // Two-stage retrieval when --index names an index; any index
            // problem degrades to exhaustive ranking with a warning.
            let engine = load_engine(&args, &dataset, target, ckpt)?;
            let history = &dataset.sequences[user];
            let seen: HashSet<_> = history.items.iter().copied().collect();
            eprintln!("{ENGINE_BANNER}");
            let recs = recommend_top_n(&engine, history, dataset.num_items, top, &seen, 512);
            let mut out = std::io::stdout().lock();
            writeln!(
                out,
                "top-{top} recommendations for user {user} ({} history events):",
                history.len()
            )
            .and_then(|()| write_recs(&mut out, &recs))
            .map_err(stdout_error)
        }
        "serve" => serve_command(&args),
        "synth" => {
            use mbssl::data::synthetic::SyntheticConfig;
            let out = args.require("out")?;
            let scale: f64 = args.get_or("scale", "0.05").parse().map_err(|_| "bad --scale")?;
            let preset = args.get_or("preset", "taobao");
            let config = match preset {
                "taobao" => SyntheticConfig::taobao_like(seed).scaled(scale),
                "yelp" => SyntheticConfig::yelp_like(seed).scaled(scale),
                "tmall" => SyntheticConfig::tmall_like(seed).scaled(scale),
                "scale-10k" => SyntheticConfig::scale_regime(10_000, seed),
                "scale-100k" => SyntheticConfig::scale_regime(100_000, seed),
                "scale-1m" => SyntheticConfig::scale_regime(1_000_000, seed),
                "scale" => {
                    let users: usize =
                        args.require("users")?.parse().map_err(|_| "bad --users")?;
                    if users < 1000 {
                        return Err(format!(
                            "--users {users}: the scale regime starts at 1000 users \
                             (use --preset taobao --scale <f> for small logs)"
                        ));
                    }
                    SyntheticConfig::scale_regime(users, seed)
                }
                other => {
                    return Err(format!(
                        "unknown --preset {other:?} (expected taobao | yelp | tmall | \
                         scale-10k | scale-100k | scale-1m | scale)"
                    ))
                }
            };
            let started = std::time::Instant::now();
            if out.ends_with(".mbds") {
                // .mbds files are preprocessed by convention, so route the
                // streamed events through the streaming converter (the TSV
                // is emitted user-sorted, so the single-pass path applies).
                // The pid keeps concurrent synths to the same output from
                // interleaving into one temp file; it lives in the
                // extension (after the last dot) so `file_stem`, and hence
                // the dataset name stored in the header, stays clean
                // ("x" for x.mbds).
                let tmp = format!(
                    "{}.part-{}",
                    out.strip_suffix(".mbds").unwrap_or(out),
                    std::process::id()
                );
                let (k_user, k_item) = kcore_thresholds(&args)?;
                let (users, events) = write_synth_tsv(&config, &tmp)?;
                let report = convert_tsv_streaming(
                    std::path::Path::new(&tmp),
                    std::path::Path::new(out),
                    config.target_behavior,
                    k_user,
                    k_item,
                );
                std::fs::remove_file(&tmp).ok();
                let report = report.map_err(|e| format!("converting {tmp}: {e}"))?;
                let secs = started.elapsed().as_secs_f64();
                println!(
                    "wrote {out}: {} users / {} items / {} events after {k_user}/{k_item}-core \
                     (generated {users} users / {events} events, preset {preset}), \
                     {} bytes in {secs:.1}s ({:.0} events/s)",
                    report.users_out,
                    report.items_out,
                    report.events_out,
                    report.bytes_written,
                    events as f64 / secs,
                );
            } else {
                let (users, events) = write_synth_tsv(&config, out)?;
                let secs = started.elapsed().as_secs_f64();
                println!(
                    "wrote {out} ({users} users, {} items, {events} events, preset {preset}), \
                     in {secs:.1}s ({:.0} events/s)",
                    config.num_items,
                    events as f64 / secs,
                );
            }
            Ok(())
        }
        "convert" => {
            let path = args.require("data")?.to_string();
            let target = behavior(args.require("target")?)?;
            let out = args
                .get("out")
                .map(String::from)
                .unwrap_or_else(|| format!("{path}.mbds"));
            let (k_user, k_item) = kcore_thresholds(&args)?;
            let (src, dst) = (std::path::Path::new(&path), std::path::Path::new(&out));
            let started = std::time::Instant::now();
            let report = match convert_tsv_streaming(src, dst, target, k_user, k_item) {
                Ok(report) => report,
                Err(ConvertError::NotSorted { line, message }) => {
                    eprintln!(
                        "warning: {path} is not user-sorted (line {line}: {message}); \
                         falling back to in-memory conversion"
                    );
                    convert_tsv_in_memory(src, dst, target, k_user, k_item)
                        .map_err(|e| format!("converting {path}: {e}"))?
                }
                Err(e) => return Err(format!("converting {path}: {e}")),
            };
            let secs = started.elapsed().as_secs_f64();
            println!(
                "wrote {out}: {} users / {} items / {} events after {k_user}/{k_item}-core \
                 (raw log: {} users / {} items / {} events)",
                report.users_out,
                report.items_out,
                report.events_out,
                report.users_in,
                report.items_in,
                report.events_in,
            );
            println!(
                "  {} bytes, {} passes over the TSV, {secs:.1}s ({:.0} events/s ingest)",
                report.bytes_written,
                report.passes,
                report.events_in as f64 / secs,
            );
            Ok(())
        }
        "dataset" => match args.positional(0, "dataset subcommand")? {
            "stats" => {
                let path = args.positional(1, "dataset file")?;
                let started = std::time::Instant::now();
                if path.ends_with(".mbds") {
                    let file = MbdsFile::open(std::path::Path::new(path))
                        .map_err(|e| format!("loading {path}: {e}"))?;
                    let load_ms = started.elapsed().as_secs_f64() * 1e3;
                    let stats = file.stats();
                    println!("dataset {path} (.mbds v{}):", mbssl::data::format::VERSION);
                    println!(
                        "  backing      : {} ({} bytes)",
                        if file.is_mmap() { "mmap" } else { "buffered read" },
                        file.file_len()
                    );
                    println!("  name         : {}", stats.name);
                    let target = Some(file.target_behavior());
                    print_dataset_stats(&stats, target, file.popularity_gini());
                    println!("  open+validate: {load_ms:.1} ms");
                } else {
                    let (dataset, _) = load_plain_tsv(path, behavior(args.require("target")?)?)?;
                    let load_ms = started.elapsed().as_secs_f64() * 1e3;
                    println!("dataset {path} (TSV + 5/3-core):");
                    print_dataset_stats(&dataset.stats(), None, dataset.popularity_gini());
                    println!("  parse+core   : {load_ms:.1} ms");
                }
                Ok(())
            }
            other => {
                usage();
                Err(format!("unknown dataset subcommand {other:?}"))
            }
        },
        "index" => match args.positional(0, "index subcommand")? {
            "build" => {
                let (dataset, target) = load_dataset(&args)?;
                let ckpt = args.require("model")?;
                let out = args
                    .get("out")
                    .map(String::from)
                    .unwrap_or_else(|| format!("{ckpt}.ivf"));
                let engine = load_engine(&args, &dataset, target, ckpt)?;
                let nlist = match args.get("nlist") {
                    Some(v) => v.parse().map_err(|_| "bad --nlist")?,
                    None => mbssl::core::ann::default_nlist(dataset.num_items),
                };
                let started = std::time::Instant::now();
                let index = engine.build_index_with(nlist, seed);
                let build_ms = started.elapsed().as_secs_f64() * 1e3;
                index
                    .save_to_file(&out)
                    .map_err(|e| format!("writing {out}: {e}"))?;
                let stats = index.stats();
                println!(
                    "index written to {out}: {} items in {} lists ({} empty), built in {build_ms:.1} ms",
                    index.num_items(),
                    stats.lists,
                    stats.empty_lists
                );
                println!(
                    "  list sizes: min {} / mean {:.1} / max {} (imbalance {:.2}), {} bytes on disk",
                    stats.min_len, stats.mean_len, stats.max_len, stats.imbalance, stats.bytes
                );
                let build = index.build_stats();
                let full = (build.iterations * index.num_items() * stats.lists).max(1);
                println!(
                    "  k-means: {} passes, {:.1} exact scores per item ({:.2}% of passes × items × lists), {} items scanned without the screen",
                    build.iterations,
                    build.assign_exact as f64 / index.num_items() as f64,
                    100.0 * build.assign_exact as f64 / full as f64,
                    build.assign_fallbacks
                );
                Ok(())
            }
            "stats" => {
                let path = args.positional(1, "index file")?;
                let index =
                    IvfIndex::load_from_file(path).map_err(|e| format!("loading {path}: {e}"))?;
                let stats = index.stats();
                println!("index {path}:");
                println!("  items        : {}", index.num_items());
                println!("  dim          : {}", index.dim());
                println!("  nlist        : {}", stats.lists);
                println!("  empty lists  : {}", stats.empty_lists);
                println!(
                    "  list sizes   : min {} / mean {:.1} / max {}",
                    stats.min_len, stats.mean_len, stats.max_len
                );
                println!("  imbalance    : {:.2}", stats.imbalance);
                println!("  bytes        : {}", stats.bytes);
                println!("  kmeans seed  : {}", index.seed());
                println!(
                    "  default probe: {} lists/interest",
                    mbssl::core::ann::default_nprobe(stats.lists)
                );
                Ok(())
            }
            other => {
                usage();
                Err(format!("unknown index subcommand {other:?}"))
            }
        },
        "trace" => match args.positional(0, "trace subcommand")? {
            "summary" => {
                let path = args.positional(1, "trace JSONL file")?;
                let trace = Trace::parse_file(path, args.get("section"))?;
                print!("{}", render_summary(&trace));
                if let Some(out) = args.get("collapsed") {
                    std::fs::write(out, collapsed_stacks(&trace))
                        .map_err(|e| format!("writing {out}: {e}"))?;
                    eprintln!("collapsed stacks written to {out}");
                }
                Ok(())
            }
            "diff" => {
                let base_path = args.positional(1, "base trace JSONL file")?;
                let new_path = args.positional(2, "new trace JSONL file")?;
                let section = args.get("section");
                let base = Trace::parse_file(base_path, section)?;
                let new = Trace::parse_file(new_path, section)?;
                let mut opts = DiffOptions::default();
                if let Some(tol) = args.get("tol") {
                    opts.tol_pct = tol.parse().map_err(|_| "bad --tol")?;
                }
                if let Some(metric) = args.get("metric") {
                    opts.metric = DiffMetric::parse(metric)?;
                }
                if let Some(floor) = args.get("min-share") {
                    opts.min_share_pct = floor.parse().map_err(|_| "bad --min-share")?;
                }
                let report = diff(&base, &new, &opts);
                print!("{}", render_diff(&report));
                if report.regressions > 0 {
                    Err(format!(
                        "{} span(s) regressed beyond {}% tolerance",
                        report.regressions, report.tol_pct
                    ))
                } else {
                    Ok(())
                }
            }
            other => {
                usage();
                Err(format!("unknown trace subcommand {other:?}"))
            }
        },
        "top" => {
            let path = args.positional(0, "metrics snapshot file")?;
            let interval: u64 = args
                .get_or("interval", "1000")
                .parse()
                .map_err(|_| "bad --interval")?;
            let frames: Option<u64> =
                args.get("frames").map(str::parse).transpose().map_err(|_| "bad --frames")?;
            let opts = mbssl::top::TopOptions {
                interval: std::time::Duration::from_millis(interval.max(1)),
                frames,
                clear: args.get("no-clear").is_none(),
            };
            mbssl::top::run(path, &opts)
        }
        "report" => {
            if args.positionals.is_empty() {
                usage();
                return Err("report needs at least one RUN_DIR".into());
            }
            let mut runs = Vec::new();
            for dir in &args.positionals {
                runs.push(mbssl::core::read_run_dir(std::path::Path::new(dir))?);
            }
            print!("{}", mbssl::core::render_report(&runs));
            Ok(())
        }
        other => {
            usage();
            Err(format!("unknown command {other:?}"))
        }
    };
    // Emit whatever telemetry the run accumulated (no-op when tracing is
    // off), with the command name as the trace section.
    mbssl::tensor::telemetry::flush_section(&args.command);
    result
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
