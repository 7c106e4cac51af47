//! End-to-end throughput benchmarks: items/sec through a training step and
//! through leave-one-out evaluation, plus microbenches over the GEMM shapes
//! those passes are made of. Bench names encode how many items one
//! iteration processes (`itemsN`) so `scripts/bench_smoke.sh` can convert
//! the iter/s readings into items/sec.
//!
//! The allocator counters are reset at the start of each bench section and
//! a per-section summary record is appended to `CRITERION_JSON` (picked up
//! by `bench_smoke.sh` as the `allocator` section of
//! `BENCH_throughput.json`), so a section's hit rate reflects that section
//! alone rather than everything run before it.
//!
//! Set `MBSSL_BENCH_ONLY=<substring>` to run only the benches whose name
//! contains the substring.
//!
//! With `MBSSL_TRACE` active, per-section telemetry records (span timings,
//! allocator/pool gauges) are also appended to `CRITERION_JSON`;
//! `bench_smoke.sh` runs a second, traced `train_step`-only pass to
//! populate the `telemetry` section of `BENCH_throughput.json`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use mbssl_bench::{bench_model_config, build_workload};
use mbssl_core::{
    evaluate, recommend_top_n_reference, BehaviorSchema, InferenceModel, Mbmissl,
    SequentialRecommender, TrainableRecommender,
};
use mbssl_data::preprocess::TrainInstance;
use mbssl_data::sampler::EvalCandidates;
use mbssl_data::ItemId;
use mbssl_telemetry as telemetry;
use mbssl_tensor::{alloc, kernels};

const TRAIN_BATCH: usize = 64;
const EVAL_USERS: usize = 256;

/// `MBSSL_BENCH_ONLY` substring filter (the criterion shim has no name
/// filtering of its own). Empty/unset runs everything.
fn bench_enabled(name: &str) -> bool {
    match std::env::var("MBSSL_BENCH_ONLY") {
        Ok(filter) if !filter.is_empty() => name.contains(&filter),
        _ => true,
    }
}

/// Appends the allocator counters accumulated since the last
/// `alloc::reset_stats()` to `CRITERION_JSON`, tagged with the section that
/// just ran.
fn emit_alloc_section(section: &str) {
    let s = alloc::stats();
    println!(
        "alloc[{section}]: hits {} misses {} recycled {} bytes_reused {} hit_rate {:.1}%",
        s.hits,
        s.misses,
        s.recycled,
        s.bytes_reused,
        s.hit_rate_pct()
    );
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if !path.is_empty() {
            use std::io::Write;
            if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(&path)
            {
                let _ = writeln!(
                    file,
                    "{{\"name\": \"alloc_stats\", \"section\": \"{section}\", \"hits\": {}, \"misses\": {}, \"recycled\": {}, \"bytes_reused\": {}, \"hit_rate_pct\": {:.2}}}",
                    s.hits,
                    s.misses,
                    s.recycled,
                    s.bytes_reused,
                    s.hit_rate_pct()
                );
            }
        }
    }
}

/// Drains the telemetry registry (no-op when `MBSSL_TRACE` is off) and
/// appends one `{"name": "telemetry", ...}` record per span/counter/gauge
/// label to `CRITERION_JSON`, tagged with the section that just ran.
/// `bench_smoke.sh` distills the span records into the `telemetry` table of
/// `BENCH_throughput.json`.
fn emit_telemetry_section(section: &str) {
    let stats = telemetry::drain();
    if stats.is_empty() {
        return;
    }
    let Ok(path) = std::env::var("CRITERION_JSON") else { return };
    if path.is_empty() {
        return;
    }
    use std::io::Write;
    let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(&path) else {
        return;
    };
    for rec in &stats {
        // record_to_jsonl emits {"kind": ...}; rewrap under a "name" field so
        // the bench-report parser can route it like the alloc_stats records.
        let _ = writeln!(
            file,
            "{{\"name\": \"telemetry\", {}",
            telemetry::record_to_jsonl(rec, section).trim_start_matches('{')
        );
    }
}

fn bench_throughput(c: &mut Criterion) {
    let workload = build_workload("taobao-like", 0.15, 11);
    let d = &workload.dataset;
    let schema = BehaviorSchema::new(d.behaviors.clone(), d.target_behavior);
    let model = Mbmissl::new(d.num_items, schema, bench_model_config(11));

    let batch: Vec<&TrainInstance> = workload.split.train.iter().take(TRAIN_BATCH).collect();
    let name = format!("throughput_train_step_items{}", batch.len());
    if bench_enabled(&name) {
        alloc::reset_stats();
        c.bench_function(&name, |b| {
            let mut rng = StdRng::seed_from_u64(0);
            b.iter(|| {
                for p in model.params() {
                    p.zero_grad();
                }
                model
                    .loss_on_batch(&batch, &workload.sampler, 16, &mut rng)
                    .backward();
            });
        });
        emit_alloc_section("train_step");
        emit_telemetry_section("train_step");
    }

    let n_eval = workload.split.test.len().min(EVAL_USERS);
    let test = &workload.split.test[..n_eval];
    let candidates = EvalCandidates::build(test, &workload.sampler, 99, 0xEA2);
    let name = format!("throughput_evaluate_items{n_eval}");
    if bench_enabled(&name) {
        alloc::reset_stats();
        c.bench_function(&name, |b| {
            b.iter(|| evaluate(&model, test, &candidates, 64));
        });
        emit_alloc_section("evaluate");
        emit_telemetry_section("evaluate");
    }

    // Serving: full-catalog top-10 for one user, on a full-scale catalog
    // (serving ranks the whole inventory, so unlike the train/eval
    // sections this workload is NOT scaled down; `itemsN` = catalog size
    // and items/sec = catalog items ranked per second). The engine bench
    // compiles ONCE outside the timed loop (pre-packed weights are a
    // serving-startup cost) and then ranks via one prepacked GEMM per
    // request; the graph bench is the pre-engine path, which re-encodes
    // the history for every 512-item score_batch chunk. Their ratio is the
    // PR's headline speedup.
    let recommend_names = [
        "throughput_recommend_top_n_items2400",
        "throughput_recommend_graph_items2400",
        "throughput_recommend_ann_items2400",
        "throughput_recommend_top_n_xl_items24000",
        "throughput_recommend_ann_xl_items24000",
        "index_build_catalog2400",
        "index_build_catalog24000",
    ];
    if recommend_names.iter().any(|n| bench_enabled(n)) {
        let serving = build_workload("taobao-like", 1.0, 11);
        let sd = &serving.dataset;
        let schema = BehaviorSchema::new(sd.behaviors.clone(), sd.target_behavior);
        let serving_model = Mbmissl::new(sd.num_items, schema, bench_model_config(11));
        let history = &serving.split.test[0].history;
        let exclude: std::collections::HashSet<ItemId> = history.items.iter().copied().collect();
        let catalog = sd.num_items;
        let name = format!("throughput_recommend_top_n_items{catalog}");
        if bench_enabled(&name) {
            alloc::reset_stats();
            let engine = serving_model
                .prepare_inference()
                .expect("benches run with the engine enabled");
            c.bench_function(&name, |b| {
                b.iter(|| {
                    engine
                        .recommend_catalog(black_box(history), catalog, 10, &exclude)
                        .expect("engine has a catalog path")
                });
            });
            emit_alloc_section("recommend");
            emit_telemetry_section("recommend");
        }
        let name = format!("throughput_recommend_graph_items{catalog}");
        if bench_enabled(&name) {
            alloc::reset_stats();
            c.bench_function(&name, |b| {
                b.iter(|| {
                    recommend_top_n_reference(
                        &serving_model,
                        black_box(history),
                        catalog,
                        10,
                        &exclude,
                        512,
                    )
                });
            });
            emit_alloc_section("recommend_graph");
            emit_telemetry_section("recommend_graph");
        }

        // Two-stage retrieval (DESIGN.md §14): IVF probe + candidate
        // re-rank vs the exhaustive one-GEMM ranking, on the full-scale
        // catalog and on a 10x synthetic catalog where the asymptotics
        // actually show. `index_build_catalogN` rows carry the one-off
        // k-means build cost (no `itemsN` suffix: items/sec there is
        // builds/sec, and ns_per_iter is the build time itself).
        let name = format!("throughput_recommend_ann_items{catalog}");
        if bench_enabled(&name) {
            alloc::reset_stats();
            let mut engine = InferenceModel::compile(&serving_model);
            let index = engine.build_index(11);
            engine.attach_index(index).expect("index geometry matches");
            c.bench_function(&name, |b| {
                b.iter(|| {
                    engine
                        .recommend_catalog(black_box(history), catalog, 10, &exclude)
                        .expect("engine has a catalog path")
                });
            });
            emit_alloc_section("recommend_ann");
            emit_telemetry_section("recommend_ann");
        }
        let name = format!("index_build_catalog{catalog}");
        if bench_enabled(&name) {
            let engine = InferenceModel::compile(&serving_model);
            c.bench_function(&name, |b| {
                b.iter(|| black_box(engine.build_index(11)));
            });
        }

        // ~10x catalog: same behavior schema and histories (their item ids
        // all fit), random item table at xl scale. Serving cost is
        // catalog-bound, so this is where retrieve-then-rerank pulls away.
        let xl_catalog = 24_000usize;
        let xl_names = [
            format!("throughput_recommend_top_n_xl_items{xl_catalog}"),
            format!("throughput_recommend_ann_xl_items{xl_catalog}"),
            format!("index_build_catalog{xl_catalog}"),
        ];
        if xl_names.iter().any(|n| bench_enabled(n)) {
            let schema = BehaviorSchema::new(sd.behaviors.clone(), sd.target_behavior);
            let xl_model = Mbmissl::new(xl_catalog, schema, bench_model_config(11));
            if bench_enabled(&xl_names[0]) {
                alloc::reset_stats();
                let engine = InferenceModel::compile(&xl_model);
                c.bench_function(&xl_names[0], |b| {
                    b.iter(|| {
                        engine
                            .recommend_catalog(black_box(history), xl_catalog, 10, &exclude)
                            .expect("engine has a catalog path")
                    });
                });
                emit_alloc_section("recommend_xl");
                emit_telemetry_section("recommend_xl");
            }
            if bench_enabled(&xl_names[1]) {
                alloc::reset_stats();
                let mut engine = InferenceModel::compile(&xl_model);
                let index = engine.build_index(11);
                engine.attach_index(index).expect("index geometry matches");
                c.bench_function(&xl_names[1], |b| {
                    b.iter(|| {
                        engine
                            .recommend_catalog(black_box(history), xl_catalog, 10, &exclude)
                            .expect("engine has a catalog path")
                    });
                });
                emit_alloc_section("recommend_ann_xl");
                emit_telemetry_section("recommend_ann_xl");
            }
            if bench_enabled(&xl_names[2]) {
                let engine = InferenceModel::compile(&xl_model);
                c.bench_function(&xl_names[2], |b| {
                    b.iter(|| black_box(engine.build_index(11)));
                });
            }
        }
    }
}

/// Dataset-load throughput (DESIGN.md §16): the TSV parse + 5/3-core path
/// vs the mmap'd `.mbds` open + materialize path, on the same preprocessed
/// data. `itemsN` is the event count, so items/sec reads as events/sec.
/// `dataset_open_mbds` carries the open+validate cost alone (no `itemsN`:
/// ns_per_iter is the figure), which is the zero-copy path's latency when
/// training iterates the columns without materializing a heap Dataset.
fn bench_dataset_load(c: &mut Criterion) {
    use mbssl_data::format::MbdsFile;
    use mbssl_data::io::{load_tsv, save_tsv};
    use mbssl_data::preprocess::k_core;
    use mbssl_data::synthetic::SyntheticConfig;

    if !bench_enabled("dataset_load") && !bench_enabled("dataset_open_mbds") {
        return;
    }
    let dir = std::env::temp_dir().join(format!("mbssl-bench-data-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench scratch dir");
    let tsv = dir.join("bench.tsv");
    let mbds = dir.join("bench.tsv.mbds");
    let raw = SyntheticConfig::taobao_like(11).scaled(0.5).generate().dataset;
    save_tsv(&raw, &tsv).expect("save bench tsv");
    // .mbds files hold preprocessed data by convention, so the TSV leg
    // (parse + k-core) and the .mbds leg (open + materialize) produce the
    // same Dataset — events/sec compares equal work.
    let cored = k_core(&load_tsv(&tsv, raw.target_behavior).expect("load"), 5, 3);
    mbssl_data::format::write_mbds_kcore(&cored, &mbds, 5, 3).expect("write bench mbds");
    let events = cored.num_interactions();

    let name = format!("dataset_load_tsv_items{events}");
    if bench_enabled(&name) {
        c.bench_function(&name, |b| {
            b.iter(|| {
                let d = k_core(
                    &load_tsv(black_box(&tsv), raw.target_behavior).expect("load"),
                    5,
                    3,
                );
                black_box(d.num_interactions())
            });
        });
    }
    let name = format!("dataset_load_mbds_items{events}");
    if bench_enabled(&name) {
        c.bench_function(&name, |b| {
            b.iter(|| {
                let d = MbdsFile::open(black_box(&mbds)).expect("open").to_dataset();
                black_box(d.num_interactions())
            });
        });
    }
    if bench_enabled("dataset_open_mbds") {
        c.bench_function("dataset_open_mbds", |b| {
            b.iter(|| {
                let f = MbdsFile::open(black_box(&mbds)).expect("open");
                black_box(f.num_events())
            });
        });
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The GEMM shapes one encoder/backward pass is made of, with the bench
/// model config (dim 32, ffn 64, batch 64 × seq 50 ⇒ 3200 flattened rows):
/// encoder projections (`nn`), the FFN expansion (`nn`), the weight-gradient
/// reduction (`tn`, long k — the packed-A case), and the data gradient
/// (`nt`).
fn bench_gemm_shapes(c: &mut Criterion) {
    const ROWS: usize = 64 * 50;
    const DIM: usize = 32;
    const FFN: usize = 64;

    const NAMES: [&str; 4] = [
        "gemm_nn_encoder_3200x32x32",
        "gemm_nn_ffn_3200x32x64",
        "gemm_tn_wgrad_32x3200x64",
        "gemm_nt_dgrad_3200x64x32",
    ];
    if !NAMES.iter().any(|n| bench_enabled(n)) {
        return;
    }
    alloc::reset_stats();

    let mut rng = StdRng::seed_from_u64(7);
    let mut fill = |n: usize| -> Vec<f32> {
        use rand::Rng;
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    };

    // Encoder projection: [3200, 32] · [32, 32].
    let (a, b) = (fill(ROWS * DIM), fill(DIM * DIM));
    if bench_enabled(NAMES[0]) {
        c.bench_function(NAMES[0], |bch| {
            let mut out = vec![0.0f32; ROWS * DIM];
            bch.iter(|| {
                out.fill(0.0);
                kernels::gemm_nn(black_box(&a), black_box(&b), &mut out, ROWS, DIM, DIM);
            });
        });
    }

    // FFN expansion: [3200, 32] · [32, 64].
    let (a, b) = (fill(ROWS * DIM), fill(DIM * FFN));
    if bench_enabled(NAMES[1]) {
        c.bench_function(NAMES[1], |bch| {
            let mut out = vec![0.0f32; ROWS * FFN];
            bch.iter(|| {
                out.fill(0.0);
                kernels::gemm_nn(black_box(&a), black_box(&b), &mut out, ROWS, DIM, FFN);
            });
        });
    }

    // Weight gradient: xᵀ·g = [32, 3200]ᵀ-view · [3200, 64] (k = 3200).
    let (a, b) = (fill(ROWS * DIM), fill(ROWS * FFN));
    if bench_enabled(NAMES[2]) {
        c.bench_function(NAMES[2], |bch| {
            let mut out = vec![0.0f32; DIM * FFN];
            bch.iter(|| {
                out.fill(0.0);
                kernels::gemm_tn(black_box(&a), black_box(&b), &mut out, DIM, ROWS, FFN);
            });
        });
    }

    // Data gradient: g·Wᵀ = [3200, 64] · [32, 64]ᵀ.
    let (a, b) = (fill(ROWS * FFN), fill(DIM * FFN));
    if bench_enabled(NAMES[3]) {
        c.bench_function(NAMES[3], |bch| {
            let mut out = vec![0.0f32; ROWS * DIM];
            bch.iter(|| {
                out.fill(0.0);
                kernels::gemm_nt(black_box(&a), black_box(&b), &mut out, ROWS, FFN, DIM);
            });
        });
    }

    emit_alloc_section("gemm_shapes");
    emit_telemetry_section("gemm_shapes");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_throughput, bench_dataset_load, bench_gemm_shapes
}
criterion_main!(benches);
