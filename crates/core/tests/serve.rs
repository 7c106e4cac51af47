//! Serving-engine gates (DESIGN.md §15).
//!
//! The contract under test:
//! - micro-batched serving is **bit-identical** to sequential
//!   `recommend_top_n`, across both backbones, both extractors, batch
//!   sizes 1/4/16, histories of mixed lengths (fresh users with 0–5
//!   ingested events beside full ones) sharing one forward, and genuinely
//!   concurrent submitters (which also pins arena free-list isolation: a
//!   cross-request scratch leak would show up as score drift);
//! - the per-user interest cache serves identical results and is
//!   invalidated by exactly one ingest;
//! - a checkpoint hot-swap redirects new requests to the new engine
//!   (epoch-tagged) without disturbing the session store;
//! - the `MBSSL_ANN_BUDGET_US` policy degrades the probe width (counted)
//!   while responses stay well-formed;
//! - a non-empty re-rank chain composes with retrieval overscan.

use std::collections::HashSet;
use std::sync::Arc;

use mbssl_core::serve::{RerankChain, ServeConfig, Server, SessionStore, Stage};
use mbssl_core::{
    recommend_top_n, BehaviorSchema, EncoderKind, ExtractorKind, InferenceModel, Mbmissl,
    ModelConfig, Recommendation,
};
use mbssl_data::synthetic::SyntheticConfig;
use mbssl_data::{Behavior, Dataset, ItemId, Sequence, UserId};

fn tiny_model(encoder: EncoderKind, extractor: ExtractorKind) -> (Mbmissl, Dataset) {
    tiny_model_seeded(encoder, extractor, None)
}

fn tiny_model_seeded(
    encoder: EncoderKind,
    extractor: ExtractorKind,
    seed: Option<u64>,
) -> (Mbmissl, Dataset) {
    let g = SyntheticConfig::taobao_like(31).scaled(0.05).generate();
    let schema = BehaviorSchema::new(g.dataset.behaviors.clone(), g.dataset.target_behavior);
    let mut config = ModelConfig {
        dim: 16,
        heads: 2,
        num_layers: 2,
        ffn_hidden: 32,
        num_interests: 2,
        extractor_hidden: 16,
        max_seq_len: 20,
        dropout: 0.1,
        encoder,
        extractor,
        ..ModelConfig::default()
    };
    if let Some(seed) = seed {
        config.seed = seed;
    }
    (Mbmissl::new(g.dataset.num_items, schema, config), g.dataset)
}

const VARIANTS: [(EncoderKind, ExtractorKind); 4] = [
    (EncoderKind::Hypergraph, ExtractorKind::SelfAttentive),
    (EncoderKind::Hypergraph, ExtractorKind::DynamicRouting),
    (EncoderKind::Transformer, ExtractorKind::SelfAttentive),
    (EncoderKind::Transformer, ExtractorKind::DynamicRouting),
];

/// Offline baseline: what `mbssl recommend` prints for this user.
fn offline(model: &Mbmissl, dataset: &Dataset, user: UserId, n: usize) -> Vec<Recommendation> {
    let history = &dataset.sequences[user as usize];
    let exclude: HashSet<ItemId> = history.items.iter().copied().collect();
    recommend_top_n(model, history, dataset.num_items, n, &exclude, 64)
}

#[test]
fn batched_serving_is_bit_identical_to_sequential_top_n() {
    let n = 5;
    for (encoder, extractor) in VARIANTS {
        let (model, dataset) = tiny_model(encoder, extractor);
        // Fresh users with 0–5 ingested events, interleaved with the
        // log's users (whose histories all fill max_seq_len).
        let fresh: Vec<(UserId, Sequence)> = (0..6)
            .map(|j| {
                let user = (dataset.num_users + j) as UserId;
                (user, dataset.sequences[j].truncate_to_recent(j))
            })
            .collect();
        let mut users: Vec<UserId> = Vec::new();
        let mut expected: Vec<Vec<Recommendation>> = Vec::new();
        for u in 0..dataset.sequences.len().min(16) as UserId {
            users.push(u);
            expected.push(offline(&model, &dataset, u, n));
            if let Some((user, history)) = fresh.get(u as usize / 2).filter(|_| u % 2 == 1) {
                let exclude: HashSet<ItemId> = history.items.iter().copied().collect();
                let num_items = dataset.num_items;
                users.push(*user);
                expected.push(recommend_top_n(&model, history, num_items, n, &exclude, 64));
            }
        }
        assert_eq!(users.len(), 16 + fresh.len());
        for max_batch in [1usize, 4, 16] {
            let server = Server::start(
                InferenceModel::compile(&model),
                Arc::new(SessionStore::from_dataset(&dataset)),
                RerankChain::empty(),
                ServeConfig {
                    max_batch,
                    wait: std::time::Duration::from_millis(2),
                    workers: 2,
                    cache: false, // every request takes the full forward path
                    ..ServeConfig::default()
                },
            );
            for (user, history) in &fresh {
                for (&item, &behavior) in history.items.iter().zip(&history.behaviors) {
                    server.ingest(*user, item, behavior).unwrap();
                }
            }
            // Concurrent submitters: one thread per user, all in flight at
            // once, so drains genuinely mix users into shared batches.
            let requests: Vec<(UserId, usize)> = users.iter().map(|&u| (u, n)).collect();
            let replies: Vec<_> =
                server.submit_all(&requests).into_iter().map(Result::unwrap).collect();
            for ((reply, want), &u) in replies.iter().zip(&expected).zip(&users) {
                assert!(reply.batch_size >= 1 && reply.batch_size <= max_batch);
                assert_eq!(
                    &reply.recs, want,
                    "served drift for {encoder:?}/{extractor:?} user {u} max_batch {max_batch}"
                );
            }
            let stats = server.shutdown();
            assert_eq!(stats.requests, users.len() as u64);
            assert_eq!(stats.batch.count(), stats.batches, "histogram must cover every batch");
            // Batch sizes ≤ 32 land in exact single-integer buckets, so
            // the weighted bucket sum is exactly the request count.
            assert_eq!(
                stats.batch.nonzero_buckets().map(|b| b.lower * b.count).sum::<u64>(),
                stats.requests,
                "histogram weights must cover every request"
            );
            // Every stage histogram covers every replied request
            // (per-batch stages record once per request by contract).
            for stage in Stage::ALL {
                assert_eq!(
                    stats.stage(stage).count(),
                    stats.requests,
                    "stage {} must cover every request",
                    stage.name()
                );
            }
            let total = stats.stage(Stage::Total);
            assert!(total.min() > 0, "end-to-end latency cannot be zero");
            assert!(total.quantile(0.5) <= total.quantile(0.99));
            assert!(total.quantile(0.99) <= total.max());
        }
    }
}

#[test]
fn cache_serves_identical_results_and_ingest_invalidates() {
    let (model, dataset) = tiny_model(EncoderKind::Hypergraph, ExtractorKind::SelfAttentive);
    let n = 5;
    let server = Server::start(
        InferenceModel::compile(&model),
        Arc::new(SessionStore::from_dataset(&dataset)),
        RerankChain::empty(),
        ServeConfig {
            max_batch: 4,
            workers: 1,
            ..ServeConfig::default()
        },
    );

    let user: UserId = 0;
    let cold = server.submit(user, n).unwrap();
    assert!(!cold.cache_hit, "first request must encode");
    assert_eq!(cold.recs, offline(&model, &dataset, user, n));

    let warm = server.submit(user, n).unwrap();
    assert!(warm.cache_hit, "second request must reuse the cached encoding");
    assert_eq!(warm.recs, cold.recs, "cache hit must not change results");

    // One ingest invalidates exactly this user's cache, and the next
    // response reflects the grown history bit-for-bit.
    let new_item: ItemId = (dataset.num_items as ItemId).min(3);
    server.ingest(user, new_item, Behavior::Click).unwrap();
    let after = server.submit(user, n).unwrap();
    assert!(!after.cache_hit, "ingest must invalidate the cache");
    let mut history = dataset.sequences[user as usize].clone();
    history.push(new_item, Behavior::Click);
    let exclude: HashSet<ItemId> = history.items.iter().copied().collect();
    assert_eq!(
        after.recs,
        recommend_top_n(&model, &history, dataset.num_items, n, &exclude, 64)
    );

    let stats = server.shutdown();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
}

#[test]
fn hot_swap_redirects_new_requests_to_the_new_engine() {
    let (model_a, dataset) =
        tiny_model_seeded(EncoderKind::Transformer, ExtractorKind::SelfAttentive, Some(42));
    let (model_b, _) =
        tiny_model_seeded(EncoderKind::Transformer, ExtractorKind::SelfAttentive, Some(1234));
    let n = 5;
    let server = Server::start(
        InferenceModel::compile(&model_a),
        Arc::new(SessionStore::from_dataset(&dataset)),
        RerankChain::empty(),
        ServeConfig {
            max_batch: 4,
            workers: 1,
            ..ServeConfig::default()
        },
    );

    let user: UserId = 1;
    let before = server.submit(user, n).unwrap();
    assert_eq!(before.epoch, 0);
    assert_eq!(before.recs, offline(&model_a, &dataset, user, n));

    let epoch = server.swap_engine(InferenceModel::compile(&model_b));
    assert_eq!(epoch, 1);
    let after = server.submit(user, n).unwrap();
    assert_eq!(after.epoch, 1, "post-swap requests must serve on the new epoch");
    assert!(
        !after.cache_hit,
        "old epoch's cached encoding must not survive the swap"
    );
    assert_eq!(after.recs, offline(&model_b, &dataset, user, n));

    let stats = server.shutdown();
    assert_eq!(stats.swaps, 1);
}

#[test]
fn ann_budget_degrades_probe_width_but_responses_stay_well_formed() {
    let (model, dataset) = tiny_model(EncoderKind::Transformer, ExtractorKind::DynamicRouting);
    let mut engine = InferenceModel::compile(&model);
    let index = engine.build_index_with(8, 7);
    engine.attach_index_with(index, 4).unwrap();
    let n = 5;
    let server = Server::start(
        engine,
        Arc::new(SessionStore::from_dataset(&dataset)),
        RerankChain::empty(),
        ServeConfig {
            max_batch: 2,
            workers: 1,
            cache: false,          // force the ANN path on every request
            ann_budget_us: Some(0), // any observed latency busts the budget
            ..ServeConfig::default()
        },
    );
    // First request seeds the EWMA; later ones must degrade to nprobe 1.
    let mut saw_degraded = false;
    for round in 0..4 {
        let reply = server.submit(round % 3, n).unwrap();
        assert_eq!(reply.recs.len(), n, "degraded responses still rank n items");
        for pair in reply.recs.windows(2) {
            assert!(
                pair[0].score >= pair[1].score,
                "degraded responses stay sorted"
            );
        }
        saw_degraded |= reply.degraded;
    }
    assert!(saw_degraded, "a zero budget must degrade after the first sample");
    let stats = server.shutdown();
    assert!(stats.ann_degraded > 0, "degradation must be counted");
}

#[test]
fn rerank_chain_composes_with_retrieval_overscan() {
    let (model, dataset) = tiny_model(EncoderKind::Hypergraph, ExtractorKind::DynamicRouting);
    let n = 3;
    // topk:3 after a 4× overscan must reproduce the plain top-3 exactly.
    let server = Server::start(
        InferenceModel::compile(&model),
        Arc::new(SessionStore::from_dataset(&dataset)),
        RerankChain::parse("topk:3").unwrap(),
        ServeConfig {
            max_batch: 4,
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let reply = server.submit(2, n).unwrap();
    assert_eq!(reply.recs, offline(&model, &dataset, 2, n));
    server.shutdown();

    // A `seen` stage switches the server from hard-excluding seen items
    // to soft-penalizing them: with an overwhelming penalty every seen
    // item still drops out of the top n.
    let server = Server::start(
        InferenceModel::compile(&model),
        Arc::new(SessionStore::from_dataset(&dataset)),
        RerankChain::parse("seen:1000000").unwrap(),
        ServeConfig {
            max_batch: 4,
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let reply = server.submit(2, n).unwrap();
    assert_eq!(reply.recs.len(), n);
    let seen: HashSet<ItemId> = dataset.sequences[2].items.iter().copied().collect();
    for rec in &reply.recs {
        assert!(
            !seen.contains(&rec.item),
            "a crushing seen penalty must push seen items out of the top {n}"
        );
    }
    server.shutdown();
}

/// A top count near `usize::MAX` is a valid request: with a chain set,
/// the 4× retrieval overscan saturates at the catalog size instead of
/// overflowing (or wrapping to 0) inside a worker, and the reply is the
/// whole unseen catalog in exhaustive order.
#[test]
fn huge_top_count_with_rerank_chain_gets_a_full_reply() {
    let (model, dataset) = tiny_model(EncoderKind::Hypergraph, ExtractorKind::SelfAttentive);
    let server = Server::start(
        InferenceModel::compile(&model),
        Arc::new(SessionStore::from_dataset(&dataset)),
        RerankChain::parse("topk:1000000").unwrap(),
        ServeConfig {
            max_batch: 4,
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let reply = server.submit(2, usize::MAX / 4 + 1).expect("worker must survive");
    let seen: HashSet<ItemId> = dataset.sequences[2].items.iter().copied().collect();
    assert_eq!(reply.recs.len(), dataset.num_items - seen.len());
    assert_eq!(reply.recs, offline(&model, &dataset, 2, dataset.num_items));
    // The server keeps serving after it.
    assert_eq!(server.submit(2, 3).unwrap().recs, offline(&model, &dataset, 2, 3));
    server.shutdown();
}

/// The observability layer must never change what is served:
/// `MBSSL_TRACE=off` and an instrumented run produce bit-identical
/// recommendations for the same workload (the stage histograms are
/// always on in both, so only the span path differs).
#[test]
fn trace_mode_does_not_change_served_results() {
    let (model, dataset) = tiny_model(EncoderKind::Transformer, ExtractorKind::SelfAttentive);
    let n = 5;
    let users: Vec<UserId> = (0..8 as UserId).collect();
    let run = |mode: mbssl_telemetry::TraceMode| -> Vec<Vec<Recommendation>> {
        mbssl_telemetry::set_mode(mode);
        let server = Server::start(
            InferenceModel::compile(&model),
            Arc::new(SessionStore::from_dataset(&dataset)),
            RerankChain::empty(),
            ServeConfig {
                max_batch: 4,
                wait: std::time::Duration::from_millis(2),
                workers: 2,
                cache: false,
                ..ServeConfig::default()
            },
        );
        let requests: Vec<(UserId, usize)> = users.iter().map(|&u| (u, n)).collect();
        let replies: Vec<Vec<Recommendation>> =
            server.submit_all(&requests).into_iter().map(|r| r.unwrap().recs).collect();
        server.shutdown();
        replies
    };
    let off = run(mbssl_telemetry::TraceMode::Off);
    let on = run(mbssl_telemetry::TraceMode::Summary);
    mbssl_telemetry::drain(); // don't leak this test's spans into others
    mbssl_telemetry::set_mode(mbssl_telemetry::TraceMode::Off);
    assert_eq!(off, on, "tracing changed served results");
}

/// `slow_us: Some(0)` marks every request slow: each must append one
/// structured stage-timing record to the tail log, and the metrics
/// snapshot must expose schema-complete JSON and parseable Prometheus
/// text with stage histograms covering every replied request.
#[test]
fn tail_sampling_writes_stage_records_and_snapshot_is_complete() {
    let (model, dataset) = tiny_model(EncoderKind::Hypergraph, ExtractorKind::SelfAttentive);
    let dir = std::env::temp_dir().join(format!("mbssl_tail_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tail_path = dir.join("serve_slow.jsonl");
    let _ = std::fs::remove_file(&tail_path);
    let server = Server::start(
        InferenceModel::compile(&model),
        Arc::new(SessionStore::from_dataset(&dataset)),
        RerankChain::empty(),
        ServeConfig {
            max_batch: 4,
            workers: 1,
            slow_us: Some(0), // every request is "slow"
            tail_log: Some(tail_path.clone()),
            ..ServeConfig::default()
        },
    );
    let n = 5;
    for user in 0..6 as UserId {
        server.submit(user, n).unwrap();
    }

    let snap = server.metrics_snapshot();
    assert_eq!(snap.stats.requests, 6);
    let json = snap.to_json();
    for key in ["\"schema\":\"mbssl.serve.metrics/1\"", "\"stages\":{", "\"tail_sampled\":6"] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    for stage in Stage::ALL {
        assert_eq!(snap.stats.stage(stage).count(), 6, "stage {} coverage", stage.name());
    }
    let prom = snap.to_prometheus();
    assert!(prom.contains("mbssl_serve_requests_total 6"));
    assert!(prom.contains("mbssl_serve_stage_duration_seconds_count{stage=\"total\"} 6"));

    let stats = server.shutdown();
    assert_eq!(stats.tail_sampled, 6);
    let content = std::fs::read_to_string(&tail_path).expect("tail log written");
    let lines: Vec<&str> = content.lines().collect();
    assert_eq!(lines.len(), 6, "one tail record per slow request:\n{content}");
    for line in &lines {
        assert!(line.contains("\"kind\":\"serve_slow\""), "{line}");
        assert!(line.contains("\"reason\":\"slow\""), "{line}");
        for stage in Stage::ALL {
            assert!(line.contains(&format!("\"{}_us\":", stage.name())), "{line}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
