#!/usr/bin/env bash
# Full local CI: the tier-1 gate plus the perf-sensitive test suites that
# guard the packed GEMM kernels, the recycling allocator, and the fused
# transformer-block ops.
#
# Stages:
#   1. tier-1 verify        — release build + `cargo test -q`, which the
#                             root manifest's default-members make
#                             workspace-wide (the gate the roadmap promises
#                             stays green).
#   2. packed-GEMM proptests — bit-for-bit packed==naive, run under worker
#                             pool sizes 1, 2, and the machine default so the
#                             parallel row-split paths are all exercised. The
#                             serving-engine suite (micro-batched == sequential
#                             recommend_top_n, cache/hot-swap/budget gates)
#                             and the infer-parity suite (stage 6) run inside
#                             the same pool-size loop.
#   3. fused-op parity      — bit-for-bit fused==unfused forward + gradients
#                             (also per pool size): the fused ops' one
#                             production path against the unfused oracle.
#                             sdpa splits its [B*H] slices across the pool,
#                             each running kernels::sdpa_slice, so pool size
#                             must never change a bit.
#   4. allocation regression — counting-allocator budget test (also per pool
#                             size; the recycler is thread-local + shared).
#   5. portable data path   — under MBSSL_DATA_MMAP=off (buffered reads,
#                             the path non-unix targets run), the tests of
#                             every format on the one container: the
#                             container's own, the .mbds suite, the
#                             checkpoint round-trip and rejection tests and
#                             the IVF serialization tests. (Each layer has one
#                             production path; fused ops, allocator, sharded
#                             scatter and engine are pinned to their oracles
#                             by the parity suites of stages 2–4 and 6.)
#   6. inference engine     — infer-parity suite: engine == fused autograd
#                             bit for bit (`score_batch` and the `_reference`
#                             oracles). Both sides run kernels::sdpa_slice,
#                             the autograd side split across the pool and the
#                             engine serially, so the suite runs in stage 2's
#                             pool-size loop and again under MBSSL_SIMD=off
#                             (the scalar microkernels hosts without
#                             AVX2/VNNI run must not change a bit); with
#                             stage 3 pinning fused == unfused, replies equal
#                             the unfused composition too. Then the catalog
#                             top-n suite (tests/catalog_topn.rs: screened and
#                             gathered exhaustive ranking), the exact i8
#                             screen suite (tests/catalog_screen.rs) and the
#                             screened IVF re-rank suite (tests/ann_screen.rs)
#                             under MBSSL_SIMD=off and MBSSL_THREADS=1 (the
#                             gathered pass, the screened pass and the
#                             list-ordered screened re-rank must match their oracles
#                             through the scalar tile kernel and the portable
#                             screen kernels too), and the two-stage
#                             retrieval suite (recall gate +
#                             serialization rejection + tie-break parity).
#                             The SIMD microkernel parity proptests also run
#                             inside the pool-size loop of stage 2.
#   7. traced tests         — full workspace tests with MBSSL_TRACE=jsonl:…
#                             so every suite also passes with live telemetry
#                             (determinism + near-zero-overhead contract).
#   8. trace workflow       — synth → traced 2-epoch training (one pool
#                             worker, as the baseline was recorded) with a run
#                             ledger → `mbssl trace summary`, then
#                             `mbssl trace diff` against the committed
#                             BENCH_trace_baseline.jsonl on the share metric
#                             (tolerance 5 share points; spans under 3% of
#                             wall never gate),
#                             an `mbssl report` smoke over two run dirs, and
#                             the index workflow: `mbssl index build` /
#                             `index stats` / two-stage `recommend --index`,
#                             and a bit-parity diff of `recommend` without
#                             --index, the .ivf on disk, against the
#                             pre-index exhaustive output; the trained
#                             checkpoint and its .ivf must leave no `*.tmp`
#                             or `*.part` sibling (atomic publication).
#                             Scoring commands take no --dim/--interests:
#                             the checkpoint records its model config. Then the serve
#                             smoke: a fixed replay served micro-batched
#                             through the index (batch 16, cache on) must be
#                             byte-identical to
#                             the single-request run (batch 1, cache off) and
#                             to offline `recommend`, report zero allocator
#                             misses after the steady-state mark, and shut
#                             down cleanly; the replay's `metrics` snapshot
#                             must be schema-complete, count the sessions
#                             the serve banner announced, and have every stage
#                             histogram covering every replied request and a
#                             parseable Prometheus exposition, and `mbssl
#                             top` must render a frame from it. Two hostile
#                             replays: a top count whose 4x re-rank overscan
#                             overflows must still get a reply and a clean
#                             shutdown, and an unknown command must exit 1
#                             with its line number and no panic. Then a
#                             mixed-length replay: a fresh user with two
#                             ingested events batched with users 3 and 7
#                             in one wave (one forward) must print at
#                             batch 16 exactly what batch 1 prints with
#                             the cache off.
#   9. data substrate       — `mbssl convert` on the trace-workflow TSV,
#                             `dataset stats` agreement between the .mbds
#                             and TSV paths, then the bit-parity gate:
#                             training from the mmap'd .mbds (named by
#                             --data) must produce a checkpoint
#                             byte-identical to the TSV-parsed run. Also a
#                             direct-to-.mbds `synth --preset scale` smoke;
#                             `convert` and `synth` must leave no temp file.
#                             The shard_parity suite runs in the stage-2
#                             pool-size loop, and the MBSSL_DATA_MMAP=off
#                             format suite is stage 5.
#  10. rustdoc              — `cargo doc --no-deps` for the workspace crates
#                             with warnings promoted to errors (missing-docs
#                             regressions fail here).
#  11. serve instrumentation — 3 interleaved `exp_serve --quick` pairs,
#                             telemetry off then MBSSL_TRACE=summary; fails
#                             when even the best pair's sequential-phase QPS
#                             drops more than 5% with instrumentation on
#                             (scripts/serve_overhead.py, DESIGN.md §17.2).
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> tier-1: release build"
cargo build --release

echo "==> tier-1: workspace tests"
cargo test -q

for threads in 1 2 ""; do
    label="${threads:-default}"
    echo "==> packed GEMM proptests (MBSSL_THREADS=$label)"
    if [[ -n "$threads" ]]; then
        MBSSL_THREADS="$threads" cargo test --release -p mbssl-tensor --test packed_gemm -q
    else
        env -u MBSSL_THREADS cargo test --release -p mbssl-tensor --test packed_gemm -q
    fi

    echo "==> fused-op parity proptests (MBSSL_THREADS=$label)"
    if [[ -n "$threads" ]]; then
        MBSSL_THREADS="$threads" cargo test --release -p mbssl-tensor --test fused_parity -q
    else
        env -u MBSSL_THREADS cargo test --release -p mbssl-tensor --test fused_parity -q
    fi

    echo "==> allocation-regression test (MBSSL_THREADS=$label)"
    if [[ -n "$threads" ]]; then
        MBSSL_THREADS="$threads" cargo test --release -p mbssl-tensor --test alloc_budget -q
    else
        env -u MBSSL_THREADS cargo test --release -p mbssl-tensor --test alloc_budget -q
    fi

    echo "==> SIMD microkernel parity proptests (MBSSL_THREADS=$label)"
    if [[ -n "$threads" ]]; then
        MBSSL_THREADS="$threads" cargo test --release -p mbssl-tensor --test simd_parity -q
    else
        env -u MBSSL_THREADS cargo test --release -p mbssl-tensor --test simd_parity -q
    fi

    echo "==> serving-engine parity (batched == sequential, MBSSL_THREADS=$label)"
    if [[ -n "$threads" ]]; then
        MBSSL_THREADS="$threads" cargo test --release -p mbssl-core --test serve -q
    else
        env -u MBSSL_THREADS cargo test --release -p mbssl-core --test serve -q
    fi

    echo "==> inference-engine parity (engine == fused autograd, MBSSL_THREADS=$label)"
    if [[ -n "$threads" ]]; then
        MBSSL_THREADS="$threads" cargo test --release -p mbssl-core --test infer_parity -q
    else
        env -u MBSSL_THREADS cargo test --release -p mbssl-core --test infer_parity -q
    fi

    echo "==> sharded embedding-gradient parity (MBSSL_THREADS=$label)"
    if [[ -n "$threads" ]]; then
        MBSSL_THREADS="$threads" cargo test --release -p mbssl-tensor --test shard_parity -q
    else
        env -u MBSSL_THREADS cargo test --release -p mbssl-tensor --test shard_parity -q
    fi
done

echo "==> portable data path (MBSSL_DATA_MMAP=off, buffered reads of every container format)"
MBSSL_DATA_MMAP=off cargo test --release -p mbssl-data --lib container -q
MBSSL_DATA_MMAP=off cargo test --release -p mbssl-data --test format -q
MBSSL_DATA_MMAP=off cargo test --release -p mbssl-core --lib serialize -q
MBSSL_DATA_MMAP=off cargo test --release -p mbssl-core --lib ann -q
MBSSL_DATA_MMAP=off cargo test --release -p mbssl-core --test ann -q

echo "==> portable kernels (MBSSL_SIMD=off, scalar microkernels)"
MBSSL_SIMD=off cargo test --release -p mbssl-tensor --test simd_parity -q
MBSSL_SIMD=off cargo test --release -p mbssl-core --test infer_parity -q

echo "==> catalog top-n (screened and gathered), exact screen and screened IVF re-rank (scalar/portable kernels, single thread)"
MBSSL_SIMD=off cargo test --release --test catalog_topn -q
MBSSL_THREADS=1 cargo test --release --test catalog_topn -q
MBSSL_SIMD=off cargo test --release --test catalog_screen -q
MBSSL_THREADS=1 cargo test --release --test catalog_screen -q
MBSSL_SIMD=off cargo test --release --test ann_screen -q
MBSSL_THREADS=1 cargo test --release --test ann_screen -q

echo "==> two-stage retrieval (IVF index + rerank)"
cargo test --release -p mbssl-core --test ann -q

trace_file=$(mktemp -t mbssl_ci_trace.XXXXXX.jsonl)
trace_dir=$(mktemp -d -t mbssl_ci_tracewf.XXXXXX)
trap 'rm -rf "$trace_file" "$trace_dir"' EXIT
# Checkpoints, indexes, logs and .mbds files publish atomically and remove
# their temporaries: no `*.tmp`, `*.part` (the .mbds column temps) or
# `*.part-<pid>` (synth's intermediate TSV) file may be left next to $1.
no_temp_siblings() {
    local left
    left=$(find "$(dirname "$1")" -maxdepth 1 \( -name "*.tmp" -o -name "*.part" -o -name "*.part-*" \))
    if [[ -n "$left" ]]; then
        echo "temp files left next to $1: $left" >&2
        exit 1
    fi
}
echo "==> traced tests (MBSSL_TRACE=jsonl:$trace_file, full workspace)"
MBSSL_TRACE="jsonl:$trace_file" cargo test --workspace -q

echo "==> trace workflow (synth → traced train + ledger → trace summary/diff → report)"
mbssl=target/release/mbssl
"$mbssl" synth --out "$trace_dir/log.tsv" --scale 0.05 --seed 11
# One worker, like the baseline (recorded with `cores:1`): pool size moves
# where training time goes, so a default-pool run on a multi-core host
# would not compare like with like.
MBSSL_THREADS=1 "$mbssl" train --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model.ckpt" --epochs 2 --dim 16 --interests 2 \
    --trace "jsonl:$trace_dir/trace.jsonl" --run-dir "$trace_dir/run0"
no_temp_siblings "$trace_dir/model.ckpt"
"$mbssl" trace summary "$trace_dir/trace.jsonl" \
    --collapsed "$trace_dir/trace.folded" > /dev/null
# Share-of-wall regression gate against the committed baseline: machine-
# portable (compares where time goes, not absolute speed). Only spans that
# hold ≥3% of wall gate, with 5 share points of headroom for scheduler
# jitter.
"$mbssl" trace diff BENCH_trace_baseline.jsonl "$trace_dir/trace.jsonl" \
    --metric share --tol 5 --min-share 3
"$mbssl" train --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model2.ckpt" --epochs 2 --dim 16 --interests 2 \
    --run-dir "$trace_dir/run1"
"$mbssl" report "$trace_dir/run0" "$trace_dir/run1"

echo "==> index workflow (build → stats → two-stage recommend → unnamed-index parity)"
# Exhaustive ranking of record, captured before any index exists.
"$mbssl" recommend --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model.ckpt" --user 3 --top 5 \
    > "$trace_dir/recs_exhaustive.txt"
"$mbssl" index build --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model.ckpt"
no_temp_siblings "$trace_dir/model.ckpt.ivf"
"$mbssl" index stats "$trace_dir/model.ckpt.ivf"
# Two-stage smoke: --index attaches the index.
"$mbssl" recommend --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model.ckpt" --user 3 --top 5 \
    --index "$trace_dir/model.ckpt.ivf" > /dev/null
# Unnamed-index parity: with the index on disk but not named, the output
# must be bit-for-bit the pre-index exhaustive ranking.
"$mbssl" recommend --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model.ckpt" --user 3 --top 5 \
    > "$trace_dir/recs_unnamed_index.txt"
diff "$trace_dir/recs_exhaustive.txt" "$trace_dir/recs_unnamed_index.txt"

echo "==> serve smoke (replay parity, offline cross-check, metrics snapshot, zero steady-state allocs, clean shutdown)"
# Fixed replay: a warmup wave, then `mark` opens the steady-state window
# and the identical wave repeats — by then every buffer the batch shapes
# need has been high-watered, so the size-class allocator must not miss.
# The trailing `metrics` commands snapshot the server state to files
# (stderr/files only, so stdout stays byte-diffable across configs).
cat > "$trace_dir/replay.txt" <<REPLAY
rec 3 5
rec 7 5
rec 11 5
mark
rec 3 5
rec 7 5
rec 11 5
metrics json $trace_dir/metrics.json
metrics prom $trace_dir/metrics.prom
quit
REPLAY
# Micro-batched run (cache on, the serving default; --index names the
# index, so this also smokes two-stage retrieval under batching).
MBSSL_SERVE_BATCH=16 MBSSL_SERVE_WORKERS=1 "$mbssl" serve \
    --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model.ckpt" --index "$trace_dir/model.ckpt.ivf" \
    --replay "$trace_dir/replay.txt" \
    > "$trace_dir/serve_b16.txt" 2> "$trace_dir/serve_b16.err"
# Single-request run (no batching, no cache): stdout must be bit-identical.
MBSSL_SERVE_BATCH=1 MBSSL_SERVE_WORKERS=1 MBSSL_SERVE_CACHE=off "$mbssl" serve \
    --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model.ckpt" --index "$trace_dir/model.ckpt.ivf" \
    --replay "$trace_dir/replay.txt" \
    > "$trace_dir/serve_b1.txt" 2> /dev/null
diff "$trace_dir/serve_b16.txt" "$trace_dir/serve_b1.txt"
# Offline cross-check: the served item lines for user 3 must match what
# `mbssl recommend` prints for the same user, model, and index.
"$mbssl" recommend --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model.ckpt" --user 3 --top 5 \
    --index "$trace_dir/model.ckpt.ivf" | tail -5 > "$trace_dir/offline_user3.txt"
head -6 "$trace_dir/serve_b16.txt" | tail -5 > "$trace_dir/served_user3.txt"
diff "$trace_dir/offline_user3.txt" "$trace_dir/served_user3.txt"
# Steady-state serving must not allocate (arena + size-class recycling),
# and the drain must be clean.
grep -q "steady-state alloc misses: 0" "$trace_dir/serve_b16.err"
grep -q "clean shutdown" "$trace_dir/serve_b16.err"
# Hostile replays. A top count of 2^62 under a re-rank chain (4x overscan)
# must be answered, not kill a worker:
printf 'rec 3 4611686018427387904\nquit\n' > "$trace_dir/replay_huge.txt"
"$mbssl" serve --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model.ckpt" --rerank topk:5 \
    --replay "$trace_dir/replay_huge.txt" \
    > "$trace_dir/serve_huge.txt" 2> "$trace_dir/serve_huge.err"
grep -q "^top-4611686018427387904 recommendations for user 3:" "$trace_dir/serve_huge.txt"
grep -q "clean shutdown" "$trace_dir/serve_huge.err"
# and an unknown command must stop the server with its line number.
printf 'rec 3 5\nfrobnicate 1\n' > "$trace_dir/replay_bad.txt"
status=0
"$mbssl" serve --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model.ckpt" \
    --replay "$trace_dir/replay_bad.txt" > /dev/null 2> "$trace_dir/serve_bad.err" || status=$?
if [[ $status -ne 1 ]] || grep -q "panicked" "$trace_dir/serve_bad.err" \
    || ! grep -q 'error: line 2: unknown serve command "frobnicate"' "$trace_dir/serve_bad.err"; then
    echo "unknown serve command: exit $status, stderr:" >&2
    cat "$trace_dir/serve_bad.err" >&2
    exit 1
fi
# Mixed-length replay: every log user's history fills max_seq_len, so the
# replays above never batch different lengths. A fresh user with two
# ingested events shares one wave, and one forward (the 100 ms straggler
# window makes the batch of 3 certain), with users 3 and 7; micro-batched
# stdout must equal the single-request run with the cache off.
cat > "$trace_dir/replay_mixed.txt" <<'REPLAY'
event 9999 1 click
event 9999 2 purchase
rec 3 5
rec 9999 5
rec 7 5
quit
REPLAY
MBSSL_SERVE_BATCH=16 MBSSL_SERVE_WORKERS=1 MBSSL_SERVE_WAIT_US=100000 "$mbssl" serve \
    --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model.ckpt" \
    --replay "$trace_dir/replay_mixed.txt" \
    > "$trace_dir/serve_mixed_b16.txt" 2> "$trace_dir/serve_mixed_b16.err"
grep -q "serve: rec user=9999 batch=3 " "$trace_dir/serve_mixed_b16.err"
MBSSL_SERVE_BATCH=1 MBSSL_SERVE_WORKERS=1 MBSSL_SERVE_CACHE=off "$mbssl" serve \
    --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model.ckpt" \
    --replay "$trace_dir/replay_mixed.txt" \
    > "$trace_dir/serve_mixed_b1.txt" 2> /dev/null
grep -q "^top-5 recommendations for user 9999:" "$trace_dir/serve_mixed_b1.txt"
diff "$trace_dir/serve_mixed_b16.txt" "$trace_dir/serve_mixed_b1.txt"
# Metrics snapshot validation (DESIGN.md §17): the replay issued
# `metrics json/prom`; the JSON snapshot must be schema-complete, every
# stage histogram must cover every replied request, and the Prometheus
# exposition must parse line-by-line. The replay only asks for users the
# log has, so the snapshot's session count must equal the user count the
# serve banner printed.
banner_sessions=$(sed -n 's/^serve: up — \([0-9]*\) sessions.*/\1/p' "$trace_dir/serve_b16.err")
python3 - "$trace_dir/metrics.json" "$trace_dir/metrics.prom" "$banner_sessions" <<'PY'
import json, sys

snap = json.load(open(sys.argv[1]))
assert snap["schema"] == "mbssl.serve.metrics/1", snap.get("schema")
assert snap["sessions"] == int(sys.argv[3]), (snap["sessions"], sys.argv[3])
for key in ["unix_time_ms", "uptime_ms", "epoch", "queue_depth", "sessions",
            "counters", "cache_hit_rate", "mean_batch", "ann_budget_us",
            "ann_ewma_us", "ann_degraded_now", "batch", "stages"]:
    assert key in snap, "snapshot missing %s" % key
for key in ["requests", "batches", "cache_hits", "cache_misses",
            "ann_degraded", "swaps", "tail_sampled"]:
    assert key in snap["counters"], "counters missing %s" % key
requests = snap["counters"]["requests"]
assert requests == 6, requests
stages = snap["stages"]
assert sorted(stages) == sorted(
    ["queue", "resolve", "forward", "rank", "rerank", "reply", "total"]
), sorted(stages)
for name, h in stages.items():
    for key in ["count", "sum", "min", "max", "p50", "p90", "p99", "buckets"]:
        assert key in h, "stage %s missing %s" % (name, key)
    assert h["count"] == requests, "stage %s covers %d/%d" % (name, h["count"], requests)
    assert sum(c for _, _, c in h["buckets"]) == h["count"], name
    assert h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["max"], name
assert sum(c for _, _, c in snap["batch"]["buckets"]) == snap["counters"]["batches"]
for line in open(sys.argv[2]):
    line = line.rstrip("\n")
    if not line or line.startswith("#"):
        continue
    metric, value = line.rsplit(" ", 1)
    assert metric, line
    float(value)
print("metrics snapshot OK: %d requests, %d stages" % (requests, len(stages)))
PY
# Dashboard smoke: one frame rendered from the snapshot file.
"$mbssl" top "$trace_dir/metrics.json" --frames 1 --no-clear | grep -q "^mbssl top"

echo "==> data substrate (convert → stats → TSV-vs-.mbds bit-identical training)"
# Convert the trace-workflow TSV and check the .mbds reports the same
# dataset shape the TSV pipeline computes.
"$mbssl" convert --data "$trace_dir/log.tsv" --target purchase
no_temp_siblings "$trace_dir/log.tsv.mbds"
"$mbssl" dataset stats "$trace_dir/log.tsv.mbds" > "$trace_dir/stats_mbds.txt"
"$mbssl" dataset stats "$trace_dir/log.tsv" --target purchase > "$trace_dir/stats_tsv.txt"
# Identical counts from both paths (strip the format/backing/target/timing
# lines — only the .mbds header records a target).
grep -E "users|items|interactions|click|cart|favorite|avg|density|gini|purchase:" \
    "$trace_dir/stats_mbds.txt" | grep -vE "backing|target" > "$trace_dir/stats_mbds_core.txt"
grep -E "users|items|interactions|click|cart|favorite|avg|density|gini|purchase:" \
    "$trace_dir/stats_tsv.txt" > "$trace_dir/stats_tsv_core.txt"
diff "$trace_dir/stats_mbds_core.txt" "$trace_dir/stats_tsv_core.txt"
# Training from the mmap'd .mbds must be bit-for-bit the TSV-parsed run:
# compare checkpoints, not logs (metrics files carry wall-clock timings).
"$mbssl" train --data "$trace_dir/log.tsv" --target purchase \
    --model "$trace_dir/model_tsv.ckpt" --epochs 1 --dim 16 --interests 2
"$mbssl" train --data "$trace_dir/log.tsv.mbds" --target purchase \
    --model "$trace_dir/model_mbds.ckpt" --epochs 1 --dim 16 --interests 2
cmp "$trace_dir/model_tsv.ckpt" "$trace_dir/model_mbds.ckpt"
# Direct-to-.mbds synthesis at the scale regime's smallest preset.
"$mbssl" synth --out "$trace_dir/scale.mbds" --preset scale --users 1000 --seed 5
no_temp_siblings "$trace_dir/scale.mbds"
"$mbssl" dataset stats "$trace_dir/scale.mbds" > /dev/null
"$mbssl" train --data "$trace_dir/scale.mbds" \
    --model "$trace_dir/model_scale.ckpt" --epochs 1 --dim 16 --interests 2

echo "==> rustdoc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> serve instrumentation overhead (3 interleaved off/summary exp_serve pairs)"
# Closed-loop QPS drifts more between runs than instrumentation costs, so
# each instrumented run is compared with the telemetry-off run just
# before it, and the gate fails only when every pair shows the overhead.
for pair in 1 2 3; do
    MBSSL_TRACE=off target/release/exp_serve --quick --reqs 256 \
        --out "$trace_dir/serve_gate/off_$pair" > /dev/null
    MBSSL_TRACE=summary target/release/exp_serve --quick --reqs 256 \
        --out "$trace_dir/serve_gate/on_$pair" > /dev/null
done
python3 scripts/serve_overhead.py "$trace_dir/serve_gate"

echo "CI OK"
