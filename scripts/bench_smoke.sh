#!/usr/bin/env bash
# Quick throughput smoke: runs the criterion throughput bench in quick mode
# and distills items/sec figures into BENCH_throughput.json at the repo root.
#
# Two passes:
#   1. the full suite with telemetry OFF (the numbers of record) — this includes the serving pair
#      `throughput_recommend_top_n` (inference engine, one-pass catalog
#      ranking) vs `throughput_recommend_graph` (pre-engine chunked path);
#      their ratio is distilled into the report's `recommend.speedup`, and
#      the dataset-load pair `dataset_load_tsv` / `dataset_load_mbds`
#      (events/sec over identical preprocessed data) plus the bare
#      `dataset_open_mbds` latency, distilled into the `data` section;
#   2. a `train_step`-only pass with MBSSL_TRACE=summary so the report's
#      `telemetry` section carries the top spans by total time (and the span
#      table prints to stderr).
#
# The telemetry-off train_step throughput from pass 1 is additionally checked
# against the previously committed BENCH_throughput.json: a regression beyond
# MBSSL_BENCH_TOL_PCT (default 2%) fails the script, enforcing the
# "disabled-mode tracing is free" contract.
#
# A third pass runs `exp_serve` (16 closed-loop clients against the
# micro-batched serving engine); its per-phase QPS / p50 / p90 / p99,
# per-stage quantile breakdown, batch histogram, and the
# engine-vs-single-request speedup are embedded as the report's `serve`
# section. A fourth pass runs the observability overhead gate: interleaved
# (telemetry-off, MBSSL_TRACE=summary) exp_serve pairs, compared within
# each pair on the sequential phase; the best pair's instrumented QPS must
# stay within MBSSL_BENCH_TOL_PCT (default 5 for this gate) of its
# telemetry-off partner, enforcing that the serve stage histograms + span
# instrumentation stay cheap (DESIGN.md §17). Pairing adjacent runs cancels
# machine drift; gating the best pair means the gate only fails when every
# pair shows the regression — the signature of real overhead, not noise.
#
# On success, one summary line {git_rev, date, untraced/traced train_step
# items/s, serve QPS + latency figures} is appended to the committed
# BENCH_history.jsonl, so throughput history accumulates across commits and
# stays greppable/plottable.
#
# Usage: scripts/bench_smoke.sh [extra cargo-bench args]
# Env:   MBSSL_THREADS       — forwarded to the worker pool (see DESIGN.md §Threading).
#        MBSSL_TRACE         — telemetry mode; forced per pass as described above.
#        MBSSL_BENCH_TOL_PCT — allowed train_step regression vs the committed
#                              report before this script fails (default 2).
#        MBSSL_BENCH_WARMUP  — discarded warmup passes of the full suite run
#                              before the measured passes, to stabilize CPU
#                              frequency and caches (default 1; 0 disables).
#        MBSSL_BENCH_SERVE_PAIRS — interleaved off/instrumented exp_serve
#                              pairs for the serve overhead gate (default 3).
set -euo pipefail
cd "$(dirname "$0")/.."

# Noise guard: warm the build, CPU governor, and page cache with discarded
# passes before anything is measured. The warmup count and the host load
# average land in the report's meta block so outliers can be diagnosed.
export MBSSL_BENCH_WARMUP="${MBSSL_BENCH_WARMUP:-1}"
for ((i = 0; i < MBSSL_BENCH_WARMUP; i++)); do
    echo "warmup pass $((i + 1))/$MBSSL_BENCH_WARMUP (discarded)" >&2
    CRITERION_QUICK=1 MBSSL_TRACE=off \
        cargo bench -p mbssl-bench --bench throughput "$@" > /dev/null 2>&1
done

raw=$(mktemp)
raw_traced=$(mktemp)
prev_report=$(mktemp)
trap 'rm -f "$raw" "$raw_traced" "$prev_report"' EXIT

# Keep the previous report for the overhead check: the python heredoc's
# stdout redirect truncates BENCH_throughput.json before python runs.
if [[ -f BENCH_throughput.json ]]; then
    cp BENCH_throughput.json "$prev_report"
else
    : > "$prev_report"
fi

CRITERION_QUICK=1 CRITERION_JSON="$raw" MBSSL_TRACE=off \
    cargo bench -p mbssl-bench --bench throughput "$@"

CRITERION_QUICK=1 CRITERION_JSON="$raw_traced" \
    MBSSL_TRACE=summary MBSSL_BENCH_ONLY=train_step \
    cargo bench -p mbssl-bench --bench throughput "$@"

# Serving load test (DESIGN.md §15): 16 closed-loop clients against the
# micro-batched request engine; QPS, p50/p99, batch histogram, and the
# engine-vs-single-request speedup land in the report's `serve` section.
serve_dir=$(mktemp -d)
trap 'rm -rf "$raw" "$raw_traced" "$prev_report" "$serve_dir"' EXIT
echo "serve load test (exp_serve, 16 clients)" >&2
MBSSL_TRACE=off cargo run --release -q -p mbssl-bench --bin exp_serve -- \
    --quick --reqs 64 --out "$serve_dir" >&2
# Observability overhead gate (DESIGN.md §17): closed-loop serve QPS on a
# shared box drifts far more than instrumentation costs, so one
# off-vs-instrumented comparison flakes. Run interleaved pairs — telemetry
# off, then MBSSL_TRACE=summary, back to back so drift cancels within a
# pair — at a request count high enough (256/client) to dampen the
# batching/cache dynamics. The python below gates on the BEST pair: real
# overhead depresses the instrumented side of every pair, noise does not.
serve_pairs="${MBSSL_BENCH_SERVE_PAIRS:-3}"
for ((p = 1; p <= serve_pairs; p++)); do
    echo "serve overhead gate pair $p/$serve_pairs (off, then MBSSL_TRACE=summary)" >&2
    MBSSL_TRACE=off cargo run --release -q -p mbssl-bench --bin exp_serve -- \
        --quick --reqs 256 --out "$serve_dir/gate_off_$p" >&2
    MBSSL_TRACE=summary cargo run --release -q -p mbssl-bench --bin exp_serve -- \
        --quick --reqs 256 --out "$serve_dir/gate_on_$p" >&2
done

python3 - "$raw" "$raw_traced" "$prev_report" "$serve_dir/serve.json" "$serve_dir" > BENCH_throughput.json <<'PY'
import datetime, glob, json, os, re, subprocess, sys

def load(path):
    rows, allocator, telemetry = [], {}, {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            if rec["name"] == "alloc_stats":
                section = rec.get("section", "all")
                allocator[section] = {
                    k: v for k, v in rec.items() if k not in ("name", "section")
                }
                continue
            if rec["name"] == "telemetry":
                telemetry.setdefault(rec.get("section", "all"), []).append(
                    {k: v for k, v in rec.items() if k not in ("name", "section")}
                )
                continue
            m = re.search(r"items(\d+)$", rec["name"])
            items = int(m.group(1)) if m else 1
            rows.append({
                "name": rec["name"],
                "ns_per_iter": rec["ns_per_iter"],
                "items_per_iter": items,
                "items_per_sec": round(rec["iters_per_sec"] * items, 1),
            })
    return rows, allocator, telemetry

rows, allocator, _ = load(sys.argv[1])
traced_rows, _, traced_telemetry = load(sys.argv[2])

git_rev = subprocess.run(
    ["git", "rev-parse", "HEAD"], capture_output=True, text=True
).stdout.strip() or None

try:
    loadavg = [round(v, 2) for v in os.getloadavg()]
except OSError:
    loadavg = None

meta = {
    "git_rev": git_rev,
    "date": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "cores": os.cpu_count(),
    "loadavg": loadavg,
    "warmup_passes": int(os.environ.get("MBSSL_BENCH_WARMUP", "0") or 0),
    "MBSSL_THREADS": os.environ.get("MBSSL_THREADS", ""),
}

report = {"unit": "items/sec", "meta": meta, "benchmarks": rows}

# Serving speedup: the inference-engine catalog ranking vs the pre-engine
# chunked score_batch path, side by side with the ratio of record.
def items_per_sec(rows, sub):
    r = next((r for r in rows if sub in r["name"]), None)
    return r["items_per_sec"] if r else None

rec_engine = items_per_sec(rows, "recommend_top_n_items")
rec_graph = items_per_sec(rows, "recommend_graph")
if rec_engine and rec_graph:
    report["recommend"] = {
        "engine_items_per_sec": rec_engine,
        "graph_items_per_sec": rec_graph,
        "speedup": round(rec_engine / rec_graph, 2),
    }

# Two-stage retrieval (DESIGN.md §14): ANN vs exhaustive ranking on the
# regular and the 10x synthetic catalog, plus IVF index build time. The
# xl speedup is the figure of record for the retrieve-then-rerank path.
def ns_per_iter(rows, sub):
    r = next((r for r in rows if sub in r["name"]), None)
    return r["ns_per_iter"] if r else None

rec_ann = items_per_sec(rows, "recommend_ann_items")
rec_xl = items_per_sec(rows, "recommend_top_n_xl_items")
rec_ann_xl = items_per_sec(rows, "recommend_ann_xl_items")
build_2400 = ns_per_iter(rows, "index_build_catalog2400")
build_24000 = ns_per_iter(rows, "index_build_catalog24000")
two_stage = {}
if rec_engine and rec_ann:
    two_stage["catalog2400"] = {
        "exhaustive_items_per_sec": rec_engine,
        "ann_items_per_sec": rec_ann,
        "speedup": round(rec_ann / rec_engine, 2),
    }
if rec_xl and rec_ann_xl:
    two_stage["catalog24000"] = {
        "exhaustive_items_per_sec": rec_xl,
        "ann_items_per_sec": rec_ann_xl,
        "speedup": round(rec_ann_xl / rec_xl, 2),
    }
builds = {}
if build_2400:
    builds["catalog2400"] = round(build_2400 / 1e6, 2)
if build_24000:
    builds["catalog24000"] = round(build_24000 / 1e6, 2)
if builds:
    two_stage["index_build_ms"] = builds
if two_stage:
    report["two_stage"] = two_stage

# Data substrate (DESIGN.md §16): TSV parse+k-core vs mmap'd .mbds
# open+materialize, in events/sec over identical preprocessed data, plus
# the bare .mbds open+validate latency (the zero-copy path of record).
load_tsv = items_per_sec(rows, "dataset_load_tsv")
load_mbds = items_per_sec(rows, "dataset_load_mbds")
open_mbds = ns_per_iter(rows, "dataset_open_mbds")
data = {}
if load_tsv and load_mbds:
    data = {
        "tsv_events_per_sec": load_tsv,
        "mbds_events_per_sec": load_mbds,
        "speedup": round(load_mbds / load_tsv, 2),
    }
if open_mbds:
    data["mbds_open_us"] = round(open_mbds / 1e3, 1)
if data:
    report["data"] = data

# Top spans by total time per traced section, alongside the traced
# throughput so the tracing cost is visible next to the numbers of record.
telemetry = {}
for section, recs in traced_telemetry.items():
    spans = sorted(
        (r for r in recs if r.get("kind") == "span"),
        key=lambda r: r.get("total_ns", 0),
        reverse=True,
    )[:10]
    gauges = {r["label"]: r["value"] for r in recs if r.get("kind") in ("counter", "gauge")}
    telemetry[section] = {"top_spans": spans, "gauges": gauges}
if telemetry:
    report["telemetry"] = telemetry
    traced_train = next(
        (r for r in traced_rows if "train_step" in r["name"]), None
    )
    if traced_train:
        report["telemetry"]["train_step_traced_items_per_sec"] = \
            traced_train["items_per_sec"]
if allocator:
    report["allocator"] = allocator

# Serving load test: per-phase QPS / p50 / p90 / p99, per-stage quantile
# breakdown, batch histogram, plus the engine-vs-single-request speedups
# (exp_serve, 16 closed-loop clients).
serve = None
try:
    with open(sys.argv[4]) as fh:
        serve = json.load(fh)
except (OSError, json.JSONDecodeError):
    serve = None
if serve:
    report["serve"] = serve

# Serve observability overhead gate (DESIGN.md §17): interleaved
# (off, MBSSL_TRACE=summary) exp_serve pairs, compared within each pair
# on the sequential phase — there every request is its own batch, so the
# per-request instrumentation exposure is maximal and there are no
# cache/batching dynamics adding variance. Real overhead depresses the
# instrumented side of EVERY pair; machine drift does not. The gate
# therefore fails only when the best pair still shows a regression
# beyond tolerance. Closed-loop serve QPS is noisier than the criterion
# train_step, so this gate defaults to 5% (the trace-diff default)
# rather than the train gate's 2%.
def sequential_qps(path):
    try:
        with open(path) as fh:
            run = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    phase = {p["phase"]: p for p in run.get("phases", [])}.get("sequential")
    return phase["qps"] if phase else None

pairs = []
for off_path in sorted(glob.glob(os.path.join(sys.argv[5], "gate_off_*", "serve.json"))):
    idx = os.path.basename(os.path.dirname(off_path)).rsplit("_", 1)[-1]
    off_qps = sequential_qps(off_path)
    on_qps = sequential_qps(os.path.join(sys.argv[5], f"gate_on_{idx}", "serve.json"))
    if off_qps and on_qps:
        pairs.append({
            "off_qps": round(off_qps, 1),
            "instrumented_qps": round(on_qps, 1),
            "overhead_pct": round(100 * (1 - on_qps / off_qps), 2),
        })
if pairs:
    serve_tol = float(os.environ.get("MBSSL_BENCH_TOL_PCT", "5"))
    best = min(p["overhead_pct"] for p in pairs)
    verdict = {
        "phase": "sequential",
        "pairs": pairs,
        "best_overhead_pct": best,
        "tolerance_pct": serve_tol,
        "ok": best <= serve_tol,
    }
    report.setdefault("serve", {})["instrumentation_check"] = verdict
    if not verdict["ok"]:
        json.dump(report, sys.stdout, indent=2)
        print()
        print(
            f"FAIL: instrumented serve QPS regressed more than {serve_tol}% "
            f"below the telemetry-off partner in all {len(pairs)} interleaved "
            f"pairs (best overhead {best}%)",
            file=sys.stderr,
        )
        sys.exit(1)

# Disabled-mode overhead gate: pass-1 train_step (MBSSL_TRACE=off) must stay
# within MBSSL_BENCH_TOL_PCT of the committed report's figure.
tol_pct = float(os.environ.get("MBSSL_BENCH_TOL_PCT", "2"))
try:
    with open(sys.argv[3]) as fh:
        prev = json.load(fh)
except (OSError, json.JSONDecodeError):
    prev = None
if prev:
    prev_train = next(
        (r for r in prev.get("benchmarks", []) if "train_step" in r["name"]), None
    )
    new_train = next((r for r in rows if "train_step" in r["name"]), None)
    if prev_train and new_train:
        floor = prev_train["items_per_sec"] * (1 - tol_pct / 100)
        verdict = {
            "previous_items_per_sec": prev_train["items_per_sec"],
            "current_items_per_sec": new_train["items_per_sec"],
            "tolerance_pct": tol_pct,
            "ok": new_train["items_per_sec"] >= floor,
        }
        report["overhead_check"] = verdict
        if not verdict["ok"]:
            json.dump(report, sys.stdout, indent=2)
            print()
            print(
                f"FAIL: untraced train_step {new_train['items_per_sec']} items/s "
                f"regressed more than {tol_pct}% below the committed "
                f"{prev_train['items_per_sec']} items/s",
                file=sys.stderr,
            )
            sys.exit(1)

# One throughput-history line per successful run: the two train_step
# figures (untraced / traced) against rev + date.
def train_step_items(rows):
    r = next((r for r in rows if "train_step" in r["name"]), None)
    return r["items_per_sec"] if r else None

history = {
    "git_rev": git_rev,
    "date": meta["date"],
    "cores": meta["cores"],
    "train_step_items_per_sec": train_step_items(rows),
    "train_step_traced_items_per_sec": train_step_items(traced_rows),
    "recommend_engine_items_per_sec": rec_engine,
    "recommend_graph_items_per_sec": rec_graph,
    "recommend_speedup": round(rec_engine / rec_graph, 2) if rec_engine and rec_graph else None,
    "recommend_ann_items_per_sec": rec_ann,
    "recommend_ann_xl_items_per_sec": rec_ann_xl,
    "recommend_top_n_xl_items_per_sec": rec_xl,
    "ann_speedup_xl": round(rec_ann_xl / rec_xl, 2) if rec_ann_xl and rec_xl else None,
    "index_build_ms_catalog24000": round(build_24000 / 1e6, 2) if build_24000 else None,
    "dataset_load_tsv_events_per_sec": load_tsv,
    "dataset_load_mbds_events_per_sec": load_mbds,
    "dataset_load_speedup": round(load_mbds / load_tsv, 2) if load_tsv and load_mbds else None,
}
if serve:
    by_phase = {p["phase"]: p for p in serve.get("phases", [])}
    history.update({
        "serve_sequential_qps": round(by_phase["sequential"]["qps"], 1)
            if "sequential" in by_phase else None,
        "serve_batched_qps": round(by_phase["batched"]["qps"], 1)
            if "batched" in by_phase else None,
        "serve_cached_qps": round(by_phase["cached"]["qps"], 1)
            if "cached" in by_phase else None,
        "serve_p50_us": by_phase.get("cached", {}).get("p50_us"),
        "serve_p90_us": by_phase.get("cached", {}).get("p90_us"),
        "serve_p99_us": by_phase.get("cached", {}).get("p99_us"),
        "serve_speedup": serve.get("cached_speedup"),
        "serve_batched_speedup": serve.get("batched_speedup"),
        # Server-side stage p99s for the steady-state phase — the tail
        # figures the observability layer exists to surface.
        "serve_stage_p99_us": {
            s["stage"]: s["p99_us"]
            for s in by_phase.get("cached", {}).get("stages", [])
        },
    })
if pairs:
    best_pair = min(pairs, key=lambda p: p["overhead_pct"])
    history["serve_instrumented_qps"] = best_pair["instrumented_qps"]
    history["serve_instrumentation_overhead_pct"] = best_pair["overhead_pct"]
with open("BENCH_history.jsonl", "a") as fh:
    fh.write(json.dumps(history) + "\n")

json.dump(report, sys.stdout, indent=2)
print()
PY

echo "wrote BENCH_throughput.json:" >&2
cat BENCH_throughput.json >&2
