#!/usr/bin/env bash
# Paired A/B of the repository benchmark: a base revision against the
# working tree, run by turns on the same seeds in one session.
#
# Usage: scripts/ab.sh <base-rev> [workload…]
#
#   <base-rev>   any git revision; it is checked out into a temporary
#                `git worktree` under .bench_build/ (removed on exit) and
#                built with its own CARGO_TARGET_DIR.
#   workload…    perfbench workloads (default: every workload listed in
#                BENCHMARK.json).
#
# Environment:
#   AB_SEEDS     seeds to pair on (default "1 2 3 4 5"); the held-out seed
#                1009 is always added.
#
# Each seed runs the BENCHMARK.json command with `--trace 0` once on each
# side, alternating which side goes first. Per workload and end-to-end
# metric the report gives both sides' median and IQR, the change/base
# ratio of the medians, how many pairs the change won, and whether the
# median gain exceeds the base side's IQR. A metric worse than its
# BENCHMARK.json bound, a run that is not `correct`, or a failed
# operation is flagged. The last line is a one-line evidence summary for
# CHANGES.md. Raw outputs stay in .bench_build/ab-<time>/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 1 ]]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//'
    exit 2
fi
base_rev=$1
shift
base_sha=$(git rev-parse --verify --quiet "$base_rev^{commit}") \
    || { echo "ab: unknown revision $base_rev" >&2; exit 2; }

# BENCHMARK.json's workloads, command and run length, one per line.
{
    read -r -a all_workloads
    read -r -a command
    read -r run_seconds
} < <(python3 -c 'import json
b = json.load(open("BENCHMARK.json"))
print(" ".join(w["name"] for w in b["workloads"]))
print(" ".join(b["command"]))
print(b["run_seconds"])')
if [[ $# -gt 0 ]]; then workloads=("$@"); else workloads=("${all_workloads[@]}"); fi
read -r -a seeds <<< "${AB_SEEDS:-1 2 3 4 5}"
[[ " ${seeds[*]} " == *" 1009 "* ]] || seeds+=(1009)

root=$PWD
build=$root/.bench_build
stamp=$(date -u +%Y%m%dT%H%M%SZ)
out=$build/ab-$stamp
tree=$build/base-$stamp
mkdir -p "$out"
cleanup() {
    git -C "$root" worktree remove --force "$tree" 2> /dev/null || rm -rf "$tree"
    git -C "$root" worktree prune
}
trap cleanup EXIT
git worktree add --quiet --detach "$tree" "$base_sha"

# Side name → tree and target directory.
declare -A dir=([base]="$tree" [change]="$root")
declare -A target=([base]="$build/target-base" [change]="$build/target-change")

for side in base change; do
    echo "ab: building $side ($([[ $side == base ]] && echo "${base_sha:0:10}" || echo "working tree"))" >&2
    (cd "${dir[$side]}" && CARGO_TARGET_DIR=${target[$side]} \
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

runs=$out/runs.tsv
: > "$runs"
for workload in "${workloads[@]}"; do
    i=0
    for seed in "${seeds[@]}"; do
        if (( i % 2 == 0 )); then order=(base change); else order=(change base); fi
        i=$((i + 1))
        for side in "${order[@]}"; do
            log=$out/$workload-$seed-$side.log
            echo "ab: $workload seed $seed $side" >&2
            status=0
            (cd "${dir[$side]}" && CARGO_TARGET_DIR=${target[$side]} \
                "${command[@]}" --workload "$workload" --seed "$seed" \
                --seconds "$run_seconds" --trace 0) > "$log" 2>&1 || status=$?
            printf '%s\t%s\t%s\t%s\t%s\n' "$workload" "$seed" "$side" "$status" "$log" >> "$runs"
        done
    done
done

python3 - "$runs" "$base_sha" "$(git rev-parse --short HEAD)" <<'PY'
import json, sys

runs_path, base_sha, head = sys.argv[1], sys.argv[2], sys.argv[3]
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

def last_json(path):
    for line in reversed(open(path).read().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    return None

results = {}  # workload -> side -> seed -> parsed json
problems = []
for row in open(runs_path):
    workload, seed, side, status, log = row.rstrip("\n").split("\t")
    parsed = last_json(log)
    if status != "0" or parsed is None:
        problems.append("%s seed %s %s: exit %s, see %s" % (workload, seed, side, status, log))
        continue
    if not parsed["correct"] or parsed["failed"]:
        problems.append("%s seed %s %s: correct=%s, %d of %d operations failed"
                        % (workload, seed, side, parsed["correct"], parsed["failed"], parsed["attempted"]))
    results.setdefault(workload, {}).setdefault(side, {})[seed] = parsed

evidence = []
for workload, sides in results.items():
    seeds = sorted(set(sides.get("base", {})) & set(sides.get("change", {})), key=int)
    if not seeds:
        continue
    print("\n== %s: %d pairs (seeds %s), base %s vs %s + working tree"
          % (workload, len(seeds), ",".join(seeds), base_sha[:10], head))
    print("%-22s %12s %10s %12s %10s %8s %6s  %s"
          % ("metric", "base med", "base IQR", "change med", "chg IQR", "ratio", "wins", "verdict"))
    parts = []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        b = [sides["base"][s]["metrics"][name]["value"] for s in seeds]
        c = [sides["change"][s]["metrics"][name]["value"] for s in seeds]
        bmed, cmed = quantile(b, 0.5), quantile(c, 0.5)
        biqr = quantile(b, 0.75) - quantile(b, 0.25)
        ciqr = quantile(c, 0.75) - quantile(c, 0.25)
        ratio = cmed / bmed if bmed else float("nan")
        wins = sum((cv < bv) if lower else (cv > bv) for bv, cv in zip(b, c))
        ties = sum(cv == bv for bv, cv in zip(b, c))
        gain = (bmed - cmed) if lower else (cmed - bmed)
        worse_rel = (-gain / abs(bmed)) if bmed else 0.0
        if b == c:
            verdict = "identical"
        elif gain > biqr:
            verdict = "better beyond base IQR"
        elif -gain > biqr:
            verdict = "worse beyond base IQR"
        else:
            verdict = "within base IQR"
        if worse_rel > m["bound"]:
            verdict += "; WORSE THAN BOUND %.2f" % m["bound"]
        print("%-22s %12.4g %10.3g %12.4g %10.3g %8.3f %3d/%-2d  %s%s"
              % (name, bmed, biqr, cmed, ciqr, ratio, wins, len(seeds), verdict,
                 " (%d ties)" % ties if ties and b != c else ""))
        if verdict == "identical":
            parts.append("%s identical" % name)
        else:
            parts.append("%s %.4g→%.4g %s (×%.3f, %d/%d pairs, %s)"
                         % (name, bmed, cmed, m["unit"], ratio, wins, len(seeds), verdict))
    evidence.append("%s: %s" % (workload, "; ".join(parts)))

for p in problems:
    print("PROBLEM: " + p)
print("\nevidence: scripts/ab.sh %s, seeds %s: %s"
      % (base_sha[:10], ",".join(sorted({s for w in results.values() for s in w.get("base", {})}, key=int)),
         " | ".join(evidence)))
sys.exit(1 if problems else 0)
PY
