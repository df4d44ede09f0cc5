#!/usr/bin/env bash
# Two sets of runs of the same code, compared the way the driver compares
# them: does the benchmark agree with itself within its own bounds?
#
#   benchmark/check_repeat.sh [seeds-per-set [more workloads...]]   (default 10)
#
# Each set runs every workload of BENCHMARK.json, and any workload named
# after the seed count (the ungated `serve_hot` and `ingest_live`), once
# per seed (untraced) and once traced at seed 42. For every end-to-end
# metric on every workload it prints
#   spread  = (Q3 - Q1) / median over a set's runs, as
#             statistics.quantiles(values, n=4) gives the quartiles
#   shift   = how much worse the second set's median is than the first's
# and fails when a spread (other than setup_s's) or a shift exceeds the
# metric's bound, when any run is incorrect, or when a count marked "≡"
# in README.md differs between the two traced runs of a workload.
# With 1 seed per set the spread column is empty and only the shift and
# the counts are checked.
#
# Run it from the root of the checkout. It builds into
# ${CARGO_TARGET_DIR:-benchmark/target} and writes its log to
# benchmark/out/check_repeat.jsonl.
set -euo pipefail

seeds="${1:-10}"
extra="${*:2}"
cd "$(dirname "$0")/.."
mkdir -p benchmark/out
log=benchmark/out/check_repeat.jsonl
: > "$log"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/flowcube-benchmark"
"$bin" describe | cmp -s - BENCHMARK.json || {
    echo "BENCHMARK.json is not what 'flowcube-benchmark describe' prints" >&2
    exit 1
}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))') $extra"

run() { # set workload seed trace
    local line
    line=$("$bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace "$4" | tail -n 1) || true
    printf '{"set": %s, "workload": "%s", "seed": %s, "trace": %s, "result": %s}\n' \
        "$1" "$2" "$3" "$4" "${line:-null}" >> "$log"
}

for set in 1 2; do
    for workload in $workloads; do
        for ((i = 0; i < seeds; i++)); do
            seed=$((set * 1000 + i))
            # Same seeds in both sets when a set is a single run: then the
            # two sets differ by noise alone.
            [ "$seeds" -eq 1 ] && seed=42
            echo "set $set $workload seed $seed" >&2
            run "$set" "$workload" "$seed" 0
        done
        run "$set" "$workload" 42 1
    done
done

python3 - "$log" <<'EOF'
import json, statistics, sys

EXACT = ["pathdb.readings", "mining.scans", "mining.candidates_counted",
         "mining.frequent_patterns", "mining.prune_ratio", "core.cells",
         "core.cuboids", "core.cells_pruned_redundant",
         "serve.snapshot_bytes_per_cell"]

spec = json.load(open("BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
failed = False

def complain(text):
    global failed
    failed = True
    print("FAIL:", text)

for row in rows:
    result = row["result"]
    if not result or not result.get("correct") or result.get("failed"):
        complain(f"set {row['set']} {row['workload']} seed {row['seed']} "
                 f"trace {row['trace']}: {result and {k: result[k] for k in ('correct', 'attempted', 'failed')}}")

def values(set_, workload, metric, trace=0):
    return [r["result"]["metrics"][metric]["value"] for r in rows
            if r["set"] == set_ and r["workload"] == workload and r["trace"] == trace
            and r["result"] and metric in r["result"]["metrics"]]

def spread(v):
    if len(v) < 2:
        return None
    q1, _, q3 = statistics.quantiles(v, n=4)
    return (q3 - q1) / statistics.median(v)

print(f"{'workload':<13} {'metric':<18} {'median 1':>12} {'median 2':>12} "
      f"{'spread 1':>9} {'spread 2':>9} {'shift':>8} {'bound':>6}")
workloads = list(dict.fromkeys(r["workload"] for r in rows))
for w in workloads:
    for m in spec["end_to_end"]:
        a, b = values(1, w, m["name"]), values(2, w, m["name"])
        if not a or not b:
            complain(f"{w} {m['name']}: no values")
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        verdict = ""
        if worse > m["bound"]:
            verdict = "  SHIFT"
        if m["name"] != "setup_s" and any(s is not None and s > m["bound"] for s in (sa, sb)):
            verdict += "  SPREAD"
        if verdict:
            complain(f"{w} {m['name']}:{verdict}")
        fmt = lambda s: "" if s is None else f"{s:9.4f}"
        print(f"{w:<13} {m['name']:<18} {ma:12.4f} {mb:12.4f} "
              f"{fmt(sa):>9} {fmt(sb):>9} {worse:8.4f} {m['bound']:6.2f}{verdict}")

for w in workloads:
    for name in EXACT:
        a, b = values(1, w, name, 1), values(2, w, name, 1)
        if a != b:
            complain(f"{w} {name}: {a} in set 1, {b} in set 2")

sys.exit(1 if failed else 0)
EOF
