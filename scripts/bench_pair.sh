#!/usr/bin/env bash
# Paired parent/change benchmark runs: the protocol every performance
# claim in this repo is judged by, as one command.
#
#   scripts/bench_pair.sh <parent-rev> <pairs> [workload…]
#
# A = <parent-rev>, B = the working tree (tracked and untracked files that
# are not ignored). Both are exported, one after the other, to the *same*
# directory target/pair/src and built into the *same* target directory, so
# the two `bench` binaries embed the same paths and differ only by the
# change. Then, per workload, <pairs> pairs of `bench once --trace 0` runs,
# alternating which side runs first (AB, BA, AB, …).
#
# Prints, per workload × end-to-end metric: both medians with quartiles,
# the median of the per-pair ratios B/A, and in how many pairs B was
# better (ties count for neither side). A row reads `gain` when B wins at
# least nine tenths of the pairs and the medians differ by more than the
# distance between A's quartiles, `worse` when B's median is worse than A's
# by more than the bound in BENCHMARK.json, `unresolved` when neither but a
# spread exceeds that bound. Every run's JSON line is kept in
# target/pair/runs.<seed>.jsonl.
#
# Environment: SEED (default 1; 2 is the held-out seed).
# Nothing here knows the benchmark's internals: it builds benchmark/ as
# BENCHMARK.json's command does and reads the last line `bench once` prints.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    sed -n '2,/^set -euo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
pairs=$2
shift 2
if [ $# -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]: print(w["name"])')
fi
seed=${SEED:-1}

pair=$PWD/target/pair
src=$pair/src
runs=$pair/runs.$seed.jsonl
mkdir -p "$pair"

# export <rev|WORKTREE>: fill $src with that tree. `tar -m` stamps every
# file with the time of the export: cargo decides by mtime, and a file
# edited before the other side was built would otherwise count as fresh.
export_tree() {
    rm -rf "$src"
    mkdir -p "$src"
    if [ "$1" = WORKTREE ]; then
        git ls-files -z --cached --others --exclude-standard |
            while IFS= read -r -d '' f; do
                if [ -e "$f" ]; then printf '%s\0' "$f"; fi
            done |
            tar --null -T - -cf - | tar -xmf - -C "$src"
    else
        git archive "$1" | tar -xmf - -C "$src"
    fi
}

# build <a|b>: build the exported tree, keep its binary as bench_<side>.
build() {
    CARGO_TARGET_DIR=$pair/build cargo build --release --quiet --offline \
        --manifest-path "$src/benchmark/Cargo.toml" --bin bench
    cp "$pair/build/release/bench" "$pair/bench_$1"
}

echo "==> A = $parent" >&2
export_tree "$parent"
build a
echo "==> B = working tree at $(git rev-parse --short HEAD)" >&2
export_tree WORKTREE
build b

# once <a|b> <workload> <pair index>: one run, its last line tagged and kept.
once() {
    local line
    line=$(cd "$src" && "$pair/bench_$1" once --workload "$2" --seed "$seed" --trace 0 | tail -n 1) || true
    printf '{"side": "%s", "workload": "%s", "pair": %d, "result": %s}\n' \
        "$1" "$2" "$3" "${line:-null}" >>"$runs"
}

: >"$runs"
for w in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then order="a b"; else order="b a"; fi
        for side in $order; do
            echo "==> $w pair $((i + 1))/$pairs side $side" >&2
            once "$side" "$w" "$i"
        done
    done
done

python3 - "$runs" "$seed" <<'EOF'
import json, statistics, sys

runs_path, seed = sys.argv[1], sys.argv[2]
spec = json.load(open("BENCHMARK.json"))
metrics = [(m["name"], m["better"] == "lower", m["bound"]) for m in spec["end_to_end"]]
runs = [json.loads(line) for line in open(runs_path)]

def quartiles(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else (xs[0],) * 3
    return q1, statistics.median(xs), q3

print(f"seed {seed}; A = parent, B = change; ratio = B/A per pair; runs in {runs_path}")
workloads = list(dict.fromkeys(r["workload"] for r in runs))
for w in workloads:
    side = {s: {r["pair"]: r["result"] for r in runs if r["workload"] == w and r["side"] == s} for s in "ab"}
    bad = [(s, p) for s in "ab" for p, res in side[s].items()
           if not res or not res["correct"] or res["failed"]]
    n = len(side["a"])
    print(f"\n{w}: {n} pairs, runs with failed checks: {bad if bad else 'none'}")
    print(f"  {'metric':<17}{'A median [q1, q3]':>38}{'B median [q1, q3]':>38}{'ratio':>8}{'B wins':>8}  verdict")
    ok = sorted(p for p in side["a"] if (("a", p) not in bad and ("b", p) not in bad and p in side["b"]))
    if not ok:
        continue
    for name, lower, bound in metrics:
        a = [side["a"][p]["metrics"][name]["value"] for p in ok]
        b = [side["b"][p]["metrics"][name]["value"] for p in ok]
        (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
        ratio = statistics.median(y / x for x, y in zip(a, b))
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
        worse_by = (bm - am) / am if lower else (am - bm) / am
        all_better = max(b) < min(a) if lower else min(b) > max(a)
        if wins >= 0.9 * len(ok) and abs(am - bm) > a3 - a1 and worse_by < 0:
            verdict = "gain"
        elif worse_by > bound:
            verdict = "worse"
        elif max((a3 - a1) / am, (b3 - b1) / bm) > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        fmt = lambda q1, m, q3: f"{m:.4g} [{q1:.4g}, {q3:.4g}]"
        print(f"  {name:<17}{fmt(a1, am, a3):>38}{fmt(b1, bm, b3):>38}{ratio:>8.3f}"
              f"{f'{wins}/{wins + losses}':>8}  {verdict}")
EOF
