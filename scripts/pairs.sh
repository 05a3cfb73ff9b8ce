#!/usr/bin/env bash
# Alternating before/after pairs of stbench runs, with the host's CPU
# steal beside each run.
#
#   scripts/pairs.sh PARENT_DIR CHANGE_DIR WORKLOADS FIRST_SEED N SECONDS OUT_PREFIX
#
# PARENT_DIR and CHANGE_DIR are two checkouts of this repository. Each
# one's stbench is built once (release, offline) and then run as is.
# WORKLOADS is one workload name or a comma-separated list, run one
# after the other: pair i of workload W runs `stbench --workload W
# --seed FIRST_SEED+i --seconds SECONDS --trace 0` once from each
# checkout, the parent first on even pairs and the change first on odd
# ones, so a drift in the host's speed does not favour one side. Every
# run's result is kept.
#
# Writes OUT_PREFIX_parent.json and OUT_PREFIX_change.json, every
# workload in one file, in the `stbench-set/1` format `stbench --repeat
# --json` writes (median, quartiles by Python's
# statistics.quantiles(n=4), IQR share, values in seed order), so
# `stbench --compare OUT_PREFIX_parent.json OUT_PREFIX_change.json`
# reads them. Prints one line per run: the workload, the side, the
# seed, queries_per_s, query_p50_us, query_p99_us, and the steal ticks
# of /proc/stat's `cpu` line over the run with their share of all ticks
# (steal is time the hypervisor gave this machine's CPUs to someone
# else; /proc/stat is only read).
set -euo pipefail

if [ $# -ne 7 ]; then
    sed -n '5,5p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workloads=$3
first_seed=$4
n=$5
seconds=$6
out=$7

for dir in "$parent" "$change"; do
    cargo build --release --offline --quiet --manifest-path "$dir/stbench/Cargo.toml"
done

# `cpu` line of /proc/stat: user nice system idle iowait irq softirq steal ...
cpu_ticks() {
    awk '$1 == "cpu" { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t; exit }' /proc/stat
}

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

run() {
    local workload=$1 side=$2 dir=$3 seed=$4 before after line
    before=$(cpu_ticks)
    line=$(cd "$dir" && stbench/target/release/stbench --workload "$workload" \
        --seed "$seed" --seconds "$seconds" --trace 0 </dev/null | tail -n 1)
    after=$(cpu_ticks)
    printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$workload" "$side" "$seed" "$before" "$after" "$line" >>"$runs"
    python3 - "$workload" "$side" "$seed" "$before" "$after" "$line" <<'EOF'
import json, sys
workload, side, seed, before, after, line = sys.argv[1:]
(s0, t0), (s1, t1) = (map(int, before.split()), map(int, after.split()))
m = json.loads(line)["metrics"]
v = lambda k: m[k]["value"] if k in m else float("nan")
steal = s1 - s0
print(f"{workload:<20} {side:<7} seed {seed}  q/s {v('queries_per_s'):>10.1f}  p50 {v('query_p50_us'):>8.1f} us"
      f"  p99 {v('query_p99_us'):>8.1f} us  steal {steal:>5} ticks ({100 * steal / max(t1 - t0, 1):.1f} %)")
EOF
}

IFS=, read -r -a workload_list <<<"$workloads"
for workload in "${workload_list[@]}"; do
    for ((i = 0; i < n; i++)); do
        seed=$((first_seed + i))
        if ((i % 2 == 0)); then
            run "$workload" parent "$parent" "$seed"
            run "$workload" change "$change" "$seed"
        else
            run "$workload" change "$change" "$seed"
            run "$workload" parent "$parent" "$seed"
        fi
    done
done

python3 - "$runs" "$out" "$first_seed" "$n" "$seconds" <<'EOF'
import json, os, statistics, sys
runs, out, first_seed, n, seconds = sys.argv[1:]
columns = {"parent": {}, "change": {}}
for row in sorted(open(runs).read().splitlines(), key=lambda r: int(r.split("\t")[2])):
    workload, side, _, _, _, line = row.split("\t", 5)
    for name, cell in json.loads(line)["metrics"].items():
        columns[side].setdefault(workload, {}).setdefault(name, []).append(cell["value"])
for side, by_workload in columns.items():
    workloads = {}
    for workload, cols in by_workload.items():
        cells = {}
        for name, vals in cols.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            cells[name] = {
                "median": q2,
                "q1": q1,
                "q3": q3,
                "iqr_share": (q3 - q1) / abs(q2) if q2 != 0 else None,
                "values": vals,
            }
        workloads[workload] = cells
    doc = {
        "schema": "stbench-set/1",
        "runs": int(n),
        "first_seed": int(first_seed),
        "seconds": float(seconds),
        "nproc": os.cpu_count(),
        "workloads": workloads,
    }
    with open(f"{out}_{side}.json", "w") as f:
        json.dump(doc, f)
        f.write("\n")
    print(f"wrote {out}_{side}.json")
EOF
