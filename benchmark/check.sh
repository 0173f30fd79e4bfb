#!/usr/bin/env bash
# Does the benchmark agree with itself?
#
#   benchmark/check.sh [RUNS]
#
# Runs two sets (A, B) of RUNS (default 5, the minimum) untraced runs of
# every workload on one build and one seed, then a third set (H) on the
# held-out seed 2718, which was not used while the benchmark was sized.
# Requires, per workload:
#   * every simulated metric and space_kb_per_file identical over all runs
#     of A and B (and over all runs of H), and no failed op anywhere;
#   * every other end-to-end median of B within its BENCHMARK.json bound of
#     A's, and every median of H within its bound of A's.
# Prints the per-metric spread table and stores it in README.md between
# the check.sh markers. Exits non-zero when a requirement does not hold.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
runs=${1:-5}
[ "$runs" -ge 5 ] || { echo "$0: at least 5 runs per set" >&2; exit 2; }
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$here/../BENCHMARK.json")
logs=$here/out/check
rm -rf "$logs"
mkdir -p "$logs"

# Sets are interleaved run by run, so a slow phase of a shared host falls on
# all three alike instead of on whichever set happened to run last.
for i in $(seq "$runs"); do
    for set in A:1997 B:1997 H:2718; do
        for w in meta_sync cold_read warm_read namei_warm churn_softdep volume_stripe; do
            echo "set ${set%%:*} run $i $w" >&2
            bash "$here/run.sh" --workload "$w" --seed "${set##*:}" --seconds "$seconds" --trace 0 2>/dev/null \
                | tail -n 1 > "$logs/${set%%:*}.$i.$w.json"
        done
    done
done

python3 - "$here" "$runs" <<'PY'
import json, statistics, sys
here, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open(f"{here}/../BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]
exact = {m["name"] for m in metrics if m["name"].startswith("sim_")} | {"space_kb_per_file"}

def load(s, w):
    rows = [json.load(open(f"{here}/out/check/{s}.{i}.{w}.json")) for i in range(1, runs + 1)]
    return rows

def worse_by(m, base, other):
    """How much `other` is worse than `base`, as a share of `base`."""
    d = (other - base) / base
    return d if m["better"] == "lower" else -d

problems, lines = [], []
lines.append("| workload | metric | median A | IQR/median A∪B | B vs A | H (seed 2718) vs A | bound |")
lines.append("|---|---|---:|---:|---:|---:|---:|")
for w in workloads:
    sets = {s: load(s, w) for s in "ABH"}
    for s, rows in sets.items():
        for r in rows:
            if not r["correct"] or r["failed"]:
                problems.append(f"{w}: set {s}: {r['failed']} failed of {r['attempted']}")
    for m in metrics:
        name, bound = m["name"], m["bound"]
        v = {s: [r["metrics"][name]["value"] for r in rows] for s, rows in sets.items()}
        med = {s: statistics.median(x) for s, x in v.items()}
        ab = v["A"] + v["B"]
        q = statistics.quantiles(ab, n=4)
        spread = (q[2] - q[0]) / statistics.median(ab)
        if name in exact:
            if len(set(ab)) != 1:
                problems.append(f"{w}: {name} differs between runs of one seed: {sorted(set(ab))}")
            if len(set(v["H"])) != 1:
                problems.append(f"{w}: {name} differs between runs of seed 2718: {sorted(set(v['H']))}")
        b_vs_a, h_vs_a = worse_by(m, med["A"], med["B"]), worse_by(m, med["A"], med["H"])
        if abs(b_vs_a) > bound:
            problems.append(f"{w}: {name}: set B's median is {b_vs_a:+.1%} from set A's (bound {bound:.0%})")
        if abs(h_vs_a) > bound:
            problems.append(f"{w}: {name}: the held-out seed's median is {h_vs_a:+.1%} from set A's (bound {bound:.0%})")
        lines.append(f"| {w} | {name} | {med['A']:.6g} | {spread:.2%} | {b_vs_a:+.2%} | {h_vs_a:+.2%} | {bound:.0%} |")

table = "\n".join(lines)
print(table)
begin, end = "<!-- check.sh:begin -->", "<!-- check.sh:end -->"
readme = open(f"{here}/README.md").read()
if begin in readme and end in readme:
    head, rest = readme.split(begin, 1)
    tail = rest.split(end, 1)[1]
    verdict = "all requirements held" if not problems else "REQUIREMENTS NOT MET: " + "; ".join(problems)
    open(f"{here}/README.md", "w").write(
        f"{head}{begin}\n\n`check.sh {runs}`: {verdict}. \"B vs A\" and \"H vs A\" are how much worse the median is "
        f"(negative = better).\n\n{table}\n\n{end}{tail}")
if problems:
    print("\nCHECK FAILED:\n  " + "\n  ".join(problems), file=sys.stderr)
    sys.exit(1)
print("\ncheck.sh: all requirements held")
PY
