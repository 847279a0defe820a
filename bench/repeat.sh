#!/usr/bin/env bash
# A/A check: runs the measured pass of every workload in two sets on the
# same tree, RUNS runs per set with seeds 1..RUNS, and prints for each
# workload and end-to-end metric the two medians, how much worse the second
# is than the first, and each set's spread (distance between the first and
# third quartile as a share of the median), beside the metric's bound from
# BENCHMARK.json, and how many runs printed UNSTEADY. Exits non-zero if a
# difference or a spread (setup_s's spread excepted) exceeds its bound, or a
# run fails.
#
#   bash bench/repeat.sh [RUNS]     # default 3; the acceptance run uses 10
set -uo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-3}"
out="$here/out/repeat"
rm -rf "$out"
mkdir -p "$out"
: >"$out/flags.txt"

status=0
for set in A B; do
	for workload in flat-full-10k hier-full-10k flat-incr-10k tcp-full-1k; do
		for seed in $(seq 1 "$runs"); do
			echo "set $set $workload seed $seed" >&2
			if ! bash "$here/bench.sh" --workload "$workload" --seed "$seed" --trace 0 >"$out/last.txt"; then
				echo "FAILED: set $set $workload seed $seed" >&2
				status=1
			fi
			grep -E 'UNSTEADY|CHECK FAILED' "$out/last.txt" | sed "s/^/$set $workload seed $seed: /" | tee -a "$out/flags.txt" >&2
			tail -n 1 "$out/last.txt" | sed "s/^/$set $workload /" >>"$out/results.txt"
		done
	done
done

python3 - "$here/../BENCHMARK.json" "$out/results.txt" <<'EOF' || status=1
import json, statistics, sys

manifest = json.load(open(sys.argv[1]))
values = {}  # (set, workload, metric) -> [value per run]
for line in open(sys.argv[2]):
    which, workload, result = line.split(" ", 2)
    for name, m in json.loads(result)["metrics"].items():
        values.setdefault((which, workload, name), []).append(m["value"])

def spread(vs):
    if len(vs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return (q3 - q1) / statistics.median(vs)

bad = False
print(f"{'workload':15} {'metric':21} {'median A':>13} {'median B':>13} {'B worse by':>10} {'spread A':>9} {'spread B':>9} {'bound':>6}")
for w in manifest["workloads"]:
    for m in manifest["end_to_end"]:
        a = values[("A", w["name"], m["name"])]
        b = values[("B", w["name"], m["name"])]
        ma, mb = statistics.median(a), statistics.median(b)
        worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        sa, sb = spread(a), spread(b)
        over = worse > m["bound"] or (m["name"] != "setup_s" and max(sa, sb) > m["bound"])
        bad = bad or over
        print(f"{w['name']:15} {m['name']:21} {ma:13.4f} {mb:13.4f} {worse:+10.2%} {sa:9.2%} {sb:9.2%} {m['bound']:6.0%}{'  OVER' if over else ''}")
sys.exit(1 if bad else 0)
EOF
echo "$(grep -c UNSTEADY "$out/flags.txt") runs printed UNSTEADY"
exit "$status"
