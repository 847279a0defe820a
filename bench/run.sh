#!/usr/bin/env bash
# Runs the whole benchmark once: for each workload a measured pass (tracing
# off, end-to-end metrics) and then a traced pass (per-layer metrics and
# bench/out/<workload>.trace.json), each in a fresh process. Prints every
# metric by name with its unit; exits non-zero if any pass fails a check.
#
#   bash bench/run.sh [seed]
set -uo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"
status=0
for workload in flat-full-10k hier-full-10k flat-incr-10k tcp-full-1k; do
	for trace in 0 1; do
		echo "=== $workload trace=$trace"
		# The last line is the machine-readable result; the lines above it
		# say the same by name.
		bash "$here/bench.sh" --workload "$workload" --seed "$seed" --trace "$trace" | sed '$d' || status=1
	done
done
exit "$status"
