#!/bin/bash
# Pre-merge check that a runtime change has not broken the end-to-end
# benchmark, which lives in its own module and is in no `go test ./...`:
# bench/ must vet and pass its own tests, and two 2-second runs — the
# control-plane workload, and the tuple-space one whose oracle reads a
# finished job's JobProgress — must end with a summary line reporting
# correct output and no failed job.
#   bash scripts/benchcheck.sh
set -eu
cd "$(dirname "$0")/.."
(cd bench && go vet ./... && go test ./...)
for workload in fanout_closed bag_ts; do
	summary=$(bash bench/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
	echo "$workload: $summary"
	if ! grep -q '"correct":true' <<<"$summary" || ! grep -Eq '"failed":0[,}]' <<<"$summary"; then
		echo "benchcheck: $workload did not report correct output with no failures" >&2
		exit 1
	fi
done
