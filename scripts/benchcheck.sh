#!/bin/bash
# Pre-merge check that a runtime change has not broken the end-to-end
# benchmark, which lives in its own module and is in no `go test ./...`:
# bench/ must vet and pass its own tests, and two 2-second runs — the
# control-plane workload, and the tuple-space one whose oracle reads a
# finished job's JobProgress — must end with a summary line reporting
# correct output and no failed job. A 3-second traced run of the tuple-space
# workload then checks three counts that say an Out is still sent, not
# called: nothing shed, every op counted, and fewer than 7000 frames per job
# (a reply per tuple reads about 8200, one per 64 about 6200).
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

summary=$(bash bench/run.sh --workload bag_ts --seed 1 --seconds 3 --trace 1 | tail -n 1)
# metric NAME prints the value the summary line reports for it.
metric() {
	grep -Eo "\"$1\":\{\"value\":[-0-9.e+]+" <<<"$summary" | grep -Eo '[-0-9.e+]+$'
}
drops=$(metric transport.control_drops)
ops=$(metric tuplespace.ops_per_job)
frames=$(metric transport.frames_per_job)
echo "bag_ts traced: control_drops=$drops ops_per_job=$ops frames_per_job=$frames"
if ! grep -q '"correct":true' <<<"$summary" || ! grep -Eq '"failed":0[,}]' <<<"$summary"; then
	echo "benchcheck: traced bag_ts did not report correct output with no failures" >&2
	exit 1
fi
if ! awk -v d="$drops" -v o="$ops" -v f="$frames" 'BEGIN { exit !(d == 0 && o >= 4112 && f < 7000) }'; then
	echo "benchcheck: traced bag_ts wants control_drops = 0, ops_per_job >= 4112, frames_per_job < 7000" >&2
	exit 1
fi
