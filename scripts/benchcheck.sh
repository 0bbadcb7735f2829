#!/bin/bash
# Pre-merge check that a runtime change has not broken the end-to-end
# benchmark, which lives in its own module and is in no `go test ./...`:
# bench/ must vet and pass its own tests, and two 2-second runs — the
# control-plane workload, and the tuple-space one whose oracle reads a
# finished job's JobProgress — must end with a summary line reporting
# correct output and no failed job. A 3-second traced run of the tuple-space
# workload then checks three counts that say an Out is still sent, not
# called: nothing shed, every op counted, and fewer than 7000 frames per job
# (a reply per tuple reads about 8200, one per 64 about 6200). A 3-second
# traced run of the control-plane workload checks that the run phase still
# costs a frame per node, not per task: fewer than 80 frames per job (an
# EXEC_TASK per node and batched lifecycle events read about 38; a frame per
# task, or per event, reads 100 to 183), no failed submission, and no job
# left active on a manager once the run has quiesced; and that a submission is
# still read by the pull scanner: parsing and validating a 32-task descriptor
# takes under 150 us (the scanner reads about 51, a reflective encoding/xml
# decode about 330). The data-plane workload
# runs the same pair for the lifetime of a shuffled byte: timed, its peak RSS
# stays under 600 MB (a job's blobs leave the node caches with the job and
# read about 160 MB; a lost release reads about 2100); traced, it allocates
# under 40000 KB per job (the blob buffers are reused and what is left, about
# 25000, is the benchmark's own payloads; a reintroduced allocation per blob
# reads about 72000) and leaves no job active.
#   bash scripts/benchcheck.sh
set -eu
cd "$(dirname "$0")/.."
(cd bench && go vet ./... && go test ./...)
for workload in fanout_closed bag_ts shuffle_bulk; do
	summary=$(bash bench/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
	echo "$workload: $summary"
	if ! grep -q '"correct":true' <<<"$summary" || ! grep -Eq '"failed":0[,}]' <<<"$summary"; then
		echo "benchcheck: $workload did not report correct output with no failures" >&2
		exit 1
	fi
done

# metric NAME prints the value the summary line reports for it.
metric() {
	grep -Eo "\"$1\":\{\"value\":[-0-9.e+]+" <<<"$summary" | grep -Eo '[-0-9.e+]+$'
}

# $summary is still shuffle_bulk's.
rss=$(metric peak_rss_mb)
if ! awk -v r="$rss" 'BEGIN { exit !(r < 600) }'; then
	echo "benchcheck: shuffle_bulk peaked at $rss MB, want peak_rss_mb < 600: a finished job's blobs are staying in the node caches" >&2
	exit 1
fi

summary=$(bash bench/run.sh --workload bag_ts --seed 1 --seconds 3 --trace 1 | tail -n 1)
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

summary=$(bash bench/run.sh --workload fanout_closed --seed 1 --seconds 3 --trace 1 | tail -n 1)
frames=$(metric transport.frames_per_job)
fails=$(metric client.fail_share)
active=$(metric jobmgr.active_jobs_at_quiesce)
parse=$(metric cnx.parse_validate_fan32_p50_us)
echo "fanout_closed traced: frames_per_job=$frames fail_share=$fails active_jobs_at_quiesce=$active cnx.parse_validate_fan32_p50_us=$parse"
if ! grep -q '"correct":true' <<<"$summary" || ! grep -Eq '"failed":0[,}]' <<<"$summary"; then
	echo "benchcheck: traced fanout_closed did not report correct output with no failures" >&2
	exit 1
fi
if ! awk -v f="$frames" -v s="$fails" -v a="$active" -v p="$parse" 'BEGIN { exit !(f < 80 && s == 0 && a == 0 && p < 150) }'; then
	echo "benchcheck: traced fanout_closed wants frames_per_job < 80, fail_share = 0, active_jobs_at_quiesce = 0, cnx.parse_validate_fan32_p50_us < 150" >&2
	exit 1
fi

summary=$(bash bench/run.sh --workload shuffle_bulk --seed 1 --seconds 3 --trace 1 | tail -n 1)
alloc=$(metric process.alloc_kb_per_job)
active=$(metric jobmgr.active_jobs_at_quiesce)
echo "shuffle_bulk traced: alloc_kb_per_job=$alloc active_jobs_at_quiesce=$active"
if ! grep -q '"correct":true' <<<"$summary" || ! grep -Eq '"failed":0[,}]' <<<"$summary"; then
	echo "benchcheck: traced shuffle_bulk did not report correct output with no failures" >&2
	exit 1
fi
if ! awk -v k="$alloc" -v a="$active" 'BEGIN { exit !(k < 40000 && a == 0) }'; then
	echo "benchcheck: traced shuffle_bulk wants process.alloc_kb_per_job < 40000, active_jobs_at_quiesce = 0" >&2
	exit 1
fi
