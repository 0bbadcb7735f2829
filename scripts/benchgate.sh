#!/bin/bash
# Gates a change on the end-to-end benchmark. Builds BASE (a commit, branch
# or tag) in a git worktree under .bench_build/ and the checkout as it
# stands, runs the four workloads untraced on both trees in ten pairs of
# 20-second runs (pair p with seed p, alternating which tree runs first),
# and ends with bench's -compare of the two sets. The exit status is 1 when
#   - an end-to-end metric of the checkout reads worse than BASE's by more
#     than -compare's bound for it (bench/metrics.go);
#   - the checkout has more failed runs than BASE, a failed run being a
#     non-zero exit, no --out file, or a summary line without correct output
#     and no failed job (the check scripts/benchcheck.sh makes);
#   - a workload has no valid, correct run on one side, which -compare
#     drops and can then only call unresolved.
# Each run's --out file, standard output and standard error are kept in
# .bench_build/gate/{base,head}/. --smoke runs two pairs of 2-second runs
# to test the script: it prints -compare's table but does not gate on it,
# since runs that few and short say nothing; the other two checks hold.
#   bash scripts/benchgate.sh origin/main
#   bash scripts/benchgate.sh HEAD~1 --smoke
set -eu
cd "$(dirname "$0")/.."
base=${1:?usage: scripts/benchgate.sh BASE [--smoke]}
pairs=10
seconds=20
smoke=0
case "${2:-}" in
"") ;;
--smoke) pairs=2 seconds=2 smoke=1 ;;
*)
	echo "usage: scripts/benchgate.sh BASE [--smoke]" >&2
	exit 2
	;;
esac
workloads="fanout_closed mix_open shuffle_bulk bag_ts"
head=$PWD
tree=$head/.bench_build/base-tree
gate=$head/.bench_build/gate

git worktree remove --force "$tree" 2>/dev/null || true
git worktree prune
rm -rf "$tree" "$gate"
git worktree add --detach "$tree" "$base" >/dev/null
trap 'git worktree remove --force "$tree"' EXIT
mkdir -p "$gate/base" "$gate/head"

# Build each tree once (the manifest is the cheapest thing the binary
# prints); the runs then call the binaries directly.
for t in "$tree" "$head"; do
	bash "$t/bench/run.sh" --manifest >/dev/null
done

declare -A failed=([base]=0 [head]=0) judged=()
for p in $(seq 1 "$pairs"); do
	order="base head"
	if ((p % 2 == 0)); then
		order="head base"
	fi
	for workload in $workloads; do
		for side in $order; do
			t=$head
			if [ "$side" = base ]; then
				t=$tree
			fi
			run=$gate/$side/$workload-$p
			echo "benchgate: pair $p of $pairs, $workload, $side" >&2
			ok=1
			(cd "$t" && .bench_build/cnbench --workload "$workload" --seed "$p" \
				--seconds "$seconds" --trace 0 --out "$run.json" >"$run.log" 2>"$run.err") || ok=0
			summary=$(tail -n 1 "$run.log")
			if [ ! -f "$run.json" ] || ! grep -q '"correct":true' <<<"$summary" ||
				! grep -Eq '"failed":0[,}]' <<<"$summary"; then
				ok=0
			fi
			if ((ok == 0)); then
				failed[$side]=$((failed[$side] + 1))
				echo "benchgate: that run failed; see $run.log and $run.err" >&2
			elif grep -q '"valid": true' "$run.json"; then
				judged[$side/$workload]=1
			fi
		done
	done
done

status=0
bash bench/run.sh --compare "$gate/base" "$gate/head" || status=$?
if ((smoke && status == 1)); then
	echo "benchgate: --smoke does not gate on the table above" >&2
	status=0
fi
echo "benchgate: failed runs: base ${failed[base]}, head ${failed[head]} (of $pairs per workload each)"
if ((failed[head] > failed[base])); then
	echo "benchgate: the checkout failed more runs than $base" >&2
	status=1
fi
for workload in $workloads; do
	for side in base head; do
		if [ -z "${judged[$side/$workload]:-}" ]; then
			echo "benchgate: $workload has no valid, correct run on $side, so -compare cannot judge it" >&2
			status=1
		fi
	done
done
exit "$status"
