#!/usr/bin/env bash
# The perf gate: compares the checkout this script sits in against a base
# commit, both measured on the same machine one after the other, so the
# gate sees the change and not the hardware. Every bound comes from
# BENCHMARK.json; no baseline is committed.
#
#   bash .github/perf-gate.sh <base-ref>
#
# 1. Allocations per experiment: the root BenchmarkE* benchmarks (all 19
#    quick experiments), three runs per side. A benchmark fails when its
#    median allocs/op exceeds the base's by more than the allocs_per_event
#    bound.
# 2. End to end: for every workload in BENCHMARK.json, three alternating
#    base/change pairs of perfbench. The gate fails when any run reports
#    correct: false, when the change fails a larger share of its ops, or
#    when its median allocs_per_event or events_per_s is worse than the
#    base's by more than that metric's bound. All six end-to-end metrics
#    are printed for both sides.
#
# Needs git, go, jq and awk. The base is checked out as a temporary git
# worktree; each side runs from its own tree root, because perfbench
# reads its goldens relative to the working directory and run.sh builds
# into ./.bench_build.
set -euo pipefail

base_ref=${1:?usage: perf-gate.sh <base-ref>}
change=$(cd "$(dirname "$0")/.." && pwd)
spec="$change/BENCHMARK.json"
work=$(mktemp -d)
base="$work/base"
git -C "$change" worktree add --detach --quiet "$base" "$base_ref"
trap 'git -C "$change" worktree remove --force "$base"; rm -rf "$work"' EXIT

bound() { jq -er --arg m "$1" '.end_to_end[] | select(.name == $m) | .bound' "$spec"; }
better() { jq -er --arg m "$1" '.end_to_end[] | select(.name == $m) | .better' "$spec"; }
median() { sort -g | awk '{v[NR] = $1} END {if (NR) print (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2}'; }
ratio() { awk -v x="$1" -v y="$2" 'BEGIN {printf "x%.3f", (x == 0) ? 1 : y / x}'; }
# worse BETTER BOUND BASE CHANGE: exit 0 when CHANGE is worse than BASE by
# more than the relative BOUND.
worse() {
	awk -v b="$1" -v k="$2" -v x="$3" -v y="$4" \
		'BEGIN { exit !((b == "lower") ? (y > x * (1 + k)) : (y < x * (1 - k))) }'
}
# share FILE: failed ops over attempted ops across the runs in FILE.
share() { jq -s '(map(.failed) | add) / ([(map(.attempted) | add), 1] | max)' "$1"; }

status=0
fail() {
	echo "FAIL: $*"
	status=1
}

echo "== allocs/op per experiment (base $base_ref vs change), bound $(bound allocs_per_event)"
for side in base change; do
	(cd "${!side}" && go test -run '^$' -bench '^BenchmarkE' -benchmem -benchtime 1x -count 3 .) \
		| awk '/^Benchmark.*allocs\/op/ {sub(/-[0-9]+$/, "", $1); print $1, $(NF-1)}' > "$work/$side.allocs"
done
for name in $(cut -d' ' -f1 "$work/change.allocs" | sort -u); do
	b=$(awk -v n="$name" '$1 == n {print $2}' "$work/base.allocs" | median)
	c=$(awk -v n="$name" '$1 == n {print $2}' "$work/change.allocs" | median)
	if [ -z "$b" ]; then
		printf '%-32s %12s %12s  (new)\n' "$name" - "$c"
		continue
	fi
	printf '%-32s %12s %12s  %s\n' "$name" "$b" "$c" "$(ratio "$b" "$c")"
	if worse lower "$(bound allocs_per_event)" "$b" "$c"; then
		fail "$name allocs/op $c vs base $b"
	fi
done

pairs=3
metrics=$(jq -r '.end_to_end[].name' "$spec")
for w in $(jq -r '.workloads[].name' "$spec"); do
	echo "== $w: $pairs alternating pairs of perfbench --seconds 8"
	: > "$work/base.$w" && : > "$work/change.$w"
	for i in $(seq 1 "$pairs"); do
		order="base change"
		[ $((i % 2)) -eq 0 ] && order="change base"
		for side in $order; do
			(cd "${!side}" && bash perfbench/run.sh --workload "$w" --seed 1 --seconds 8 --trace 0) \
				| tail -n 1 >> "$work/$side.$w"
		done
	done
	for side in base change; do
		if jq -e 'select(.correct != true)' "$work/$side.$w" > /dev/null; then
			fail "$w: a $side run reported correct: false"
		fi
	done
	bs=$(share "$work/base.$w")
	cs=$(share "$work/change.$w")
	if awk -v x="$bs" -v y="$cs" 'BEGIN { exit !(y > x) }'; then
		fail "$w: failed share $cs vs base $bs"
	fi
	printf '%-18s %14s %14s  %s\n' metric base change ratio
	for m in $metrics; do
		b=$(jq --arg m "$m" '.metrics[$m].value' "$work/base.$w" | median)
		c=$(jq --arg m "$m" '.metrics[$m].value' "$work/change.$w" | median)
		printf '%-18s %14.6g %14.6g  %s\n' "$m" "$b" "$c" "$(ratio "$b" "$c")"
		case $m in allocs_per_event | events_per_s)
			if worse "$(better "$m")" "$(bound "$m")" "$b" "$c"; then
				fail "$w: $m median $c vs base $b (bound $(bound "$m"))"
			fi
			;;
		esac
	done
done

[ "$status" -eq 0 ] && echo "perf gate: pass" || echo "perf gate: FAIL"
exit "$status"
