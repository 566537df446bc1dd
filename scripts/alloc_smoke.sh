#!/usr/bin/env sh
# alloc_smoke.sh — allocation-regression gate for the serving hot path.
# Runs the pinned benchmarks with -benchmem and fails if any of them
# reports more allocs/op than its ceiling below. Prediction and the
# binary wire codec that frames it on the network are held at 0: a
# regression there silently puts the garbage collector back between
# requests. A warm /execute is held at 12 (it was about 600 while it
# rebuilt its instance, its frames and its reference outputs per
# request, 55 while it profiled and priced every run again, 37 while a
# run fanned out one chunk per device, and 31 while every execution was
# priced, encoded and appended to the observation log). The
# cmd/serve handler benchmarks (warm wire /predict, wire batch-64, JSON
# /predict, JSON /execute through the server's mux) are held at what they
# allocated before the route table and codec replaced the per-handler
# JSON and wire twins, JSON /execute — served with an observation log,
# as cmd/serve -obs serves it — at what it allocates since a run is one
# launch and an execution is observed by a counter bump (48 while warm
# runs re-measured, 31 while they fanned out per device, 45 with the log
# while every execution was appended to it). The AllocsPerRun unit test
# TestEnginePredictIntoZeroAllocs pins the zero property per call; this
# gate covers the sustained-loop view that CI publishes in benchmark
# output. Used by CI, runnable locally:
#
#   scripts/alloc_smoke.sh
set -eu
cd "$(dirname "$0")/.."

# One "benchmark-name-regex max-allocs/op" pair per line: the regexes
# select what runs, and a benchmark (with its sub-benchmarks) is held to
# the first line its top-level name matches.
LIMITS='
BenchmarkEnginePredictInto$ 0
BenchmarkWire 0
BenchmarkEngineExecuteWarm$ 12
BenchmarkServeWirePredict$ 3
BenchmarkServeWireBatch64$ 3
BenchmarkServeJSONPredict$ 10
BenchmarkServeJSONExecute$ 25
'
PINNED="$(printf '%s\n' "$LIMITS" | awk 'NF == 2 { printf "%s%s", sep, $1; sep = "|" }')"

out="$(go test -run='^$' -bench="$PINNED" -benchmem -benchtime=100x \
	./internal/engine/ ./internal/wire/ ./cmd/serve/)"
printf '%s\n' "$out"

printf '%s\n' "$out" | awk -v limits="$LIMITS" '
	BEGIN {
		nl = split(limits, line, "\n")
		for (i = 1; i <= nl; i++) {
			if (split(line[i], f, " ") == 2) { nlim++; re[nlim] = f[1]; max[nlim] = f[2] + 0 }
		}
	}
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		sub(/\/.*/, "", name)
		lim = -1
		for (i = 1; i <= nlim && lim < 0; i++) {
			if (name ~ re[i]) { lim = max[i] }
		}
		if (lim < 0) {
			printf "alloc_smoke: no ceiling for %s\n", name
			bad = 1
		}
		for (i = 2; i <= NF; i++) {
			if ($(i) == "allocs/op" && $(i - 1) + 0 > lim) {
				printf "alloc_smoke: allocation regression (ceiling %d): %s\n", lim, $0
				bad = 1
			}
		}
		n++
	}
	END {
		if (n == 0) { print "alloc_smoke: no pinned benchmarks ran" > "/dev/stderr"; exit 1 }
		if (bad) { exit 1 }
		printf "alloc_smoke: %d pinned benchmarks, all within their allocs/op ceilings\n", n
	}'
