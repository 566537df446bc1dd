#!/usr/bin/env sh
# Runs the tracked performance benchmarks and writes their ns/op — plus
# serving-throughput metrics from short cmd/loadgen runs against a real
# cmd/serve process (JSON and binary wire protocol side by side, and an
# admission-control overload sweep) — as JSON, so successive PRs
# accumulate a machine-readable perf trajectory. The default output
# name is dated
# (BENCH_<UTC timestamp>.json): each run adds a new point instead of
# overwriting the last one — pass an explicit path (as CI does) to pin
# the name.
#
# Usage:
#   scripts/bench.sh [output.json]
#
# Environment:
#   BENCHTIME         go test -benchtime value (default 1s; use 1x for a smoke run)
#   SERVE_BENCH       set to 0 to skip the serving-throughput section
#   LOADGEN_DURATION  loadgen measurement window (default 2s)
#   LOADGEN_WORKERS   loadgen concurrency (default 4)
#
# Compare two revisions with benchstat:
#   go test -run='^$' -bench="$PATTERN" -count=10 . > old.txt   (on main)
#   go test -run='^$' -bench="$PATTERN" -count=10 . > new.txt   (on the PR)
#   benchstat old.txt new.txt
set -eu

OUT="${1:-BENCH_$(date -u +%Y%m%d-%H%M%S).json}"
BENCHTIME="${BENCHTIME:-1s}"
SERVE_BENCH="${SERVE_BENCH:-1}"
LOADGEN_DURATION="${LOADGEN_DURATION:-2s}"
LOADGEN_WORKERS="${LOADGEN_WORKERS:-4}"

# The tracked set: pricing (naive vs prefix range queries, full-space
# pricing), barrier execution (one strategy per tier), the end-to-end
# scheduling-core paths, and the kernel execution tiers (closure-tree
# reference vs bytecode VM vs SIMT vector tier, plus fused-vs-unfused).
PATTERN='BenchmarkPricePartition|BenchmarkBarrierKernel|BenchmarkPartitionPricing|BenchmarkKernelExecution|BenchmarkKernelExec/|BenchmarkKernelExecFusion|BenchmarkOracleSearch|BenchmarkChunkedExecution'

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
serve_pid=""
cleanup() {
	[ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

# --- go test benchmarks -> entries + metadata fragments -----------------
go test -run='^$' -bench="$PATTERN" -benchtime="$BENCHTIME" . |
	awk -v entries="$tmp/entries" -v meta="$tmp/meta" '
	/^Benchmark/ && / ns\/op/ {
		name = $1
		sub(/-[0-9]+$/, "", name)           # strip -GOMAXPROCS suffix
		for (i = 2; i <= NF; i++) {
			if ($(i) == "ns/op") { ns = $(i - 1) }
		}
		printf "%s    {\"name\": \"%s\", \"ns_per_op\": %s}", (n++ ? ",\n" : ""), name, ns >> entries
	}
	/^(goos|goarch|cpu):/ {
		key = substr($1, 1, length($1) - 1)
		printf "  \"%s\": \"%s\",\n", key, substr($0, index($0, " ") + 1) >> meta
	}
	END {
		if (n == 0) { print "bench.sh: no benchmark results parsed" > "/dev/stderr"; exit 1 }
		printf "\n" >> entries
	}'

# --- serving throughput: train tiny db, serve, loadgen ------------------
if [ "$SERVE_BENCH" != "0" ]; then
	echo "bench.sh: measuring serving throughput (loadgen ${LOADGEN_DURATION} x ${LOADGEN_WORKERS} workers)"
	go build -o "$tmp/train" ./cmd/train
	go build -o "$tmp/serve" ./cmd/serve
	go build -o "$tmp/loadgen" ./cmd/loadgen
	"$tmp/train" -out "$tmp/db.json" -model-out "$tmp/models" -model knn \
		-programs vecadd,matmul -maxsize 1 -quiet
	# PID-derived port avoids collisions between concurrent runs (and
	# with anything squatting on a fixed default); override if needed.
	port="${BENCH_PORT:-$((18100 + $$ % 800))}"
	"$tmp/serve" -addr "127.0.0.1:$port" -db "$tmp/db.json" -platform mc2 \
		-models "$tmp/models" -model knn -warm vecadd >"$tmp/serve.log" 2>&1 &
	serve_pid=$!
	i=0
	while ! "$tmp/loadgen" -addr "http://127.0.0.1:$port" -program vecadd -size 1 \
		-workers 1 -duration 50ms -warmup 0s >/dev/null 2>&1; do
		i=$((i + 1))
		[ "$i" -ge 100 ] && { echo "bench.sh: serve did not come up"; exit 1; }
		kill -0 "$serve_pid" 2>/dev/null || { echo "bench.sh: serve died"; cat "$tmp/serve.log"; exit 1; }
		sleep 0.1
	done
	"$tmp/loadgen" -addr "http://127.0.0.1:$port" -program vecadd -size 1 \
		-workers "$LOADGEN_WORKERS" -duration "$LOADGEN_DURATION" -out "$tmp/predict.json"
	"$tmp/loadgen" -addr "http://127.0.0.1:$port" -program vecadd -size 1 -batch 64 \
		-workers "$LOADGEN_WORKERS" -duration "$LOADGEN_DURATION" -out "$tmp/batch.json"
	# Same endpoints over the compact binary wire protocol: the JSON/wire
	# pair in one document is the apples-to-apples protocol comparison.
	"$tmp/loadgen" -addr "http://127.0.0.1:$port" -program vecadd -size 1 -wire \
		-workers "$LOADGEN_WORKERS" -duration "$LOADGEN_DURATION" -out "$tmp/predict_wire.json"
	"$tmp/loadgen" -addr "http://127.0.0.1:$port" -program vecadd -size 1 -batch 64 -wire \
		-workers "$LOADGEN_WORKERS" -duration "$LOADGEN_DURATION" -out "$tmp/batch_wire.json"
	kill "$serve_pid" 2>/dev/null || true
	wait "$serve_pid" 2>/dev/null || true
	serve_pid=""

	# --- overload: admission control under an execute-heavy sweep -------
	# A deliberately small serve (4 procs, one admitted execute + one
	# queued per shard, 60ms p99 target) swept with rising concurrency:
	# low worker counts are admitted untouched, high ones shed with 429
	# instead of queueing without bound. The sweep lands in the document
	# so the shed/admitted trajectory is tracked like any benchmark.
	echo "bench.sh: measuring admission-control overload sweep"
	GOMAXPROCS=4 "$tmp/serve" -addr "127.0.0.1:$port" -db "$tmp/db.json" -platform mc2 \
		-models "$tmp/models" -model knn -warm vecadd \
		-admit-inflight 2 -admit-queue 2 -target-p99 60ms >"$tmp/serve2.log" 2>&1 &
	serve_pid=$!
	i=0
	while ! "$tmp/loadgen" -addr "http://127.0.0.1:$port" -program vecadd -size 1 \
		-workers 1 -duration 50ms -warmup 0s >/dev/null 2>&1; do
		i=$((i + 1))
		[ "$i" -ge 100 ] && { echo "bench.sh: overload serve did not come up"; exit 1; }
		kill -0 "$serve_pid" 2>/dev/null || { echo "bench.sh: overload serve died"; cat "$tmp/serve2.log"; exit 1; }
		sleep 0.1
	done
	"$tmp/loadgen" -addr "http://127.0.0.1:$port" -program vecadd -size 1 \
		-endpoint /execute -sweep 1,4,16 -duration "$LOADGEN_DURATION" \
		-out "$tmp/overload.json"
	kill "$serve_pid" 2>/dev/null || true
	wait "$serve_pid" 2>/dev/null || true
	serve_pid=""
fi

# --- assemble the final document ---------------------------------------
{
	printf '{\n'
	printf '  "timestamp": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	cat "$tmp/meta"
	printf '  "benchmarks": [\n'
	cat "$tmp/entries"
	printf '  ]'
	if [ -s "$tmp/predict.json" ]; then
		printf ',\n  "serving": {\n'
		printf '    "predict": %s,\n' "$(tr -d '\n' <"$tmp/predict.json" | tr -s ' ')"
		printf '    "predictBatch": %s,\n' "$(tr -d '\n' <"$tmp/batch.json" | tr -s ' ')"
		printf '    "predictWire": %s,\n' "$(tr -d '\n' <"$tmp/predict_wire.json" | tr -s ' ')"
		printf '    "predictBatchWire": %s\n' "$(tr -d '\n' <"$tmp/batch_wire.json" | tr -s ' ')"
		printf '  }'
	fi
	if [ -s "$tmp/overload.json" ]; then
		printf ',\n  "overload": %s' "$(tr -d '\n' <"$tmp/overload.json" | tr -s ' ')"
	fi
	printf '\n}\n'
} >"$OUT"

# The document must parse — catch assembly bugs before they land in the
# trajectory.
if command -v python3 >/dev/null 2>&1; then
	python3 -c "import json,sys; json.load(open('$OUT'))" || { echo "bench.sh: $OUT is not valid JSON"; exit 1; }
fi
n="$(grep -c '"name"' "$OUT" || true)"
echo "wrote $OUT ($n benchmarks$([ -s "$tmp/predict.json" ] && printf ', serving metrics included'))"
