#!/usr/bin/env bash
# serve_smoke.sh — end-to-end deployment smoke test: train a tiny
# database with model artifacts, launch cmd/serve against it in adaptive
# mode, exercise /healthz, /predict, /execute and /stats, then drive the
# closed loop — executions for a size ABSENT from the seed database are
# observed (/observations), retrained (/retrain), and the promoted model
# version serves subsequent predictions (/models, modelVersion) without
# a restart — and finally verify clean shutdown on SIGTERM. Every phase
# checks /stats for "makespanMismatches": 0 — no /execute answered a
# makespan other than the one priced on its cell's profile. A second
# serve instance then exercises the untrusted-kernel path: upload via
# POST /kernels, execute, an infinite-loop kernel killed by the step
# budget, tenant quota rejection (429 + Retry-After), and idle-program
# eviction with transparent recompile. A third instance exercises the
# fleet path: -platforms mc1,mc2 with sharded engines, per-platform
# routing and per-shard /stats, one profile for a (program, size) served
# on both platforms (the fleet's shared cell cache) with no instance
# template until the cell's first /execute builds one, a cold /execute
# whose one kernel run profiles its cell and builds its template, the
# cell's self-check on the other platform, and admission
# control shedding an overload burst with 429 + Retry-After. (Sustained JSON/wire/batch
# traffic with every response checked is the benchmark's job:
# bash benchmark/run.sh --workload predict-serve.) Used by CI and
# runnable locally:
#
#   scripts/serve_smoke.sh [port]
set -euo pipefail
cd "$(dirname "$0")/.."

port="${1:-18090}"
work="$(mktemp -d)"
pid=""
cleanup() {
  [ -n "$pid" ] && kill -9 "$pid" 2>/dev/null || true
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/train" ./cmd/train
go build -o "$work/serve" ./cmd/serve

echo "== training tiny database + artifacts =="
"$work/train" -out "$work/db.json" -model-out "$work/models" -model knn \
  -programs vecadd,matmul -maxsize 1 -quiet

test -f "$work/models/mc2.json" || { echo "FAIL: no mc2 model artifact"; exit 1; }

echo "== launching serve (adaptive) =="
"$work/serve" -addr "127.0.0.1:$port" -db "$work/db.json" -platform mc2 \
  -models "$work/models" -model knn -warm vecadd \
  -obs "$work/obslog" -adaptive -retrain-interval 1h -retrain-min 1 &
pid=$!

base="http://127.0.0.1:$port"
for i in $(seq 1 100); do
  curl -fsS "$base/healthz" >/dev/null 2>&1 && break
  kill -0 "$pid" 2>/dev/null || { echo "FAIL: serve died during startup"; exit 1; }
  sleep 0.1
done

echo "== healthz =="
curl -fsS "$base/healthz" | tee "$work/healthz.json"
grep -q '"status": "ok"' "$work/healthz.json"

echo "== predict =="
curl -fsS "$base/predict?program=vecadd&size=1" | tee "$work/predict.json"
grep -q '"partition"' "$work/predict.json"
grep -q '"model": "knn5"' "$work/predict.json"

echo "== predict (repeat, warm) =="
curl -fsS "$base/predict?program=vecadd&size=1" >/dev/null

echo "== execute =="
curl -fsS -X POST "$base/execute?program=matmul&size=0" | tee "$work/execute.json"
grep -q '"verified": true' "$work/execute.json"

echo "== execute (JSON body) =="
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"program":"vecadd","size":0}' "$base/execute" | grep -q '"verified": true'

echo "== stats: artifact loaded, zero trainings, warm caches =="
curl -fsS "$base/stats" | tee "$work/stats.json"
grep -q '"trainings": 0' "$work/stats.json"
grep -q '"artifactLoads": 1' "$work/stats.json"

echo "== vector tier: a divergent kernel re-converges and /stats counts it =="
div_src='kernel void diverge(global float* a, global float* out, int n) { int i = get_global_id(0); float x = a[i]; if (x > 0.5f) { out[i] = sqrt(x) * 2.0f; } else { out[i] = x + 1.0f; } }'
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "{\"name\":\"divergent\",\"source\":\"$div_src\"}" "$base/kernels" | tee "$work/divkernel.json"
grep -q '"tier": "vec"' "$work/divkernel.json"
grep -q '"vecBailBranches": 0' "$work/divkernel.json"
curl -fsS -X POST "$base/execute?program=public/divergent&size=0" >/dev/null
curl -fsS "$base/stats" | tee "$work/stats-vec.json"
grep -q '"vecDivergences"' "$work/stats-vec.json"
grep -q '"vecScalarBails"' "$work/stats-vec.json"
grep -Eq '"vecReconverges": [1-9]' "$work/stats-vec.json" ||
  { echo "FAIL: divergent kernel recorded no re-convergences"; exit 1; }

echo "== predict/batch: N points in one request =="
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"requests":[{"program":"vecadd","size":0},{"program":"vecadd","size":1},{"program":"bogus"}]}' \
  "$base/predict/batch" | tee "$work/batch.json"
grep -q '"count": 3' "$work/batch.json"
grep -q '"errors": 1' "$work/batch.json"
grep -q '"partition"' "$work/batch.json"

echo "== bad request handling =="
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/predict")
[ "$code" = "400" ] || { echo "FAIL: missing program returned $code"; exit 1; }

echo "== trailing garbage after the JSON body is rejected =="
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  -d '{"program":"vecadd","size":0}{"junk":1}' "$base/execute")
[ "$code" = "400" ] || { echo "FAIL: trailing garbage returned $code"; exit 1; }

echo "== 405 with Allow header =="
curl -s -i -X POST "$base/stats" -o "$work/405.txt"
grep -q "^HTTP/1.1 405" "$work/405.txt" || { echo "FAIL: POST /stats not 405"; exit 1; }
grep -qi "^Allow: GET" "$work/405.txt" || { echo "FAIL: 405 without Allow header"; exit 1; }

echo "== closed loop: execute a size ABSENT from the seed DB (maxsize 1, so size 2) =="
for i in 1 2 3; do
  curl -fsS -X POST "$base/execute?program=vecadd&size=2" >/dev/null
done
curl -fsS "$base/observations" | tee "$work/obs.json"
grep -q '"enabled": true' "$work/obs.json"
grep -q '"labeled": ' "$work/obs.json"
grep -q '"counterKeys": ' "$work/obs.json"
grep -q '"executions": ' "$work/obs.json"

echo "== model health: served oracle efficiency per model version =="
curl -fsS "$base/stats" > "$work/health.json"
grep -q '"modelHealth": \[' "$work/health.json" || { echo "FAIL: /stats has no modelHealth"; exit 1; }
grep -q '"oracleEfficiency": ' "$work/health.json" || { echo "FAIL: modelHealth without oracleEfficiency"; exit 1; }

echo "== trigger retrain: candidate must pass the no-regression gate =="
curl -fsS -X POST "$base/retrain" | tee "$work/retrain.json"
grep -q '"promoted": true' "$work/retrain.json"
grep -q '"newVersion": 2' "$work/retrain.json"

echo "== models: the promoted version is current, lineage recorded =="
curl -fsS "$base/models" | tee "$work/models.json"
grep -q '"current": 2' "$work/models.json"
grep -q '"source": "retrained"' "$work/models.json"
grep -q '"obsRecords"' "$work/models.json"

echo "== the new version serves immediately, no restart =="
curl -fsS "$base/predict?program=vecadd&size=2" | tee "$work/predict2.json"
grep -q '"modelVersion": 2' "$work/predict2.json"
grep -q '"modelSource": "retrained"' "$work/predict2.json"

echo "== rollback to v1 and back via POST /models =="
curl -fsS -X POST -d '{"rollback":1}' "$base/models" | grep -q '"current": 1'
curl -fsS "$base/predict?program=vecadd&size=2" | grep -q '"modelVersion": 1'
curl -fsS -X POST -d '{"rollback":2}' "$base/models" | grep -q '"current": 2'

echo "== every execution's makespan is its cell's price =="
no_mismatches() {
  curl -fsS "$base/stats" > "$work/mismatch.json"
  grep -q '"makespanMismatches": 0' "$work/mismatch.json" ||
    { echo "FAIL: /stats has no makespanMismatches"; exit 1; }
  if grep -Eq '"makespanMismatches": [1-9]' "$work/mismatch.json"; then
    echo "FAIL: an /execute measured another makespan than its cell's price"; exit 1
  fi
}
no_mismatches

echo "== observation log survives on disk =="
test -s "$work"/obslog/obs-*.jsonl || { echo "FAIL: no observation segments"; exit 1; }

echo "== graceful shutdown =="
kill -TERM "$pid"
for i in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
  echo "FAIL: serve did not exit within 10s of SIGTERM"
  exit 1
fi
wait "$pid" || { echo "FAIL: serve exited non-zero"; exit 1; }
pid=""

echo "== untrusted kernels: serve with budgets, quotas and a tiny program cache =="
"$work/serve" -addr "127.0.0.1:$port" -db "$work/db.json" -platform mc2 \
  -model knn -exec-steps 2000000 -exec-timeout 10s \
  -tenant-max-kernels 1 -cache-limit 1 &
pid=$!
for i in $(seq 1 100); do
  curl -fsS "$base/healthz" >/dev/null 2>&1 && break
  kill -0 "$pid" 2>/dev/null || { echo "FAIL: budgeted serve died during startup"; exit 1; }
  sleep 0.1
done

scale_src='kernel void scale(global float* a, global float* out, int n) { out[get_global_id(0)] = a[get_global_id(0)] * 2.0; }'
spin_src='kernel void spin(global float* out) { int i = 0; while (i < 2) { i = i - 1; } out[get_global_id(0)] = 1.0; }'

echo "== upload a kernel and execute it =="
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "{\"name\":\"scale\",\"source\":\"$scale_src\"}" "$base/kernels" | tee "$work/kernel.json"
grep -q '"name": "public/scale"' "$work/kernel.json"
curl -fsS "$base/kernels" | grep -q '"public/scale"'
curl -fsS -X POST "$base/execute?program=public/scale&size=0" | tee "$work/userexec.json"
grep -q '"program": "public/scale"' "$work/userexec.json"

echo "== malformed source is a 400 with the MiniCL position =="
code=$(curl -s -o "$work/badsrc.json" -w '%{http_code}' -X POST -H 'X-Tenant: eve' \
  -d '{"name":"broken","source":"kernel void b(global float* o) { o[0] = ; }"}' "$base/kernels")
[ "$code" = "400" ] || { echo "FAIL: bad source returned $code"; exit 1; }
grep -q '"compile"' "$work/badsrc.json"

echo "== hostile infinite-loop kernel is killed by the step budget =="
curl -fsS -X POST -H 'X-Tenant: mallory' \
  -d "{\"name\":\"spin\",\"source\":\"$spin_src\"}" "$base/kernels" >/dev/null
code=$(timeout 60 curl -s -o "$work/spin.json" -w '%{http_code}' -X POST \
  "$base/execute?program=mallory/spin&size=0")
[ "$code" = "422" ] || { echo "FAIL: hostile kernel returned $code, want 422"; exit 1; }
grep -q '"budget:steps"' "$work/spin.json"
grep -q '"limit": 2000000' "$work/spin.json"

echo "== tenant over its kernel quota gets 429 + Retry-After =="
curl -s -i -X POST -d "{\"name\":\"second\",\"source\":\"$scale_src\"}" \
  "$base/kernels" -o "$work/quota.txt"
grep -q "^HTTP/1.1 429" "$work/quota.txt" || { echo "FAIL: over-quota upload not 429"; exit 1; }
grep -qi "^Retry-After:" "$work/quota.txt" || { echo "FAIL: 429 without Retry-After"; exit 1; }

echo "== idle eviction: tiny cache evicted a program; it still serves (recompile) =="
curl -fsS -X POST "$base/execute?program=vecadd&size=0" >/dev/null
curl -fsS "$base/stats" | tee "$work/stats2.json"
grep -q '"kernelsRegistered": 2' "$work/stats2.json"
grep -q '"quotaRejections": 1' "$work/stats2.json"
grep -q '"programsEvicted": 0' "$work/stats2.json" && { echo "FAIL: no evictions with cache-limit 1"; exit 1; }
grep -q '"budgetAbortsSteps": 0' "$work/stats2.json" && { echo "FAIL: no step-budget aborts counted"; exit 1; }
curl -fsS -X POST "$base/execute?program=public/scale&size=0" | grep -q '"program": "public/scale"'
no_mismatches

kill -TERM "$pid"
for i in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
wait "$pid" || { echo "FAIL: budgeted serve exited non-zero"; exit 1; }
pid=""

echo "== fleet: one process, two platforms, sharded engines, admission control =="
"$work/serve" -addr "127.0.0.1:$port" -db "$work/db.json" -platforms mc1,mc2 \
  -shards 2 -models "$work/models" -model knn \
  -admit-inflight 1 -admit-queue 0 -exec-steps 4000000000 -exec-timeout 30s &
pid=$!
for i in $(seq 1 100); do
  curl -fsS "$base/healthz" >/dev/null 2>&1 && break
  kill -0 "$pid" 2>/dev/null || { echo "FAIL: fleet serve died during startup"; exit 1; }
  sleep 0.1
done
curl -fsS "$base/healthz" | tee "$work/fleet-healthz.json"
grep -q 'mc1' "$work/fleet-healthz.json"
grep -q 'mc2' "$work/fleet-healthz.json"

echo "== requests route per platform and tenant; shards appear in /stats =="
curl -fsS "$base/predict?program=vecadd&size=1&platform=mc1" | grep -q '"partition"'
curl -fsS -H 'X-Tenant: alice' "$base/predict?program=vecadd&size=1&platform=mc2" | grep -q '"partition"'

echo "== one cell per fleet: a built-in predicted on both platforms is profiled once =="
curl -fsS "$base/stats" > "$work/fleet-cells.json"
computes=$(grep -o '"featureComputes": [0-9]*' "$work/fleet-cells.json" | awk '{ n += $2 } END { print n + 0 }')
[ "$computes" = "1" ] || { echo "FAIL: vecadd size 1 on mc1 and mc2 took $computes feature computes, want 1"; exit 1; }
grep -q '"cachedCells": 1,' "$work/fleet-cells.json" || { echo "FAIL: /stats does not report one cached cell"; exit 1; }
grep -q '"cellTemplates": 0,' "$work/fleet-cells.json" || { echo "FAIL: a predicted-only cell holds an instance template"; exit 1; }

echo "== the cell's first /execute builds its template =="
curl -fsS -X POST "$base/execute?program=vecadd&size=1&platform=mc1" | grep -q '"verified": true'
curl -fsS "$base/stats" > "$work/fleet-cells.json"
grep -q '"cellTemplates": 1,' "$work/fleet-cells.json" || { echo "FAIL: one executed cell does not report one template"; exit 1; }

echo "== a cold /execute's kernel run is its cell's profiling run =="
curl -fsS -X POST "$base/execute?program=saxpy&size=0&platform=mc2" | grep -q '"verified": true'
curl -fsS "$base/stats" > "$work/fleet-cold.json"
computes=$(grep -o '"featureComputes": [0-9]*' "$work/fleet-cold.json" | awk '{ n += $2 } END { print n + 0 }')
[ "$computes" = "2" ] || { echo "FAIL: a cold /execute of a fresh cell took $((computes - 1)) feature computes, want 1"; exit 1; }
grep -q '"cellTemplates": 2,' "$work/fleet-cold.json" || { echo "FAIL: a cold /execute did not leave its cell one template"; exit 1; }
curl -fsS -X POST "$base/execute?program=saxpy&size=0&platform=mc1" | grep -q '"verified": true'
curl -fsS "$base/stats" > "$work/fleet-cold.json"
grep -q '"makespanMismatches": 0' "$work/fleet-cold.json" ||
  { echo "FAIL: /stats has no makespanMismatches"; exit 1; }
if grep -Eq '"makespanMismatches": [1-9]' "$work/fleet-cold.json"; then
  echo "FAIL: the self-check on the second platform disagreed with the cell's profile"; exit 1
fi

curl -fsS -H 'X-Tenant: bob' "$base/predict?program=matmul&size=0&platform=mc2" | grep -q '"partition"'
curl -fsS "$base/stats" | tee "$work/fleet-stats.json"
grep -q '"platform": "mc1"' "$work/fleet-stats.json"
grep -q '"platform": "mc2"' "$work/fleet-stats.json"
grep -q '"admitted"' "$work/fleet-stats.json"

echo "== unserved platform is a 404, not a new shard =="
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/predict?program=vecadd&size=1&platform=gpu9")
[ "$code" = "404" ] || { echo "FAIL: unserved platform returned $code"; exit 1; }

echo "== overload sheds with 429 + Retry-After instead of queueing =="
# Deterministic shed: park a spin kernel in the default shard's single
# inflight slot (-admit-inflight 1 -admit-queue 0; the -exec-steps
# budget bounds how long it can hold it: the spin runs on the vector
# tier, 64 steps a dispatch, so 4e9 steps are well under a second), wait
# until /stats shows the
# slot occupied, then probe — the probe must answer 429 + Retry-After
# immediately instead of queueing behind the running kernel.
spin_src='kernel void spin(global float* out) { int i = 0; while (i < 2) { i = i - 1; } out[get_global_id(0)] = 1.0; }'
curl -fsS -X POST -d "{\"name\":\"spin\",\"source\":\"$spin_src\"}" "$base/kernels" >/dev/null
curl -s -o "$work/spin-exec.json" -X POST "$base/execute?program=public/spin&size=0" &
spin_pid=$!
slot_busy=""
for i in $(seq 1 100); do
  curl -fsS "$base/stats" | grep -q '"queueDepth": 1' && { slot_busy=1; break; }
  sleep 0.1
done
[ -n "$slot_busy" ] || { echo "FAIL: spin kernel never occupied the inflight slot"; exit 1; }
curl -s -i -X POST "$base/execute?program=matmul&size=1" -o "$work/shed.txt"
grep -q "^HTTP/1.1 429" "$work/shed.txt" || { echo "FAIL: probe behind a busy slot was not shed with 429"; head -1 "$work/shed.txt"; exit 1; }
grep -qi "^Retry-After:" "$work/shed.txt" || { echo "FAIL: shed response without Retry-After"; exit 1; }
wait "$spin_pid" || true

# A burst of 8 concurrent clients against the one inflight slot: every
# request is either served or shed — nothing else — every shed carries
# Retry-After, admitted traffic still completes, and the router counts
# the sheds.
seq 1 64 | xargs -P 8 -I{} curl -s -o /dev/null -D "$work/burst-{}.txt" \
  -X POST "$base/execute?program=matmul&size=1"
for f in "$work"/burst-*.txt; do
  grep -Eq "^HTTP/1.1 (200|429)" "$f" || { echo "FAIL: burst answered $(head -1 "$f")"; exit 1; }
  if grep -q "^HTTP/1.1 429" "$f"; then
    grep -qi "^Retry-After:" "$f" || { echo "FAIL: burst 429 without Retry-After"; exit 1; }
  fi
done
shed=$(cat "$work"/burst-*.txt | grep -c "^HTTP/1.1 429" || true)
echo "burst: $((64 - shed)) served, $shed shed"
[ "$shed" -gt 0 ] || { echo "FAIL: burst saw no sheds"; exit 1; }
[ "$shed" -lt 64 ] || { echo "FAIL: burst admitted nothing"; exit 1; }
curl -fsS "$base/stats" | grep -Eq '"shed": [1-9]' || { echo "FAIL: /stats counted no sheds"; exit 1; }
no_mismatches

kill -TERM "$pid"
for i in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
wait "$pid" || { echo "FAIL: fleet serve exited non-zero"; exit 1; }
pid=""
echo "PASS: serve smoke"
