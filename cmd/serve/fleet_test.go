package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/wire"
)

// fleetServer builds a real multi-shard server: lazily-created engines
// over a shared tiny database, one per (platform, shard), with the
// given admission config. This is the production wiring in miniature.
func fleetServer(t *testing.T, platforms []string, shards int, adm fleet.AdmissionConfig) *server {
	t.Helper()
	db, err := harness.Generate(harness.GenOptions{Programs: []string{"vecadd"}, MaxSizeIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	return newFleet(t, db, platforms, shards, adm, nil)
}

// newFleet is fleetServer over db; mutate, when set, adjusts every
// engine's options. Clearing SharedCells gives each engine private cells
// and models, as engines had before fleets shared them.
func newFleet(t *testing.T, db *harness.DB, platforms []string, shards int, adm fleet.AdmissionConfig, mutate func(*engine.Options)) *server {
	t.Helper()
	shared := engine.NewTenantTable()
	cells, err := engine.NewCellCache(platforms...)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := fleet.New(fleet.Options{
		Platforms:         platforms,
		ShardsPerPlatform: shards,
		Admission:         adm,
		NewEngine: func(platform string, shard int) (*engine.Engine, error) {
			o := engine.Options{
				Platform: platform, DB: db, Model: harness.FastModel(),
				SharedTenants: shared, SharedCells: cells,
			}
			if mutate != nil {
				mutate(&o)
			}
			return engine.New(o)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, sh := range rt.Shards() {
			sh.Engine().Close()
		}
	})
	return &server{fleet: rt, start: time.Now(), intern: wire.NewIntern()}
}

var (
	seedOnce sync.Once
	seedVal  *harness.DB
	seedErr  error
)

// seedDB is a seed database the retrainer's gate can work with: vecadd
// and matmul at sizes 0-1 on both platforms.
func seedDB(t *testing.T) *harness.DB {
	t.Helper()
	seedOnce.Do(func() {
		seedVal, seedErr = harness.Generate(harness.GenOptions{Programs: []string{"vecadd", "matmul"}, MaxSizeIdx: 1})
	})
	if seedErr != nil {
		t.Fatal(seedErr)
	}
	return seedVal
}

// withObsLog returns a newFleet mutation that gives every engine one
// observation log, closed when the test ends.
func withObsLog(t *testing.T) func(*engine.Options) {
	t.Helper()
	log, err := obs.Open(obs.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return func(o *engine.Options) { o.ObsLog = log }
}

// shardTarget is a tenant that routes to one shard of a platform.
type shardTarget struct{ platform, tenant string }

// shardTargets finds one tenant per (platform, shard) of s, in platform
// then shard order.
func shardTargets(t *testing.T, s *server) []shardTarget {
	t.Helper()
	var out []shardTarget
	for _, p := range s.fleet.Platforms() {
		for idx := 0; idx < s.fleet.ShardsPerPlatform(); idx++ {
			for i := 0; ; i++ {
				tenant := fmt.Sprintf("tenant-%d", i)
				sh, err := s.fleet.ShardFor(p, tenant)
				if err != nil {
					t.Fatal(err)
				}
				if sh.Index == idx {
					out = append(out, shardTarget{p, tenant})
					break
				}
			}
		}
	}
	return out
}

// doWire posts a wire frame and returns the recorder.
func doWire(t *testing.T, s *server, target string, frame []byte) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(frame))
	r.Header.Set("Content-Type", wire.ContentType)
	w := httptest.NewRecorder()
	s.mux().ServeHTTP(w, r)
	return w
}

// TestWireJSONPredictEquivalence: the binary protocol is an encoding,
// not a different API — the same predict request must produce the same
// prediction through both paths, field for field.
func TestWireJSONPredictEquivalence(t *testing.T) {
	s := testServer(t)

	wj := doReq(t, s, http.MethodGet, "/predict?program=vecadd&size=1", nil)
	if wj.Code != http.StatusOK {
		t.Fatalf("json predict = %d: %s", wj.Code, wj.Body.String())
	}
	var jp engine.Prediction
	if err := json.Unmarshal(wj.Body.Bytes(), &jp); err != nil {
		t.Fatal(err)
	}

	frame := wire.AppendPredictRequest(nil, &engine.Request{Program: "vecadd", SizeIdx: 1})
	ww := doWire(t, s, "/predict", frame)
	if ww.Code != http.StatusOK {
		t.Fatalf("wire predict = %d: %s", ww.Code, ww.Body.String())
	}
	if ct := ww.Header().Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("wire response Content-Type = %q", ct)
	}
	msg, payload, err := wire.ParseFrame(ww.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if msg != wire.MsgPredictResp {
		t.Fatalf("msg = %d, want %d", msg, wire.MsgPredictResp)
	}
	var wp engine.Prediction
	if err := wire.DecodePrediction(payload, &wp); err != nil {
		t.Fatal(err)
	}
	if wp != jp {
		t.Errorf("wire prediction differs from JSON:\nwire: %+v\njson: %+v", wp, jp)
	}
}

// TestWireJSONBatchEquivalence: batches too, including per-point errors
// surviving with identical messages alongside good points.
func TestWireJSONBatchEquivalence(t *testing.T) {
	s := testServer(t)

	body := []byte(`{"requests":[{"program":"vecadd","size":0},{"program":"nope"},{"program":"matmul","size":1}]}`)
	wj := doReq(t, s, http.MethodPost, "/predict/batch", body)
	if wj.Code != http.StatusOK {
		t.Fatalf("json batch = %d: %s", wj.Code, wj.Body.String())
	}
	var jresp struct {
		Count   int `json:"count"`
		Errors  int `json:"errors"`
		Results []struct {
			engine.Prediction
			Error string `json:"error,omitempty"`
		} `json:"results"`
	}
	if err := json.Unmarshal(wj.Body.Bytes(), &jresp); err != nil {
		t.Fatal(err)
	}
	if jresp.Count != 3 || jresp.Errors != 1 {
		t.Fatalf("json batch count/errors = %d/%d: %s", jresp.Count, jresp.Errors, wj.Body.String())
	}

	reqs := []engine.Request{
		{Program: "vecadd", SizeIdx: 0},
		{Program: "nope", SizeIdx: -1},
		{Program: "matmul", SizeIdx: 1},
	}
	frame := wire.AppendBatchRequest(nil, reqs)
	ww := doWire(t, s, "/predict/batch", frame)
	if ww.Code != http.StatusOK {
		t.Fatalf("wire batch = %d: %s", ww.Code, ww.Body.String())
	}
	msg, payload, err := wire.ParseFrame(ww.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if msg != wire.MsgBatchResp {
		t.Fatalf("msg = %d, want %d", msg, wire.MsgBatchResp)
	}
	items, errCount, err := wire.DecodeBatchResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 || errCount != 1 {
		t.Fatalf("wire batch count/errors = %d/%d", len(items), errCount)
	}
	for i, it := range items {
		if it.OK != (jresp.Results[i].Error == "") {
			t.Fatalf("item %d: wire ok=%v, json error=%q", i, it.OK, jresp.Results[i].Error)
		}
		if it.OK && it.Pred != jresp.Results[i].Prediction {
			t.Errorf("item %d differs:\nwire: %+v\njson: %+v", i, it.Pred, jresp.Results[i].Prediction)
		}
		if !it.OK && it.Err != jresp.Results[i].Error {
			t.Errorf("item %d error: wire %q, json %q", i, it.Err, jresp.Results[i].Error)
		}
	}
}

// TestWireExecute: the execute path end to end over the binary
// protocol. Makespan is measured wall time, so only the deterministic
// fields are compared.
func TestWireExecute(t *testing.T) {
	s := testServer(t)
	frame := wire.AppendExecuteRequest(nil, &engine.Request{Program: "vecadd", SizeIdx: 0})
	ww := doWire(t, s, "/execute", frame)
	if ww.Code != http.StatusOK {
		t.Fatalf("wire execute = %d: %s", ww.Code, ww.Body.String())
	}
	msg, payload, err := wire.ParseFrame(ww.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if msg != wire.MsgExecuteResp {
		t.Fatalf("msg = %d, want %d", msg, wire.MsgExecuteResp)
	}
	var x engine.Execution
	if err := wire.DecodeExecution(payload, &x); err != nil {
		t.Fatal(err)
	}
	if x.Program != "vecadd" || x.Platform != "mc2" {
		t.Errorf("execution: %+v", x.Prediction)
	}
	if !x.Verified {
		t.Errorf("execution not verified: %q", x.VerifyError)
	}
	if x.Makespan <= 0 {
		t.Errorf("makespan = %v", x.Makespan)
	}
}

// TestWireErrorFrames: engine and validation failures answer MsgError
// frames with the status codes the JSON twin of each request gets. A
// batch point's failure is not the request's: it answers 200 with the
// point's error inside.
func TestWireErrorFrames(t *testing.T) {
	s := testServer(t)
	budget := newServer(t, func(o *engine.Options) { o.MaxMemBytes = 64 })
	pred := func(r engine.Request) []byte { return wire.AppendPredictRequest(nil, &r) }
	exe := func(r engine.Request) []byte { return wire.AppendExecuteRequest(nil, &r) }
	batch := func(r engine.Request) []byte { return wire.AppendBatchRequest(nil, []engine.Request{r}) }
	huge := func(frame []byte) []byte { return append(frame, make([]byte, maxBodyBytes)...) }
	hugeJSON := `{"program":"vecadd","junk":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	cases := []struct {
		name   string
		srv    *server // nil: testServer
		target string
		frame  []byte
		json   string // the JSON twin's POST body
		status int
		code   string
	}{
		{"unknown program", nil, "/predict",
			pred(engine.Request{Program: "nope", SizeIdx: -1}), `{"program":"nope"}`,
			http.StatusUnprocessableEntity, "error"},
		{"missing program", nil, "/predict",
			pred(engine.Request{SizeIdx: -1}), `{}`,
			http.StatusBadRequest, "frame"},
		{"wrong msg type", nil, "/predict",
			exe(engine.Request{Program: "vecadd"}), `["vecadd"]`,
			http.StatusBadRequest, "frame"},
		{"garbage", nil, "/predict", []byte{1, 2, 3}, `{"program":`,
			http.StatusBadRequest, "frame"},
		{"unknown platform", nil, "/predict?platform=mc9",
			pred(engine.Request{Program: "vecadd"}), `{"program":"vecadd"}`,
			http.StatusNotFound, "platform"},
		{"batch unknown program", nil, "/predict/batch",
			batch(engine.Request{Program: "nope", SizeIdx: -1}), `{"requests":[{"program":"nope"}]}`,
			http.StatusOK, ""},
		{"batch missing program", nil, "/predict/batch",
			batch(engine.Request{SizeIdx: -1}), `{"requests":[{}]}`,
			http.StatusOK, ""},
		{"batch malformed body", nil, "/predict/batch", []byte{1, 2, 3}, `{"requests":`,
			http.StatusBadRequest, "frame"},
		{"batch oversized body", nil, "/predict/batch",
			huge(batch(engine.Request{Program: "vecadd"})), `{"requests":[` + hugeJSON + `]}`,
			http.StatusRequestEntityTooLarge, "body"},
		{"batch unknown platform", nil, "/predict/batch?platform=mc9",
			batch(engine.Request{Program: "vecadd"}), `{"requests":[{"program":"vecadd"}]}`,
			http.StatusNotFound, "platform"},
		{"batch budget abort", budget, "/predict/batch",
			batch(engine.Request{Program: "vecadd"}), `{"requests":[{"program":"vecadd","size":0}]}`,
			http.StatusOK, ""},
		{"execute unknown program", nil, "/execute",
			exe(engine.Request{Program: "nope", SizeIdx: -1}), `{"program":"nope"}`,
			http.StatusUnprocessableEntity, "error"},
		{"execute missing program", nil, "/execute",
			exe(engine.Request{SizeIdx: -1}), `{}`,
			http.StatusBadRequest, "frame"},
		{"execute malformed body", nil, "/execute", []byte{1, 2, 3}, `{"program":`,
			http.StatusBadRequest, "frame"},
		{"execute oversized body", nil, "/execute",
			huge(exe(engine.Request{Program: "vecadd"})), hugeJSON,
			http.StatusRequestEntityTooLarge, "body"},
		{"execute unknown platform", nil, "/execute?platform=mc9",
			exe(engine.Request{Program: "vecadd"}), `{"program":"vecadd"}`,
			http.StatusNotFound, "platform"},
		{"execute budget abort", budget, "/execute",
			exe(engine.Request{Program: "vecadd"}), `{"program":"vecadd","size":0}`,
			http.StatusRequestEntityTooLarge, "budget:memory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := s
			if tc.srv != nil {
				srv = tc.srv
			}
			if w := doReq(t, srv, http.MethodPost, tc.target, []byte(tc.json)); w.Code != tc.status {
				t.Fatalf("json twin status = %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			w := doWire(t, srv, tc.target, tc.frame)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			msg, payload, err := wire.ParseFrame(w.Body.Bytes())
			if tc.status == http.StatusOK {
				if _, errs, derr := wire.DecodeBatchResponse(payload); err != nil || msg != wire.MsgBatchResp || derr != nil || errs != 1 {
					t.Fatalf("want a batch response with one failed point: msg=%d errs=%d err=%v/%v", msg, errs, err, derr)
				}
				return
			}
			if err != nil || msg != wire.MsgError {
				t.Fatalf("error response not a MsgError frame: msg=%d err=%v", msg, err)
			}
			ef, err := wire.DecodeError(payload)
			if err != nil {
				t.Fatal(err)
			}
			if ef.Status != tc.status || ef.Code != tc.code {
				t.Errorf("error frame = %+v, want status %d code %q", ef, tc.status, tc.code)
			}
		})
	}
}

// TestShedThroughHandler: with the shard's only slot held, both
// protocols answer 429 with Retry-After and code "shed"; after release
// the same request succeeds.
func TestShedThroughHandler(t *testing.T) {
	s := fleetServer(t, []string{"mc2"}, 1,
		fleet.AdmissionConfig{MaxInflight: 1, MaxQueue: 0})
	sh, err := s.fleet.ShardFor("", "")
	if err != nil {
		t.Fatal(err)
	}
	permit, err := sh.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	w := doReq(t, s, http.MethodGet, "/predict?program=vecadd&size=0", nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("json shed = %d: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") != "1" {
		t.Errorf("Retry-After = %q, want 1", w.Header().Get("Retry-After"))
	}
	if !strings.Contains(w.Body.String(), `"shed"`) {
		t.Errorf("missing shed code: %s", w.Body.String())
	}

	frame := wire.AppendPredictRequest(nil, &engine.Request{Program: "vecadd", SizeIdx: 0})
	ww := doWire(t, s, "/predict", frame)
	if ww.Code != http.StatusTooManyRequests {
		t.Fatalf("wire shed = %d", ww.Code)
	}
	if ww.Header().Get("Retry-After") != "1" {
		t.Errorf("wire Retry-After = %q, want 1", ww.Header().Get("Retry-After"))
	}
	msg, payload, err := wire.ParseFrame(ww.Body.Bytes())
	if err != nil || msg != wire.MsgError {
		t.Fatalf("shed response not MsgError: msg=%d err=%v", msg, err)
	}
	ef, err := wire.DecodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if ef.Code != "shed" || ef.RetryAfterSecs != 1 {
		t.Errorf("error frame = %+v", ef)
	}

	permit.Release()
	if w := doReq(t, s, http.MethodGet, "/predict?program=vecadd&size=0", nil); w.Code != http.StatusOK {
		t.Fatalf("post-release predict = %d: %s", w.Code, w.Body.String())
	}

	// Shed requests are visible in /stats.
	w = doReq(t, s, http.MethodGet, "/stats", nil)
	var stats struct {
		Shards []fleet.ShardStats `json:"shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != 1 || stats.Shards[0].Shed != 2 {
		t.Errorf("stats shards = %+v, want one shard with shed=2", stats.Shards)
	}
}

// TestMultiPlatformRouting: one process serving two platforms routes by
// the platform query parameter, keeps per-platform predictions honest,
// and 404s platforms it does not serve.
func TestMultiPlatformRouting(t *testing.T) {
	s := fleetServer(t, []string{"mc1", "mc2"}, 2, fleet.AdmissionConfig{})

	for _, p := range []string{"mc1", "mc2"} {
		w := doReq(t, s, http.MethodGet, "/predict?program=vecadd&size=0&platform="+p, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("predict on %s = %d: %s", p, w.Code, w.Body.String())
		}
		var pred engine.Prediction
		if err := json.Unmarshal(w.Body.Bytes(), &pred); err != nil {
			t.Fatal(err)
		}
		if pred.Platform != p {
			t.Errorf("platform %s answered prediction for %q", p, pred.Platform)
		}
	}

	// Default platform is the first configured.
	w := doReq(t, s, http.MethodGet, "/predict?program=vecadd&size=0", nil)
	var pred engine.Prediction
	if err := json.Unmarshal(w.Body.Bytes(), &pred); err != nil {
		t.Fatal(err)
	}
	if pred.Platform != "mc1" {
		t.Errorf("default platform = %q, want mc1", pred.Platform)
	}

	// Unserved platform: 404, not 500.
	if w := doReq(t, s, http.MethodGet, "/predict?program=vecadd&platform=mc9", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown platform = %d, want 404", w.Code)
	}

	// Different tenants may land on different shards, but the same
	// tenant always lands on the same one.
	var first *fleet.Shard
	for i := 0; i < 10; i++ {
		sh, err := s.fleet.ShardFor("mc1", "alice")
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = sh
		} else if sh != first {
			t.Fatal("tenant alice routed to two shards")
		}
	}

	// /healthz lists both platforms.
	w = doReq(t, s, http.MethodGet, "/healthz", nil)
	if !strings.Contains(w.Body.String(), `"mc1"`) || !strings.Contains(w.Body.String(), `"mc2"`) {
		t.Errorf("healthz missing platforms: %s", w.Body.String())
	}

	// /stats reports per-shard blocks tagged with platform and index.
	w = doReq(t, s, http.MethodGet, "/stats", nil)
	var stats struct {
		Platforms         []string           `json:"platforms"`
		ShardsPerPlatform int                `json:"shardsPerPlatform"`
		Shards            []fleet.ShardStats `json:"shards"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Platforms) != 2 || stats.ShardsPerPlatform != 2 {
		t.Errorf("stats header = %+v", stats)
	}
	seen := map[string]bool{}
	for _, sh := range stats.Shards {
		seen[sh.Platform] = true
	}
	if !seen["mc1"] || !seen["mc2"] {
		t.Errorf("stats missing a platform's shards: %+v", stats.Shards)
	}
}

// TestFleetProfilesEachCellOnce: a fleet of mc1 and mc2 with two shards
// each, sharing one cell cache, serves /predict then /execute of every
// built-in at sizes 0-1 through all four engines. Each (program, size) is
// profiled once for the whole fleet — not once per engine, as a fleet of
// private caches does — and every answer is bit for bit the private
// fleet's, verified, and priced without a makespan mismatch.
func TestFleetProfilesEachCellOnce(t *testing.T) {
	platforms := []string{"mc1", "mc2"}
	fleets := []*server{
		newFleet(t, seedDB(t), platforms, 2, fleet.AdmissionConfig{}, nil),
		newFleet(t, seedDB(t), platforms, 2, fleet.AdmissionConfig{}, func(o *engine.Options) { o.SharedCells = nil }),
	}
	targets := shardTargets(t, fleets[0])

	type answer struct {
		class                               int
		predicted, makespan, oracle, served uint64
	}
	cells := 0
	for _, bp := range bench.All() {
		for sz := 0; sz <= 1 && sz < len(bp.Sizes); sz++ {
			cells++
			for _, tg := range targets {
				var got [2]answer
				for i, s := range fleets {
					q := fmt.Sprintf("?program=%s&size=%d&platform=%s", bp.Name, sz, tg.platform)
					w := doReqT(t, s, http.MethodGet, "/predict"+q, tg.tenant, nil)
					var p engine.Prediction
					if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil || w.Code != http.StatusOK {
						t.Fatalf("predict %s = %d (%v): %s", q, w.Code, err, w.Body.String())
					}
					w = doReqT(t, s, http.MethodPost, "/execute"+q, tg.tenant, nil)
					var x engine.Execution
					if err := json.Unmarshal(w.Body.Bytes(), &x); err != nil || w.Code != http.StatusOK || !x.Verified {
						t.Fatalf("execute %s = %d (%v): %s", q, w.Code, err, w.Body.String())
					}
					if x.Prediction != p {
						t.Fatalf("execute %s predicted %+v, /predict %+v", q, x.Prediction, p)
					}
					got[i] = answer{x.Class, math.Float64bits(x.PredictedTime), math.Float64bits(x.Makespan),
						math.Float64bits(x.OracleTime), math.Float64bits(p.PredictedTime)}
				}
				if got[0] != got[1] {
					t.Fatalf("%s size %d on %s for %s: shared cells answered %+v, private %+v",
						bp.Name, sz, tg.platform, tg.tenant, got[0], got[1])
				}
			}
		}
	}
	if cells != 46 {
		t.Fatalf("%d (program, size) cells, want 46", cells)
	}

	for i, want := range []int{cells, 4 * cells} {
		w := doReq(t, fleets[i], http.MethodGet, "/stats", nil)
		var stats struct {
			CachedCells   int                `json:"cachedCells"`
			CellTemplates int                `json:"cellTemplates"`
			Shards        []fleet.ShardStats `json:"shards"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		var computes, executions, byReference uint64
		for _, sh := range stats.Shards {
			computes += sh.Engine.FeatureComputes
			executions += sh.Engine.Executions
			byReference += sh.Engine.VerifiedByReference
			if sh.Engine.MakespanMismatches != 0 {
				t.Errorf("fleet %d shard %s/%d: %d makespan mismatches", i, sh.Platform, sh.Shard, sh.Engine.MakespanMismatches)
			}
		}
		// The stored outputs are the cell's, so a shared cell is checked
		// against the Go reference once, on whichever engine ran it first.
		// Every cell executed, so every cell built its template, once.
		if len(stats.Shards) != 4 || computes != uint64(want) || stats.CachedCells != want || stats.CellTemplates != want ||
			executions != uint64(4*cells) || byReference != uint64(want) {
			t.Errorf("fleet %d: %d shards, %d feature computes, %d cached cells, %d templates, %d executions, %d verified by reference; want 4, %d, %d, %d, %d, %d",
				i, len(stats.Shards), computes, stats.CachedCells, stats.CellTemplates, executions, byReference, want, want, want, 4*cells, want)
		}
	}
}

// TestClassifyCoversEveryErrorKind pins the one error → status / code /
// Retry-After mapping both encodings render (their renderings are
// checked by TestWireErrorFrames, TestShedThroughHandler,
// TestBudgetStatusCodes and TestKernelQuota429).
func TestClassifyCoversEveryErrorKind(t *testing.T) {
	budget := func(kind string) error { return &exec.BudgetError{Kind: kind, Spent: 9, Limit: 8} }
	for _, tc := range []struct {
		err  error
		want failure
	}{
		{budget(exec.BudgetSteps), failure{status: http.StatusUnprocessableEntity, code: "budget:steps"}},
		{budget(exec.BudgetMemory), failure{status: http.StatusRequestEntityTooLarge, code: "budget:memory"}},
		{budget(exec.BudgetDeadline), failure{status: http.StatusRequestTimeout, code: "budget:deadline"}},
		{&engine.QuotaError{RetryAfter: 1500 * time.Millisecond}, failure{status: http.StatusTooManyRequests, code: "quota", retrySecs: 2}},
		{&fleet.ShedError{RetryAfter: 3 * time.Second}, failure{status: http.StatusTooManyRequests, code: "shed", retrySecs: 3}},
		{&engine.CompileError{Name: "k", Err: errors.New("1:2: boom")}, failure{status: http.StatusBadRequest, code: "compile"}},
		{fmt.Errorf("wrapped: %w", engine.ErrKernelExists), failure{status: http.StatusConflict, code: "exists"}},
		{fmt.Errorf("wrapped: %w", engine.ErrInvalidKernel), failure{status: http.StatusBadRequest, code: "invalid"}},
		{fmt.Errorf("wrapped: %w", engine.ErrRetrainInProgress), failure{status: http.StatusConflict}},
		{&statusError{status: http.StatusNotFound, code: "platform", err: errors.New("mc9")}, failure{status: http.StatusNotFound, code: "platform"}},
		{errors.New("anything else"), failure{status: http.StatusUnprocessableEntity}},
	} {
		got := classify(tc.err)
		if (got.budget != nil) != strings.HasPrefix(tc.want.code, "budget:") {
			t.Errorf("classify(%v): budget = %v", tc.err, got.budget)
		}
		if got.budget = nil; got != tc.want {
			t.Errorf("classify(%v) = %+v, want %+v", tc.err, got, tc.want)
		}
	}
}

// modelVersionOf predicts program at size on tg's shard and returns the
// model version that answered.
func modelVersionOf(t *testing.T, s *server, tg shardTarget, program string, size int) int {
	t.Helper()
	w := doReqT(t, s, http.MethodGet, fmt.Sprintf("/predict?program=%s&size=%d&platform=%s", program, size, tg.platform), tg.tenant, nil)
	var p engine.Prediction
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil || w.Code != http.StatusOK {
		t.Fatalf("predict for %+v = %d (%v): %s", tg, w.Code, err, w.Body.String())
	}
	return p.ModelVersion
}

// executeAs runs program at size on tg's shard.
func executeAs(t *testing.T, s *server, tg shardTarget, program string, size int) {
	t.Helper()
	w := doReqT(t, s, http.MethodPost, fmt.Sprintf("/execute?program=%s&size=%d&platform=%s", program, size, tg.platform), tg.tenant, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("execute for %+v = %d: %s", tg, w.Code, w.Body.String())
	}
}

// TestFleetShardsShareOneModel: the two shards of one platform serve one
// model. A retrain through one tenant's shard promotes the version every
// tenant of the platform is served, and a rollback through the other
// shard is seen by both.
func TestFleetShardsShareOneModel(t *testing.T) {
	s := newFleet(t, seedDB(t), []string{"mc2"}, 2, fleet.AdmissionConfig{}, withObsLog(t))
	tgs := shardTargets(t, s)
	for _, tg := range tgs {
		if v := modelVersionOf(t, s, tg, "vecadd", 2); v != 1 {
			t.Fatalf("seed model on %+v is version %d", tg, v)
		}
	}
	// A size absent from the seed database, executed on shard 1 only.
	executeAs(t, s, tgs[1], "vecadd", 2)
	w := doReqT(t, s, http.MethodPost, "/retrain?platform=mc2", tgs[0].tenant, nil)
	var res engine.RetrainResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil || w.Code != http.StatusOK {
		t.Fatalf("retrain = %d (%v): %s", w.Code, err, w.Body.String())
	}
	if !res.Promoted || res.NewVersion != 2 || res.ObsRecords != 1 {
		t.Fatalf("retrain through shard 0 of an execution on shard 1: %+v", res)
	}
	for _, tg := range tgs {
		if v := modelVersionOf(t, s, tg, "vecadd", 2); v != 2 {
			t.Errorf("after the promotion %+v is served version %d", tg, v)
		}
	}

	w = doReqT(t, s, http.MethodPost, "/models?platform=mc2", tgs[1].tenant, []byte(`{"rollback":1}`))
	if w.Code != http.StatusOK {
		t.Fatalf("rollback = %d: %s", w.Code, w.Body.String())
	}
	for _, tg := range tgs {
		if v := modelVersionOf(t, s, tg, "vecadd", 2); v != 1 {
			t.Errorf("after the rollback %+v is served version %d", tg, v)
		}
		w := doReqT(t, s, http.MethodGet, "/models?platform=mc2", tg.tenant, nil)
		var models struct {
			Current  int                   `json:"current"`
			Versions []engine.ModelVersion `json:"versions"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &models); err != nil {
			t.Fatal(err)
		}
		if models.Current != 1 || len(models.Versions) != 2 {
			t.Errorf("/models for %+v: %+v", tg, models)
		}
	}
}

// TestAdaptiveRetrainsEveryPlatform: -adaptive over mc1,mc2 starts one
// retrainer per platform, and each promotes from executions on its own
// platform, whichever shard served them, on every shard.
func TestAdaptiveRetrainsEveryPlatform(t *testing.T) {
	s := newFleet(t, seedDB(t), []string{"mc1", "mc2"}, 2, fleet.AdmissionConfig{}, withObsLog(t))
	stop, err := startPlatforms(s.fleet, nil, true, 20*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	tgs := shardTargets(t, s)
	for _, tg := range tgs {
		executeAs(t, s, tg, "vecadd", 2)
	}
	deadline := time.Now().Add(20 * time.Second)
	for _, p := range s.fleet.Platforms() {
		for {
			w := doReq(t, s, http.MethodGet, "/retrain?platform="+p, nil)
			var st engine.RetrainStatus
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if !st.Background {
				t.Fatalf("no retrainer runs on %s: %+v", p, st)
			}
			if st.Promotions > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("the %s retrainer never promoted: %+v", p, st)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, tg := range tgs {
		if v := modelVersionOf(t, s, tg, "vecadd", 2); v < 2 {
			t.Errorf("%+v is served version %d after its platform's retrainer promoted", tg, v)
		}
	}
}

// TestFleetLoadsEachArtifactOnce: a 2-platform x 2-shard fleet serving
// from artifact files loads each platform's artifact once, not once per
// shard, and trains nothing.
func TestFleetLoadsEachArtifactOnce(t *testing.T) {
	dir := t.TempDir()
	platforms := []string{"mc1", "mc2"}
	for _, p := range platforms {
		eng, err := engine.New(engine.Options{Platform: p, DB: seedDB(t), Model: harness.FastModel(), ArtifactDir: dir, SaveTrained: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Predict(engine.Request{Program: "vecadd", SizeIdx: 0}); err != nil {
			t.Fatal(err)
		}
	}
	s := newFleet(t, seedDB(t), platforms, 2, fleet.AdmissionConfig{}, func(o *engine.Options) { o.ArtifactDir = dir })
	for _, tg := range shardTargets(t, s) {
		modelVersionOf(t, s, tg, "vecadd", 0)
	}
	var shards int
	var loads, trainings uint64
	for _, st := range s.fleet.Stats() {
		shards++
		loads += st.Engine.ArtifactLoads
		trainings += st.Engine.Trainings
	}
	if shards != 4 || loads != 2 || trainings != 0 {
		t.Fatalf("%d shards loaded %d artifacts and trained %d models, want 4, 2, 0", shards, loads, trainings)
	}
}
