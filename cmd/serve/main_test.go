package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/wire"
)

var (
	srvOnce sync.Once
	srvVal  *server
	srvDB   *harness.DB
	srvErr  error
)

// fleetOver wraps an already-built engine in a single-shard router, the
// shape handler tests want: the engine is fixed, the routing layer is
// real.
func fleetOver(eng *engine.Engine, platform string) (*fleet.Router, error) {
	return fleet.New(fleet.Options{
		Platforms: []string{platform},
		NewEngine: func(string, int) (*engine.Engine, error) { return eng, nil },
	})
}

// testServer builds one adaptive server over a tiny database for every
// handler test.
func testServer(t *testing.T) *server {
	t.Helper()
	srvOnce.Do(func() {
		db, err := harness.Generate(harness.GenOptions{
			Programs: []string{"vecadd", "matmul"}, MaxSizeIdx: 1,
		})
		if err != nil {
			srvErr = err
			return
		}
		srvDB = db
		// Not t.TempDir(): the server outlives the first test that builds
		// it, so its log directory must not be tied to that test's
		// cleanup.
		dir, err := os.MkdirTemp("", "serve-obs-*")
		if err != nil {
			srvErr = err
			return
		}
		log, err := obs.Open(obs.Options{Dir: dir})
		if err != nil {
			srvErr = err
			return
		}
		eng, err := engine.New(engine.Options{
			Platform: "mc2", DB: db, Model: harness.FastModel(), ObsLog: log,
		})
		if err != nil {
			srvErr = err
			return
		}
		rt, err := fleetOver(eng, "mc2")
		if err != nil {
			srvErr = err
			return
		}
		srvVal = &server{fleet: rt, obsLog: log, start: time.Now(), intern: wire.NewIntern()}
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srvVal
}

func doReq(t *testing.T, s *server, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	s.mux().ServeHTTP(w, r)
	return w
}

// TestHandlersRejectWrongMethodsWith405 sweeps every endpoint with a
// method outside its set: all must answer 405 AND name the allowed
// methods in the Allow header.
func TestHandlersRejectWrongMethodsWith405(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		method, target string
		wantAllow      string
	}{
		{http.MethodPost, "/healthz", "GET, HEAD"},
		{http.MethodDelete, "/predict", "GET, POST"},
		{http.MethodGet, "/predict/batch", "POST"},
		{http.MethodGet, "/execute", "POST"},
		{http.MethodDelete, "/kernels", "GET, POST"},
		{http.MethodPost, "/stats", "GET"},
		{http.MethodPut, "/models", "GET, POST"},
		{http.MethodDelete, "/retrain", "GET, POST"},
		{http.MethodPost, "/observations", "GET"},
	}
	for _, c := range cases {
		w := doReq(t, s, c.method, c.target, nil)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", c.method, c.target, w.Code)
		}
		if got := w.Header().Get("Allow"); got != c.wantAllow {
			t.Errorf("%s %s Allow = %q, want %q", c.method, c.target, got, c.wantAllow)
		}
	}
}

// TestExecuteBodyIsBounded: a body over maxBodyBytes is rejected as too
// large (413) on every POST endpoint that reads one, in both encodings
// — never buffered whole into the JSON decoder or the wire frame
// buffer, and never mistaken for a malformed request (400).
func TestExecuteBodyIsBounded(t *testing.T) {
	s := testServer(t)
	hugeJSON := []byte(`{"program":"vecadd","junk":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}`)
	hugeFrame := append(wire.AppendPredictRequest(nil, &engine.Request{Program: "vecadd"}), make([]byte, maxBodyBytes)...)
	for _, c := range []struct {
		target string
		wire   bool
	}{
		{"/predict", false},
		{"/predict/batch", false},
		{"/execute", false},
		{"/kernels", false},
		{"/models", false},
		{"/predict", true},
		{"/predict/batch", true},
		{"/execute", true},
	} {
		var w *httptest.ResponseRecorder
		if c.wire {
			w = doWire(t, s, c.target, hugeFrame)
		} else {
			w = doReq(t, s, http.MethodPost, c.target, hugeJSON)
		}
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s (wire=%v) oversized body = %d, want 413", c.target, c.wire, w.Code)
		}
	}
	// A sane body still works end to end.
	w := doReq(t, s, http.MethodPost, "/execute", []byte(`{"program":"vecadd","size":0}`))
	if w.Code != http.StatusOK {
		t.Fatalf("execute = %d: %s", w.Code, w.Body.String())
	}
	var ex engine.Execution
	if err := json.Unmarshal(w.Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if !ex.Verified || ex.ModelVersion != 1 {
		t.Fatalf("execution: %+v", ex)
	}
}

func TestAdaptiveEndpointsRoundTrip(t *testing.T) {
	s := testServer(t)
	// Feed one execution so the log has something to report.
	if w := doReq(t, s, http.MethodPost, "/execute?program=vecadd&size=0", nil); w.Code != http.StatusOK {
		t.Fatalf("execute = %d", w.Code)
	}

	w := doReq(t, s, http.MethodGet, "/observations", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("observations = %d", w.Code)
	}
	var obsResp struct {
		Enabled bool      `json:"enabled"`
		Log     obs.Stats `json:"log"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &obsResp); err != nil {
		t.Fatal(err)
	}
	if !obsResp.Enabled || obsResp.Log.Executions < 1 || obsResp.Log.Labeled < 1 {
		t.Fatalf("observations: %+v", obsResp)
	}

	// Retrain status then trigger.
	if w := doReq(t, s, http.MethodGet, "/retrain", nil); w.Code != http.StatusOK {
		t.Fatalf("retrain status = %d", w.Code)
	}
	w = doReq(t, s, http.MethodPost, "/retrain", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("retrain = %d: %s", w.Code, w.Body.String())
	}
	var res engine.RetrainResult
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Promoted || res.NewVersion < 2 {
		t.Fatalf("retrain result: %+v", res)
	}

	// The registry lists the promoted version with lineage.
	w = doReq(t, s, http.MethodGet, "/models", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("models = %d", w.Code)
	}
	var models struct {
		Current  int                   `json:"current"`
		Versions []engine.ModelVersion `json:"versions"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &models); err != nil {
		t.Fatal(err)
	}
	if models.Current != res.NewVersion || len(models.Versions) < 2 {
		t.Fatalf("models: %+v", models)
	}
	if v := models.Versions[len(models.Versions)-1]; v.Source != engine.ModelRetrained || v.Parent == 0 {
		t.Fatalf("promoted version lineage: %+v", v)
	}

	// Rollback via POST /models, then a bogus rollback.
	w = doReq(t, s, http.MethodPost, "/models", []byte(`{"rollback":1}`))
	if w.Code != http.StatusOK {
		t.Fatalf("rollback = %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &models); err != nil {
		t.Fatal(err)
	}
	if models.Current != 1 {
		t.Fatalf("post-rollback current = %d", models.Current)
	}
	if w := doReq(t, s, http.MethodPost, "/models", []byte(`{"rollback":99}`)); w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("bogus rollback = %d", w.Code)
	}
	if w := doReq(t, s, http.MethodPost, "/models", []byte(`{}`)); w.Code != http.StatusBadRequest {
		t.Fatalf("empty rollback = %d", w.Code)
	}
}

// batchResponse mirrors the /predict/batch reply for assertions.
type batchResponse struct {
	Count   int           `json:"count"`
	Errors  int           `json:"errors"`
	Results []batchResult `json:"results"`
}

func TestPredictBatch(t *testing.T) {
	s := testServer(t)
	body := []byte(`{"requests":[
		{"program":"vecadd","size":0},
		{"program":"vecadd","size":1},
		{"program":"matmul"},
		{"program":"nope"},
		{"size":1}
	]}`)
	w := doReq(t, s, http.MethodPost, "/predict/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", w.Code, w.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 5 || resp.Errors != 2 || len(resp.Results) != 5 {
		t.Fatalf("batch response: count=%d errors=%d len=%d", resp.Count, resp.Errors, len(resp.Results))
	}
	// Valid points priced; each matches the single-point endpoint.
	for i, target := range []string{"/predict?program=vecadd&size=0", "/predict?program=vecadd&size=1", "/predict?program=matmul"} {
		if resp.Results[i].Error != "" {
			t.Fatalf("point %d errored: %s", i, resp.Results[i].Error)
		}
		single := doReq(t, s, http.MethodGet, target, nil)
		var p engine.Prediction
		if err := json.Unmarshal(single.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		if resp.Results[i].Prediction != p {
			t.Fatalf("point %d: batch %+v != single %+v", i, resp.Results[i].Prediction, p)
		}
	}
	// Bad points carry their own errors without failing the siblings.
	if resp.Results[3].Error == "" || resp.Results[4].Error == "" {
		t.Fatalf("bad points did not error: %+v", resp.Results[3:])
	}

	// An omitted size resolves to the program's default, like /predict.
	if resp.Results[2].SizeIdx < 0 {
		t.Fatalf("omitted size not defaulted: %+v", resp.Results[2])
	}

	// Empty and oversized batches are rejected.
	if w := doReq(t, s, http.MethodPost, "/predict/batch", []byte(`{"requests":[]}`)); w.Code != http.StatusBadRequest {
		t.Errorf("empty batch = %d, want 400", w.Code)
	}
	big := bytes.Repeat([]byte(`{"program":"vecadd"},`), maxBatch+1)
	huge := []byte(`{"requests":[` + strings.TrimSuffix(string(big), ",") + `]}`)
	if w := doReq(t, s, http.MethodPost, "/predict/batch", huge); w.Code != http.StatusBadRequest {
		t.Errorf("oversized batch = %d, want 400", w.Code)
	}
}

// TestDecodeRejectsTrailingGarbage: anything after the first JSON value
// in a POST body is a malformed request, not ignorable noise.
func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	s := testServer(t)
	for _, c := range []struct{ target, body string }{
		{"/execute", `{"program":"vecadd","size":0}{"program":"matmul"}`},
		{"/execute", `{"program":"vecadd","size":0} trailing`},
		{"/predict", `{"program":"vecadd"}[1,2,3]`},
		{"/predict/batch", `{"requests":[{"program":"vecadd"}]}goodbye`},
		{"/models", `{"rollback":1}{"rollback":2}`},
	} {
		w := doReq(t, s, http.MethodPost, c.target, []byte(c.body))
		if w.Code != http.StatusBadRequest {
			t.Errorf("POST %s with trailing garbage = %d, want 400: %s", c.target, w.Code, w.Body.String())
		}
	}
	// A clean body still parses.
	if w := doReq(t, s, http.MethodPost, "/predict", []byte(`{"program":"vecadd","size":0}`)); w.Code != http.StatusOK {
		t.Errorf("clean body = %d: %s", w.Code, w.Body.String())
	}
}

// TestUnknownFieldsRejected: a JSON field the service does not read — a
// typo, or a field it no longer reads — is a 400 rather than silently
// ignored, and a batch point with one is that point's error.
func TestUnknownFieldsRejected(t *testing.T) {
	s := testServer(t)
	if w := doReq(t, s, http.MethodPost, "/predict", []byte(`{"program":"vecadd","siez":1}`)); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), `unknown field \"siez\"`) {
		t.Fatalf("unknown field = %d: %s", w.Code, w.Body.String())
	}
	if w := doReq(t, s, http.MethodPost, "/predict/batch",
		[]byte(`{"requests":[{"program":"vecadd","siez":1},{"program":"vecadd","size":1}]}`)); w.Code != http.StatusOK {
		t.Fatalf("batch = %d", w.Code)
	} else {
		var resp batchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Errors != 1 || resp.Results[0].Error == "" || resp.Results[1].Error != "" {
			t.Fatalf("batch did not flag exactly the point with the unknown field: %+v", resp)
		}
	}
	if w := doReq(t, s, http.MethodPost, "/predict", []byte(`{"program":"vecadd","size":1}`)); w.Code != http.StatusOK {
		t.Fatalf("a valid body = %d: %s", w.Code, w.Body.String())
	}
}

// TestLeaveOutRefused: the service serves one model per platform. Each way
// a client could ask for the model that leaves the program out — the
// leaveout query parameter, the wire request's flag bit 0, a leaveOut JSON
// field — is a 400, never an answer from the full model; the first two
// name the figure that reports unseen programs.
func TestLeaveOutRefused(t *testing.T) {
	s := testServer(t)
	w := doReq(t, s, http.MethodGet, "/predict?program=vecadd&leaveout=1", nil)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "cmd/bench fig1") {
		t.Errorf("GET /predict?leaveout=1 = %d: %s", w.Code, w.Body.String())
	}

	frame := wire.AppendPredictRequest(nil, &engine.Request{Program: "vecadd", SizeIdx: 1})
	frame[5] |= 1 // the request's flags byte, after the frame header
	r := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(frame))
	r.Header.Set("Content-Type", wire.ContentType)
	ww := httptest.NewRecorder()
	s.mux().ServeHTTP(ww, r)
	if ww.Code != http.StatusBadRequest {
		t.Fatalf("wire predict with flag bit 0 = %d", ww.Code)
	}
	_, payload, err := wire.ParseFrame(ww.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if e, err := wire.DecodeError(payload); err != nil || !strings.Contains(e.Message, "cmd/bench fig1") {
		t.Errorf("wire error frame %+v (%v) does not name cmd/bench fig1", e, err)
	}

	w = doReq(t, s, http.MethodPost, "/predict", []byte(`{"program":"vecadd","leaveOut":true}`))
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), `unknown field \"leaveOut\"`) {
		t.Errorf(`POST /predict {"leaveOut":true} = %d: %s`, w.Code, w.Body.String())
	}
}

func TestPredictValidation(t *testing.T) {
	s := testServer(t)
	if w := doReq(t, s, http.MethodGet, "/predict", nil); w.Code != http.StatusBadRequest {
		t.Errorf("missing program = %d, want 400", w.Code)
	}
	if w := doReq(t, s, http.MethodGet, "/predict?program=vecadd&size=zap", nil); w.Code != http.StatusBadRequest {
		t.Errorf("bad size = %d, want 400", w.Code)
	}
	if w := doReq(t, s, http.MethodGet, "/predict?program=nope", nil); w.Code != http.StatusUnprocessableEntity {
		t.Errorf("unknown program = %d, want 422", w.Code)
	}
	w := doReq(t, s, http.MethodGet, "/predict?program=vecadd&size=1", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("predict = %d", w.Code)
	}
	var p engine.Prediction
	if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Partition == "" || p.ModelVersion < 1 {
		t.Fatalf("prediction: %+v", p)
	}
}

// TestObservationCountsAndModelHealth: after 3 executions of one cell and
// 2 of another, /observations reports 2 label records, 2 counter keys and
// 5 executions, and /stats reports the model's served oracle efficiency
// as computed by hand from the two labels and the classes served:
// (3·oracle₁ + 2·oracle₂) / (3·time₁(class₁) + 2·time₂(class₂)).
func TestObservationCountsAndModelHealth(t *testing.T) {
	testServer(t) // builds srvDB
	log, err := obs.Open(obs.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	eng, err := engine.New(engine.Options{Platform: "mc2", DB: srvDB, Model: harness.FastModel(), ObsLog: log})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	rt, err := fleetOver(eng, "mc2")
	if err != nil {
		t.Fatal(err)
	}
	s := &server{fleet: rt, obsLog: log, start: time.Now(), intern: wire.NewIntern()}

	served := map[string]int{}
	runs := map[string]int{"vecadd": 3, "matmul": 2}
	for prog, n := range runs {
		for range n {
			w := doReq(t, s, http.MethodPost, "/execute?program="+prog+"&size=0", nil)
			if w.Code != http.StatusOK {
				t.Fatalf("execute %s = %d: %s", prog, w.Code, w.Body.String())
			}
			var ex engine.Execution
			if err := json.Unmarshal(w.Body.Bytes(), &ex); err != nil {
				t.Fatal(err)
			}
			served[prog] = ex.Class
		}
	}

	w := doReq(t, s, http.MethodGet, "/observations", nil)
	var obsResp struct {
		Log obs.Stats `json:"log"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &obsResp); err != nil {
		t.Fatal(err)
	}
	if st := obsResp.Log; st.Labeled != 2 || st.CounterKeys != 2 || st.Executions != 5 {
		t.Fatalf("/observations log %+v, want 2 labels, 2 counter keys, 5 executions", st)
	}

	labels, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var num, den float64
	for _, o := range labels {
		n := float64(runs[o.Program])
		num += n * o.OracleTime
		den += n * o.Times[served[o.Program]]
	}
	w = doReq(t, s, http.MethodGet, "/stats", nil)
	var stats struct {
		ModelHealth []obs.Health `json:"modelHealth"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	want := obs.Health{Platform: "mc2", ModelVersion: 1, Executions: 5, OracleEfficiency: num / den}
	if len(stats.ModelHealth) != 1 || stats.ModelHealth[0] != want {
		t.Fatalf("/stats modelHealth %+v, want [%+v]", stats.ModelHealth, want)
	}
	if want.OracleEfficiency <= 0 || want.OracleEfficiency > 1 {
		t.Fatalf("served oracle efficiency %v outside (0, 1]", want.OracleEfficiency)
	}
}
