package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/wire"
)

// newServer builds a dedicated server (separate from the shared
// testServer) so budget and quota tests can configure engine limits
// without leaking them into every other handler test.
func newServer(t testing.TB, mutate func(*engine.Options)) *server {
	t.Helper()
	db, err := harness.Generate(harness.GenOptions{Programs: []string{"vecadd"}, MaxSizeIdx: 0})
	if err != nil {
		t.Fatal(err)
	}
	opts := engine.Options{Platform: "mc2", DB: db, Model: harness.FastModel()}
	if mutate != nil {
		mutate(&opts)
	}
	eng, err := engine.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := fleetOver(eng, "mc2")
	if err != nil {
		t.Fatal(err)
	}
	return &server{fleet: rt, start: time.Now(), intern: wire.NewIntern()}
}

// doReqT is doReq with an X-Tenant header.
func doReqT(t *testing.T, s *server, method, target, tenant string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	if tenant != "" {
		r.Header.Set("X-Tenant", tenant)
	}
	w := httptest.NewRecorder()
	s.mux().ServeHTTP(w, r)
	return w
}

func uploadKernel(t *testing.T, s *server, tenant string, spec engine.KernelSpec) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return doReqT(t, s, http.MethodPost, "/kernels", tenant, body)
}

const scaleSrc = `kernel void scale(global float* a, global float* out, int n) {
	int i = get_global_id(0);
	out[i] = a[i] * 2.0;
}`

// spinServeSrc loops forever; only a resource budget stops it.
const spinServeSrc = `kernel void spin(global float* out) {
	int i = 0;
	while (i < 2) {
		i = i - 1;
	}
	out[get_global_id(0)] = 1.0;
}`

// TestKernelUploadAndExecute: the upload happy path. POST /kernels
// compiles and registers the kernel; it serves /predict and /execute
// immediately under its tenant-qualified name.
func TestKernelUploadAndExecute(t *testing.T) {
	s := newServer(t, nil)
	w := uploadKernel(t, s, "", engine.KernelSpec{Name: "scale", Source: scaleSrc})
	if w.Code != http.StatusCreated {
		t.Fatalf("upload = %d: %s", w.Code, w.Body.String())
	}
	var info engine.KernelInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "public/scale" || info.Tenant != "public" || info.Kernel != "scale" {
		t.Fatalf("kernel info: %+v", info)
	}
	if len(info.SizeNs) == 0 || info.SizeNs[0] != 1024 {
		t.Fatalf("size family: %+v", info.SizeNs)
	}

	// Listed.
	w = doReq(t, s, http.MethodGet, "/kernels", nil)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"public/scale"`) {
		t.Fatalf("list = %d: %s", w.Code, w.Body.String())
	}

	// Served: predict then execute, like any built-in.
	if w := doReq(t, s, http.MethodGet, "/predict?program=public/scale&size=0", nil); w.Code != http.StatusOK {
		t.Fatalf("predict uploaded kernel = %d: %s", w.Code, w.Body.String())
	}
	w = doReq(t, s, http.MethodPost, "/execute?program=public/scale&size=0", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("execute uploaded kernel = %d: %s", w.Code, w.Body.String())
	}
	var ex engine.Execution
	if err := json.Unmarshal(w.Body.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Program != "public/scale" {
		t.Fatalf("execution: %+v", ex)
	}

	// Same name again: 409.
	if w := uploadKernel(t, s, "", engine.KernelSpec{Name: "scale", Source: scaleSrc}); w.Code != http.StatusConflict {
		t.Fatalf("duplicate upload = %d, want 409", w.Code)
	}

	// Another tenant's namespace is disjoint: same local name is fine.
	w = uploadKernel(t, s, "alice", engine.KernelSpec{Name: "scale", Source: scaleSrc})
	if w.Code != http.StatusCreated {
		t.Fatalf("tenant upload = %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "alice/scale" || info.Tenant != "alice" {
		t.Fatalf("tenant kernel info: %+v", info)
	}
}

// TestKernelTierAndVecReason: the upload response and GET /kernels say
// which tier a tenant's kernel runs on and, when that is the scalar VM,
// why the vector tier refused it.
func TestKernelTierAndVecReason(t *testing.T) {
	s := newServer(t, nil)
	// A varying branch inside a uniform-trip loop re-converges every
	// iteration: vector tier, no reason.
	w := uploadKernel(t, s, "", engine.KernelSpec{Name: "count", Source: `kernel void count(global float* a, global float* out, int n) {
	int i = get_global_id(0);
	float hits = 0.0;
	for (int j = 0; j < 8; j++) {
		if (a[(i + j) % n] > 0.5) {
			hits = hits + 1.0;
		}
	}
	out[i] = hits;
}`})
	if w.Code != http.StatusCreated {
		t.Fatalf("upload count = %d: %s", w.Code, w.Body.String())
	}
	var info engine.KernelInfo
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tier != "vec" || info.VecReason != "" {
		t.Fatalf("in-loop branch kernel: tier %q reason %q, want vec and no reason", info.Tier, info.VecReason)
	}
	// A lane-varying trip count runs its loop under a mask: vector tier.
	w = uploadKernel(t, s, "", engine.KernelSpec{Name: "tri", Source: `kernel void tri(global float* a, global float* out, int n) {
	int i = get_global_id(0);
	int m = i % 7;
	float acc = 0.0;
	for (int j = 0; j < m; j++) {
		acc = acc + a[j];
	}
	out[i] = acc;
}`})
	if w.Code != http.StatusCreated {
		t.Fatalf("upload tri = %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tier != "vec" || info.VecReason != "" {
		t.Fatalf("varying-trip kernel: tier %q reason %q, want vec and no reason", info.Tier, info.VecReason)
	}
	// A barrier in a varying in-loop region: the sides of a split would
	// deadlock each other, so the kernel stays on the scalar VM and says
	// why.
	w = uploadKernel(t, s, "", engine.KernelSpec{Name: "bar", Source: `kernel void bar(global float* a, global float* out, local float* tmp, int n) {
	int i = get_global_id(0);
	int l = get_local_id(0);
	for (int j = 0; j < n; j++) {
		if (a[i + j] > 0.5) {
			tmp[l] = a[i];
			barrier(1);
		}
	}
	out[i] = tmp[l];
}`})
	if w.Code != http.StatusCreated {
		t.Fatalf("upload bar = %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	if info.Tier != "vm" || !strings.Contains(info.VecReason, "inside loop body") {
		t.Fatalf("in-loop barrier kernel: tier %q reason %q, want vm and an in-loop reason", info.Tier, info.VecReason)
	}

	w = doReq(t, s, http.MethodGet, "/kernels", nil)
	var listed struct {
		Kernels []engine.KernelInfo `json:"kernels"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &listed); err != nil {
		t.Fatalf("list = %d: %v: %s", w.Code, err, w.Body.String())
	}
	reasons := map[string]string{}
	for _, k := range listed.Kernels {
		reasons[k.Name] = k.Tier + ":" + k.VecReason
	}
	if reasons["public/count"] != "vec:" || reasons["public/tri"] != "vec:" ||
		!strings.Contains(reasons["public/bar"], "vm:") || !strings.Contains(reasons["public/bar"], "inside loop body") {
		t.Fatalf("GET /kernels: %v", reasons)
	}
}

// TestKernelVecBailBranches: a vectorized upload reports how many of
// its varying branches have no join — the ones where lane disagreement
// sends the group to scalar completion.
func TestKernelVecBailBranches(t *testing.T) {
	s := newServer(t, nil)
	upload := func(name, src string) engine.KernelInfo {
		t.Helper()
		w := uploadKernel(t, s, "", engine.KernelSpec{Name: name, Source: src})
		if w.Code != http.StatusCreated {
			t.Fatalf("upload %s = %d: %s", name, w.Code, w.Body.String())
		}
		if !strings.Contains(w.Body.String(), `"vecBailBranches"`) {
			t.Fatalf("upload %s: no vecBailBranches in %s", name, w.Body.String())
		}
		var info engine.KernelInfo
		if err := json.Unmarshal(w.Body.Bytes(), &info); err != nil {
			t.Fatal(err)
		}
		return info
	}
	// A stencil's boundary guard computes `n - 1` inside the guard: dead
	// at the join, so every term re-forms.
	info := upload("blur", `kernel void blur(global float* a, global float* out, int n) {
	int i = get_global_id(0);
	if (i > 0 && i < n - 1) {
		out[i] = (a[i - 1] + a[i] + a[i + 1]) / 3.0;
	} else if (i < n) {
		out[i] = a[i];
	}
}`)
	if info.Tier != "vec" || info.VecBailBranches != 0 {
		t.Fatalf("stencil: tier %q, %d bail branches; want vec and 0", info.Tier, info.VecBailBranches)
	}
	// A barrier under a varying guard: the sides of a split would
	// deadlock each other, so that branch can only bail.
	info = upload("guarded", `kernel void guarded(global float* a, global float* out, local float* tmp, int n) {
	int i = get_global_id(0);
	int l = get_local_id(0);
	tmp[l] = a[i];
	if (a[i] > 0.5) {
		barrier(1);
		tmp[l] = tmp[l] * 2.0;
	}
	out[i] = tmp[l];
}`)
	if info.Tier != "vec" || info.VecBailBranches != 1 {
		t.Fatalf("barrier under varying guard: tier %q, %d bail branches; want vec and 1", info.Tier, info.VecBailBranches)
	}

	w := doReq(t, s, http.MethodGet, "/kernels", nil)
	var listed struct {
		Kernels []engine.KernelInfo `json:"kernels"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &listed); err != nil {
		t.Fatalf("list = %d: %v: %s", w.Code, err, w.Body.String())
	}
	got := map[string]int{}
	for _, k := range listed.Kernels {
		got[k.Name] = k.VecBailBranches
	}
	if len(got) != 2 || got["public/blur"] != 0 || got["public/guarded"] != 1 {
		t.Fatalf("GET /kernels: %v", got)
	}
}

// TestKernelUploadRejectsBadSource: front-end failures answer 400 with
// the MiniCL line:column position so uploaders can fix their source.
func TestKernelUploadRejectsBadSource(t *testing.T) {
	s := newServer(t, nil)
	w := uploadKernel(t, s, "", engine.KernelSpec{
		Name:   "broken",
		Source: "kernel void broken(global float* out) {\n\tout[0] = ;\n}",
	})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad source = %d, want 400: %s", w.Code, w.Body.String())
	}
	body := w.Body.String()
	if !strings.Contains(body, `"compile"`) {
		t.Fatalf("missing compile code: %s", body)
	}
	if !regexp.MustCompile(`\d+:\d+`).MatchString(body) {
		t.Fatalf("missing line:column position: %s", body)
	}

	// Missing fields are 400 too.
	if w := uploadKernel(t, s, "", engine.KernelSpec{Name: "x"}); w.Code != http.StatusBadRequest {
		t.Fatalf("missing source = %d, want 400", w.Code)
	}
	if w := uploadKernel(t, s, "", engine.KernelSpec{Name: "no/slash", Source: scaleSrc}); w.Code != http.StatusBadRequest {
		t.Fatalf("invalid name = %d, want 400", w.Code)
	}
}

// TestKernelUploadRejectsUnlowerable: a kernel that parses but does not
// lower to the VM (a straight-line body over the 4095-op profile lane
// limit) answers 400 like any compile failure and registers nothing;
// there is no slower tier to serve it on.
func TestKernelUploadRejectsUnlowerable(t *testing.T) {
	s := newServer(t, nil)
	src := "kernel void huge(global float* a, global float* out, int n) {\n" +
		"\tint i = get_global_id(0);\n\tfloat x = a[i];\n" +
		strings.Repeat("\tx = x * 1.5f + 0.25f;\n", 2100) +
		"\tout[i] = x;\n}"
	w := uploadKernel(t, s, "", engine.KernelSpec{Name: "huge", Source: src})
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unlowerable kernel = %d, want 400: %s", w.Code, w.Body.String())
	}
	if body := w.Body.String(); !strings.Contains(body, `"compile"`) || !strings.Contains(body, "too large to profile") {
		t.Fatalf("want a compile error naming the lane limit: %s", body)
	}
	if w := doReq(t, s, http.MethodGet, "/kernels", nil); w.Code != http.StatusOK || strings.Contains(w.Body.String(), "huge") {
		t.Fatalf("rejected kernel is listed: %d %s", w.Code, w.Body.String())
	}
}

// TestKernelQuota429: a tenant at its kernel cap gets 429 with a
// Retry-After hint; other tenants are unaffected.
func TestKernelQuota429(t *testing.T) {
	s := newServer(t, func(o *engine.Options) {
		o.Tenant = engine.TenantLimits{MaxKernels: 1}
	})
	if w := uploadKernel(t, s, "bob", engine.KernelSpec{Name: "one", Source: scaleSrc}); w.Code != http.StatusCreated {
		t.Fatalf("first upload = %d: %s", w.Code, w.Body.String())
	}
	w := uploadKernel(t, s, "bob", engine.KernelSpec{Name: "two", Source: scaleSrc})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota upload = %d, want 429: %s", w.Code, w.Body.String())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	if !strings.Contains(w.Body.String(), `"quota"`) {
		t.Fatalf("missing quota code: %s", w.Body.String())
	}
	// A different tenant still has headroom.
	if w := uploadKernel(t, s, "carol", engine.KernelSpec{Name: "one", Source: scaleSrc}); w.Code != http.StatusCreated {
		t.Fatalf("other tenant upload = %d", w.Code)
	}
}

// TestBudgetStatusCodes: the three budget kinds are distinguishable by
// status code alone — steps 422, deadline 408, memory 413 — each with
// the structured budget payload.
func TestBudgetStatusCodes(t *testing.T) {
	t.Run("steps", func(t *testing.T) {
		s := newServer(t, func(o *engine.Options) { o.MaxSteps = 100_000 })
		if w := uploadKernel(t, s, "", engine.KernelSpec{Name: "spin", Source: spinServeSrc}); w.Code != http.StatusCreated {
			t.Fatalf("upload = %d: %s", w.Code, w.Body.String())
		}
		w := doReq(t, s, http.MethodPost, "/execute?program=public/spin&size=0", nil)
		if w.Code != http.StatusUnprocessableEntity {
			t.Fatalf("spin execute = %d, want 422: %s", w.Code, w.Body.String())
		}
		assertBudgetBody(t, w.Body.Bytes(), "budget:steps")
		assertPredictBudget(t, s, "public/spin", http.StatusUnprocessableEntity, "budget:steps")
	})
	t.Run("deadline", func(t *testing.T) {
		s := newServer(t, func(o *engine.Options) { o.ExecTimeout = 100 * time.Millisecond })
		if w := uploadKernel(t, s, "", engine.KernelSpec{Name: "spin", Source: spinServeSrc}); w.Code != http.StatusCreated {
			t.Fatalf("upload = %d: %s", w.Code, w.Body.String())
		}
		w := doReq(t, s, http.MethodPost, "/execute?program=public/spin&size=0", nil)
		if w.Code != http.StatusRequestTimeout {
			t.Fatalf("spin execute = %d, want 408: %s", w.Code, w.Body.String())
		}
		assertBudgetBody(t, w.Body.Bytes(), "budget:deadline")
		assertPredictBudget(t, s, "public/spin", http.StatusRequestTimeout, "budget:deadline")
	})
	t.Run("memory", func(t *testing.T) {
		s := newServer(t, func(o *engine.Options) { o.MaxMemBytes = 64 })
		w := doReq(t, s, http.MethodPost, "/execute?program=vecadd&size=0", nil)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("execute = %d, want 413: %s", w.Code, w.Body.String())
		}
		assertBudgetBody(t, w.Body.Bytes(), "budget:memory")
		assertPredictBudget(t, s, "vecadd", http.StatusRequestEntityTooLarge, "budget:memory")
	})
}

// assertPredictBudget: /predict profiles the kernel under the same
// budget, and answers its exhaustion as /execute does — the typed
// status and code, in JSON and over wire.
func assertPredictBudget(t *testing.T, s *server, program string, status int, code string) {
	t.Helper()
	w := doReq(t, s, http.MethodGet, "/predict?program="+program+"&size=0", nil)
	if w.Code != status {
		t.Fatalf("json predict = %d, want %d: %s", w.Code, status, w.Body.String())
	}
	assertBudgetBody(t, w.Body.Bytes(), code)
	ww := doWire(t, s, "/predict", wire.AppendPredictRequest(nil, &engine.Request{Program: program, SizeIdx: 0}))
	msg, payload, err := wire.ParseFrame(ww.Body.Bytes())
	if err != nil || msg != wire.MsgError || ww.Code != status {
		t.Fatalf("wire predict = %d, msg %d, err %v; want %d and MsgError", ww.Code, msg, err, status)
	}
	if ef, err := wire.DecodeError(payload); err != nil || ef.Code != code || ef.Status != status {
		t.Fatalf("wire error frame = %+v (%v), want status %d code %q", ef, err, status, code)
	}
}

func assertBudgetBody(t *testing.T, body []byte, code string) {
	t.Helper()
	var resp struct {
		Code  string `json:"code"`
		Spent int64  `json:"spent"`
		Limit int64  `json:"limit"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Code != code {
		t.Fatalf("code = %q, want %q", resp.Code, code)
	}
	if resp.Limit <= 0 {
		t.Fatalf("budget payload missing limit: %s", body)
	}
}

// TestStatsSplitsExecutionsByVerifier: /stats shows, beside each shard's
// executions, which check answered them — the cell's first execution goes
// to the Go reference, a repeat matches the outputs it stored.
func TestStatsSplitsExecutionsByVerifier(t *testing.T) {
	s := newServer(t, nil)
	for i := 0; i < 3; i++ {
		w := doReq(t, s, http.MethodPost, "/execute?program=vecadd&size=0", nil)
		var ex engine.Execution
		if err := json.Unmarshal(w.Body.Bytes(), &ex); err != nil || w.Code != http.StatusOK || !ex.Verified {
			t.Fatalf("execute %d = %d (%v): %s", i, w.Code, err, w.Body.String())
		}
	}
	var stats struct {
		Shards []struct {
			Engine map[string]any `json:"engine"`
		} `json:"shards"`
	}
	w := doReq(t, s, http.MethodGet, "/stats", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil || len(stats.Shards) != 1 {
		t.Fatalf("/stats (%v): %s", err, w.Body.String())
	}
	for field, want := range map[string]float64{"executions": 3, "verifiedByMatch": 2, "verifiedByReference": 1} {
		if got := stats.Shards[0].Engine[field]; got != want {
			t.Errorf("/stats engine.%s = %v, want %v", field, got, want)
		}
	}
}
