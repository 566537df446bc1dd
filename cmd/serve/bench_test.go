package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/wire"
)

// The handler benchmarks drive warm requests through srv.mux() the way
// the predict-serve and execute workloads do, and scripts/alloc_smoke.sh
// holds their allocs/op to ceilings: the request pipeline is where the
// JSON and wire encodings meet, so an allocation added to either shows
// up here before it shows up as GC time under load.

// benchWriter is a reusable http.ResponseWriter: its header map and body
// buffer are reset, not reallocated, between requests, so allocs/op
// counts the handler and not the recorder.
type benchWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) WriteHeader(code int)        { w.code = code }
func (w *benchWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

// benchBody is a request body that can be rewound instead of rebuilt.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// benchServe serves the same request b.N times after one untimed warm-up
// request, failing on any status but 200.
func benchServe(b *testing.B, method, target, contentType string, body []byte) {
	s := newServer(b, nil)
	h := s.mux()
	r := httptest.NewRequest(method, target, nil)
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	var rb benchBody
	w := &benchWriter{h: http.Header{}}
	serve := func() {
		for k := range w.h {
			delete(w.h, k)
		}
		w.code = http.StatusOK
		w.body.Reset()
		rb.Reset(body)
		r.Body = &rb
		h.ServeHTTP(w, r)
		if w.code != http.StatusOK {
			b.Fatalf("%s %s = %d: %s", method, target, w.code, w.body.String())
		}
	}
	serve()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

func BenchmarkServeWirePredict(b *testing.B) {
	benchServe(b, http.MethodPost, "/predict", wire.ContentType,
		wire.AppendPredictRequest(nil, &engine.Request{Program: "vecadd", SizeIdx: 0}))
}

func BenchmarkServeWireBatch64(b *testing.B) {
	reqs := make([]engine.Request, 64)
	for i := range reqs {
		reqs[i] = engine.Request{Program: "vecadd", SizeIdx: i % 2}
	}
	benchServe(b, http.MethodPost, "/predict/batch", wire.ContentType, wire.AppendBatchRequest(nil, reqs))
}

func BenchmarkServeJSONPredict(b *testing.B) {
	benchServe(b, http.MethodGet, "/predict?program=vecadd&size=0", "", nil)
}

func BenchmarkServeJSONExecute(b *testing.B) {
	benchServe(b, http.MethodPost, "/execute?program=vecadd&size=0", "", nil)
}
