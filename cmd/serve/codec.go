package main

// The request pipeline's two encodings. A request whose Content-Type is
// application/x-repro-wire speaks the internal/wire binary protocol in
// both directions; every other request speaks JSON. The handlers never
// learn which: they decode through the codec, and hand it what to answer
// and every failure, which it renders from the one classification.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/wire"
)

// codec is one request's encoding. Requests come back by value: a
// pointer passed through the interface would escape to the heap.
type codec interface {
	request(execute bool) (engine.Request, error) // a single /predict or /execute request
	// batch decodes /predict/batch and returns its point count; next
	// decodes point i (its error fails only that point), add records the
	// point's prediction or failure message, finish answers the batch.
	batch() (int, error)
	next(i int) (engine.Request, error)
	add(p *engine.Prediction, msg string)
	finish()
	prediction(p *engine.Prediction)
	execution(x *engine.Execution)
	fail(err error) // answers err's classified status and code
	release()       // returns the codec and its buffers to the pool
}

var (
	jsonCodecs = sync.Pool{New: func() any { return new(jsonCodec) }}
	wireCodecs = sync.Pool{New: func() any {
		c := &wireCodec{out: make([]byte, 0, 4096)}
		c.in.Grow(4096)
		return c
	}}
)

// codecFor picks the request's encoding from its Content-Type.
func (s *server) codecFor(w http.ResponseWriter, r *http.Request) codec {
	ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	if strings.TrimSpace(ct) == wire.ContentType {
		c := wireCodecs.Get().(*wireCodec)
		c.s, c.w, c.r = s, w, r
		return c
	}
	c := jsonCodecs.Get().(*jsonCodec)
	c.s, c.w, c.r = s, w, r
	return c
}

// statusError is a failure whose status the pipeline already knows: a
// malformed request, an unserved platform, a wrong method. code, when
// set, is the machine-readable reason the reply carries.
type statusError struct {
	status int
	code   string
	err    error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

func badRequest(err error) error { return &statusError{status: http.StatusBadRequest, err: err} }

// bodyError classifies a request-body failure: an oversized body
// (MaxBytesReader tripped) is 413, anything else malformed is 400.
func bodyError(err error, code string) error {
	status := http.StatusBadRequest
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		status = http.StatusRequestEntityTooLarge
	}
	return &statusError{status: status, code: code, err: err}
}

// failure is an error classified once for both encodings, so clients
// can react without parsing messages: budget exhaustion is 422/413/408
// by kind (steps/memory/deadline) with the spent/limit pair, quota
// rejections and sheds are 429 with Retry-After, compile failures 400
// (message carries the MiniCL line:column), name conflicts 409, and
// anything else 422 with no code.
type failure struct {
	status    int
	code      string
	retrySecs int               // > 0 sets Retry-After
	budget    *exec.BudgetError // non-nil for "budget:*" codes
}

func classify(err error) failure {
	var ste *statusError
	var be *exec.BudgetError
	var qe *engine.QuotaError
	var se *fleet.ShedError
	var ce *engine.CompileError
	switch {
	case errors.As(err, &ste):
		return failure{status: ste.status, code: ste.code}
	case errors.As(err, &be):
		status := http.StatusUnprocessableEntity
		switch be.Kind {
		case exec.BudgetMemory:
			status = http.StatusRequestEntityTooLarge
		case exec.BudgetDeadline:
			status = http.StatusRequestTimeout
		}
		return failure{status: status, code: "budget:" + be.Kind, budget: be}
	case errors.As(err, &qe):
		return failure{status: http.StatusTooManyRequests, code: "quota", retrySecs: retryAfterSecs(qe.RetryAfter)}
	case errors.As(err, &se):
		return failure{status: http.StatusTooManyRequests, code: "shed", retrySecs: retryAfterSecs(se.RetryAfter)}
	case errors.As(err, &ce):
		return failure{status: http.StatusBadRequest, code: "compile"}
	case errors.Is(err, engine.ErrKernelExists):
		return failure{status: http.StatusConflict, code: "exists"}
	case errors.Is(err, engine.ErrInvalidKernel):
		return failure{status: http.StatusBadRequest, code: "invalid"}
	case errors.Is(err, engine.ErrRetrainInProgress):
		return failure{status: http.StatusConflict}
	default:
		return failure{status: http.StatusUnprocessableEntity}
	}
}

// jsonCodec speaks JSON: parameters from the query string and/or a
// JSON body, answers and failures as JSON objects.
type jsonCodec struct {
	s *server
	w http.ResponseWriter
	r *http.Request
	// points holds the batch's elements raw, so each gets /predict's
	// defaulting (omitted size = the program's default size).
	points  []json.RawMessage
	results []batchResult
	errs    int
}

// batchResult is one element of the JSON batch response: a prediction,
// or a per-point error (one bad point does not fail its siblings).
type batchResult struct {
	engine.Prediction
	Error string `json:"error,omitempty"`
}

// request reads the body (POST) and then the query string, whose
// parameters win.
func (c *jsonCodec) request(bool) (engine.Request, error) {
	req := engine.Request{SizeIdx: -1}
	if err := c.s.decodeBody(c.w, c.r, &req); err != nil {
		return req, err
	}
	q := c.r.URL.Query()
	if v := q.Get("program"); v != "" {
		req.Program = v
	}
	var err error
	if v := q.Get("size"); v != "" {
		if req.SizeIdx, err = strconv.Atoi(v); err != nil {
			return req, badRequest(fmt.Errorf("invalid size %q", v))
		}
	}
	if q.Has("leaveout") {
		// The service serves one model per platform; a program absent from
		// the training database is already unseen by it.
		return req, badRequest(errors.New("leaveout: leave-one-program-out is not served; cmd/bench fig1 reports the unseen-program figure"))
	}
	return req, nil
}

func (c *jsonCodec) batch() (int, error) {
	var body struct {
		Requests []json.RawMessage `json:"requests"`
	}
	if err := c.s.decodeBody(c.w, c.r, &body); err != nil {
		return 0, err
	}
	c.points, c.results, c.errs = body.Requests, c.results[:0], 0
	return len(c.points), nil
}

func (c *jsonCodec) next(i int) (engine.Request, error) {
	req := engine.Request{SizeIdx: -1}
	dec := json.NewDecoder(bytes.NewReader(c.points[i]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("invalid JSON: %w", err)
	}
	return req, nil
}

func (c *jsonCodec) add(p *engine.Prediction, msg string) {
	if msg != "" {
		c.results = append(c.results, batchResult{Error: msg})
		c.errs++
		return
	}
	c.results = append(c.results, batchResult{Prediction: *p})
}

func (c *jsonCodec) finish() {
	writeJSON(c.w, http.StatusOK, map[string]any{"count": len(c.results), "errors": c.errs, "results": c.results})
}

func (c *jsonCodec) prediction(p *engine.Prediction) { writeJSON(c.w, http.StatusOK, p) }
func (c *jsonCodec) execution(x *engine.Execution)   { writeJSON(c.w, http.StatusOK, x) }

// fail answers {"error", "code"?, "spent"?, "limit"?}.
func (c *jsonCodec) fail(err error) {
	f := classify(err)
	if f.retrySecs > 0 {
		c.w.Header().Set("Retry-After", strconv.Itoa(f.retrySecs))
	}
	body := map[string]any{"error": err.Error()}
	if f.code != "" {
		body["code"] = f.code
	}
	if f.budget != nil {
		body["spent"], body["limit"] = f.budget.Spent, f.budget.Limit
	}
	writeJSON(c.w, f.status, body)
}

func (c *jsonCodec) release() {
	c.s, c.w, c.r, c.points = nil, nil, nil, nil
	// Same capacity discipline as jsonPool: a maximal batch must not pin
	// its result slice behind every future small request.
	if cap(c.results) <= 256 {
		jsonCodecs.Put(c)
	}
}

// decodeBody decodes an optional JSON POST body into v, bounded by
// maxBodyBytes. An empty body is fine (parameters may be in the query),
// but anything after the first JSON value is not: trailing garbage means
// the client built the request wrong (or something is smuggling data),
// and silently ignoring it would mask the bug. So would an unknown field
// (a typo, or a field the service no longer reads), which is refused too.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	if r.Method != http.MethodPost {
		return nil
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	// Decode regardless of Content-Length: chunked bodies report -1.
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	switch {
	case errors.Is(err, io.EOF):
		return nil // empty body
	case err == nil && dec.More():
		err = errors.New("trailing data after the request object")
	case err == nil:
		return nil
	}
	return bodyError(fmt.Errorf("invalid JSON body: %w", err), "")
}

// wireCodec speaks internal/wire frames: the request body in, the
// response frame out.
type wireCodec struct {
	s   *server
	w   http.ResponseWriter
	r   *http.Request
	in  bytes.Buffer
	out []byte
	it  wire.BatchIter
	enc wire.BatchEncoder
}

// maxPooledWireBuf caps what a codec's buffers carry back into the pool.
const maxPooledWireBuf = 256 << 10

// frame reads the whole (bounded) body and returns the payload of the
// one frame it must hold, of type want.
func (c *wireCodec) frame(want byte) ([]byte, error) {
	c.r.Body = http.MaxBytesReader(c.w, c.r.Body, maxBodyBytes)
	c.in.Reset()
	if _, err := c.in.ReadFrom(c.r.Body); err != nil {
		return nil, bodyError(err, "body")
	}
	msg, payload, err := wire.ParseFrame(c.in.Bytes())
	if err != nil {
		return nil, badRequest(err)
	}
	if msg != want {
		return nil, badRequest(fmt.Errorf("unexpected message type %d (want %d)", msg, want))
	}
	return payload, nil
}

func (c *wireCodec) request(execute bool) (engine.Request, error) {
	var req engine.Request
	want := wire.MsgPredictReq
	if execute {
		want = wire.MsgExecuteReq
	}
	payload, err := c.frame(want)
	if err != nil {
		return req, err
	}
	if err := wire.DecodePredictRequest(payload, &req, c.s.intern); err != nil {
		return req, badRequest(err)
	}
	return req, nil
}

func (c *wireCodec) batch() (int, error) {
	payload, err := c.frame(wire.MsgBatchReq)
	if err != nil {
		return 0, err
	}
	if c.it, err = wire.DecodeBatchRequest(payload); err != nil {
		return 0, badRequest(err)
	}
	c.enc.Begin(c.out[:0])
	return c.it.Count(), nil
}

// next streams the points in order. A malformed point stops the
// iterator, and finish then fails the whole request.
func (c *wireCodec) next(int) (engine.Request, error) {
	var req engine.Request
	c.it.Next(&req, c.s.intern)
	return req, c.it.Err()
}

func (c *wireCodec) add(p *engine.Prediction, msg string) {
	if msg != "" {
		c.enc.Error(msg)
		return
	}
	c.enc.Prediction(p)
}

func (c *wireCodec) finish() {
	if err := c.it.Err(); err != nil {
		// Malformed mid-batch: nothing has been written yet, so the whole
		// request can still fail cleanly.
		c.fail(badRequest(err))
		return
	}
	c.write(http.StatusOK, c.enc.Finish())
}

func (c *wireCodec) prediction(p *engine.Prediction) {
	c.write(200, wire.AppendPrediction(c.out[:0], p))
}
func (c *wireCodec) execution(x *engine.Execution) { c.write(200, wire.AppendExecution(c.out[:0], x)) }

// fail answers a MsgError frame. An unclassified malformed request (400
// with no code) is a bad frame; anything else without a code is
// "error".
func (c *wireCodec) fail(err error) {
	f := classify(err)
	code := f.code
	switch {
	case code != "":
	case f.status == http.StatusBadRequest:
		code = "frame"
	default:
		code = "error"
	}
	if f.retrySecs > 0 {
		c.w.Header().Set("Retry-After", strconv.Itoa(f.retrySecs))
	}
	c.write(f.status, wire.AppendError(c.out[:0], f.status, code, err.Error(), f.retrySecs))
}

// write sends a complete frame, keeping its buffer for the next request.
func (c *wireCodec) write(status int, frame []byte) {
	c.out = frame
	c.w.Header().Set("Content-Type", wire.ContentType)
	c.w.WriteHeader(status)
	c.w.Write(frame)
}

func (c *wireCodec) release() {
	c.s, c.w, c.r = nil, nil, nil
	c.it, c.enc = wire.BatchIter{}, wire.BatchEncoder{}
	if c.in.Cap() <= maxPooledWireBuf && cap(c.out) <= maxPooledWireBuf {
		wireCodecs.Put(c)
	}
}
