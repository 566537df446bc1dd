package main

// Binary wire protocol support: POST bodies with Content-Type
// application/x-repro-wire are internal/wire frames instead of JSON,
// and responses are frames too. The hot path is allocation-free warm:
// request bodies and response frames build in pooled buffers, request
// program names intern to long-lived strings, and predictions fill
// pooled structs in place.

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/wire"
)

// isWire reports whether the request negotiated the binary protocol.
func isWire(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == wire.ContentType
}

// wireBuf is one request's scratch: the body bytes in, the response
// frame out.
type wireBuf struct {
	in  []byte
	out []byte
}

var wireBufPool = sync.Pool{New: func() any {
	return &wireBuf{in: make([]byte, 0, 4096), out: make([]byte, 0, 4096)}
}}

// maxPooledWireBuf caps the capacity a buffer may carry back into the
// pool — same discipline as maxPooledResponse for JSON.
const maxPooledWireBuf = 256 << 10

func getWireBuf() *wireBuf { return wireBufPool.Get().(*wireBuf) }

func putWireBuf(b *wireBuf) {
	if cap(b.in) <= maxPooledWireBuf && cap(b.out) <= maxPooledWireBuf {
		wireBufPool.Put(b)
	}
}

// readWireBody reads the whole (bounded) request body into buf's input
// slice, growing it amortized-once.
func readWireBody(w http.ResponseWriter, r *http.Request, b *wireBuf) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	b.in = b.in[:0]
	for {
		if len(b.in) == cap(b.in) {
			b.in = append(b.in, 0)[:len(b.in)]
		}
		n, err := r.Body.Read(b.in[len(b.in):cap(b.in)])
		b.in = b.in[:len(b.in)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// writeWireFrame sends a complete frame with the wire Content-Type.
func writeWireFrame(w http.ResponseWriter, status int, frame []byte) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(status)
	w.Write(frame)
}

// writeWireError answers with a MsgError frame. retrySecs > 0 also sets
// the Retry-After header, mirroring the JSON error shape.
func writeWireError(w http.ResponseWriter, status int, code, msg string, retrySecs int) {
	if retrySecs > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retrySecs))
	}
	frame := wire.AppendError(nil, status, code, msg, retrySecs)
	writeWireFrame(w, status, frame)
}

// decodeWireRequest reads the body and decodes a single-request frame
// of the wanted type. Returns false with the response already written
// on failure.
func (s *server) decodeWireRequest(w http.ResponseWriter, r *http.Request, b *wireBuf, want byte, req *engine.Request) bool {
	if err := readWireBody(w, r, b); err != nil {
		writeWireError(w, bodyErrStatus(err), "body", err.Error(), 0)
		return false
	}
	msg, payload, err := wire.ParseFrame(b.in)
	if err != nil {
		writeWireError(w, http.StatusBadRequest, "frame", err.Error(), 0)
		return false
	}
	if msg != want {
		writeWireError(w, http.StatusBadRequest, "frame",
			fmt.Sprintf("unexpected message type %d (want %d)", msg, want), 0)
		return false
	}
	if err := wire.DecodePredictRequest(payload, req, s.intern); err != nil {
		writeWireError(w, http.StatusBadRequest, "frame", err.Error(), 0)
		return false
	}
	if req.Program == "" {
		writeWireError(w, http.StatusBadRequest, "frame", "missing required parameter: program", 0)
		return false
	}
	return true
}

func (s *server) wirePredict(w http.ResponseWriter, r *http.Request, sh *fleet.Shard) {
	b := getWireBuf()
	defer putWireBuf(b)
	var req engine.Request
	if !s.decodeWireRequest(w, r, b, wire.MsgPredictReq, &req) {
		return
	}
	p := predPool.Get().(*engine.Prediction)
	defer predPool.Put(p)
	if err := sh.Engine().PredictInto(req, p); err != nil {
		writeEngineError(w, r, err)
		return
	}
	b.out = wire.AppendPrediction(b.out[:0], p)
	writeWireFrame(w, http.StatusOK, b.out)
}

func (s *server) wirePredictBatch(w http.ResponseWriter, r *http.Request, sh *fleet.Shard) {
	b := getWireBuf()
	defer putWireBuf(b)
	if err := readWireBody(w, r, b); err != nil {
		writeWireError(w, bodyErrStatus(err), "body", err.Error(), 0)
		return
	}
	msg, payload, err := wire.ParseFrame(b.in)
	if err != nil {
		writeWireError(w, http.StatusBadRequest, "frame", err.Error(), 0)
		return
	}
	if msg != wire.MsgBatchReq {
		writeWireError(w, http.StatusBadRequest, "frame",
			fmt.Sprintf("unexpected message type %d (want %d)", msg, wire.MsgBatchReq), 0)
		return
	}
	it, err := wire.DecodeBatchRequest(payload)
	if err != nil {
		writeWireError(w, http.StatusBadRequest, "frame", err.Error(), 0)
		return
	}
	if it.Count() == 0 {
		writeWireError(w, http.StatusBadRequest, "frame", "empty batch", 0)
		return
	}
	if it.Count() > maxBatch {
		writeWireError(w, http.StatusBadRequest, "frame",
			fmt.Sprintf("batch of %d exceeds the %d-point limit", it.Count(), maxBatch), 0)
		return
	}
	p := predPool.Get().(*engine.Prediction)
	defer predPool.Put(p)
	var enc wire.BatchEncoder
	enc.Begin(b.out[:0])
	var req engine.Request
	i := -1
	for it.Next(&req, s.intern) {
		i++
		if req.Program == "" {
			enc.Error(fmt.Sprintf("request %d: missing required parameter: program", i))
			continue
		}
		if err := sh.Engine().PredictInto(req, p); err != nil {
			enc.Error(fmt.Sprintf("request %d: %v", i, err))
			continue
		}
		enc.Prediction(p)
	}
	if err := it.Err(); err != nil {
		// Malformed mid-batch: nothing has been written yet, so the whole
		// request can still fail cleanly.
		writeWireError(w, http.StatusBadRequest, "frame", err.Error(), 0)
		return
	}
	b.out = enc.Finish()
	writeWireFrame(w, http.StatusOK, b.out)
}

func (s *server) wireExecute(w http.ResponseWriter, r *http.Request, sh *fleet.Shard) {
	b := getWireBuf()
	defer putWireBuf(b)
	var req engine.Request
	if !s.decodeWireRequest(w, r, b, wire.MsgExecuteReq, &req) {
		return
	}
	req.Tenant = tenantOf(r)
	res, err := sh.Engine().Execute(r.Context(), req)
	if err != nil {
		writeEngineError(w, r, err)
		return
	}
	b.out = wire.AppendExecution(b.out[:0], res)
	writeWireFrame(w, http.StatusOK, b.out)
}
