package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/engine"
)

// reader walks a payload with sticky-error semantics: after the first
// failure every accessor returns a zero value, so decoders read the
// whole field list unconditionally and check err once. All reads are
// bounds-checked against the payload — never against declared lengths —
// so hostile frames cannot drive reads or allocations past the input.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrTruncated, what, r.off)
	}
}

func (r *reader) u8() byte {
	if r.err != nil {
		return 0
	}
	if r.off+1 > len(r.b) {
		r.fail("u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil {
		return 0
	}
	if r.off+2 > len(r.b) {
		r.fail("u16")
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *reader) i32() int32 {
	if r.err != nil {
		return 0
	}
	if r.off+4 > len(r.b) {
		r.fail("i32")
		return 0
	}
	v := int32(binary.LittleEndian.Uint32(r.b[r.off:]))
	r.off += 4
	return v
}

func (r *reader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.off+8 > len(r.b) {
		r.fail("f64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

func (r *reader) bool() bool {
	v := r.u8()
	if r.err == nil && v > 1 {
		r.err = fmt.Errorf("%w: bool byte %d", ErrBadValue, v)
	}
	return v == 1
}

// strBytes returns the string's bytes borrowed from the payload —
// valid only while the payload is; callers either intern or copy.
func (r *reader) strBytes() []byte {
	n := int(r.u16())
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.fail("str")
		return nil
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v
}

func (r *reader) str() string { return string(r.strBytes()) }

// done rejects payloads with bytes past the last field: trailing
// garbage means a framing bug or a hostile client either way.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d bytes past payload", ErrTrailing, len(r.b)-r.off)
	}
	return nil
}

// decodeRequestBody reads the shared predict/execute request body into
// req. Program names are interned so warm decodes allocate nothing.
func decodeRequestBody(r *reader, req *engine.Request, in *Intern) {
	// Bit 0 once asked for the model that leaves the program out; the
	// service serves one model per platform.
	if flags := r.u8(); r.err == nil && flags != 0 {
		r.err = fmt.Errorf("%w: request flags %#x (leave-one-program-out is not served; cmd/bench fig1 reports the unseen-program figure)", ErrBadValue, flags)
		return
	}
	req.SizeIdx = int(r.i32())
	req.Program = in.Str(r.strBytes())
	req.Tenant = ""
}

// DecodePredictRequest decodes a MsgPredictReq (or MsgExecuteReq —
// identical shape) payload into req.
func DecodePredictRequest(payload []byte, req *engine.Request, in *Intern) error {
	r := reader{b: payload}
	decodeRequestBody(&r, req, in)
	return r.done()
}

// BatchIter streams the items of a MsgBatchReq payload so the server
// can decode-predict-encode point by point without materializing the
// batch.
type BatchIter struct {
	r         reader
	remaining int
}

// DecodeBatchRequest validates the batch header and returns an
// iterator. Count() lets the caller enforce its own batch cap before
// touching any item.
func DecodeBatchRequest(payload []byte) (BatchIter, error) {
	r := reader{b: payload}
	n := int(r.u16())
	if r.err != nil {
		return BatchIter{}, r.err
	}
	// Each item is at least flags+size+len = 7 bytes; a count the
	// payload cannot hold is rejected before iteration starts.
	if n*7 > len(payload)-r.off {
		return BatchIter{}, fmt.Errorf("%w: %d items in %d bytes", ErrBadValue, n, len(payload)-r.off)
	}
	return BatchIter{r: r, remaining: n}, nil
}

// Count reports the number of items declared by the batch header.
func (it *BatchIter) Count() int { return it.remaining }

// Next decodes the next item into req. It returns false when the batch
// is exhausted — after which Err must be checked, since exhaustion and
// malformed input both stop iteration.
func (it *BatchIter) Next(req *engine.Request, in *Intern) bool {
	if it.remaining == 0 || it.r.err != nil {
		return false
	}
	it.remaining--
	decodeRequestBody(&it.r, req, in)
	return it.r.err == nil
}

// Err returns the first decode error, including trailing garbage after
// the final item.
func (it *BatchIter) Err() error {
	if it.r.err != nil {
		return it.r.err
	}
	if it.remaining == 0 {
		return it.r.done()
	}
	return nil
}

// decodePredictionBody mirrors appendPredictionBody. Response decoding
// happens in clients and tests, so plain string allocation is fine.
func decodePredictionBody(r *reader, p *engine.Prediction) {
	p.Program = r.str()
	p.Platform = r.str()
	p.SizeIdx = int(r.i32())
	p.SizeLabel = r.str()
	p.SizeN = int(r.i32())
	p.Class = int(r.i32())
	p.RawClass = int(r.i32())
	p.Clamped = r.bool()
	p.Partition = r.str()
	p.Model = r.str()
	p.ModelSource = r.str()
	p.ModelVersion = int(r.i32())
	p.PredictedTime = r.f64()
	p.OracleTime = r.f64()
	p.OraclePartition = r.str()
	p.CPUOnlyTime = r.f64()
	p.GPUOnlyTime = r.f64()
}

// DecodePrediction decodes a MsgPredictResp payload.
func DecodePrediction(payload []byte, p *engine.Prediction) error {
	r := reader{b: payload}
	decodePredictionBody(&r, p)
	return r.done()
}

// DecodeExecution decodes a MsgExecuteResp payload.
func DecodeExecution(payload []byte, x *engine.Execution) error {
	r := reader{b: payload}
	decodePredictionBody(&r, &x.Prediction)
	x.Makespan = r.f64()
	x.Verified = r.bool()
	x.VerifyError = r.str()
	return r.done()
}

// BatchItem is one point of a decoded batch response: a prediction, or
// the per-point error that replaced it.
type BatchItem struct {
	Pred engine.Prediction
	Err  string
	OK   bool
}

// DecodeBatchResponse decodes a MsgBatchResp payload, returning the
// items and the error count from the header (which must match the
// per-item flags).
func DecodeBatchResponse(payload []byte) ([]BatchItem, int, error) {
	r := reader{b: payload}
	n := int(r.u16())
	errs := int(r.u16())
	if r.err != nil {
		return nil, 0, r.err
	}
	// Minimum item is ok-flag + error-string length = 3 bytes: bound the
	// allocation by what the payload can actually contain.
	if n*3 > len(payload)-r.off {
		return nil, 0, fmt.Errorf("%w: %d items in %d bytes", ErrBadValue, n, len(payload)-r.off)
	}
	items := make([]BatchItem, 0, n)
	seenErrs := 0
	for i := 0; i < n; i++ {
		var it BatchItem
		it.OK = r.bool()
		if it.OK {
			decodePredictionBody(&r, &it.Pred)
		} else {
			it.Err = r.str()
			seenErrs++
		}
		if r.err != nil {
			return nil, 0, r.err
		}
		items = append(items, it)
	}
	if err := r.done(); err != nil {
		return nil, 0, err
	}
	if seenErrs != errs {
		return nil, 0, fmt.Errorf("%w: header says %d errors, items carry %d", ErrBadValue, errs, seenErrs)
	}
	return items, errs, nil
}

// ErrorFrame is a decoded MsgError payload.
type ErrorFrame struct {
	Status         int
	Code           string
	Message        string
	RetryAfterSecs int
}

// DecodeError decodes a MsgError payload.
func DecodeError(payload []byte) (ErrorFrame, error) {
	r := reader{b: payload}
	var e ErrorFrame
	e.Status = int(r.u16())
	e.Code = r.str()
	e.Message = r.str()
	e.RetryAfterSecs = int(r.u16())
	return e, r.done()
}
