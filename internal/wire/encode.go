package wire

import "repro/internal/engine"

// Encoders are append-style: the caller owns the buffer (typically a
// sync.Pool'd []byte in cmd/serve) and each call returns the extended
// slice, so a warm encode touches no allocator once the buffer has
// grown to its working size.

// appendRequestBody writes the shared predict/execute request payload:
// u8 flags (reserved, 0) | i32 size | str program.
func appendRequestBody(dst []byte, req *engine.Request) []byte {
	dst = append(dst, 0)
	dst = appendI32(dst, int32(req.SizeIdx))
	return appendStr(dst, req.Program)
}

// AppendPredictRequest appends a complete MsgPredictReq frame. Tenant
// travels in the X-Tenant header, never in the frame, mirroring the
// JSON protocol.
func AppendPredictRequest(dst []byte, req *engine.Request) []byte {
	dst, start := beginFrame(dst, MsgPredictReq)
	dst = appendRequestBody(dst, req)
	return endFrame(dst, start)
}

// AppendExecuteRequest appends a complete MsgExecuteReq frame (same
// payload shape as predict).
func AppendExecuteRequest(dst []byte, req *engine.Request) []byte {
	dst, start := beginFrame(dst, MsgExecuteReq)
	dst = appendRequestBody(dst, req)
	return endFrame(dst, start)
}

// AppendBatchRequest appends a MsgBatchReq frame:
// u16 count | count x request bodies.
func AppendBatchRequest(dst []byte, reqs []engine.Request) []byte {
	dst, start := beginFrame(dst, MsgBatchReq)
	dst = appendU16(dst, uint16(len(reqs)))
	for i := range reqs {
		dst = appendRequestBody(dst, &reqs[i])
	}
	return endFrame(dst, start)
}

// appendPredictionBody writes the prediction payload shared by
// MsgPredictResp, MsgExecuteResp and batch items. Field order is the
// wire contract; see README's wire format table.
func appendPredictionBody(dst []byte, p *engine.Prediction) []byte {
	dst = appendStr(dst, p.Program)
	dst = appendStr(dst, p.Platform)
	dst = appendI32(dst, int32(p.SizeIdx))
	dst = appendStr(dst, p.SizeLabel)
	dst = appendI32(dst, int32(p.SizeN))
	dst = appendI32(dst, int32(p.Class))
	dst = appendI32(dst, int32(p.RawClass))
	dst = appendBool(dst, p.Clamped)
	dst = appendStr(dst, p.Partition)
	dst = appendStr(dst, p.Model)
	dst = appendStr(dst, p.ModelSource)
	dst = appendI32(dst, int32(p.ModelVersion))
	dst = appendF64(dst, p.PredictedTime)
	dst = appendF64(dst, p.OracleTime)
	dst = appendStr(dst, p.OraclePartition)
	dst = appendF64(dst, p.CPUOnlyTime)
	return appendF64(dst, p.GPUOnlyTime)
}

// AppendPrediction appends a complete MsgPredictResp frame.
func AppendPrediction(dst []byte, p *engine.Prediction) []byte {
	dst, start := beginFrame(dst, MsgPredictResp)
	dst = appendPredictionBody(dst, p)
	return endFrame(dst, start)
}

// AppendExecution appends a MsgExecuteResp frame: the prediction body
// plus f64 makespan | bool verified | str verifyError.
func AppendExecution(dst []byte, x *engine.Execution) []byte {
	dst, start := beginFrame(dst, MsgExecuteResp)
	dst = appendPredictionBody(dst, &x.Prediction)
	dst = appendF64(dst, x.Makespan)
	dst = appendBool(dst, x.Verified)
	dst = appendStr(dst, x.VerifyError)
	return endFrame(dst, start)
}

// AppendError appends a MsgError frame:
// u16 httpStatus | str code | str message | u16 retryAfterSecs.
// retryAfterSecs is zero when no Retry-After applies; values beyond the
// u16 range saturate.
func AppendError(dst []byte, status int, code, message string, retryAfterSecs int) []byte {
	dst, start := beginFrame(dst, MsgError)
	dst = appendU16(dst, uint16(status))
	dst = appendStr(dst, code)
	dst = appendStr(dst, message)
	if retryAfterSecs < 0 {
		retryAfterSecs = 0
	} else if retryAfterSecs > 0xffff {
		retryAfterSecs = 0xffff
	}
	dst = appendU16(dst, uint16(retryAfterSecs))
	return endFrame(dst, start)
}

// BatchEncoder streams a MsgBatchResp frame:
// u16 count | u16 errCount | count x { bool ok | prediction body or str error }.
// The server appends each point's result as it is produced and Finish
// back-patches the counts and frame length, so the whole batch response
// is built in one pooled buffer with no intermediate slices.
type BatchEncoder struct {
	buf         []byte
	start       int
	count, errs int
}

// Begin starts the frame in dst. The encoder takes over the slice until
// Finish returns it.
func (e *BatchEncoder) Begin(dst []byte) {
	e.buf, e.start = beginFrame(dst, MsgBatchResp)
	e.buf = appendU16(e.buf, 0) // count, patched by Finish
	e.buf = appendU16(e.buf, 0) // errCount, patched by Finish
	e.count, e.errs = 0, 0
}

// Prediction appends one successful point.
func (e *BatchEncoder) Prediction(p *engine.Prediction) {
	e.buf = appendBool(e.buf, true)
	e.buf = appendPredictionBody(e.buf, p)
	e.count++
}

// Error appends one failed point.
func (e *BatchEncoder) Error(msg string) {
	e.buf = appendBool(e.buf, false)
	e.buf = appendStr(e.buf, msg)
	e.count++
	e.errs++
}

// Finish patches the counts and length and returns the completed
// buffer.
func (e *BatchEncoder) Finish() []byte {
	b := e.buf[e.start+5:]
	b[0], b[1] = byte(e.count), byte(e.count>>8)
	b[2], b[3] = byte(e.errs), byte(e.errs>>8)
	return endFrame(e.buf, e.start)
}
