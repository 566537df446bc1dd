package wire

import (
	"testing"

	"repro/internal/engine"
)

// FuzzWireDecode drives every decoder with arbitrary bytes. The
// contract under fuzzing: malformed frames error, never panic, and
// never allocate proportionally to declared (rather than actual)
// lengths. It runs in the CI fuzz smoke step next to the MiniCL
// front-end fuzzers.
func FuzzWireDecode(f *testing.F) {
	req := engine.Request{Program: "vecadd", SizeIdx: 3}
	f.Add(AppendPredictRequest(nil, &req))
	f.Add(AppendExecuteRequest(nil, &req))
	f.Add(AppendBatchRequest(nil, []engine.Request{req, {Program: "matmul", SizeIdx: -1}}))
	p := engine.Prediction{Program: "vecadd", Platform: "mc1", Partition: "CPU 50% / GPU1 50%"}
	f.Add(AppendPrediction(nil, &p))
	f.Add(AppendExecution(nil, &engine.Execution{Prediction: p, Makespan: 1e-3, Verified: true}))
	var enc BatchEncoder
	enc.Begin(nil)
	enc.Prediction(&p)
	enc.Error("boom")
	f.Add(enc.Finish())
	f.Add(AppendError(nil, 429, "shed", "overloaded", 1))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})

	in := NewIntern()
	f.Fuzz(func(t *testing.T, b []byte) {
		msg, payload, err := ParseFrame(b)
		if err != nil {
			return
		}
		// Decode the payload as every message shape regardless of the
		// declared type — a hostile client controls that byte too.
		_ = msg
		var r engine.Request
		_ = DecodePredictRequest(payload, &r, in)
		if it, err := DecodeBatchRequest(payload); err == nil {
			var item engine.Request
			for it.Next(&item, in) {
			}
			_ = it.Err()
		}
		var pred engine.Prediction
		_ = DecodePrediction(payload, &pred)
		var ex engine.Execution
		_ = DecodeExecution(payload, &ex)
		_, _, _ = DecodeBatchResponse(payload)
		_, _ = DecodeError(payload)
	})
}
