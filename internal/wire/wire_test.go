package wire

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
)

func samplePrediction(i int) engine.Prediction {
	return engine.Prediction{
		Program:         "vecadd",
		Platform:        "mc2",
		SizeIdx:         i,
		SizeLabel:       "1048576",
		SizeN:           1 << 20,
		Class:           3 + i%2,
		RawClass:        7,
		Clamped:         i%2 == 1,
		Partition:       "CPU 30% / GPU1 40% / GPU2 30%",
		Model:           "tree",
		ModelSource:     "artifact",
		ModelVersion:    2,
		PredictedTime:   1.25e-3,
		OracleTime:      1.1e-3,
		OraclePartition: "CPU 20% / GPU1 50% / GPU2 30%",
		CPUOnlyTime:     9.7e-3,
		GPUOnlyTime:     2.2e-3,
	}
}

func TestPredictRequestRoundTrip(t *testing.T) {
	in := NewIntern()
	for _, want := range []engine.Request{
		{Program: "vecadd", SizeIdx: 3},
		{Program: "matmul", SizeIdx: -1},
		{Program: "", SizeIdx: 0},
	} {
		frame := AppendPredictRequest(nil, &want)
		msg, payload, err := ParseFrame(frame)
		if err != nil {
			t.Fatalf("ParseFrame: %v", err)
		}
		if msg != MsgPredictReq {
			t.Fatalf("msg = %d, want %d", msg, MsgPredictReq)
		}
		var got engine.Request
		if err := DecodePredictRequest(payload, &got, in); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got != want {
			t.Errorf("round trip = %+v, want %+v", got, want)
		}
	}
}

func TestExecuteRequestRoundTrip(t *testing.T) {
	want := engine.Request{Program: "tenant/blur", SizeIdx: 2}
	frame := AppendExecuteRequest(nil, &want)
	msg, payload, err := ParseFrame(frame)
	if err != nil || msg != MsgExecuteReq {
		t.Fatalf("ParseFrame: msg=%d err=%v", msg, err)
	}
	var got engine.Request
	if err := DecodePredictRequest(payload, &got, NewIntern()); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

func TestBatchRequestRoundTrip(t *testing.T) {
	reqs := []engine.Request{
		{Program: "vecadd", SizeIdx: 0},
		{Program: "matmul", SizeIdx: 5},
		{Program: "knn", SizeIdx: 11},
	}
	frame := AppendBatchRequest(nil, reqs)
	msg, payload, err := ParseFrame(frame)
	if err != nil || msg != MsgBatchReq {
		t.Fatalf("ParseFrame: msg=%d err=%v", msg, err)
	}
	it, err := DecodeBatchRequest(payload)
	if err != nil {
		t.Fatalf("DecodeBatchRequest: %v", err)
	}
	if it.Count() != len(reqs) {
		t.Fatalf("Count = %d, want %d", it.Count(), len(reqs))
	}
	in := NewIntern()
	var got []engine.Request
	var req engine.Request
	for it.Next(&req, in) {
		got = append(got, req)
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iter: %v", err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Errorf("round trip = %+v, want %+v", got, reqs)
	}
}

func TestPredictionRoundTrip(t *testing.T) {
	want := samplePrediction(1)
	frame := AppendPrediction(nil, &want)
	msg, payload, err := ParseFrame(frame)
	if err != nil || msg != MsgPredictResp {
		t.Fatalf("ParseFrame: msg=%d err=%v", msg, err)
	}
	var got engine.Prediction
	if err := DecodePrediction(payload, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

func TestExecutionRoundTrip(t *testing.T) {
	want := engine.Execution{
		Prediction: samplePrediction(0),
		Makespan:   3.75e-3,
		Verified:   true,
	}
	frame := AppendExecution(nil, &want)
	msg, payload, err := ParseFrame(frame)
	if err != nil || msg != MsgExecuteResp {
		t.Fatalf("ParseFrame: msg=%d err=%v", msg, err)
	}
	var got engine.Execution
	if err := DecodeExecution(payload, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != want {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

func TestBatchResponseRoundTrip(t *testing.T) {
	p0, p1 := samplePrediction(0), samplePrediction(1)
	var enc BatchEncoder
	enc.Begin(nil)
	enc.Prediction(&p0)
	enc.Error("unknown program \"nope\"")
	enc.Prediction(&p1)
	frame := enc.Finish()

	msg, payload, err := ParseFrame(frame)
	if err != nil || msg != MsgBatchResp {
		t.Fatalf("ParseFrame: msg=%d err=%v", msg, err)
	}
	items, errs, err := DecodeBatchResponse(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if errs != 1 || len(items) != 3 {
		t.Fatalf("items=%d errs=%d, want 3/1", len(items), errs)
	}
	if !items[0].OK || items[0].Pred != p0 {
		t.Errorf("item 0 = %+v", items[0])
	}
	if items[1].OK || items[1].Err != "unknown program \"nope\"" {
		t.Errorf("item 1 = %+v", items[1])
	}
	if !items[2].OK || items[2].Pred != p1 {
		t.Errorf("item 2 = %+v", items[2])
	}
}

func TestErrorRoundTrip(t *testing.T) {
	frame := AppendError(nil, 429, "quota:concurrency", "tenant over limit", 2)
	msg, payload, err := ParseFrame(frame)
	if err != nil || msg != MsgError {
		t.Fatalf("ParseFrame: msg=%d err=%v", msg, err)
	}
	got, err := DecodeError(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := ErrorFrame{Status: 429, Code: "quota:concurrency", Message: "tenant over limit", RetryAfterSecs: 2}
	if got != want {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

func TestSpecialFloatValues(t *testing.T) {
	p := samplePrediction(0)
	p.OracleTime = math.Inf(1)
	p.CPUOnlyTime = math.SmallestNonzeroFloat64
	p.GPUOnlyTime = math.MaxFloat64
	frame := AppendPrediction(nil, &p)
	_, payload, err := ParseFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var got engine.Prediction
	if err := DecodePrediction(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Errorf("special floats mangled: %+v", got)
	}
}

func TestMalformedFrames(t *testing.T) {
	req := engine.Request{Program: "vecadd", SizeIdx: 1}
	good := AppendPredictRequest(nil, &req)
	in := NewIntern()

	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrShortFrame},
		{"header only", good[:4], ErrShortFrame},
		{"truncated body", good[:len(good)-2], ErrTruncated},
		{"trailing garbage", append(append([]byte(nil), good...), 0xde, 0xad), ErrTrailing},
		{"zero length", []byte{0, 0, 0, 0, 1}, ErrFrameLength},
		{"oversized length", []byte{0xff, 0xff, 0xff, 0x7f, 1}, ErrFrameLength},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, _, err := ParseFrame(c.b)
			if !errors.Is(err, c.want) {
				t.Errorf("ParseFrame err = %v, want %v", err, c.want)
			}
		})
	}

	// Every flag bit is refused; bit 0, the old leave-one-program-out
	// request, is one of them, and the error names where that figure lives.
	for name, flags := range map[string]byte{"bad flags": 0xff, "leave-out flag": 1} {
		t.Run(name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			b[5] = flags // flags byte
			_, payload, err := ParseFrame(b)
			if err != nil {
				t.Fatal(err)
			}
			var r engine.Request
			err = DecodePredictRequest(payload, &r, in)
			if !errors.Is(err, ErrBadValue) || !strings.Contains(err.Error(), "cmd/bench fig1") {
				t.Errorf("decode err = %v, want ErrBadValue naming cmd/bench fig1", err)
			}
		})
	}

	t.Run("payload trailing", func(t *testing.T) {
		var r engine.Request
		payload := append(good[5:len(good):len(good)], 0)
		if err := DecodePredictRequest(payload, &r, in); !errors.Is(err, ErrTrailing) {
			t.Errorf("decode err = %v, want ErrTrailing", err)
		}
	})

	t.Run("batch count overruns payload", func(t *testing.T) {
		frame := AppendBatchRequest(nil, []engine.Request{{Program: "vecadd"}})
		_, payload, err := ParseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		b := append([]byte(nil), payload...)
		b[0], b[1] = 0xff, 0xff // count = 65535
		if _, err := DecodeBatchRequest(b); !errors.Is(err, ErrBadValue) {
			t.Errorf("err = %v, want ErrBadValue", err)
		}
	})

	t.Run("batch response count mismatch", func(t *testing.T) {
		var enc BatchEncoder
		enc.Begin(nil)
		enc.Error("boom")
		frame := enc.Finish()
		_, payload, err := ParseFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		b := append([]byte(nil), payload...)
		b[2], b[3] = 0, 0 // claim zero errors
		if _, _, err := DecodeBatchResponse(b); !errors.Is(err, ErrBadValue) {
			t.Errorf("err = %v, want ErrBadValue", err)
		}
	})
}

func TestAppendStrTruncates(t *testing.T) {
	long := strings.Repeat("x", 0x10001)
	b := appendStr(nil, long)
	r := reader{b: b}
	got := r.str()
	if err := r.done(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0xffff {
		t.Errorf("len = %d, want %d", len(got), 0xffff)
	}
}

func TestInternDeduplicates(t *testing.T) {
	in := NewIntern()
	a := in.Str([]byte("vecadd"))
	b := in.Str([]byte("vecadd"))
	// Same backing string must come back on a hit: compare headers.
	if a != "vecadd" || b != "vecadd" {
		t.Fatalf("intern returned %q, %q", a, b)
	}
	if len(*in.p.Load()) != 1 {
		t.Errorf("Len = %d, want 1", len(*in.p.Load()))
	}
}

func TestInternCapStopsGrowth(t *testing.T) {
	in := NewIntern()
	buf := make([]byte, 8)
	for i := 0; i < internCap+100; i++ {
		for j := range buf {
			buf[j] = byte('a' + (i>>(4*j))&0xf)
		}
		in.Str(buf)
	}
	if len(*in.p.Load()) > internCap {
		t.Errorf("Len = %d, want <= %d", len(*in.p.Load()), internCap)
	}
}

func TestInternConcurrent(t *testing.T) {
	in := NewIntern()
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			names := []string{"vecadd", "matmul", "knn", "blur"}
			for i := 0; i < 2000; i++ {
				s := in.Str([]byte(names[(i+g)%len(names)]))
				if s == "" {
					t.Error("empty intern result")
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if len(*in.p.Load()) != 4 {
		t.Errorf("Len = %d, want 4", len(*in.p.Load()))
	}
}
