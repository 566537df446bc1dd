// Package wire is the compact binary protocol spoken by cmd/serve and
// its clients (today the benchmark's load generator) alongside JSON. At ~127k points/s the JSON encode/decode
// on /predict/batch was the dominant serving cost (see ROADMAP item 3);
// this codec replaces it with length-prefixed little-endian frames that
// encode and decode with zero allocations on the warm path (pooled
// buffers for responses, interned program names for requests).
//
// A frame is
//
//	u32le n | u8 msgType | payload (n-1 bytes)
//
// where n counts the message-type byte plus the payload, so an empty
// payload is n=1. Within a payload:
//
//	str  = u16le length | bytes (UTF-8, no terminator)
//	i32  = int32 little-endian
//	f64  = IEEE-754 bits as u64le
//	bool = u8 0 or 1 (any other value is a decode error)
//
// Multi-byte integers are little-endian throughout. Decoders reject
// short frames, trailing garbage, lengths beyond MaxFrame, and
// out-of-range bools/flags: a malformed frame must error, never panic
// or over-allocate (fuzzed by FuzzWireDecode).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ContentType negotiates the binary protocol over HTTP: a request body
// carrying this Content-Type is a wire frame, and the response will be
// one too.
const ContentType = "application/x-repro-wire"

// MaxFrame bounds the declared frame length (message type + payload).
// It matches cmd/serve's 1 MiB request-body cap so neither layer can be
// tricked into buffering more than the other accepts.
const MaxFrame = 1 << 20

// Message types. Requests are odd where they pair with a response
// (predict 1/2, batch 3/4, execute 5/6); MsgError is the universal
// failure response.
const (
	MsgPredictReq  byte = 1
	MsgPredictResp byte = 2
	MsgBatchReq    byte = 3
	MsgBatchResp   byte = 4
	MsgExecuteReq  byte = 5
	MsgExecuteResp byte = 6
	MsgError       byte = 7
)

// Decode errors. All malformed-input failures wrap one of these so
// callers can branch without string matching.
var (
	ErrShortFrame  = errors.New("wire: frame shorter than header")
	ErrFrameLength = errors.New("wire: declared frame length invalid")
	ErrTrailing    = errors.New("wire: trailing bytes after frame")
	ErrTruncated   = errors.New("wire: payload truncated")
	ErrBadValue    = errors.New("wire: field value out of range")
)

// ParseFrame validates and splits one complete frame. The input must be
// exactly one frame — HTTP delivers bodies whole, so trailing bytes
// mean a corrupt or hostile client and are rejected.
func ParseFrame(b []byte) (msg byte, payload []byte, err error) {
	if len(b) < 5 {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrShortFrame, len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n < 1 || n > MaxFrame {
		return 0, nil, fmt.Errorf("%w: %d", ErrFrameLength, n)
	}
	if uint64(len(b)) != 4+uint64(n) {
		if uint64(len(b)) > 4+uint64(n) {
			return 0, nil, fmt.Errorf("%w: %d past frame end", ErrTrailing, uint64(len(b))-4-uint64(n))
		}
		return 0, nil, fmt.Errorf("%w: have %d of %d payload bytes", ErrTruncated, len(b)-4, n)
	}
	return b[4], b[5 : 4+n], nil
}

// beginFrame appends the frame header with a zero length placeholder
// and returns the buffer plus the offset of the placeholder for
// endFrame to patch.
func beginFrame(dst []byte, msg byte) ([]byte, int) {
	start := len(dst)
	return append(dst, 0, 0, 0, 0, msg), start
}

// endFrame patches the length field once the payload is in place.
func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v), byte(v>>8))
}

func appendI32(dst []byte, v int32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// appendStr writes a length-prefixed string, truncating at the u16
// limit. Nothing the server emits approaches 64 KiB (program names,
// partition labels, error text), so truncation is a formality rather
// than a data-loss path.
func appendStr(dst []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...)
}
