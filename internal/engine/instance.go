package engine

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/inspire"
	"repro/internal/minicl"
)

// What a warm Execute reuses instead of rebuilding. Inputs are a pure
// function of (program, size), so a cell's first execution builds one
// fresh instance and makes it the template every execution of the cell,
// on every engine sharing the cache, is cut from:
//
//   - buffers behind const-qualified parameters are shared read-only
//     with every request (sema refuses any store through them);
//   - every other global buffer is private to the request: drawn from a
//     process-wide free list and restored to the contents the template's
//     pristine copy holds (or cleared, when a fresh instance gives it all
//     zeros);
//   - the outputs of the first execution the Go reference accepted are
//     stored — in the template's own private buffer when that is not the
//     pristine copy, else in one allocated by that first store — and
//     later executions are checked bit for bit against them (check).
//
// When /execute is the first to touch a cell, the instance the cell is
// profiled from is the template's, and the profiling run is that
// request's execution (Engine.cellFor). A cell that is only ever
// predicted builds none of this (cell.template).

// template is the instance half of a cell.
type template struct {
	bench   *bench.Program
	sizeIdx int
	// args, nd and extra are the fresh instance's; extra holds its
	// verification snapshots.
	args  []exec.Arg
	nd    exec.NDRange
	extra map[string]*exec.Buffer
	// private lists the global buffer arguments a request gets its own
	// copy of. pristine[k] is what private[k] holds before any kernel ran,
	// nil when that is all zero (every pure output), which clear restores.
	private  []int
	pristine []*exec.Buffer

	// outs[k] holds private[k]'s stored outputs once stored is set;
	// storeMu orders the one write that sets it.
	storeMu sync.Mutex
	outs    []*exec.Buffer
	stored  atomic.Bool
}

// newTemplate makes inst, a fresh instance of (bp, sizeIdx) no kernel has
// run on, a template, picking its private buffers apart: one that is all
// zero needs no pristine copy and will hold the stored outputs; one that
// is not is the pristine copy — or the setup's own verification snapshot
// of it is, when it took one (an in-place program's Extra holds exactly
// that), and the instance's buffer is then free to hold the stored
// outputs.
func newTemplate(kernel *inspire.Function, bp *bench.Program, sizeIdx int, inst *bench.Instance) *template {
	t := &template{bench: bp, sizeIdx: sizeIdx, args: inst.Args, nd: inst.ND, extra: inst.Extra}
	for i, p := range kernel.Params {
		if p.Type.Ptr && p.Type.Space == minicl.Global && !p.Type.Const {
			t.private = append(t.private, i)
		}
	}
	t.pristine = make([]*exec.Buffer, len(t.private))
	t.outs = make([]*exec.Buffer, len(t.private))
	for k, arg := range t.private {
		b := inst.Args[arg].Buf
		if allZero(b) {
			t.outs[k] = b
			continue
		}
		t.pristine[k] = b
		for _, x := range inst.Extra {
			if x != b && x.SameBits(b) {
				t.pristine[k], t.outs[k] = x, b
				break
			}
		}
	}
	return t
}

func allZero(b *exec.Buffer) bool {
	for _, v := range b.F {
		if math.Float32bits(v) != 0 { // -0.0 is not what clear restores
			return false
		}
	}
	for _, v := range b.I {
		if v != 0 {
			return false
		}
	}
	return true
}

// acquire builds one request's arguments: the template's, with each
// private buffer replaced by one from the free list holding its pristine
// contents. release must follow, whatever became of the request.
func (t *template) acquire() []exec.Arg {
	args := make([]exec.Arg, len(t.args))
	copy(args, t.args)
	for k, arg := range t.private {
		own := t.args[arg].Buf
		b := requestBuffers.get(own.Kind, own.Len())
		if p := t.pristine[k]; p != nil {
			copy(b.F, p.F)
			copy(b.I, p.I)
		} else {
			clear(b.F)
			clear(b.I)
		}
		args[arg].Buf = b
	}
	return args
}

// release returns a request's private buffers to the free list. Their
// contents go with them; the next acquire overwrites every element.
func (t *template) release(args []exec.Arg) {
	for _, arg := range t.private {
		requestBuffers.put(args[arg].Buf)
	}
}

// check decides whether an execution's outputs are right. Once the
// template stores reference-checked outputs, a bit-for-bit match with
// them answers; anything else — no stored outputs yet, a partitioning
// that rounds differently, a tier bug, a corrupted buffer — goes to the
// program's Go reference, whose error (if any) is returned. The first
// execution the reference accepts becomes the stored outputs.
func (t *template) check(args []exec.Arg) (byMatch bool, err error) {
	if t.stored.Load() && t.matches(args) {
		return true, nil
	}
	inst := bench.Instance{Args: args, ND: t.nd, Extra: t.extra}
	if err := t.bench.Verify(&inst, t.sizeIdx); err != nil {
		return false, err
	}
	t.storeMu.Lock()
	if !t.stored.Load() {
		for k, arg := range t.private {
			b := args[arg].Buf
			if t.outs[k] == nil {
				t.outs[k] = b.Clone()
				continue
			}
			copy(t.outs[k].F, b.F)
			copy(t.outs[k].I, b.I)
		}
		t.stored.Store(true)
	}
	t.storeMu.Unlock()
	return false, nil
}

func (t *template) matches(args []exec.Arg) bool {
	for k, arg := range t.private {
		if !t.outs[k].SameBits(args[arg].Buf) {
			return false
		}
	}
	return true
}

// instanceBytes is the memory-budget charge for one instance: the bytes
// of every global buffer its setup allocated. (Local buffers are charged
// inside exec, per worker.)
func instanceBytes(inst *bench.Instance) int64 {
	var n int64
	for _, a := range inst.Args {
		if a.Buf != nil {
			n += a.Buf.Bytes()
		}
	}
	return n
}

// requestBuffers is the one free list every cell of every engine in the
// process draws its requests' private buffers from.
var requestBuffers bufferList

// maxPerClass caps each size class of the free list: enough for the
// requests in flight on a few cores, and a bound on what the list can pin
// (a class holds buffers under twice its smallest).
const maxPerClass = 4

// bufferList is a free list of buffers in power-of-two size classes per
// element kind: class k holds capacities in [2^k, 2^(k+1)). Buffers come
// back with whatever their last user left in them.
type bufferList struct {
	mu      sync.Mutex
	classes [2][bits.UintSize][]*exec.Buffer // [float, int][class]
}

func kindIndex(kind minicl.BasicKind) int {
	if kind == minicl.Float {
		return 0
	}
	return 1
}

func capOf(b *exec.Buffer) int { return cap(b.F) + cap(b.I) }

// get returns a buffer of n elements of kind: the first listed one of n's
// class that is large enough, else any of the next class up, else new.
func (l *bufferList) get(kind minicl.BasicKind, n int) *exec.Buffer {
	if n > 0 {
		ki, k := kindIndex(kind), bits.Len(uint(n))-1
		l.mu.Lock()
		for c := k; c <= k+1 && c < len(l.classes[ki]); c++ {
			list := l.classes[ki][c]
			for i, b := range list {
				if capOf(b) < n {
					continue
				}
				l.classes[ki][c] = slices.Delete(list, i, i+1)
				l.mu.Unlock()
				if kind == minicl.Float {
					b.F = b.F[:n]
				} else {
					b.I = b.I[:n]
				}
				return b
			}
		}
		l.mu.Unlock()
	}
	if kind == minicl.Float {
		return exec.NewFloatBuffer(n)
	}
	return exec.NewIntBuffer(n)
}

// put lists b for reuse, or drops it when its class is full.
func (l *bufferList) put(b *exec.Buffer) {
	c := capOf(b)
	if c == 0 {
		return
	}
	ki, k := kindIndex(b.Kind), bits.Len(uint(c))-1
	l.mu.Lock()
	if len(l.classes[ki][k]) < maxPerClass {
		l.classes[ki][k] = append(l.classes[ki][k], b)
	}
	l.mu.Unlock()
}
