package wire

import (
	"sync"
	"sync/atomic"
)

// internCap bounds the interning table. The realistic key population is
// tiny (benchmark programs plus registered user kernels), so the cap
// only matters under attack: once hostile traffic fills the table,
// unknown names fall back to plain allocation instead of growing the
// map without bound.
const internCap = 4096

// Intern deduplicates request strings so the warm decode path performs
// no allocations: looking up a []byte key in a map[string]string
// compiles to a no-copy probe, and a hit returns the long-lived
// canonical string. The table is read-mostly — a copy-on-write map
// behind an atomic pointer makes hits lock-free; misses take a mutex to
// republish.
type Intern struct {
	p  atomic.Pointer[map[string]string]
	mu sync.Mutex
}

// NewIntern returns an empty table.
func NewIntern() *Intern {
	in := &Intern{}
	m := make(map[string]string)
	in.p.Store(&m)
	return in
}

// Str returns the canonical string for b, interning it on first sight
// (unless the table is full, in which case the copy is returned
// without being retained).
func (in *Intern) Str(b []byte) string {
	m := *in.p.Load()
	if s, ok := m[string(b)]; ok { // no-alloc map probe on []byte key
		return s
	}
	s := string(b)
	in.mu.Lock()
	defer in.mu.Unlock()
	cur := *in.p.Load()
	if got, ok := cur[s]; ok { // raced with another miss
		return got
	}
	if len(cur) >= internCap {
		return s
	}
	next := make(map[string]string, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[s] = s
	in.p.Store(&next)
	return s
}
