package sched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactQuantile is the nearest-rank reference the estimator is judged
// against.
func exactQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// TestP2TracksKnownDistributions feeds the estimator samples from
// distributions with very different tail shapes and requires the
// estimate to land near the exact sample quantile. P² is an
// approximation; the tolerance is relative to the distribution's spread.
func TestP2TracksKnownDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := []struct {
		name string
		gen  func() float64
		tol  float64 // relative to the exact quantile
	}{
		{"uniform", func() float64 { return rng.Float64() * 1000 }, 0.05},
		{"exponential", func() float64 { return rng.ExpFloat64() * 10 }, 0.15},
		{"bimodal", func() float64 {
			if rng.Float64() < 0.9 {
				return 1 + rng.Float64()
			}
			return 100 + rng.Float64()*10
		}, 0.15},
	}
	for _, c := range cases {
		for _, q := range []float64{0.5, 0.95, 0.99} {
			p := NewP2(q)
			xs := make([]float64, 0, 20000)
			for i := 0; i < 20000; i++ {
				x := c.gen()
				xs = append(xs, x)
				p.Observe(x)
			}
			got, want := p.Quantile(), exactQuantile(xs, q)
			if math.Abs(got-want) > c.tol*math.Abs(want) {
				t.Errorf("%s q=%v: estimate %.3f, exact %.3f (tol %.0f%%)", c.name, q, got, want, c.tol*100)
			}
		}
	}
}

// TestP2SmallSamples pins the bootstrap behavior: usable (nearest-rank)
// estimates before the five markers exist, zero with no data.
func TestP2SmallSamples(t *testing.T) {
	p := NewP2(0.99)
	if got := p.Quantile(); got != 0 {
		t.Fatalf("empty estimator quantile = %v, want 0", got)
	}
	if p.n != 0 {
		t.Fatalf("empty estimator count = %d", p.n)
	}
	p.Observe(7)
	if got := p.Quantile(); got != 7 {
		t.Fatalf("single-sample quantile = %v, want 7", got)
	}
	for _, x := range []float64{3, 9, 1, 5} {
		p.Observe(x)
	}
	// Five samples {1,3,5,7,9}: the markers are the sorted samples and
	// the middle marker is the median.
	if got := NewP2(0.5); true {
		for _, x := range []float64{7, 3, 9, 1, 5} {
			got.Observe(x)
		}
		if q := got.Quantile(); q != 5 {
			t.Fatalf("median of {1,3,5,7,9} = %v, want 5", q)
		}
	}
}

// TestP2ShiftingLoad checks the estimate follows a regime change — the
// property admission control actually relies on: when latencies jump,
// the p99 estimate must climb toward the new tail.
func TestP2ShiftingLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := NewP2(0.99)
	for i := 0; i < 5000; i++ {
		p.Observe(1 + rng.Float64()) // ~1-2ms regime
	}
	low := p.Quantile()
	if low > 3 {
		t.Fatalf("baseline p99 = %v, want ~2", low)
	}
	for i := 0; i < 50000; i++ {
		p.Observe(50 + rng.Float64()*10) // overloaded regime
	}
	if got := p.Quantile(); got < 40 {
		t.Errorf("post-shift p99 = %v, want it to climb toward 50-60", got)
	}
}
