package sched

// P2 is the P² (P-squared) single-quantile estimator of Jain & Chlamtac
// (CACM 1985): a constant-space running estimate of an arbitrary
// quantile, maintained with five markers whose heights are adjusted by
// piecewise-parabolic interpolation as observations stream in. The
// serving layer uses it to track a moving p99 latency per shard without
// retaining a latency window — admission control compares the estimate
// against its target on every accept decision, so the estimator must be
// O(1) per observation and allocation-free after construction.
//
// Not safe for concurrent use; callers serialize Observe (admission
// control samples under the shard's estimator lock and republishes the
// quantile through an atomic).
type P2 struct {
	q float64 // the tracked quantile, e.g. 0.99

	// h are the marker heights, pos their integer positions (1-based as
	// in the paper), want the desired positions, and step the desired-
	// position increments per observation.
	h    [5]float64
	pos  [5]float64
	want [5]float64
	step [5]float64

	n int // observations seen
}

// NewP2 returns an estimator for the q-quantile, 0 < q < 1.
func NewP2(q float64) *P2 {
	p := &P2{q: q}
	p.step = [5]float64{0, q / 2, q, (1 + q) / 2, 1}
	return p
}

// Observe absorbs one sample.
func (p *P2) Observe(x float64) {
	if p.n < 5 {
		// Bootstrap: collect the first five samples sorted.
		i := p.n
		for i > 0 && p.h[i-1] > x {
			p.h[i] = p.h[i-1]
			i--
		}
		p.h[i] = x
		p.n++
		if p.n == 5 {
			p.pos = [5]float64{1, 2, 3, 4, 5}
			p.want = [5]float64{1, 1 + 2*p.q, 1 + 4*p.q, 3 + 2*p.q, 5}
		}
		return
	}
	p.n++

	// Find the cell k with h[k] <= x < h[k+1], clamping outliers into
	// the extreme markers.
	var k int
	switch {
	case x < p.h[0]:
		p.h[0] = x
		k = 0
	case x >= p.h[4]:
		p.h[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < p.h[k+1] {
				break
			}
		}
	}

	for i := k + 1; i < 5; i++ {
		p.pos[i]++
	}
	for i := range p.want {
		p.want[i] += p.step[i]
	}

	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := p.want[i] - p.pos[i]
		if (d >= 1 && p.pos[i+1]-p.pos[i] > 1) || (d <= -1 && p.pos[i-1]-p.pos[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1.0
			}
			h := p.parabolic(i, s)
			if p.h[i-1] < h && h < p.h[i+1] {
				p.h[i] = h
			} else {
				p.h[i] = p.linear(i, s)
			}
			p.pos[i] += s
		}
	}
}

// parabolic is the piecewise-parabolic (P²) height prediction for moving
// marker i by s (±1).
func (p *P2) parabolic(i int, s float64) float64 {
	num1 := p.pos[i] - p.pos[i-1] + s
	num2 := p.pos[i+1] - p.pos[i] - s
	return p.h[i] + s/(p.pos[i+1]-p.pos[i-1])*
		(num1*(p.h[i+1]-p.h[i])/(p.pos[i+1]-p.pos[i])+
			num2*(p.h[i]-p.h[i-1])/(p.pos[i]-p.pos[i-1]))
}

// linear is the fallback height prediction when the parabolic one would
// leave the markers unordered.
func (p *P2) linear(i int, s float64) float64 {
	j := i + int(s)
	return p.h[i] + s*(p.h[j]-p.h[i])/(p.pos[j]-p.pos[i])
}

// Quantile returns the current estimate. Before five observations it
// falls back to the nearest-rank quantile of the samples seen so far
// (zero with no samples at all), so early readings are usable rather
// than garbage.
func (p *P2) Quantile() float64 {
	if p.n == 0 {
		return 0
	}
	if p.n < 5 {
		i := int(p.q * float64(p.n-1))
		return p.h[i]
	}
	return p.h[2]
}
