package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean; 0 for no samples.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// geomean returns the geometric mean of the positive values in v; 0 when
// there are none.
func geomean(v []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range v {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// supportedPercentile lowers the wanted percentile until at least ten of
// the n samples lie beyond it, never below the median: a tail estimate
// resting on fewer samples than that is noise.
func supportedPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 0.5
	}
	if p := 1 - 10/float64(n); p < want {
		want = p
	}
	if want < 0.5 {
		want = 0.5
	}
	return want
}

// percentile returns the p-quantile (0..1) of v by the nearest-rank rule.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailPercentile returns the highest percentile up to want that the sample
// count supports, and which percentile that was.
func tailPercentile(v []float64, want float64) (value, p float64) {
	p = supportedPercentile(len(v), want)
	if p == 0.5 {
		return median(v), p
	}
	return percentile(v, p), p
}

// quartiles returns the first quartile, median and third quartile with the
// exclusive method Python's statistics.quantiles(v, n=4) uses, which is
// what the driver applies to a set of runs. Fewer than two values have no
// spread: all three are the single value.
func quartiles(v []float64) (q1, q2, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}
