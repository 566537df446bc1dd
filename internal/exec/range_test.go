package exec

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomProfile builds a synthetic profile with nb <= global0 buckets (the
// invariant Run guarantees) and pseudo-random counts.
func randomProfile(rng *rand.Rand) *Profile {
	global0 := 1 + rng.Intn(5000)
	nb := 1 + rng.Intn(global0)
	if nb > 300 {
		nb = 1 + rng.Intn(300)
	}
	p := &Profile{Global0: global0, Buckets: make([]Counts, nb)}
	for b := range p.Buckets {
		c := &p.Buckets[b]
		c.Items = rng.Int63n(1000)
		c.IntOps = rng.Int63n(100000)
		c.FloatOps = rng.Int63n(100000)
		c.TransOps = rng.Int63n(5000)
		c.OtherBuiltins = rng.Int63n(5000)
		c.GlobalLoads = rng.Int63n(50000)
		c.GlobalStores = rng.Int63n(50000)
		c.LocalOps = rng.Int63n(20000)
		c.Branches = rng.Int63n(30000)
		c.Barriers = rng.Int63n(100)
		c.MaxItemOps = rng.Int63n(1 << 40)
	}
	return p
}

// rangeLinear is the reference Range is checked against: a scan over
// every bucket with the same exact remainder scheme.
func rangeLinear(p *Profile, lo, hi int) Counts {
	var out Counts
	if lo < 0 {
		lo = 0
	}
	if hi > p.Global0 {
		hi = p.Global0
	}
	if lo >= hi {
		return out
	}
	nb := len(p.Buckets)
	for b := 0; b < nb; b++ {
		bLo := b * p.Global0 / nb
		bHi := (b + 1) * p.Global0 / nb
		if bHi <= lo || bLo >= hi {
			continue
		}
		ovLo, ovHi := bLo, bHi
		if lo > ovLo {
			ovLo = lo
		}
		if hi < ovHi {
			ovHi = hi
		}
		c := &p.Buckets[b]
		if ovLo == bLo && ovHi == bHi {
			out.Add(c)
			continue
		}
		w := bHi - bLo
		part := c.scaleFloor(ovHi-bLo, w)
		low := c.scaleFloor(ovLo-bLo, w)
		part.subAdditive(&low)
		part.MaxItemOps = c.MaxItemOps
		out.Add(&part)
	}
	return out
}

// TestRangeMatchesLinearScan is the equivalence property test: Range,
// which scans only the buckets [lo, hi) overlaps, must agree bit-for-bit
// with the scan over every bucket on randomized profiles and ranges,
// including clamped, empty and partial-bucket ranges and MaxItemOps.
func TestRangeMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		p := randomProfile(rng)
		for q := 0; q < 50; q++ {
			lo := rng.Intn(p.Global0+100) - 50
			hi := rng.Intn(p.Global0+100) - 50
			got := p.Range(lo, hi)
			want := rangeLinear(p, lo, hi)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: Range(%d,%d) on %d buckets / %d items:\n got %+v\nwant %+v",
					trial, lo, hi, len(p.Buckets), p.Global0, got, want)
			}
		}
	}
}

// TestRangeWholeBucketExact checks the whole-bucket path: a range landing
// exactly on bucket boundaries must equal the exact integer sum of the
// covered buckets (the pre-existing contract, unchanged by the remainder
// scheme).
func TestRangeWholeBucketExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		p := randomProfile(rng)
		nb := len(p.Buckets)
		bLo := rng.Intn(nb)
		bHi := bLo + 1 + rng.Intn(nb-bLo)
		lo := bLo * p.Global0 / nb
		hi := bHi * p.Global0 / nb
		if lo >= hi {
			continue
		}
		var want Counts
		for b := bLo; b < bHi; b++ {
			want.Add(&p.Buckets[b])
		}
		got := p.Range(lo, hi)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Range over buckets [%d,%d): got %+v want %+v", trial, bLo, bHi, got, want)
		}
	}
}

// addMismatch reports the first additive field where a+b != c.
func addMismatch(t *testing.T, a, b, c Counts, label string) {
	t.Helper()
	sum := a
	sum.Add(&b)
	sum.MaxItemOps = c.MaxItemOps // additive conservation only
	if !reflect.DeepEqual(sum, c) {
		t.Fatalf("%s: sub-ranges %+v + %+v = %+v, want whole %+v", label, a, b, sum, c)
	}
}

// TestRangeSplitConservation is the regression test for the
// fractional-bucket rounding fix: cutting any range at any point must
// conserve every additive count exactly — Range(a,m) + Range(m,b) ==
// Range(a,b) — even when the cut lands inside a bucket. It checks both a
// real profiled kernel and synthetic profiles.
func TestRangeSplitConservation(t *testing.T) {
	// Real profile: a branchy kernel so buckets carry uneven counts.
	src := `kernel void tri(global const float* a, global float* o, int n) {
		int i = get_global_id(0);
		float s = 0.0;
		for (int j = 0; j < i % 37; j++) {
			s += a[(i + j) % n];
		}
		o[i] = s;
	}`
	c := compileSrc(t, src, "tri")
	n := 4096
	a, o := NewFloatBuffer(n), NewFloatBuffer(n)
	prof, err := c.Run([]Arg{BufArg(a), BufArg(o), IntArg(n)}, ND1(n), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	checkProfile := func(p *Profile, label string) {
		for q := 0; q < 200; q++ {
			lo := rng.Intn(p.Global0)
			hi := lo + 1 + rng.Intn(p.Global0-lo)
			mid := lo + rng.Intn(hi-lo+1)
			addMismatch(t, p.Range(lo, mid), p.Range(mid, hi), p.Range(lo, hi), label)
		}
		// Many-way split: sub-ranges over a random cut sequence must sum
		// to the total.
		cuts := []int{0}
		for x := rng.Intn(97); x < p.Global0; x += 1 + rng.Intn(97) {
			cuts = append(cuts, x)
		}
		cuts = append(cuts, p.Global0)
		var sum Counts
		for i := 1; i < len(cuts); i++ {
			part := p.Range(cuts[i-1], cuts[i])
			sum.Add(&part)
		}
		tot := p.Total()
		sum.MaxItemOps = tot.MaxItemOps
		if !reflect.DeepEqual(sum, tot) {
			t.Fatalf("%s: %d-way split sums to %+v, want %+v", label, len(cuts)-1, sum, tot)
		}
	}
	checkProfile(prof, "kernel profile")
	for trial := 0; trial < 50; trial++ {
		checkProfile(randomProfile(rng), "synthetic profile")
	}
}

// TestRangeTotalMatchesItemCount pins the end-to-end invariant the
// training pipeline relies on: the profile total over a full launch counts
// every work item exactly once.
func TestRangeTotalMatchesItemCount(t *testing.T) {
	c := compileSrc(t, vecaddSrc, "vecadd")
	for _, n := range []int{64, 1000, 4096, 5003} {
		a, b, o := NewFloatBuffer(n), NewFloatBuffer(n), NewFloatBuffer(n)
		prof, err := c.Run([]Arg{BufArg(a), BufArg(b), BufArg(o), IntArg(n)},
			NDRange{Global: [3]int{n, 1, 1}, Local: [3]int{1, 1, 1}}, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := prof.Total().Items; got != int64(n) {
			t.Errorf("n=%d: Total().Items = %d", n, got)
		}
		// And the items of disjoint thirds sum exactly (conservation).
		third := n / 3
		sum := prof.Range(0, third).Items + prof.Range(third, 2*third).Items + prof.Range(2*third, n).Items
		if sum != int64(n) {
			t.Errorf("n=%d: three-way item split sums to %d", n, sum)
		}
	}
}
