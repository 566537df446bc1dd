package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	if got := geomean([]float64{0, 4, 9}); !near(got, 6) {
		t.Errorf("geomean must skip non-positive values: got %v, want 6", got)
	}
}

func TestSegmentMedian(t *testing.T) {
	// One slow segment among five must not move the reported statistic.
	w := &window{segments: []segmentStat{
		{n: 100, wallS: 1.0}, {n: 100, wallS: 1.02}, {n: 100, wallS: 5.0}, {n: 100, wallS: 0.98}, {n: 100, wallS: 1.01},
	}}
	got := w.segmentMedian(func(s segmentStat) float64 { return float64(s.n) / s.wallS })
	if !near(got, 100/1.01) {
		t.Errorf("segment median ops/s = %v, want %v", got, 100/1.01)
	}
}

func TestTenSamplesBeyondRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		p    float64
	}{
		{1000, 0.99, 0.99}, // exactly ten beyond p99
		{999, 0.99, 1 - 10.0/999},
		{200, 0.95, 0.95},
		{184, 0.95, 1 - 10.0/184},
		{19, 0.95, 0.5}, // fewer than twenty samples support only the median
		{3, 0.95, 0.5},
		{0, 0.95, 0.5},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n, c.want); !near(got, c.p) {
			t.Errorf("supportedPercentile(%d, %v) = %v, want %v", c.n, c.want, got, c.p)
		}
	}
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got, p := tailPercentile(v, 0.95); got != 190 || p != 0.95 {
		t.Errorf("p95 of 1..200 = %v at p%v, want 190 at p0.95 (ten samples beyond)", got, p)
	}
	if got, p := tailPercentile([]float64{3, 1, 2}, 0.95); got != 2 || p != 0.5 {
		t.Errorf("tail of three samples = %v at p%v, want the median 2", got, p)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Reference values from statistics.quantiles(v, n=4).
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 3.5, 5.75},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},  // overlaps a: covered once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 4, Parent: 1, Name: "a.inner", Start: 15, End: 25},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	tot := layerTotals(spans)
	if tot["request"].Total != 100 || tot["request"].Self != 40 || tot["a"].Count != 1 {
		t.Errorf("layerTotals = %+v", tot)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", -1, 0)) // the untraced replay's path must be a no-op
}

func testCells() []cell {
	var cells []cell
	for _, prog := range []string{"vecadd", "matmul", "nbody", "histogram", "spmv"} {
		for sz := 0; sz < 4; sz++ {
			for pi, plat := range platforms {
				cells = append(cells, cell{Program: prog, Size: sz, Platform: plat, Tenant: []string{"t0", "t1", "t2"}[(sz+pi)%3]})
			}
		}
	}
	return cells
}

func TestRequestListIsAFunctionOfTheSeed(t *testing.T) {
	cells := testCells()
	a, b := buildBase(wlPredict, cells, 7), buildBase(wlPredict, cells, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed built two different request lists")
	}
	if reflect.DeepEqual(a, buildBase(wlPredict, cells, 8)) {
		t.Error("a different seed built the same request list")
	}
	if !reflect.DeepEqual(segmentOrder(len(a), 7, 3), segmentOrder(len(a), 7, 3)) {
		t.Error("the same seed and segment gave two different orders")
	}
	if reflect.DeepEqual(segmentOrder(len(a), 7, 3), segmentOrder(len(a), 7, 4)) {
		t.Error("two segments share one order")
	}

	// Every segment is a permutation of the same multiset: each cell k
	// times, whatever the routes drawn.
	visits := make(map[int32]int)
	routes := make(map[route]int)
	for _, ri := range segmentOrder(len(a), 7, 0) {
		visits[a[ri].Cell]++
		routes[a[ri].Route]++
	}
	for i := range cells {
		if visits[int32(i)] != visitsPerSegment(wlPredict) {
			t.Fatalf("cell %d visited %d times, want %d", i, visits[int32(i)], visitsPerSegment(wlPredict))
		}
	}
	if routes[routeJSONPredict] == 0 || routes[routeWirePredict] == 0 || routes[routeWireBatch] == 0 || routes[routeExecute] != 0 {
		t.Errorf("predict-serve route mix = %v", routes)
	}
	for _, r := range a {
		if r.Route != routeWireBatch {
			continue
		}
		if len(r.Points) != batchSize || r.Points[0] != r.Cell {
			t.Fatalf("batch of %d points starting at %d, want %d starting at %d", len(r.Points), r.Points[0], batchSize, r.Cell)
		}
		for _, pi := range r.Points {
			if cells[pi].Platform != cells[r.Cell].Platform || cells[pi].Tenant != cells[r.Cell].Tenant {
				t.Fatal("a batch mixes platforms or tenants, so it would route points to a cold shard")
			}
		}
	}
	for _, r := range buildBase(wlLarge, cells, 7) {
		if r.Route != routeExecute || r.Method != "POST" {
			t.Fatalf("execute workload built %s %s", r.Method, r.URL)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c * 0.995, c, c * 1.005, c * 1.01} }
	wide := func(c float64) []float64 { return []float64{c * 0.7, c * 0.85, c, c * 1.15, c * 1.3} }
	cases := []struct {
		name     string
		m        metricSpec
		old, new []float64
		want     string
	}{
		{"within the bound", lower, tight(100), tight(104), verdictSame},
		{"worse by more than the bound", lower, tight(100), tight(115), verdictWorse},
		{"better by more than the spread", lower, tight(100), tight(90), verdictBetter},
		{"higher-is-better drops", higher, tight(100), tight(85), verdictWorse},
		{"higher-is-better rises", higher, tight(100), tight(110), verdictBetter},
		{"spread wider than the bound", lower, wide(100), wide(104), verdictUnresolved},
		{"wide but every run better", lower, wide(100), wide(40), verdictBetter},
		{"wide but every run worse", lower, wide(100), wide(250), verdictWorse},
		{"single runs", lower, []float64{100}, []float64{120}, verdictWorse},
		{"exact repeat", higher, []float64{0.88, 0.88}, []float64{0.88, 0.88}, verdictSame},
	}
	for _, c := range cases {
		if got, _ := judge(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesTheDictionary keeps the driver's contract file in
// step with what the program reports.
func TestBenchmarkJSONMatchesTheDictionary(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the dictionary", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the dictionary %q", i, file.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: reason is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []jsonMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the dictionary", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the dictionary %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound) {
				t.Errorf("%s: bound differs from the dictionary's %v", m.Name, m.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
	largest := 0.0
	for _, m := range endToEnd {
		if m.Bound > largest {
			largest = m.Bound
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Bound != largest || largest > 0.25 {
		t.Errorf("setup_s must carry the largest bound, at most 0.25")
	}
}
