package main

import (
	"fmt"
	"math/rand"
	"net/url"

	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/wire"
)

const (
	tenants   = 8
	batchSize = 64
)

// cell is one (program, size, platform) the workload visits, bound by the
// seed to a tenant so it always routes to the same shard, with the answer
// the service must give for it.
type cell struct {
	Program  string
	Size     int
	Platform string
	Tenant   string

	// Expected answer, computed from the fixture alone: the artifact's
	// class for the record's features, and that class's priced time. The
	// same number is /predict's predictedTime and /execute's makespan.
	Class     int
	Partition string
	Time      float64
	Oracle    float64
}

// route is how a request reaches the service.
type route uint8

const (
	routeJSONPredict route = iota
	routeWirePredict
	routeWireBatch
	routeExecute
)

// request is one prebuilt operation: everything the client sends is fixed
// before the clock starts.
type request struct {
	Cell   int32   // the cell the request is for (the first point of a batch)
	Points []int32 // batch only: the cells of all 64 points
	Route  route
	Method string
	URL    string // path and query, without the server's base
	Body   []byte
}

// workloadSizes are the size indices a serve workload visits. A warm
// /predict costs the same at every size, so predict-serve leaves out the
// two largest, whose first-touch profiling would only lengthen set-up. At
// indices 2-3 the kernel is already about three quarters of an
// engine.Execute call (exec.kernel_share), at half the cost per request of
// indices 3-4, so the timed window holds twice the segments.
func workloadSizes(workload string) []int {
	switch workload {
	case wlPredict:
		return []int{0, 1, 2, 3}
	case wlSmall:
		return []int{0, 1}
	case wlLarge:
		return []int{2, 3}
	}
	return nil
}

// visitsPerSegment is how often one segment visits every cell: segments of
// one to two seconds, with as close to the 200 requests a p95 needs (ten
// samples beyond it) as the request rate allows.
func visitsPerSegment(workload string) int {
	switch workload {
	case wlPredict:
		return 10
	case wlSmall:
		return 3
	}
	return 2
}

// buildCells lists the workload's cells with their expected answers. The
// seed only binds cells to tenants.
func buildCells(workload string, seed int64, fx *fixture) ([]cell, error) {
	rng := rand.New(rand.NewSource(seed))
	var cells []cell
	for _, p := range bench.All() {
		for _, sz := range workloadSizes(workload) {
			if sz >= len(p.Sizes) {
				continue
			}
			for _, plat := range platforms {
				rec := fx.db.Find(plat, p.Name, sz)
				if rec == nil {
					return nil, fmt.Errorf("fixture has no record for %s/%s/S%d", plat, p.Name, sz)
				}
				cls := fx.arts[plat].Predict(rec.Features)
				if cls < 0 || cls >= len(rec.Times) {
					cls = 0
				}
				cells = append(cells, cell{
					Program: p.Name, Size: sz, Platform: plat,
					Tenant: fmt.Sprintf("t%d", rng.Intn(tenants)),
					Class:  cls, Partition: fx.db.Space[cls],
					Time: rec.Times[cls], Oracle: rec.OracleTime,
				})
			}
		}
	}
	return cells, nil
}

func instanceBytes(inst *bench.Instance) int64 {
	var n int64
	for _, a := range inst.Args {
		if a.Buf != nil {
			n += a.Buf.Bytes()
		}
	}
	return n
}

// buildBase builds the request multiset of one segment: every cell visited
// k times, each visit's route drawn from the seed. Every segment replays
// exactly this multiset in its own order, so all segments — and all
// commits — do identical work.
func buildBase(workload string, cells []cell, seed int64) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	// A batch carries points of one (platform, tenant) only, because the
	// whole request routes to that pair's shard and must find them warm.
	group := make(map[string][]int32)
	for i, c := range cells {
		key := c.Platform + "/" + c.Tenant
		group[key] = append(group[key], int32(i))
	}
	k := visitsPerSegment(workload)
	base := make([]request, 0, len(cells)*k)
	for i := range cells {
		for v := 0; v < k; v++ {
			rt := routeExecute
			if workload == wlPredict {
				switch x := rng.Float64(); {
				case x < 0.6:
					rt = routeJSONPredict
				case x < 0.8:
					rt = routeWirePredict
				default:
					rt = routeWireBatch
				}
			}
			var points []int32
			if rt == routeWireBatch {
				members := group[cells[i].Platform+"/"+cells[i].Tenant]
				points = make([]int32, batchSize)
				points[0] = int32(i)
				for j := 1; j < batchSize; j++ {
					points[j] = members[rng.Intn(len(members))]
				}
			}
			base = append(base, newRequest(cells, int32(i), rt, points))
		}
	}
	return base
}

// warmRequests is the untimed pass before the clock starts: every cell
// once, as a single-point request of the workload's kind, so compile,
// profile and model load are paid up front.
func warmRequests(workload string, cells []cell) []request {
	rt := routeExecute
	if workload == wlPredict {
		rt = routeJSONPredict
	}
	warm := make([]request, len(cells))
	for i := range cells {
		warm[i] = newRequest(cells, int32(i), rt, nil)
	}
	return warm
}

// newRequest prebuilds one request for cell i; points lists a batch's
// cells (points[0] == i).
func newRequest(cells []cell, i int32, rt route, points []int32) request {
	c := &cells[i]
	r := request{Cell: i, Points: points, Route: rt}
	q := url.Values{"platform": {c.Platform}}
	switch rt {
	case routeJSONPredict, routeExecute:
		q.Set("program", c.Program)
		q.Set("size", fmt.Sprint(c.Size))
		r.Method, r.URL = "GET", "/predict?"+q.Encode()
		if rt == routeExecute {
			r.Method, r.URL = "POST", "/execute?"+q.Encode()
		}
	case routeWirePredict:
		r.Method, r.URL = "POST", "/predict?"+q.Encode()
		r.Body = wire.AppendPredictRequest(nil, &engine.Request{Program: c.Program, SizeIdx: c.Size})
	case routeWireBatch:
		reqs := make([]engine.Request, len(points))
		for j, pi := range points {
			reqs[j] = engine.Request{Program: cells[pi].Program, SizeIdx: cells[pi].Size}
		}
		r.Method, r.URL = "POST", "/predict/batch?"+q.Encode()
		r.Body = wire.AppendBatchRequest(nil, reqs)
	}
	return r
}

// segmentOrder is segment i's visiting order: a permutation of the base
// multiset that depends only on the seed and i.
func segmentOrder(n int, seed int64, i int) []int32 {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
	order := make([]int32, n)
	for j := range order {
		order[j] = int32(j)
	}
	rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
	return order
}
