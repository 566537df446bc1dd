package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/wire"
)

// clientCount is the closed loop's width: callers of this service are
// runtimes that wait for the partitioning before launching, so each client
// sends its next request only when the previous one has answered. One
// client per core up to four keeps the server busy without a queue of the
// generator's own making.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	http *http.Client
	buf  bytes.Buffer
}

func newClients(n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{http: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		}}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.http.CloseIdleConnections()
	}
}

// do sends one request, times it until the whole response has been read,
// then checks the answer against the cell's expected one. A non-nil error
// is a failed operation.
func (c *client) do(ctx context.Context, base string, r *request, cells []cell) (time.Duration, error) {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	hr, err := http.NewRequestWithContext(ctx, r.Method, base+r.URL, body)
	if err != nil {
		return 0, err
	}
	if r.Body != nil {
		hr.Header.Set("Content-Type", wire.ContentType)
	}
	hr.Header.Set("X-Tenant", cells[r.Cell].Tenant)

	start := time.Now()
	resp, err := c.http.Do(hr)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("%s %s: status %d: %.200s", r.Method, r.URL, resp.StatusCode, c.buf.Bytes())
	}
	return lat, checkAnswer(r, cells, c.buf.Bytes())
}

// checkAnswer decodes a response body and compares it with the expected
// answer of every cell the request covered.
func checkAnswer(r *request, cells []cell, body []byte) error {
	switch r.Route {
	case routeJSONPredict, routeExecute:
		var x engine.Execution
		if err := json.Unmarshal(body, &x); err != nil {
			return fmt.Errorf("%s: %w", r.URL, err)
		}
		if r.Route == routeExecute {
			if !x.Verified {
				return fmt.Errorf("%s: verified:false: %s", r.URL, x.VerifyError)
			}
			return cells[r.Cell].matches(&x.Prediction, x.Makespan)
		}
		return cells[r.Cell].matches(&x.Prediction, x.PredictedTime)
	case routeWirePredict:
		msg, payload, err := wire.ParseFrame(body)
		if err != nil {
			return err
		}
		if msg != wire.MsgPredictResp {
			return fmt.Errorf("%s: wire message %d, want %d", r.URL, msg, wire.MsgPredictResp)
		}
		var p engine.Prediction
		if err := wire.DecodePrediction(payload, &p); err != nil {
			return err
		}
		return cells[r.Cell].matches(&p, p.PredictedTime)
	case routeWireBatch:
		msg, payload, err := wire.ParseFrame(body)
		if err != nil {
			return err
		}
		if msg != wire.MsgBatchResp {
			return fmt.Errorf("%s: wire message %d, want %d", r.URL, msg, wire.MsgBatchResp)
		}
		items, errs, err := wire.DecodeBatchResponse(payload)
		if err != nil {
			return err
		}
		if errs != 0 || len(items) != len(r.Points) {
			return fmt.Errorf("%s: %d items with %d errors, want %d with none", r.URL, len(items), errs, len(r.Points))
		}
		for i := range items {
			if err := cells[r.Points[i]].matches(&items[i].Pred, items[i].Pred.PredictedTime); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown route %d", r.Route)
}

// matches compares a served prediction with the cell's expected answer;
// served is predictedTime for /predict and makespan for /execute. The
// simulated times are deterministic, so equality is exact.
func (c *cell) matches(p *engine.Prediction, served float64) error {
	if p.Program != c.Program || p.SizeIdx != c.Size || p.Platform != c.Platform {
		return fmt.Errorf("asked for %s/%s/S%d, answered %s/%s/S%d", c.Platform, c.Program, c.Size, p.Platform, p.Program, p.SizeIdx)
	}
	if p.Class != c.Class || p.Partition != c.Partition || served != c.Time || p.OracleTime != c.Oracle {
		return fmt.Errorf("%s/%s/S%d: served class %d (%s) time %g oracle %g, expected class %d (%s) time %g oracle %g",
			c.Platform, c.Program, c.Size, p.Class, p.Partition, served, p.OracleTime, c.Class, c.Partition, c.Time, c.Oracle)
	}
	return nil
}

// sample is one completed request of the timed window.
type sample struct {
	req int32   // index into the base multiset
	ms  float64 // latency
}

// segmentStat is what one segment contributes to the medians.
type segmentStat struct {
	n        int
	wallS    float64
	cpuS     float64
	p50, p95 float64
	tailP    float64 // the percentile p95 actually is, by the ten-beyond rule
}

// runSegment plays one segment through the closed loop and returns its
// samples. Clients pull the next request from a shared cursor, so the
// segment ends when every request has answered.
func runSegment(ctx context.Context, clients []*client, base string, reqs []request, order []int32, cells []cell, fails *failLog) []sample {
	var cursor atomic.Int64
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := make([]sample, 0, len(order)/len(clients)+16)
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(order) {
					break
				}
				ri := order[i]
				lat, err := c.do(ctx, base, &reqs[ri], cells)
				if err != nil {
					fails.add(err)
					continue
				}
				mine = append(mine, sample{req: ri, ms: float64(lat) / float64(time.Millisecond)})
			}
			per[ci] = mine
		}()
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// failLog counts failed operations and keeps the first few messages.
type failLog struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (f *failLog) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.first) < 5 {
		f.first = append(f.first, err.Error())
	}
}

// window is everything one timed serve window measured.
type window struct {
	cells     []cell
	base      []request
	setupS    []float64 // one entry per set-up repetition
	segments  []segmentStat
	samples   []sample // all segments pooled
	attempted int
	failed    int
	rssMB     float64
	before    counters
	after     counters
}

// measureServe runs a serve workload's set-up repetitions and timed
// window against a fresh cmd/serve child and returns the raw
// measurements. The child is stopped and its temp dir removed on every
// path.
func measureServe(ctx context.Context, env *runEnv, workload string, seed int64, seconds float64, setupReps int) (*window, error) {
	cells, err := buildCells(workload, seed, env.fx)
	if err != nil {
		return nil, err
	}
	w := &window{cells: cells, base: buildBase(workload, cells, seed)}
	clients := newClients(clientCount())
	defer closeClients(clients)
	fails := &failLog{}

	warm := warmRequests(workload, cells)
	warmOrder := make([]int32, len(warm))
	for i := range warmOrder {
		warmOrder[i] = int32(i)
	}

	var srv *server
	var tmp string
	cleanup := func() {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		if tmp != "" {
			os.RemoveAll(tmp)
			tmp = ""
		}
	}
	defer cleanup()
	for rep := 0; rep < setupReps; rep++ {
		cleanup()
		start := time.Now()
		if tmp, err = os.MkdirTemp(env.dirs.build, "run-"); err != nil {
			return nil, err
		}
		if srv, err = startServer(ctx, env.serveBin, env.fx, tmp); err != nil {
			return nil, err
		}
		runSegment(ctx, clients, srv.base, warm, warmOrder, cells, fails)
		w.setupS = append(w.setupS, time.Since(start).Seconds())
		if fails.n > 0 {
			srv.keepStderr(env.dirs, workload)
			return nil, fmt.Errorf("warm pass: %d failed, first: %v", fails.n, fails.first)
		}
	}

	if w.before, err = srv.counters(); err != nil {
		return nil, err
	}
	pid := srv.cmd.Process.Pid
	cpu0, err := procCPUSeconds(pid)
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	for seg := 0; seg < 3 || time.Since(begin).Seconds() < seconds; seg++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		order := segmentOrder(len(w.base), seed, seg)
		t0 := time.Now()
		ss := runSegment(ctx, clients, srv.base, w.base, order, cells, fails)
		wall := time.Since(t0).Seconds()
		cpu1, err := procCPUSeconds(pid)
		if err != nil {
			return nil, err
		}
		w.attempted += len(order)
		lats := make([]float64, len(ss))
		for i, s := range ss {
			lats[i] = s.ms
		}
		p95, tailP := tailPercentile(lats, 0.95)
		w.segments = append(w.segments, segmentStat{n: len(ss), wallS: wall, cpuS: cpu1 - cpu0, p50: median(lats), p95: p95, tailP: tailP})
		w.samples = append(w.samples, ss...)
		cpu0 = cpu1
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	w.failed = fails.n
	if w.after, err = srv.counters(); err != nil {
		return nil, err
	}
	if w.rssMB, err = peakRSSMB(pid); err != nil {
		return nil, err
	}
	if w.failed > 0 {
		srv.keepStderr(env.dirs, workload)
		return nil, fmt.Errorf("%d of %d operations failed, first: %v", w.failed, w.attempted, fails.first)
	}
	return w, w.gate()
}

// gate enforces what must be zero in a timed window: recompilation or
// re-profiling of a warm cell, load shedding, and dropped observations.
func (w *window) gate() error {
	rework := (w.after.compiles - w.before.compiles) + (w.after.featureComputes - w.before.featureComputes)
	shed := w.after.shed - w.before.shed
	dropped := w.after.obsDropped - w.before.obsDropped
	if rework != 0 || shed != 0 || dropped != 0 {
		return fmt.Errorf("timed window not clean: engine.rework=%d fleet shed=%d obs dropped=%d (all must be 0)", rework, shed, dropped)
	}
	return nil
}

// segmentMedian is the median over segments of one per-segment statistic.
func (w *window) segmentMedian(stat func(segmentStat) float64) float64 {
	v := make([]float64, len(w.segments))
	for i, s := range w.segments {
		v[i] = stat(s)
	}
	return median(v)
}

// oracleEff is the mean over the platform's cells of oracleTime over the
// served time. Every response was checked against the cell's expected
// answer, so the expected table is what was served.
func (w *window) oracleEff(platform string) float64 {
	var v []float64
	for _, c := range w.cells {
		if c.Platform == platform {
			v = append(v, c.Oracle/c.Time)
		}
	}
	return mean(v)
}

// endToEnd turns a window into the end-to-end metric values.
func (w *window) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":        median(w.setupS),
		"cpu_ms_per_op":  w.segmentMedian(func(s segmentStat) float64 { return s.cpuS * 1000 / float64(s.n) }),
		"peak_rss_mb":    w.rssMB,
		"oracle_eff_mc1": w.oracleEff("mc1"),
		"oracle_eff_mc2": w.oracleEff("mc2"),
	}
}

// describe reports the sample counts behind the medians on standard error.
func (w *window) describe(workload string) {
	n := make([]int, len(w.segments))
	for i, s := range w.segments {
		n[i] = s.n
	}
	sort.Ints(n)
	tail := 0.0
	if len(w.segments) > 0 {
		tail = w.segments[0].tailP
	}
	logf("%s: %d cells, %d clients, %d set-ups, %d segments of %d requests (%d samples), tail percentile p%.1f",
		workload, len(w.cells), clientCount(), len(w.setupS), len(w.segments), n[len(n)/2], len(w.samples), tail*100)
}

// runServe is a serve workload's --trace 0 run.
func runServe(ctx context.Context, env *runEnv, workload string, seed int64, seconds float64) (*result, error) {
	w, err := measureServe(ctx, env, workload, seed, seconds, setupRepetitions)
	if err != nil {
		return nil, err
	}
	w.describe(workload)
	return &result{Correct: true, Attempted: w.attempted, Failed: w.failed, Metrics: fill(endToEnd, w.endToEnd())}, nil
}
