package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/harness"
	"repro/internal/ml"
)

// Budgets as in production: on, but sized so that no built-in kernel ever
// exhausts them.
const (
	execSteps   = 4000000000
	execMem     = 268435456
	execTimeout = 10 * time.Second
	shards      = 2
)

var platforms = []string{"mc1", "mc2"}

// dirs locates everything the benchmark writes; all of it is inside the
// benchmark's own directory.
type dirs struct {
	bench string // the benchmark package directory
	build string // bench/.build: binaries, fixture, per-run temp dirs
	out   string // bench/out: results, traces, captured stderr
}

// locate checks that the process runs in the benchmark directory, where
// run.sh and `go run -C benchmark` leave it.
func locate() (dirs, error) {
	data, err := os.ReadFile("go.mod")
	if err != nil || !strings.HasPrefix(string(data), "module repro/benchmark") {
		return dirs{}, errors.New("run through benchmark/run.sh, or from the benchmark directory")
	}
	abs, err := filepath.Abs(".")
	if err != nil {
		return dirs{}, err
	}
	return dirs{bench: abs, build: filepath.Join(abs, ".build"), out: filepath.Join(abs, "out")}, nil
}

// buildServe compiles cmd/serve into .build/ (the Go build cache makes
// repeats cheap). Build time is not part of setup_s: it is reported on
// standard error.
func buildServe(ctx context.Context, d dirs) (string, error) {
	bin := filepath.Join(d.build, "serve")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "repro/cmd/serve")
	cmd.Dir = d.bench
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/serve: %w\n%s", err, out)
	}
	return bin, nil
}

// fixture is the deployment input of the serve workloads: the training
// database and one model artifact per platform.
type fixture struct {
	dir    string
	dbPath string
	models string
	db     *harness.DB
	arts   map[string]*ml.Artifact
}

// loadFixture returns the database and model artifacts, generating them on
// first use. They are a pure function of the source tree, so they are a
// build product: cached in .build/ under a hash of this executable (any
// code change rebuilds them) and, like the build, not counted in setup_s.
// The cost of producing them is what offline-train measures.
func loadFixture(d dirs) (*fixture, error) {
	key, err := selfHash()
	if err != nil {
		return nil, err
	}
	fx := &fixture{dir: filepath.Join(d.build, "fixture-"+key)}
	fx.dbPath = filepath.Join(fx.dir, "db.json")
	fx.models = filepath.Join(fx.dir, "models")
	if _, err := os.Stat(filepath.Join(fx.dir, "ok")); err != nil {
		old, _ := filepath.Glob(filepath.Join(d.build, "fixture-*"))
		for _, o := range old {
			os.RemoveAll(o)
		}
		if err := generateFixture(fx); err != nil {
			os.RemoveAll(fx.dir)
			return nil, err
		}
	}
	if fx.db, err = harness.LoadDB(fx.dbPath); err != nil {
		return nil, err
	}
	fx.arts = make(map[string]*ml.Artifact)
	for _, p := range platforms {
		if fx.arts[p], err = ml.LoadArtifact(engine.ArtifactPath(fx.models, p, "")); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// generateFixture is one repetition of the training phase, kept: the
// database is saved next to the artifacts the repetition wrote.
func generateFixture(fx *fixture) error {
	start := time.Now()
	if err := os.MkdirAll(fx.models, 0o755); err != nil {
		return err
	}
	rep, err := runTrainRep(fx.models)
	if err != nil {
		return err
	}
	if err := rep.db.Save(fx.dbPath); err != nil {
		return err
	}
	logf("fixture: database and models generated in %.1fs", time.Since(start).Seconds())
	return os.WriteFile(filepath.Join(fx.dir, "ok"), nil, 0o644)
}

func selfHash() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// server is one cmd/serve child.
type server struct {
	cmd    *exec.Cmd
	base   string        // http://127.0.0.1:port
	stderr string        // file the child's stderr is captured in
	exited chan struct{} // closed once the child has been waited for
}

// startServer launches a fresh cmd/serve on a free loopback port with the
// production flag set and waits until /healthz answers. tmp holds the
// observation log and the captured stderr.
func startServer(ctx context.Context, bin string, fx *fixture, tmp string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	s := &server{base: "http://" + addr, stderr: filepath.Join(tmp, "serve-stderr.log"), exited: make(chan struct{})}
	errFile, err := os.Create(s.stderr)
	if err != nil {
		return nil, err
	}
	defer errFile.Close()
	s.cmd = exec.Command(bin,
		"-addr", addr,
		"-platforms", strings.Join(platforms, ","),
		"-shards", strconv.Itoa(shards),
		"-db", fx.dbPath,
		"-models", fx.models,
		"-obs", filepath.Join(tmp, "obslog"),
		"-exec-steps", strconv.Itoa(execSteps),
		"-exec-mem", strconv.Itoa(execMem),
		"-exec-timeout", execTimeout.String(),
	)
	s.cmd.Env = append(scrubbedEnv(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	s.cmd.Stderr = errFile
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.cmd.Wait() // the exit status of a child that was told to stop says nothing
		close(s.exited)
	}()

	deadline := time.Now().Add(20 * time.Second)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("cmd/serve exited during start-up; its stderr:\n%s", s.readStderr())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("cmd/serve did not answer /healthz within 20s")
		}
	}
}

// scrubbedEnv is the environment without the knobs that change which
// execution tier serves.
func scrubbedEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "REPRO_EXEC_TIER=") || strings.HasPrefix(kv, "REPRO_VEC_V1=") || strings.HasPrefix(kv, "GOMAXPROCS=") {
			continue
		}
		env = append(env, kv)
	}
	return env
}

// stop asks the child to drain and exit, kills it if it does not within
// five seconds, and returns once it has ended.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) readStderr() string {
	data, _ := os.ReadFile(s.stderr)
	return string(data)
}

// keepStderr copies the child's captured stderr to out/ so a failed run
// leaves evidence after the temp dir is removed.
func (s *server) keepStderr(d dirs, workload string) {
	if os.MkdirAll(d.out, 0o755) != nil {
		return
	}
	dst := filepath.Join(d.out, "serve-stderr-"+workload+".log")
	if os.WriteFile(dst, []byte(s.readStderr()), 0o644) == nil {
		logf("cmd/serve stderr kept in %s", dst)
	}
}

// clockTick is USER_HZ, which Linux fixes at 100 for /proc on every
// architecture Go supports.
const clockTick = 100

// procCPUSeconds reads a process's user+system CPU time from
// /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// serveStats is the part of GET /stats the benchmark reads.
type serveStats struct {
	Shards []fleet.ShardStats `json:"shards"`
}

// counters are the /stats sums the correctness gate and the ladder use.
type counters struct {
	admitted, shed            uint64
	compiles, featureComputes uint64
	executions                uint64
	observed, obsDropped      uint64
	vecDivergences, vecBails  uint64
}

func sumCounters(shards []fleet.ShardStats) counters {
	var c counters
	for _, sh := range shards {
		c.admitted += sh.Admitted
		c.shed += sh.Shed
		c.compiles += sh.Engine.Compiles
		c.featureComputes += sh.Engine.FeatureComputes
		c.executions += sh.Engine.Executions
		c.observed += sh.Engine.Observations
		c.obsDropped += sh.Engine.ObservationsDropped
		c.vecDivergences += sh.Engine.VecDivergences
		c.vecBails += sh.Engine.VecScalarBails
	}
	return c
}

func (s *server) counters() (counters, error) {
	resp, err := http.Get(s.base + "/stats")
	if err != nil {
		return counters{}, err
	}
	defer resp.Body.Close()
	var st serveStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return counters{}, fmt.Errorf("/stats: %w", err)
	}
	return sumCounters(st.Shards), nil
}
