// Command benchmark is the repository's benchmark: four workloads from
// offline training to served execution, end-to-end metrics with tracing
// off and a per-layer ladder from a traced in-process replay. README.md in
// this directory is the metric dictionary; BENCHMARK.json at the
// repository root is the contract with the driver.
//
// Usage (from the repository root):
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh [-seed N] [-seconds S] [-repeat R]
//	bash benchmark/run.sh -compare old.json new.json
//
// (run.sh is `go run .` in this directory, which is its own module.)
//
// The first form is what the driver runs: one workload, one JSON result
// as the last line of standard output. The second runs every workload R
// times with tracing off, then once traced, and writes the whole document
// to out/. The third judges two such documents against the bounds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupRepetitions is how often a --trace 0 run sets the workload up; the
// reported setup_s is the median.
const setupRepetitions = 3

// runEnv is what every workload run shares.
type runEnv struct {
	dirs     dirs
	serveBin string
	fx       *fixture
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "run one workload and print its result line: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same request lists")
	seconds := flag.Float64("seconds", 12, "length of each timed window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay")
	repeat := flag.Int("repeat", 1, "without -workload: how many sets of end-to-end runs to produce")
	compare := flag.Bool("compare", false, "compare two result documents: -compare old.json new.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result documents"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *workload != "" && !knownWorkload(*workload) {
		fatal(fmt.Errorf("unknown workload %q (want %s)", *workload, workloadNames()))
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || *repeat < 1 {
		fatal(errors.New("need --trace 0 or 1, --seconds > 0, -repeat >= 1"))
	}

	// The tier knobs change what is measured; the served configuration is
	// the default one.
	os.Unsetenv("REPRO_EXEC_TIER")
	os.Unsetenv("REPRO_VEC_V1")

	// Children and temp dirs are cleaned up by the deferred calls of the
	// functions that made them, so SIGINT cancels the context and lets the
	// stack unwind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env, err := prepare(ctx, *workload != "" && *workload != wlTrain)
	if err != nil {
		fatal(err)
	}
	if *workload != "" {
		res, err := runWorkload(ctx, env, *workload, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		return
	}
	if err := runAll(ctx, env, *seed, *seconds, *repeat); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	logf("%v", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// prepare locates the benchmark's directories and, for a serve workload,
// builds cmd/serve and loads (or generates) the fixture. Neither is part
// of any workload's setup_s; both are logged.
func prepare(ctx context.Context, serve bool) (*runEnv, error) {
	d, err := locate()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(d.build, 0o755); err != nil {
		return nil, err
	}
	env := &runEnv{dirs: d}
	if !serve {
		return env, nil
	}
	start := time.Now()
	if env.serveBin, err = buildServe(ctx, d); err != nil {
		return nil, err
	}
	built := time.Now()
	if env.fx, err = loadFixture(d); err != nil {
		return nil, err
	}
	logf("build %.1fs, fixture %.1fs", built.Sub(start).Seconds(), time.Since(built).Seconds())
	return env, nil
}

// runWorkload is one driver-contract run.
func runWorkload(ctx context.Context, env *runEnv, workload string, seed int64, seconds float64, traced bool) (*result, error) {
	switch {
	case workload == wlTrain && traced:
		return traceTrain(ctx, env, seed, seconds)
	case workload == wlTrain:
		return runTrain(ctx, env, seconds)
	case traced:
		return traceServe(ctx, env, workload, seed, seconds)
	}
	return runServe(ctx, env, workload, seed, seconds)
}

// environment is recorded with every result document.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
}

func recordEnvironment(d dirs, seed int64, seconds float64) environment {
	e := environment{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown", Seed: seed, Seconds: seconds, Clients: clientCount(),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = d.bench
	if out, err := cmd.Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return e
}

// document is what the all-workloads mode writes and -compare reads: the
// environment, one set of end-to-end results per repetition, and the
// per-layer results of the traced runs.
type document struct {
	Environment environment          `json:"environment"`
	Sets        []map[string]*result `json:"sets"`
	Layers      map[string]*result   `json:"layers"`
}

// runAll runs every workload with tracing off `repeat` times (set i uses
// seed+i), then once traced, prints the document and writes it to out/.
// Each run is a child process of this executable invoked exactly as the
// driver invokes it, so peak memory and caches never leak between runs.
func runAll(ctx context.Context, env *runEnv, seed int64, seconds float64, repeat int) error {
	doc := document{Environment: recordEnvironment(env.dirs, seed, seconds), Layers: map[string]*result{}}
	for i := 0; i < repeat; i++ {
		set := map[string]*result{}
		for _, w := range workloads {
			res, err := runChild(ctx, w.Name, seed+int64(i), seconds, 0)
			if err != nil {
				return err
			}
			set[w.Name] = res
		}
		doc.Sets = append(doc.Sets, set)
	}
	for _, w := range workloads {
		res, err := runChild(ctx, w.Name, seed, seconds, 1)
		if err != nil {
			return err
		}
		doc.Layers[w.Name] = res
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.MkdirAll(env.dirs.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(env.dirs.out, fmt.Sprintf("bench-seed%d-%s.json", seed, time.Now().UTC().Format("20060102-150405")))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	os.Stdout.Write(data)
	logf("written to %s", path)
	return nil
}

// runChild runs one workload in a child process and parses the result line
// it prints last.
func runChild(ctx context.Context, workload string, seed int64, seconds float64, trace int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	// SIGINT reaches the child through the process group; give it time to
	// stop its own server before the context's kill.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 15 * time.Second
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %d): %w", workload, seed, trace, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s (seed %d, trace %d): result line: %w", workload, seed, trace, err)
	}
	return &res, nil
}
