package obs

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"syscall"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden observation log")

// goldenLabels is a fixed set of label records spanning the format: a
// label with the full oracle vector, and one whose labeling execution
// failed verification. Time is zero so the golden bytes are
// deterministic.
func goldenLabels() []Observation {
	return []Observation{
		{
			Platform: "mc2", Program: "matmul", Suite: "linalg",
			SizeIdx: 0, SizeLabel: "XS", SizeN: 64,
			FeatureNames: []string{"s_ops", "r_items"},
			Features:     []float64{48, 64},
			Class:        0, Partition: "100/0/0", Makespan: 0.5,
			DeviceTimes: []float64{0.5, 0, 0},
			Verified:    true,
			Labeled:     true, BestClass: 2, BestPartition: "80/20/0",
			OracleTime: 0.25, CPUOnlyTime: 0.5, GPUOnlyTime: 0.75,
			Times: []float64{0.5, 0.375, 0.25},
		},
		{
			Platform: "mc1", Program: "nbody", SizeIdx: 2,
			Class: 1, Makespan: 1.75, Verified: false,
			Labeled: true, BestClass: 1, OracleTime: 1.75, Times: []float64{2, 1.75},
		},
	}
}

// goldenCounts is a fixed batch of counts: two classes of one cell under
// two model versions, and an unverified execution.
func goldenCounts() []Count {
	return []Count{
		{CountKey{Platform: "mc2", Program: "matmul", Class: 0, ModelVersion: 1, Verified: true}, 3},
		{CountKey{Platform: "mc2", Program: "matmul", Class: 2, ModelVersion: 2, Verified: true}, 5},
		{CountKey{Platform: "mc1", Program: "nbody", SizeIdx: 2, Class: 1, ModelVersion: 1}, 4},
	}
}

// writeGolden appends the golden labels and counts to a log in dir.
func writeGolden(t *testing.T, l *Log) {
	t.Helper()
	for _, o := range goldenLabels() {
		if _, err := l.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AppendCounts(goldenCounts()); err != nil {
		t.Fatal(err)
	}
}

// TestObservationGoldenFormat pins the JSONL wire format of both record
// kinds, labels and counts: a fixed append sequence must produce
// byte-identical segment contents once the wall clock count records carry
// is masked. Any field rename, reorder or encoding change shows up here
// before it corrupts a production log.
func TestObservationGoldenFormat(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "obs-00000000.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	got = maskTime(got)
	golden := filepath.Join("testdata", "log.golden.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("observation JSONL format drifted from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// maskTime replaces every `"time":<digits>` with `"time":0`.
func maskTime(b []byte) []byte {
	var out []byte
	for {
		i := bytes.Index(b, []byte(`"time":`))
		if i < 0 {
			return append(out, b...)
		}
		i += len(`"time":`)
		out = append(out, b[:i]...)
		out = append(out, '0')
		b = b[i:]
		for len(b) > 0 && b[0] >= '0' && b[0] <= '9' {
			b = b[1:]
		}
	}
}

// wantGolden checks a log holding exactly the golden records.
func wantGolden(t *testing.T, l *Log) {
	t.Helper()
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	in := goldenLabels()
	if len(snap) != len(in) {
		t.Fatalf("snapshot has %d labels, want %d", len(snap), len(in))
	}
	for i := range snap {
		if snap[i].Seq != uint64(i) || snap[i].Program != in[i].Program || snap[i].BestClass != in[i].BestClass ||
			snap[i].Verified != in[i].Verified || len(snap[i].Times) != len(in[i].Times) {
			t.Fatalf("snapshot[%d] = %+v, want %+v", i, snap[i], in[i])
		}
	}
	st := l.Stats()
	if st.Labeled != 2 || st.Cells != 2 || st.CounterKeys != 3 || st.Executions != 12 || st.Unverified != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByProgram["matmul"] != 8 || st.ByProgram["nbody"] != 4 {
		t.Fatalf("byProgram = %v", st.ByProgram)
	}
}

func TestLogAppendSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range goldenLabels() {
		seq, err := l.Append(o)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i) {
			t.Fatalf("seq = %d, want %d", seq, i)
		}
	}
	if err := l.AppendCounts(goldenCounts()); err != nil {
		t.Fatal(err)
	}
	wantGolden(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the mirror and the sequence numbering resume (two labels
	// and three counts took seqs 0-4).
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	wantGolden(t, l2)
	seq, err := l2.Append(Observation{Platform: "mc2", Program: "vecadd", Labeled: true, Verified: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 5 {
		t.Fatalf("resumed seq = %d, want 5", seq)
	}
	if st := l2.Stats(); st.Labeled != 3 || st.Cells != 3 {
		t.Fatalf("resumed stats = %+v", st)
	}
}

// TestLogNewestLabelWins: a cell labeled again (a restarted process
// labels each cell it executes once more) keeps only its newest label in
// the mirror, before and after a reopen, and counts add up across count
// records of one key.
func TestLogNewestLabelWins(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key := CountKey{Platform: "mc2", Program: "vecadd", Class: 4, ModelVersion: 1, Verified: true}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Observation{Platform: "mc2", Program: "vecadd", Labeled: true, Verified: true, BestClass: i}); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendCounts([]Count{{key, uint64(i + 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(l *Log) {
		t.Helper()
		snap, _ := l.Snapshot()
		if len(snap) != 1 || snap[0].BestClass != 2 || snap[0].Seq != 4 {
			t.Fatalf("snapshot %+v, want the newest label (best class 2, seq 4) alone", snap)
		}
		if st := l.Stats(); st.Labeled != 3 || st.Executions != 6 || st.CounterKeys != 1 {
			t.Fatalf("stats %+v", st)
		}
	}
	check(l)
	l.Close()
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check(l2)
}

// TestLogReplaysParentLog replays a log written before records were kept
// per cell (one record per executed request: an unlabeled execution, a
// labeled one, an unverified one), extended by new-format records. Each
// old record is one execution of its (cell, class, verified) under model
// version 0 and, when labeled, its cell's label; the newest label of a
// cell wins whichever format wrote it.
func TestLogReplaysParentLog(t *testing.T) {
	dir := t.TempDir()
	parent, err := os.ReadFile(filepath.Join("testdata", "parent.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "obs-00000000.jsonl"), parent, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := map[CountKey]uint64{
		{Platform: "mc2", Program: "vecadd", SizeIdx: 1, Class: 3, Verified: true}: 1,
		{Platform: "mc2", Program: "matmul", SizeIdx: 0, Class: 0, Verified: true}: 1,
		{Platform: "mc1", Program: "nbody", SizeIdx: 2, Class: 5}:                  1,
	}
	snap, _ := l.Snapshot()
	if len(snap) != 1 || snap[0].Program != "matmul" || snap[0].BestClass != 2 || snap[0].Seq != 1 {
		t.Fatalf("labels replayed from the parent log: %+v", snap)
	}
	if !sameCounts(l.counts, want) {
		t.Fatalf("counts replayed from the parent log: %v, want %v", l.counts, want)
	}
	if seq, err := l.Append(Observation{Platform: "mc2", Program: "matmul", Labeled: true, Verified: true, BestClass: 1, Times: []float64{1, 1, 1}}); err != nil || seq != 3 {
		t.Fatalf("append after the parent's records: seq %d, %v", seq, err)
	}
	k := CountKey{Platform: "mc2", Program: "matmul", SizeIdx: 0, Class: 0, Verified: true}
	if err := l.AppendCounts([]Count{{k, 6}}); err != nil {
		t.Fatal(err)
	}
	want[k] += 6
	l.Close()

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap, _ = l2.Snapshot()
	if len(snap) != 1 || snap[0].BestClass != 1 || snap[0].Seq != 3 {
		t.Fatalf("the new label did not supersede the parent's: %+v", snap)
	}
	if !sameCounts(l2.counts, want) {
		t.Fatalf("counts after reopen: %v, want %v", l2.counts, want)
	}
	if st := l2.Stats(); st.Labeled != 2 || st.Executions != 9 || st.Unverified != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestLogFoldsLeaveOutCounts replays a log from when the engine also
// served leave-one-program-out models: a count record marked leftOut
// numbered its version in that model's own registry, so it joins version 0
// (no recorded version) instead of the platform model's version 1, and is
// neither lost nor credited to version 1, before and after a compaction.
func TestLogFoldsLeaveOutCounts(t *testing.T) {
	dir := t.TempDir()
	old := `{"kind":"label","seq":0,"platform":"mc2","program":"matmul","sizeIdx":0,"class":0,"makespan":0.5,"verified":true,"labeled":true,"bestClass":2,"oracleTime":0.25,"times":[0.5,0.375,0.25]}
{"kind":"count","seq":1,"time":0,"platform":"mc2","program":"matmul","sizeIdx":0,"class":0,"modelVersion":1,"verified":true,"n":3}
{"kind":"count","seq":2,"time":0,"platform":"mc2","program":"matmul","sizeIdx":0,"class":1,"modelVersion":1,"leftOut":true,"verified":true,"n":2}
`
	if err := os.WriteFile(filepath.Join(dir, "obs-00000000.jsonl"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := []Health{
		{Platform: "mc2", ModelVersion: 0, Executions: 2, OracleEfficiency: 0.25 / 0.375},
		{Platform: "mc2", ModelVersion: 1, Executions: 3, OracleEfficiency: 0.25 / 0.5},
	}
	check := func(l *Log) {
		t.Helper()
		if st := l.Stats(); st.Executions != 5 || st.CounterKeys != 2 || st.ByProgram["matmul"] != 5 {
			t.Fatalf("stats %+v, want 5 executions over 2 keys", st)
		}
		if got := l.Health(); !slices.Equal(got, want) {
			t.Fatalf("health %+v, want %+v", got, want)
		}
	}
	check(l)
	l.mu.Lock()
	err = l.compactLocked()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check(l2)
}

func sameCounts(got, want map[CountKey]uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, n := range want {
		if got[k] != n {
			return false
		}
	}
	return true
}

func TestLogSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// A tiny budget forces rotation every couple of records.
	l, err := Open(Options{Dir: dir, MaxSegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	for i := 0; i < n; i++ {
		if _, err := l.Append(Observation{Platform: "mc2", Program: fmt.Sprintf("p%d", i), Class: i, Labeled: true, Verified: true}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", st.Segments)
	}
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != n {
		t.Fatalf("snapshot across segments has %d labels, want %d", len(snap), n)
	}
	for i := range snap {
		if snap[i].Seq != uint64(i) {
			t.Fatalf("snapshot out of order at %d: seq %d", i, snap[i].Seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen across many segments.
	l2, err := Open(Options{Dir: dir, MaxSegmentBytes: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if seq, err := l2.Append(Observation{Platform: "mc2", Program: "x", Verified: true}); err != nil || seq != n {
		t.Fatalf("seq after reopen = %d (%v), want %d", seq, err, n)
	}
}

// TestLogCompact: count records of a few keys flushed over and over fill
// segment after segment; rotation compacts them into a base segment
// holding one record per label and per key, so the log stays a few
// segments long, and replay gives back exactly the same labels and
// totals.
func TestLogCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, MaxSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Observation{Platform: "mc2", Program: "vecadd", Labeled: true, Verified: true, Times: []float64{2, 1}, OracleTime: 1}); err != nil {
		t.Fatal(err)
	}
	keys := []CountKey{
		{Platform: "mc2", Program: "vecadd", Class: 0, ModelVersion: 1, Verified: true},
		{Platform: "mc2", Program: "vecadd", Class: 1, ModelVersion: 1, Verified: true},
	}
	want := map[CountKey]uint64{}
	for i := 0; i < 200; i++ {
		k := keys[i%2]
		if err := l.AppendCounts([]Count{{k, uint64(i)}}); err != nil {
			t.Fatal(err)
		}
		want[k] += uint64(i)
	}
	if st := l.Stats(); st.Segments > 2 {
		t.Fatalf("%d segments after 200 count records of 2 keys: rotation did not compact", st.Segments)
	}
	if !sameCounts(l.counts, want) {
		t.Fatalf("counts %v, want %v", l.counts, want)
	}
	health := l.Health()
	l.Close()
	l2, err := Open(Options{Dir: dir, MaxSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap, _ := l2.Snapshot()
	if len(snap) != 1 || snap[0].Seq != 0 || !sameCounts(l2.counts, want) {
		t.Fatalf("replay after compaction: labels %+v, counts %v; want 1 label (seq 0) and %v", snap, l2.counts, want)
	}
	if h := l2.Health(); len(h) != 1 || h[0] != health[0] {
		t.Fatalf("health after replay %+v, before %+v", h, health)
	}
}

// TestLogCompactionCrashBeforeUnlink: a crash after the base segment is
// renamed into place but before the old segments are unlinked leaves
// both on disk. Replay starts at the base, so nothing is counted twice;
// a crash before the rename leaves only a temp file, never replayed.
func TestLogCompactionCrashBeforeUnlink(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, l)
	old, err := os.ReadFile(filepath.Join(dir, "obs-00000000.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	err = l.compactLocked()
	l.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendCounts([]Count{goldenCounts()[0]}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// The unlink never happened; a later compaction's temp file was
	// left behind.
	if err := os.WriteFile(filepath.Join(dir, "obs-00000000.jsonl"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".compact-123"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	snap, _ := l2.Snapshot()
	st := l2.Stats()
	if len(snap) != 2 || st.Executions != 12+3 || st.CounterKeys != 3 {
		t.Fatalf("after a crash between rename and unlink: %d labels, %+v; want 2 labels and 15 executions over 3 keys", len(snap), st)
	}
}

// TestAppendCountsFaults: a short write and a full disk during a count
// flush make AppendCounts fail with nothing of the batch durable or in
// the mirror, and the segment cut back to its last complete record, so
// the caller's retry of the same batch is counted exactly once — before
// and after a reopen.
func TestAppendCountsFaults(t *testing.T) {
	for name, fault := range map[string]func(f *os.File, b []byte) (int, error){
		"short write": func(f *os.File, b []byte) (int, error) {
			n, _ := f.Write(b[:len(b)/2+3])
			return n, syscall.EIO
		},
		"ENOSPC": func(f *os.File, b []byte) (int, error) {
			n, _ := f.Write(b[:len(b)/3])
			return n, syscall.ENOSPC
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			writeGolden(t, l)
			size := l.size
			l.write = fault
			if err := l.AppendCounts(goldenCounts()); err == nil {
				t.Fatal("a failed write was acknowledged")
			}
			if _, err := l.Append(goldenLabels()[0]); err == nil {
				t.Fatal("a failed label write was acknowledged")
			}
			wantGolden(t, l)
			if st, err := os.Stat(filepath.Join(dir, "obs-00000000.jsonl")); err != nil || st.Size() != size {
				t.Fatalf("segment holds %v bytes after the failed writes, want %d (%v)", st.Size(), size, err)
			}
			l.write = (*os.File).Write
			if err := l.AppendCounts(goldenCounts()); err != nil {
				t.Fatal(err)
			}
			check := func(l *Log) {
				t.Helper()
				if st := l.Stats(); st.Executions != 24 || st.CounterKeys != 3 || st.Labeled != 2 {
					t.Fatalf("after the retry: %+v, want 24 executions over 3 keys and 2 labels", st)
				}
			}
			check(l)
			l.Close()
			l2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			check(l2)
		})
	}
}

// TestLogHealth checks the served oracle efficiency against a hand
// computation: per (platform, model version),
// Σ count · oracle / Σ count · time of the class served, over the cells
// holding a label; counts of an unlabeled cell are left out.
func TestLogHealth(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	writeGolden(t, l)
	// A cell nobody labeled: its executions have no oracle to compare.
	if err := l.AppendCounts([]Count{{CountKey{Platform: "mc2", Program: "spmv", ModelVersion: 1, Verified: true}, 7}}); err != nil {
		t.Fatal(err)
	}
	// matmul: oracle 0.25, times [0.5 0.375 0.25]; nbody: oracle 1.75,
	// times [2 1.75].
	want := []Health{
		{Platform: "mc1", ModelVersion: 1, Executions: 4, OracleEfficiency: (4 * 1.75) / (4 * 1.75)},
		{Platform: "mc2", ModelVersion: 1, Executions: 3, OracleEfficiency: (3 * 0.25) / (3 * 0.5)},
		{Platform: "mc2", ModelVersion: 2, Executions: 5, OracleEfficiency: (5 * 0.25) / (5 * 0.25)},
	}
	got := l.Health()
	if len(got) != len(want) {
		t.Fatalf("health %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("health[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestLogConcurrentAppend hammers one log from many writers of labels and
// counts; every record must land exactly once with a unique sequence
// number, and a reopen must agree with the mirror. Run under -race in CI.
func TestLogConcurrentAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, MaxSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append(Observation{
					Platform: "mc2", Program: fmt.Sprintf("w%d", w), SizeIdx: i, Labeled: true, Verified: true,
				}); err != nil {
					t.Error(err)
					return
				}
				if err := l.AppendCounts([]Count{{CountKey{Platform: "mc2", Program: fmt.Sprintf("w%d", w), Class: i % 3}, 2}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	check := func(l *Log) {
		t.Helper()
		snap, err := l.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if len(snap) != writers*each {
			t.Fatalf("snapshot has %d labels, want %d", len(snap), writers*each)
		}
		seen := map[uint64]bool{}
		for _, o := range snap {
			if seen[o.Seq] {
				t.Fatalf("duplicate seq %d", o.Seq)
			}
			seen[o.Seq] = true
		}
		if st := l.Stats(); st.Executions != 2*writers*each || st.CounterKeys != 3*writers {
			t.Fatalf("stats %+v", st)
		}
	}
	check(l)
	l.Close()
	l2, err := Open(Options{Dir: dir, MaxSegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check(l2)
}

func TestLogErrors(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Error("empty dir accepted")
	}
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Observation{}); err == nil {
		t.Error("append on closed log succeeded")
	}
	if err := l.AppendCounts(goldenCounts()); err == nil {
		t.Error("count append on closed log succeeded")
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	// A COMPLETE but invalid line is real corruption and must fail
	// loudly on open, not silently drop data; so must a record kind this
	// binary does not know. (A torn trailing line without its newline is
	// different: that is crash recovery, covered by
	// TestLogRecoversFromTornTail.)
	for _, bad := range []string{"{corrupt but complete}\n", `{"seq":0,"kind":"gauge","n":3}` + "\n"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "obs-00000000.jsonl"), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: dir}); err == nil {
			t.Errorf("segment %q accepted", bad)
		}
	}
}

// TestLogRecoversFromTornTail simulates a crash mid-append: the active
// segment ends in a partial record without its newline. Open must drop
// the torn (never-acknowledged) record, keep everything before it, and
// resume appending cleanly.
func TestLogRecoversFromTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(Observation{Platform: "mc2", Program: "p", SizeIdx: i, Labeled: true, Verified: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a partial record with no trailing newline.
	seg := filepath.Join(dir, "obs-00000000.jsonl")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"kind":"count","platform":"mc2","prog`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("torn tail made the log unopenable: %v", err)
	}
	defer l2.Close()
	snap, err := l2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 3 || l2.Stats().Executions != 0 {
		t.Fatalf("recovered %d labels and %d executions, want 3 and 0", len(snap), l2.Stats().Executions)
	}
	// New appends land after the complete records, not glued to torn
	// bytes (seq 3 was never acknowledged, so its number is reused).
	if seq, err := l2.Append(Observation{Platform: "mc2", Program: "p", SizeIdx: 9, Labeled: true, Verified: true}); err != nil || seq != 3 {
		t.Fatalf("post-recovery append: seq=%d err=%v", seq, err)
	}
	snap, err = l2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 4 || snap[3].SizeIdx != 9 {
		t.Fatalf("post-recovery snapshot: %+v", snap)
	}
}
