package repro

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// branchDispositions pins what the vector tier does with every varying
// branch of the 23 built-ins when the lanes of a group disagree there,
// keyed by the branch's pc: "linear" (the short sides run in place
// under the lane mask), "split" (the group splits and re-forms at the
// join), "loop mask" (a varying branch inside a loop whose region holds
// a loop: the leaving lanes park at the exit join) or "bail" (scalar
// completion). A vectorizer change that sends histogram's `c++` back to
// a split, or any other branch elsewhere, fails TestBranchDispositions;
// a deliberate one updates this table.
var branchDispositions = map[string]string{
	"blackscholes":  "12 split, 44 linear, 65 linear",
	"nbody":         "3 split",
	"mandelbrot":    "9 linear, 11 split, 26 linear, 30 loop mask",
	"kmeans":        "2 split, 13 linear",
	"md":            "7 split",
	"bfs":           "3 split, 5 split, 9 split, 12 linear, 14 loop mask",
	"bitonicsort":   "8 split, 14 linear",
	"matmul":        "4 linear, 6 split",
	"matvec":        "2 split",
	"transpose":     "3 linear, 5 split",
	"atax":          "3 split",
	"spmv":          "2 split, 7 split, 11 loop mask",
	"convolution2d": "15 split, 18 linear, 20 split, 23 split, 66 linear, 68 linear",
	"stencil2d":     "5 split, 8 linear, 10 split, 13 split, 32 linear, 34 split",
	"hotspot":       "6 split, 9 linear, 11 split, 14 split, 37 linear, 39 split",
	"srad":          "11 split, 14 linear, 16 split, 19 split, 62 linear, 64 split",
	"pathfinder":    "3 split, 5 linear, 10 linear",
	"vecadd":        "1 linear",
	"saxpy":         "1 linear",
	"dotprod":       "4 linear, 14 split, 23 split",
	"reduction":     "4 linear, 13 split, 22 split",
	"prefixsum":     "5 linear, 14 linear, 24 linear, 28 split",
	"histogram":     "3 split, 17 linear",
}

// TestBranchDispositions reads each built-in's dispositions off its
// vector disassembly: a varying branch's line ends `join <pc> linear`,
// `join <pc>` or `bail`, and the header lists the loop masks.
func TestBranchDispositions(t *testing.T) {
	if len(branchDispositions) != len(bench.All()) {
		t.Fatalf("%d programs in the table, %d built-ins", len(branchDispositions), len(bench.All()))
	}
	line := regexp.MustCompile(`^\s*(\d+) v .*  (join \d+ linear|join \d+|bail)$`)
	for _, p := range bench.All() {
		_, _, atc := compileBothTiers(t, p.Name, p.Source, p.Kernel)
		dis := atc.Vec().Disassemble()
		var masks []string
		var got []string
		for _, l := range strings.Split(dis, "\n") {
			if rest, ok := strings.CutPrefix(strings.TrimSpace(l), "loop masks:"); ok {
				for _, m := range strings.Fields(rest) {
					masks = append(masks, strings.Split(m, "->")[0])
				}
			}
			m := line.FindStringSubmatch(l)
			if m == nil {
				continue
			}
			d := "split"
			switch {
			case strings.HasSuffix(m[2], "linear"):
				d = "linear"
			case m[2] == "bail":
				d = "bail"
			case slices.Contains(masks, m[1]):
				d = "loop mask"
			}
			got = append(got, m[1]+" "+d)
		}
		if want, have := branchDispositions[p.Name], strings.Join(got, ", "); have != want {
			t.Errorf("%s: varying branches %q, want %q\n%s", p.Name, have, want, dis)
		}
	}
}
