package vm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"
)

// The vector tier hands each span [pc, scalEnd[pc]) to the scalar
// interpreter whole and trusts two things about it: every instruction
// in it is scalarized, and it is straight-line — no jump (the vector
// jump arms own fuel and the spill countdown), no bar, halt or nop
// (the scalar arms for those end a work item, not a span).

func checkSpans(t *testing.T, vp *VecFunc) {
	t.Helper()
	spans := 0
	for pc := range vp.Code {
		end := int(vp.scalEnd[pc])
		if end < pc || end > len(vp.Code) {
			t.Fatalf("scalEnd[%d] = %d outside [%d, %d]", pc, end, pc, len(vp.Code))
		}
		_, jump := jumpTarget(&vp.Code[pc], pc)
		if want := vp.scal[pc] && !jump; (end > pc) != want {
			t.Errorf("pc %d (%s): scal %v, jump %v, but scalEnd %d", pc, vp.Code[pc].Op, vp.scal[pc], jump, end)
		}
		if end > pc {
			spans++
		}
		for v := pc; v < end; v++ {
			in := &vp.Code[v]
			_, jump := jumpTarget(in, v)
			if !vp.scal[v] || jump || in.Op == OpBar || in.Op == OpHalt || in.Op == OpNop {
				t.Errorf("span [%d, %d) holds pc %d (%s): scal %v", pc, end, v, in.Op, vp.scal[v])
			}
		}
		if end > pc && end < len(vp.Code) && int(vp.scalEnd[end]) > end {
			t.Errorf("span [%d, %d) stops short: a span starts at %d", pc, end, end)
		}
	}
	if spans == 0 && vp.ScalarizedOps() > 0 {
		t.Errorf("%d scalarized instructions and no span", vp.ScalarizedOps())
	}
}

func parseSrc(t *testing.T, name string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// builtinKernels reads the benchmark suite's MiniCL sources out of
// internal/bench's program tables (the Name, Source and Kernel fields
// of each registered Program). Importing the package instead would be
// a cycle: bench -> exec -> vm.
func builtinKernels(t *testing.T) (progs []struct{ name, source, kernel string }) {
	t.Helper()
	files, err := filepath.Glob("../../bench/programs_*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark program tables found: %v", err)
	}
	for _, file := range files {
		ast.Inspect(parseSrc(t, file), func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			field := map[string]string{}
			for _, e := range lit.Elts {
				kv, ok := e.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if v, isLit := kv.Value.(*ast.BasicLit); ok && isLit && v.Kind == token.STRING {
					field[key.Name], _ = strconv.Unquote(v.Value)
				}
			}
			if field["Source"] != "" && field["Kernel"] != "" {
				progs = append(progs, struct{ name, source, kernel string }{field["Name"], field["Source"], field["Kernel"]})
			}
			return true
		})
	}
	return progs
}

func TestScalEndSpansAreStraightLineAndScalarized(t *testing.T) {
	builtins := builtinKernels(t)
	vectorized := 0
	for _, b := range builtins {
		vp, err := Vectorize(compileKernel(t, b.name, b.source, b.kernel, Options{}))
		if err != nil {
			continue
		}
		vectorized++
		t.Run(b.name, func(t *testing.T) { checkSpans(t, vp) })
	}
	if len(builtins) != 23 || vectorized != 23 {
		t.Errorf("read %d built-in kernels, %d vectorizable; want 23 and 23", len(builtins), vectorized)
	}
	for _, tc := range vecGoldenKernels {
		t.Run(tc.name, func(t *testing.T) { checkSpans(t, vectorizeKernel(t, tc.name, tc.source, tc.kernel)) })
	}
}

// TestSpanStopsAtJoin: the join point of a split can fall in the middle
// of consecutive scalarized instructions — here the region ends on a
// uniform store and the code after the join starts with uniform
// arithmetic. The side frame must stop at the join, not at the end of
// the span: past it, it would never see its Stop again and would run
// the rest of the kernel for its own lanes, which the re-formed group
// then runs a second time.
func TestSpanStopsAtJoin(t *testing.T) {
	src := `kernel void k(global int* out, int n) {
		int i = get_global_id(0);
		if (i % 2 == 1) {
			out[8 + i] = i;
			out[0] = n + 1;
		}
		int u = n * 2;
		out[16 + i] = u + i;
	}`
	vp := vectorizeKernel(t, "midspan", src, "k")
	branches := varyingBranches(vp)
	if len(branches) != 1 {
		t.Fatalf("%d varying branches, want 1:\n%s", len(branches), vp.Disassemble())
	}
	join := vp.joinPC[branches[0]]
	if join <= 0 || int(vp.scalEnd[join-1]) <= join {
		t.Fatalf("join %d is not inside a span (scalEnd[%d] = %d):\n%s", join, join-1, vp.scalEnd[join-1], vp.Disassemble())
	}

	const w = 8
	f := vp.NewVecFrame(w)
	f.Globals = []Buf{{I: make([]int32, 16+w)}}
	bindVecWI(f, w, 0)
	f.SetI(vp.Params[1].Index, w)
	if st, err := vp.Run(f); err != nil || st != Halted {
		t.Fatalf("Run = %v, %v; want Halted", st, err)
	}
	if f.Divergences != 1 || f.Reconverges != 1 {
		t.Fatalf("Divergences/Reconverges = %d/%d, want 1/1", f.Divergences, f.Reconverges)
	}
	side := f.subs[0] // the fall-through side runs the region
	if side == nil || side.Stop != join || side.PC != join {
		t.Fatalf("side frame stopped at pc %d with Stop %d, want both at the join %d", side.PC, side.Stop, join)
	}

	// Every lane's counts are those of the item run alone on the scalar
	// VM: nothing past the join was executed twice.
	for l := 0; l < w; l++ {
		s := vp.NewFrame()
		s.Globals = []Buf{{I: make([]int32, 16+w)}}
		s.WI[WIGlobalSize] = [3]int64{w, 1, 1}
		s.WI[WILocalSize] = [3]int64{w, 1, 1}
		s.WI[WINumGroups] = [3]int64{1, 1, 1}
		s.WI[WILocalID] = [3]int64{int64(l), 0, 0}
		s.WI[WIGlobalID] = [3]int64{int64(l), 0, 0}
		s.I[vp.Params[1].Index] = w
		if _, err := vp.Func.Run(s); err != nil {
			t.Fatal(err)
		}
		if got := f.LaneCounts(l); got != s.Cnt {
			t.Errorf("lane %d counts %+v, scalar item %+v", l, got, s.Cnt)
		}
		if got, want := f.Globals[0].I[16+l], s.Globals[0].I[16+l]; got != want {
			t.Errorf("out[%d] = %d, scalar item wrote %d", 16+l, got, want)
		}
	}
}
