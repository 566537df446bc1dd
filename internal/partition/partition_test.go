package partition

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// TestSpaceSize: Space yields every weak composition of steps over the
// devices, C(steps+devices-1, devices-1) partitions.
func TestSpaceSize(t *testing.T) {
	cases := []struct{ dev, steps, want int }{
		{3, 10, 66}, // the paper's space: 3 devices, 10% steps
		{2, 10, 11},
		{1, 10, 1},
		{3, 20, 231},
		{4, 10, 286},
	}
	for _, c := range cases {
		got := Space(c.dev, c.steps)
		if len(got) != c.want {
			t.Errorf("len(Space(%d,%d)) = %d, want %d", c.dev, c.steps, len(got), c.want)
		}
	}
}

func TestSpaceAllSumToSteps(t *testing.T) {
	for _, p := range Space(3, 10) {
		if p.Steps() != 10 {
			t.Fatalf("partition %v sums to %d", p.Shares, p.Steps())
		}
	}
}

func TestSpaceDeterministicAndUnique(t *testing.T) {
	a, b := Space(3, 10), Space(3, 10)
	seen := map[string]bool{}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatal("Space is not deterministic")
		}
		key := a[i].String()
		if seen[key] {
			t.Fatalf("duplicate partition %s", key)
		}
		seen[key] = true
	}
}

func TestSingleAndEven(t *testing.T) {
	s := Single(3, 1)
	if idx, ok := s.IsSingle(); !ok || idx != 1 {
		t.Errorf("Single(3,1).IsSingle() = %d,%t", idx, ok)
	}
	if s.Steps() != DefaultSteps || s.Shares[1] != DefaultSteps {
		t.Errorf("Single(3,1) = %v, want all %d steps on device 1", s.Shares, DefaultSteps)
	}
	// The most even 3-way split is not single, and its chunks follow
	// its shares.
	e := Partition{Shares: []int{4, 3, 3}}
	if _, ok := e.IsSingle(); ok {
		t.Error("4/3/3 reported single")
	}
	if ch := e.ChunksInto(nil, 100, 1); ch[0] != [2]int{0, 40} || ch[1] != [2]int{40, 70} || ch[2] != [2]int{70, 100} {
		t.Errorf("4/3/3 chunks = %v", ch)
	}
}

// TestStringAndParseRoundTrip: String renders a partition on the 10%
// grid exactly, one percentage per device, so reading its components
// back gives the shares.
func TestStringAndParseRoundTrip(t *testing.T) {
	if s := (Partition{Shares: []int{5, 3, 2}}).String(); s != "50/30/20" {
		t.Errorf("String = %q, want 50/30/20", s)
	}
	for _, p := range Space(3, 10) {
		s := p.String()
		fields := strings.Split(s, "/")
		if len(fields) != len(p.Shares) {
			t.Fatalf("%q has %d components, want %d", s, len(fields), len(p.Shares))
		}
		for i, f := range fields {
			if v, err := strconv.Atoi(f); err != nil || v != p.Shares[i]*100/DefaultSteps {
				t.Fatalf("%q component %d = %q, want %d%%", s, i, f, p.Shares[i]*100/DefaultSteps)
			}
		}
	}
}

func TestChunksTileExactly(t *testing.T) {
	f := func(s0raw, s1raw uint8, g16 uint16, alignPow uint8) bool {
		s0 := int(s0raw) % 11
		s1 := int(s1raw) % (11 - s0)
		p := Partition{Shares: []int{s0, s1, 10 - s0 - s1}}
		align := 1 << (alignPow % 7) // 1..64
		global := (int(g16)%2048 + 1) * align
		chunks := p.ChunksInto(nil, global, align)
		prev := 0
		for i, ch := range chunks {
			if ch[0] != prev {
				t.Logf("gap before chunk %d: %v", i, chunks)
				return false
			}
			if ch[1] < ch[0] {
				return false
			}
			if i < len(chunks)-1 && ch[1]%align != 0 {
				return false
			}
			prev = ch[1]
		}
		return prev == global
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChunksZeroShareEmpty(t *testing.T) {
	p := Partition{Shares: []int{10, 0, 0}}
	chunks := p.ChunksInto(nil, 1000, 64)
	if chunks[0] != [2]int{0, 1000} {
		t.Errorf("chunk 0 = %v", chunks[0])
	}
	for i := 1; i < 3; i++ {
		if chunks[i][0] != chunks[i][1] {
			t.Errorf("chunk %d not empty: %v", i, chunks[i])
		}
	}
}

func TestChunksShareProportions(t *testing.T) {
	p := Partition{Shares: []int{5, 3, 2}}
	chunks := p.ChunksInto(nil, 1000, 1)
	if chunks[0] != [2]int{0, 500} || chunks[1] != [2]int{500, 800} || chunks[2] != [2]int{800, 1000} {
		t.Errorf("chunks = %v", chunks)
	}
}

func TestChunksAlignment(t *testing.T) {
	p := Partition{Shares: []int{5, 5}}
	chunks := p.ChunksInto(nil, 1000, 64)
	// 500 rounds down to 448 (7*64).
	if chunks[0][1]%64 != 0 {
		t.Errorf("boundary %d not aligned", chunks[0][1])
	}
	if chunks[1][1] != 1000 {
		t.Errorf("last chunk must end at global0, got %d", chunks[1][1])
	}
}

// TestFractionZeroSteps: a partition with no share units gives every
// device an empty chunk and is not single.
func TestFractionZeroSteps(t *testing.T) {
	p := Partition{Shares: []int{0, 0}}
	if p.Steps() != 0 || p.String() != "0/0" {
		t.Errorf("zero partition: steps %d, %q", p.Steps(), p)
	}
	for i, ch := range p.ChunksInto(nil, 100, 1) {
		if ch != [2]int{} {
			t.Errorf("zero partition chunk %d = %v, want empty", i, ch)
		}
	}
	if _, ok := p.IsSingle(); ok {
		t.Error("zero partition is not single")
	}
}

func TestSharedSpaceMatchesSpace(t *testing.T) {
	for _, cfg := range []struct{ dev, steps int }{{2, 10}, {3, 10}, {3, 20}} {
		want := Space(cfg.dev, cfg.steps)
		got := SharedSpace(cfg.dev, cfg.steps)
		if len(got) != len(want) {
			t.Fatalf("(%d,%d): %d partitions, want %d", cfg.dev, cfg.steps, len(got), len(want))
		}
		for i := range want {
			if got[i].String() != want[i].String() {
				t.Fatalf("(%d,%d)[%d]: %s != %s", cfg.dev, cfg.steps, i, got[i], want[i])
			}
		}
		// The memo must hand out one canonical slice.
		if again := SharedSpace(cfg.dev, cfg.steps); &again[0] != &got[0] {
			t.Errorf("(%d,%d): SharedSpace not memoized", cfg.dev, cfg.steps)
		}
	}
}

func TestChunksIntoReuse(t *testing.T) {
	p := Partition{Shares: []int{5, 3, 2}}
	scratch := make([][2]int, 0, 3)
	got := p.ChunksInto(scratch, 1000, 64)
	want := p.ChunksInto(nil, 1000, 64)
	if len(got) != len(want) {
		t.Fatalf("len %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunk %d: %v != %v", i, got[i], want[i])
		}
	}
	if &got[0] != &scratch[:1][0] {
		t.Error("ChunksInto did not reuse the scratch backing array")
	}
	// A dirty reused scratch must be fully overwritten, including the
	// zero-share early-out path.
	dirty := [][2]int{{7, 8}, {9, 10}}
	empty := Partition{Shares: []int{0, 0}}.ChunksInto(dirty, 100, 1)
	for i, ch := range empty {
		if ch != [2]int{} {
			t.Errorf("empty partition chunk %d = %v, want zero", i, ch)
		}
	}
}
