package bench

import (
	"fmt"
	"testing"

	"repro/internal/exec"
)

// BenchmarkBuiltinKernel times one launch of each built-in's kernel at
// sizes 0-3 on a warm instance: compiled once on the default tier (what
// Compile picks, as serving does), buffers built once and reused, one
// worker. It is the in-process per-program kernel time; compare two
// builds by alternating their test binaries many times, e.g.
//
//	go test -c -o new.test ./internal/bench
//	./new.test -test.run '^$' -test.bench 'BuiltinKernel/histogram' -test.count 5
func BenchmarkBuiltinKernel(b *testing.B) {
	for _, p := range All() {
		front, err := p.Front()
		if err != nil {
			b.Fatal(err)
		}
		for sz := 0; sz <= 3 && sz < len(p.Sizes); sz++ {
			b.Run(fmt.Sprintf("%s/%d", p.Name, sz), func(b *testing.B) {
				inst, err := p.Instance(sz)
				if err != nil {
					b.Fatal(err)
				}
				opts := exec.RunOptions{Workers: 1}
				if _, err := front.Compiled.Run(inst.Args, inst.ND, opts); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for range b.N {
					if _, err := front.Compiled.Run(inst.Args, inst.ND, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
