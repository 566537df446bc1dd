// Sizesweep demonstrates the paper's central observation: the best task
// partitioning of a single program changes with the problem size. It
// sweeps an option-pricing kernel from 4K to 1M work items on both
// platforms and prints the oracle partitioning at each size.
//
//	go run ./examples/sizesweep
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/exec"
	"repro/internal/partition"
	"repro/internal/runtime"
)

const src = `
kernel void price(global const float* spot, global float* out, int n) {
	int i = get_global_id(0);
	if (i < n) {
		float s = spot[i];
		float acc = 0.0;
		for (int k = 0; k < 24; k++) {
			acc += exp(-0.5 * s) * sqrt(s + (float)k);
		}
		out[i] = acc;
	}
}`

func main() {
	prog, err := core.CompileSource("price", src, "price")
	if err != nil {
		log.Fatal(err)
	}
	for _, plat := range device.Platforms() {
		rt := runtime.New(plat)
		space := partition.SharedSpace(plat.NumDevices(), partition.DefaultSteps)
		fmt.Printf("platform %s (CPU/GPU1/GPU2):\n", plat.Name)
		for n := 4096; n <= 1<<20; n *= 4 {
			spot, out := exec.NewFloatBuffer(n), exec.NewFloatBuffer(n)
			for i := range spot.F {
				spot.F[i] = 0.5 + float32(i%100)/100
			}
			l := runtime.Launch{
				Kernel: prog.Compiled,
				Plan:   prog.Plan,
				Args:   []exec.Arg{exec.BufArg(spot), exec.BufArg(out), exec.IntArg(n)},
				ND:     exec.ND1(n),
			}
			prof, err := rt.Profile(l)
			if err != nil {
				log.Fatal(err)
			}
			lb, err := rt.Label(l, prof, space)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  n=%8d  oracle=%-9s  %.4g ms   (CPU-only %.4g ms, GPU-only %.4g ms)\n",
				n, space[lb.Best], lb.Times[lb.Best]*1e3, lb.Times[lb.CPUOnly]*1e3, lb.Times[lb.GPUOnly]*1e3)
		}
	}
}
