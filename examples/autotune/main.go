// Autotune exhaustively measures every candidate partitioning of a
// benchmark on both platforms — the measurement loop of the paper's
// training phase — and prints the five best and the default strategies.
// It shows why exhaustive search is too expensive online (66 candidates
// per program and size) and what the learned model replaces.
//
//	go run ./examples/autotune [program]
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/device"
	"repro/internal/partition"
	"repro/internal/runtime"
)

func main() {
	name := "convolution2d"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	p, err := bench.Get(name)
	if err != nil {
		log.Fatal(err)
	}
	l, _, err := p.Build(p.DefaultSize)
	if err != nil {
		log.Fatal(err)
	}
	for _, plat := range device.Platforms() {
		rt := runtime.New(plat)
		prof, err := rt.Profile(l)
		if err != nil {
			log.Fatal(err)
		}
		space := partition.SharedSpace(plat.NumDevices(), partition.DefaultSteps)
		lb, err := rt.Label(l, prof, space)
		if err != nil {
			log.Fatal(err)
		}
		// Rank the candidates, fastest first; ties keep the space's order.
		rank := make([]int, len(space))
		for i := range rank {
			rank[i] = i
		}
		sort.SliceStable(rank, func(i, j int) bool { return lb.Times[rank[i]] < lb.Times[rank[j]] })

		fmt.Printf("%s on %s, size %s: %d candidate partitionings\n",
			name, plat.Name, p.Sizes[p.DefaultSize].Label, len(space))
		for i, c := range rank[:5] {
			fmt.Printf("  #%d  %-9s  %.4g ms\n", i+1, space[c], lb.Times[c]*1e3)
		}
		oracle, cpu, gpu := lb.Times[lb.Best], lb.Times[lb.CPUOnly], lb.Times[lb.GPUOnly]
		fmt.Printf("  CPU-only %.4g ms (%.2fx off oracle), GPU-only %.4g ms (%.2fx off oracle)\n\n",
			cpu*1e3, cpu/oracle, gpu*1e3, gpu/oracle)
	}
}
