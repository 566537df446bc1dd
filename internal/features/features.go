// Package features builds the two feature classes of the paper's
// prediction model (Section 2 / Section 4):
//
//   - static program features, extracted from the INSPIRE representation
//     at compile time (operation mix, control structure, memory access
//     patterns), and
//   - problem size dependent runtime features, collected during program
//     execution (work-item counts, dynamic operation totals, transfer
//     volumes, arithmetic intensity, load imbalance).
//
// Together they form the input vector from which the machine-learning
// model predicts the best task partitioning for a program at a problem
// size.
package features

import (
	"math"

	"repro/internal/backend"
	"repro/internal/exec"
	"repro/internal/inspire"
)

// Vector is a named feature vector.
type Vector struct {
	Names  []string
	Values []float64
}

// Append concatenates two vectors.
func (v Vector) Append(o Vector) Vector {
	return Vector{
		Names:  append(append([]string{}, v.Names...), o.Names...),
		Values: append(append([]float64{}, v.Values...), o.Values...),
	}
}

// log2p1 is log2(1+x), the compression used for count-valued features.
func log2p1(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Log2(1 + x)
}

// StaticNames lists the static feature names in vector order.
var StaticNames = []string{
	"s_log_ops",
	"s_frac_float",
	"s_frac_int",
	"s_frac_trans",
	"s_frac_mem",
	"s_frac_branch",
	"s_loop_depth",
	"s_num_loops",
	"s_has_barrier",
	"s_uses_local",
	"s_mix_coalesced",
	"s_mix_strided",
	"s_mix_indirect",
	"s_mix_uniform",
	"s_loop_weight",
}

// Static builds the static program feature vector from IR analysis counts.
func Static(st *inspire.StaticCounts) Vector {
	totalOps := float64(st.IntOps + st.FloatOps + st.TranscendentalOps + st.OtherBuiltins +
		st.GlobalLoads + st.GlobalStores + st.LocalLoads + st.LocalStores)
	frac := func(n int) float64 {
		if totalOps == 0 {
			return 0
		}
		return float64(n) / totalOps
	}
	mix := backend.MixOf(st)
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	// Loop weight compares loop-weighted op counts with raw ones: the
	// bigger the gap, the more of the kernel's work lives inside loops.
	rawCompute := float64(st.IntOps + st.FloatOps)
	weighted := st.WeightedIntOps + st.WeightedFloatOps
	loopWeight := 0.0
	if rawCompute > 0 {
		loopWeight = log2p1(weighted) - log2p1(rawCompute)
	}
	vals := []float64{
		log2p1(totalOps),
		frac(st.FloatOps),
		frac(st.IntOps),
		frac(st.TranscendentalOps),
		frac(st.GlobalLoads + st.GlobalStores),
		frac(st.Branches),
		float64(st.MaxLoopDepth),
		float64(st.Loops),
		b2f(st.Barriers > 0),
		b2f(st.LocalLoads+st.LocalStores > 0),
		mix.Coalesced,
		mix.Strided,
		mix.Indirect,
		mix.Uniform,
		loopWeight,
	}
	return Vector{Names: StaticNames, Values: vals}
}

// RuntimeNames lists the runtime (problem size dependent) feature names.
var RuntimeNames = []string{
	"r_log_items",
	"r_log_ops",
	"r_log_ops_per_item",
	"r_log_bytes_in",
	"r_log_bytes_out",
	"r_log_intensity",
	"r_imbalance",
	"r_log_launches",
	"r_frac_float_dyn",
	"r_frac_mem_dyn",
}

// RuntimeInput bundles what the runtime feature extractor needs: one
// profiled execution plus the launch context that determines transfer
// volumes.
type RuntimeInput struct {
	Profile    *exec.Profile
	Plan       *backend.Plan
	Args       []exec.Arg
	Iterations int
}

// Runtime builds the problem-size dependent feature vector.
func Runtime(in RuntimeInput) Vector {
	tot := in.Profile.Total()
	items := float64(tot.Items)
	totalOps := float64(tot.IntOps + tot.FloatOps + 4*tot.TransOps + tot.OtherBuiltins +
		tot.GlobalLoads + tot.GlobalStores + tot.LocalOps)
	iters := in.Iterations
	if iters < 1 {
		iters = 1
	}
	totalOps *= float64(iters)

	bytesIn, bytesOut := in.Plan.TransferBytes(backend.ArgBytes(nil, in.Args), in.Profile.Global0, 0, in.Profile.Global0)
	intensity := totalOps / float64(bytesIn+bytesOut+1)

	imbalance := 1.0
	if tot.Items > 0 {
		mean := (totalOps / float64(iters)) / items
		if mean > 0 && tot.MaxItemOps > 0 {
			imbalance = float64(tot.MaxItemOps) / mean
		}
	}
	fracFloat, fracMem := 0.0, 0.0
	if totalOps > 0 {
		fracFloat = float64(tot.FloatOps+4*tot.TransOps) * float64(iters) / totalOps
		fracMem = float64(tot.GlobalLoads+tot.GlobalStores) * float64(iters) / totalOps
	}
	vals := []float64{
		log2p1(items),
		log2p1(totalOps),
		log2p1(totalOps / math.Max(items, 1)),
		log2p1(float64(bytesIn)),
		log2p1(float64(bytesOut)),
		log2p1(intensity),
		math.Min(imbalance, 64),
		log2p1(float64(iters)),
		fracFloat,
		fracMem,
	}
	return Vector{Names: RuntimeNames, Values: vals}
}

// Combined builds the full feature vector (static ++ runtime) used by the
// partitioning model.
func Combined(st *inspire.StaticCounts, in RuntimeInput) Vector {
	return Static(st).Append(Runtime(in))
}
