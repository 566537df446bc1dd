package vm

import (
	"fmt"

	"repro/internal/minicl"
)

// Batched profile counting. Every opcode's counter contribution is
// static — OpAddI is always one IntOp, OpMacLdGIdx is always two
// IntOps, one global load and two FloatOps — so the dispatch loop does
// not need to bump memory-resident counters per instruction. Instead
// the nine countable fields are packed into 12-bit lanes of two uint64
// words (five lanes in word 0, four in word 1) held in a pair of
// register accumulators, and a retired instruction folds its
// contribution in with one add per word: a compile-time lane constant
// in each arm of the scalar interpreter, the opcode's laneK entry at the
// bottom of the vector dispatch loop — both held to staticCounts, the
// one definition, by the opcode spec test. The accumulators are unpacked
// into the frame's Counts only when lane headroom runs out or the item
// exits.
//
// Lane overflow is bounded statically: Compile rejects kernels whose
// per-lane code totals exceed a lane (thousands of counted ops, far
// beyond real kernels), so one linear pass over the code can add at
// most maxLane to any lane. Taken jumps — the only way to execute more
// than one linear pass — decrement a spill countdown carried in the
// unused top bits of the second accumulator word and spill when it
// runs out, so no lane can ever overflow into its neighbor.
//
// An instruction that can fault checks first and counts after, every
// one the same way (Frame.fault): no caller sees the counts of a
// launch that faulted, and a vector group parked at a would-fault
// instruction must not have counted it, because the scalar rerun will.

const (
	laneBits = 12
	laneMax  = 1<<laneBits - 1

	// The spill countdown lives in the top bits of accumulator word 1
	// (lanes use only 48 of its 64 bits). Run seeds it with Func.room
	// and spends one roomOne per taken jump; addPacked's lane masks
	// ignore the countdown bits.
	roomShift = 48
	roomOne   = 1 << roomShift

	// Per-lane unit constants: one counted op of a given class is a
	// single constant add to the right accumulator.
	// Word 0 lanes (a0).
	lIntOp   = 1
	lFloatOp = 1 << laneBits
	lTransOp = 1 << (2 * laneBits)
	lOtherB  = 1 << (3 * laneBits)
	lGLoad   = 1 << (4 * laneBits)
	// Word 1 lanes (a1).
	lGStore  = 1
	lLocalOp = 1 << laneBits
	lBranch  = 1 << (2 * laneBits)
	lBarrier = 1 << (3 * laneBits)
)

// staticCounts returns op's fixed contribution to the profile. A
// builtin's opcode counts one op of the builtin's registered cost class.
func staticCounts(op Opcode) Counts {
	var c Counts
	if b := opBuiltin[op]; b != nil {
		if b.Cost == minicl.CostTranscendental {
			c.TransOps = 1
		} else {
			c.OtherBuiltins = 1
		}
		return c
	}
	switch op {
	case OpAddI, OpSubI, OpMulI, OpDivI, OpModI, OpAndI, OpOrI, OpXorI,
		OpShlI, OpShrI, OpNegI, OpNotB,
		OpLtI, OpLeI, OpGtI, OpGeI, OpEqI, OpNeI,
		OpJZLog, OpJNZLog, OpWI, OpWIDyn:
		c.IntOps = 1
	case OpMulAddI:
		c.IntOps = 2
	case OpAddF, OpSubF, OpMulF, OpDivF, OpNegF,
		OpLtF, OpLeF, OpGtF, OpGeF, OpEqF, OpNeF:
		c.FloatOps = 1
	case OpMulAddF, OpMulMulF:
		c.FloatOps = 2
	case OpLdGF, OpLdGI:
		c.GlobalLoads = 1
	case OpStGF, OpStGI:
		c.GlobalStores = 1
	case OpLdLF, OpLdLI, OpStLF, OpStLI:
		c.LocalOps = 1
	case OpJZBr:
		c.Branches = 1
	case OpBar:
		c.Barriers = 1
	case OpAddFLdG, OpMulFLdG, OpSubFLdG, OpLdSubFG:
		c.GlobalLoads = 1
		c.FloatOps = 1
	case OpMulAccLdG:
		c.GlobalLoads = 1
		c.FloatOps = 2
	case OpAddRsqrtF:
		c.FloatOps = 1
		c.TransOps = 1
	case OpLdGFIdx:
		c.IntOps = 2
		c.GlobalLoads = 1
	case OpMacLdGIdx:
		c.IntOps = 2
		c.GlobalLoads = 1
		c.FloatOps = 2
	case OpJCmpI:
		c.IntOps = 1
		c.Branches = 1
	case OpJCmpF:
		c.FloatOps = 1
		c.Branches = 1
	case OpIncJCmpI:
		c.IntOps = 2
		c.Branches = 1
	}
	return c
}

// laneK[op] is staticCounts(op) packed into the two accumulator words:
// the one place the vector dispatch learns what an opcode counts. It
// adds the pair once per retired instruction, whatever the opcode. (The
// scalar interpreter's arms write their lane constants out — a two-line
// arm already selects its counter for free, and a table read would sit
// exactly where dispatch is the cost — and the opcode spec test holds
// every one of them to staticCounts.)
// It is built by initLaneK, from op.go's init once the opcode table and
// the builtin bindings exist.
var laneK [opCount][2]uint64

func initLaneK() {
	for op := range laneK {
		c := staticCounts(Opcode(op))
		laneK[op][0] = uint64(c.IntOps*lIntOp + c.FloatOps*lFloatOp + c.TransOps*lTransOp +
			c.OtherBuiltins*lOtherB + c.GlobalLoads*lGLoad)
		laneK[op][1] = uint64(c.GlobalStores*lGStore + c.LocalOps*lLocalOp + c.Branches*lBranch +
			c.Barriers*lBarrier)
	}
}

// addPacked unpacks two accumulator words into the counter struct.
func (c *Counts) addPacked(a0, a1 uint64) {
	c.IntOps += int64(a0 & laneMax)
	c.FloatOps += int64(a0 >> laneBits & laneMax)
	c.TransOps += int64(a0 >> (2 * laneBits) & laneMax)
	c.OtherBuiltins += int64(a0 >> (3 * laneBits) & laneMax)
	c.GlobalLoads += int64(a0 >> (4 * laneBits) & laneMax)
	c.GlobalStores += int64(a1 & laneMax)
	c.LocalOps += int64(a1 >> laneBits & laneMax)
	c.Branches += int64(a1 >> (2 * laneBits) & laneMax)
	c.Barriers += int64(a1 >> (3 * laneBits) & laneMax)
}

// buildProfile checks the code's counter totals against the lane
// limit and derives the spill cadence. Called once at the end of
// compilation, after fusion has settled the final code.
func (p *Func) buildProfile() error {
	var sum Counts
	for i := range p.Code {
		c := staticCounts(p.Code[i].Op)
		sum.IntOps += c.IntOps
		sum.FloatOps += c.FloatOps
		sum.TransOps += c.TransOps
		sum.OtherBuiltins += c.OtherBuiltins
		sum.GlobalLoads += c.GlobalLoads
		sum.GlobalStores += c.GlobalStores
		sum.LocalOps += c.LocalOps
		sum.Branches += c.Branches
		sum.Barriers += c.Barriers
	}
	maxLane := int64(1)
	for _, v := range [...]int64{
		sum.IntOps, sum.FloatOps, sum.TransOps, sum.OtherBuiltins,
		sum.GlobalLoads, sum.GlobalStores, sum.LocalOps, sum.Branches,
		sum.Barriers,
	} {
		if v > laneMax {
			return fmt.Errorf("exec: vm: kernel %s too large to profile (%d counted ops, lane limit %d)", p.Name, v, laneMax)
		}
		maxLane = max(maxLane, v)
	}
	// One linear pass over the code adds at most maxLane to any
	// accumulator lane, so room passes are always safe before a spill
	// is forced.
	p.room = laneMax / int(maxLane)
	return nil
}

// exit spills the accumulated lanes into the frame's counters and
// parks the PC: once when the scalar interpreter returns to Run, and on
// every way out of the vector dispatch loop, whose frame's uniform half
// holds the group's shared counts and PC.
func (p *Func) exit(f *Frame, a0, a1 uint64, pc int) {
	f.Cnt.addPacked(a0, a1)
	f.PC = pc
}
