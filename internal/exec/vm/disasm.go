package vm

import (
	"fmt"
	"strings"

	"repro/internal/inspire"
)

// Disassemble renders a compiled function as stable, human-readable
// text: a header with the register and buffer layout, the constant
// pool, and one line per instruction. Golden tests pin this output so
// encoding changes are deliberate.
func Disassemble(p *Func) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s\n", p.Name)
	fmt.Fprintf(&b, "  regs: i=%d f=%d globals=%d locals=%d fused=%d\n",
		p.NumI, p.NumF, p.NumGlobals, p.NumLocal, p.Fused)
	if len(p.Params) > 0 {
		b.WriteString("  params:")
		for _, pr := range p.Params {
			switch pr.Kind {
			case ParamInt:
				fmt.Fprintf(&b, " i%d", pr.Index)
			case ParamFloat:
				fmt.Fprintf(&b, " f%d", pr.Index)
			case ParamGlobal:
				fmt.Fprintf(&b, " g%d", pr.Index)
			case ParamLocal:
				fmt.Fprintf(&b, " l%d", pr.Index)
			}
		}
		b.WriteByte('\n')
	}
	for i, v := range p.FPool {
		fmt.Fprintf(&b, "  fpool[%d] = %g\n", i, v)
	}
	for pc := range p.Code {
		fmt.Fprintf(&b, "%4d  %s\n", pc, disasmInstr(p, &p.Code[pc]))
	}
	return b.String()
}

// Disassemble renders the vectorized view of the kernel: the scalar
// disassembly plus the uniformity classification that drives the SIMT
// tier — a header summarizing it and a per-instruction marker column
// ('u' = statically uniform branch condition, executed once per group;
// 'v' = varying branch, runtime lane-agreement scan with masked
// re-convergence on disagreement; 's' = scalarized, the instruction
// retires once on the scalar slots instead of once per lane). A 'v'
// line ends with where the group re-forms — `join <pc> linear` when its
// short sides run in place under the lane mask, `join <pc>` when it
// splits — or `bail` when disagreement there takes the full scalar
// bail, and the header
// lists the uniform registers some divergent region writes, which live
// in each side's private scalar slots, and every loop mask: a varying
// branch inside a loop whose region holds a loop (a varying back-edge
// or exit, a `break` under a varying guard), with the exit join where
// the lanes it parks meet the last ones out (`pc->join`). Golden tests
// pin this output so classification changes are deliberate.
func (p *VecFunc) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "vec func %s\n", p.Name)
	uni, total := p.UniformConds()
	nui, nuf := 0, 0
	for _, u := range p.uniI {
		if u {
			nui++
		}
	}
	for _, u := range p.uniF {
		if u {
			nuf++
		}
	}
	fmt.Fprintf(&b, "  uniform: conds=%d/%d iregs=%d/%d fregs=%d/%d scal=%d/%d\n",
		uni, total, nui, len(p.uniI), nuf, len(p.uniF), p.ScalarizedOps(), len(p.Code))
	if privI, privF := p.sidePrivate(); len(privI)+len(privF) > 0 {
		b.WriteString("  side-private:")
		for _, r := range privI {
			fmt.Fprintf(&b, " i%d", r)
		}
		for _, r := range privF {
			fmt.Fprintf(&b, " f%d", r)
		}
		b.WriteByte('\n')
	}
	masks := ""
	for pc, reg := range p.regions {
		if reg != nil && reg.loop {
			masks += fmt.Sprintf(" %d->%d", pc, p.joinPC[pc])
		}
	}
	if masks != "" {
		fmt.Fprintf(&b, "  loop masks:%s\n", masks)
	}
	for pc := range p.Code {
		mark, join := byte(' '), ""
		if _, ok := condJumpTarget(&p.Code[pc], pc); ok {
			switch {
			case p.condUniform[pc]:
				mark = 'u'
			case p.lin[pc] != nil:
				mark, join = 'v', fmt.Sprintf("  join %d linear", p.joinPC[pc])
			case p.joinPC[pc] >= 0:
				mark, join = 'v', fmt.Sprintf("  join %d", p.joinPC[pc])
			default:
				mark, join = 'v', "  bail"
			}
		} else if len(p.scal) > 0 && p.scal[pc] {
			mark = 's'
		}
		fmt.Fprintf(&b, "%4d %c %s%s\n", pc, mark, disasmInstr(p.Func, &p.Code[pc]), join)
	}
	return b.String()
}

func disasmInstr(p *Func, in *Instr) string {
	info, ok := LookupOp(in.Op)
	if !ok {
		return fmt.Sprintf("op(%d) a=%d b=%d c=%d imm=%d", uint8(in.Op), in.A, in.B, in.C, in.Imm)
	}
	name := fmt.Sprintf("%-10s", info.Name)
	switch info.Fmt {
	case FmtNone, FmtBar:
		return strings.TrimRight(name, " ")
	case FmtIabc:
		return fmt.Sprintf("%s i%d <- i%d, i%d", name, in.A, in.B, in.C)
	case FmtIab:
		return fmt.Sprintf("%s i%d <- i%d", name, in.A, in.B)
	case FmtIaImm:
		return fmt.Sprintf("%s i%d <- #%d", name, in.A, in.Imm)
	case FmtFabc:
		return fmt.Sprintf("%s f%d <- f%d, f%d", name, in.A, in.B, in.C)
	case FmtFab:
		return fmt.Sprintf("%s f%d <- f%d", name, in.A, in.B)
	case FmtFaPool:
		return fmt.Sprintf("%s f%d <- fpool[%d]", name, in.A, in.Imm)
	case FmtFaIb:
		return fmt.Sprintf("%s f%d <- i%d", name, in.A, in.B)
	case FmtIaFb:
		return fmt.Sprintf("%s i%d <- f%d", name, in.A, in.B)
	case FmtIaFbc:
		return fmt.Sprintf("%s i%d <- f%d, f%d", name, in.A, in.B, in.C)
	case FmtFabcImm:
		return fmt.Sprintf("%s f%d <- f%d, f%d, f%d", name, in.A, in.B, in.C, in.Imm)
	case FmtIabcImm:
		return fmt.Sprintf("%s i%d <- i%d, i%d, i%d", name, in.A, in.B, in.C, in.Imm)
	case FmtJmp:
		return fmt.Sprintf("%s -> %d", name, in.Imm)
	case FmtJCond:
		return fmt.Sprintf("%s i%d -> %d", name, in.A, in.Imm)
	case FmtWI:
		return fmt.Sprintf("%s i%d <- %s(%d)", name, in.A, inspire.WIQuery(in.B), in.C)
	case FmtWIDyn:
		return fmt.Sprintf("%s i%d <- %s(i%d)", name, in.A, inspire.WIQuery(in.B), in.C)
	case FmtLoadF:
		return fmt.Sprintf("%s f%d <- %s:%d[i%d]", name, in.A, p.Names[in.Imm], in.B, in.C)
	case FmtLoadI:
		return fmt.Sprintf("%s i%d <- %s:%d[i%d]", name, in.A, p.Names[in.Imm], in.B, in.C)
	case FmtStoreF:
		return fmt.Sprintf("%s %s:%d[i%d] <- f%d", name, p.Names[in.Imm], in.B, in.C, in.A)
	case FmtStoreI:
		return fmt.Sprintf("%s %s:%d[i%d] <- i%d", name, p.Names[in.Imm], in.B, in.C, in.A)
	case FmtFusedLdF:
		slot, nm := unpackMem(in.Imm)
		return fmt.Sprintf("%s f%d <- f%d, %s:%d[i%d]", name, in.A, in.B, p.Names[nm], slot, in.C)
	case FmtFusedMacF:
		slot, nm := unpackMem(in.Imm)
		return fmt.Sprintf("%s f%d <- f%d + f%d*%s:%d[i%d]", name, in.A, in.A, in.B, p.Names[nm], slot, in.C)
	case FmtLdIdxF:
		slot, nm, r := unpackMemIdx(in.Imm)
		return fmt.Sprintf("%s f%d <- %s:%d[i%d*i%d+i%d]", name, in.A, p.Names[nm], slot, in.B, in.C, r)
	case FmtMacIdxF:
		slot, nm, r2, r3 := unpackMacIdx(in.Imm)
		return fmt.Sprintf("%s f%d <- f%d + f%d*%s:%d[i%d*i%d+i%d]", name, in.A, in.A, in.B, p.Names[nm], slot, in.C, r2, r3)
	case FmtIncJCmpI:
		cc, tgt := unpackCcTarget(in.Imm)
		return fmt.Sprintf("%s i%d += i%d; if i%d %s i%d -> %d", name, in.A, in.B, in.A, ccNames[cc], in.C, tgt)
	case FmtJCmpI:
		return fmt.Sprintf("%s if i%d %s i%d -> %d", name, in.A, ccNames[in.C], in.B, in.Imm)
	case FmtJCmpF:
		return fmt.Sprintf("%s if f%d %s f%d -> %d", name, in.A, ccNames[in.C], in.B, in.Imm)
	default:
		return fmt.Sprintf("%s a=%d b=%d c=%d imm=%d", name, in.A, in.B, in.C, in.Imm)
	}
}
