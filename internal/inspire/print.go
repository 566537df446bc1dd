package inspire

import (
	"fmt"
	"strings"
)

// Print renders the unit as readable pseudo-INSPIRE text, mainly for
// debugging and golden tests.
func Print(u *Unit) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "unit %s\n", u.Name)
	for _, h := range u.Helpers {
		printFunc(&sb, h)
	}
	for _, k := range u.Kernels {
		printFunc(&sb, k)
	}
	return sb.String()
}

// PrintFunction renders a single function.
func PrintFunction(f *Function) string {
	var sb strings.Builder
	printFunc(&sb, f)
	return sb.String()
}

func printFunc(sb *strings.Builder, f *Function) {
	kind := "func"
	if f.Kernel {
		kind = "kernel"
	}
	params := make([]string, len(f.Params))
	for i, p := range f.Params {
		params[i] = fmt.Sprintf("%s %s", p.Type, p)
	}
	fmt.Fprintf(sb, "%s %s(%s) -> %s {\n", kind, f.Name, strings.Join(params, ", "), f.Ret)
	printBlock(sb, f.Body, 1)
	sb.WriteString("}\n")
}

func indent(sb *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

func printBlock(sb *strings.Builder, b *Block, depth int) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		printStmt(sb, s, depth)
	}
}

func printStmt(sb *strings.Builder, s Stmt, depth int) {
	indent(sb, depth)
	switch st := s.(type) {
	case *Block:
		sb.WriteString("{\n")
		printBlock(sb, st, depth+1)
		indent(sb, depth)
		sb.WriteString("}\n")
	case *Decl:
		if st.Init != nil {
			fmt.Fprintf(sb, "decl %s %s = %s\n", st.Var.Type, st.Var, ExprString(st.Init))
		} else {
			fmt.Fprintf(sb, "decl %s %s\n", st.Var.Type, st.Var)
		}
	case *StoreVar:
		fmt.Fprintf(sb, "%s = %s\n", st.Var, ExprString(st.Value))
	case *StoreElem:
		fmt.Fprintf(sb, "%s[%s] = %s\n", st.Buf, ExprString(st.Index), ExprString(st.Value))
	case *If:
		fmt.Fprintf(sb, "if %s {\n", ExprString(st.Cond))
		printBlock(sb, st.Then, depth+1)
		if st.Else != nil {
			indent(sb, depth)
			sb.WriteString("} else {\n")
			printBlock(sb, st.Else, depth+1)
		}
		indent(sb, depth)
		sb.WriteString("}\n")
	case *For:
		sb.WriteString("for ")
		if st.Init != nil {
			var tmp strings.Builder
			printStmt(&tmp, st.Init, 0)
			sb.WriteString(strings.TrimSuffix(tmp.String(), "\n"))
		}
		sb.WriteString("; ")
		if st.Cond != nil {
			sb.WriteString(ExprString(st.Cond))
		}
		sb.WriteString("; ")
		if st.Post != nil {
			var tmp strings.Builder
			printStmt(&tmp, st.Post, 0)
			sb.WriteString(strings.TrimSuffix(tmp.String(), "\n"))
		}
		sb.WriteString(" {\n")
		printBlock(sb, st.Body, depth+1)
		indent(sb, depth)
		sb.WriteString("}\n")
	case *While:
		fmt.Fprintf(sb, "while %s {\n", ExprString(st.Cond))
		printBlock(sb, st.Body, depth+1)
		indent(sb, depth)
		sb.WriteString("}\n")
	case *Return:
		if st.Value != nil {
			fmt.Fprintf(sb, "return %s\n", ExprString(st.Value))
		} else {
			sb.WriteString("return\n")
		}
	case *Break:
		sb.WriteString("break\n")
	case *Continue:
		sb.WriteString("continue\n")
	case *Barrier:
		sb.WriteString("barrier\n")
	case *Eval:
		fmt.Fprintf(sb, "eval %s\n", ExprString(st.X))
	default:
		fmt.Fprintf(sb, "?stmt %T\n", s)
	}
}

// ExprString renders an expression as text.
func ExprString(e Expr) string {
	switch ex := e.(type) {
	case nil:
		return "<nil>"
	case *ConstInt:
		return fmt.Sprintf("%d", ex.Value)
	case *ConstFloat:
		return fmt.Sprintf("%g", ex.Value)
	case *ConstBool:
		return fmt.Sprintf("%t", ex.Value)
	case *VarRef:
		return ex.Var.String()
	case *Load:
		return fmt.Sprintf("%s[%s]", ex.Buf, ExprString(ex.Index))
	case *BinOp:
		return fmt.Sprintf("(%s %s %s)", ExprString(ex.L), ex.Op, ExprString(ex.R))
	case *UnOp:
		return fmt.Sprintf("(%s %s)", ex.Op, ExprString(ex.X))
	case *Select:
		return fmt.Sprintf("(%s ? %s : %s)", ExprString(ex.Cond), ExprString(ex.Then), ExprString(ex.Else))
	case *Cast:
		return fmt.Sprintf("(%s)(%s)", ex.To, ExprString(ex.X))
	case *WorkItem:
		return fmt.Sprintf("%s(%s)", ex.Query, ExprString(ex.Dim))
	case *CallBuiltin:
		args := make([]string, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = ExprString(a)
		}
		return fmt.Sprintf("%s(%s)", ex.Builtin.Name, strings.Join(args, ", "))
	case *CallFunc:
		args := make([]string, len(ex.Args))
		for i, a := range ex.Args {
			args[i] = ExprString(a)
		}
		return fmt.Sprintf("%s(%s)", ex.Callee.Name, strings.Join(args, ", "))
	}
	return fmt.Sprintf("?expr %T", e)
}
