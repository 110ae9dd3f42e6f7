package isa

import (
	"testing"
	"testing/quick"
)

func TestOpStrings(t *testing.T) {
	for op := OpNop; op < opMax; op++ {
		if s := op.String(); s == "" || s[0] == 'o' && s != "out" && len(s) > 3 && s[:3] == "op(" {
			t.Errorf("op %d has no name: %q", op, s)
		}
	}
	if got := Op(200).String(); got != "op(200)" {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestRegStrings(t *testing.T) {
	if got := Reg(7).String(); got != "r7" {
		t.Errorf("Reg(7) = %q", got)
	}
	if got := PReg(3).String(); got != "p3" {
		t.Errorf("PReg(3) = %q", got)
	}
}

func TestCmpCondEval(t *testing.T) {
	cases := []struct {
		cc   CmpCond
		a, b int64
		want bool
	}{
		{CmpEQ, 5, 5, true},
		{CmpEQ, 5, 6, false},
		{CmpNE, 5, 6, true},
		{CmpNE, 5, 5, false},
		{CmpLT, -1, 0, true},
		{CmpLT, 0, 0, false},
		{CmpLE, 0, 0, true},
		{CmpLE, 1, 0, false},
		{CmpGT, 1, 0, true},
		{CmpGT, 0, 0, false},
		{CmpGE, 0, 0, true},
		{CmpGE, -1, 0, false},
		{CmpLTU, -1, 0, false}, // -1 is max uint64
		{CmpLTU, 0, -1, true},
		{CmpGEU, -1, 0, true},
		{CmpGEU, 0, -1, false},
	}
	for _, c := range cases {
		if got := c.cc.Eval(c.a, c.b); got != c.want {
			t.Errorf("%s(%d,%d) = %v, want %v", c.cc, c.a, c.b, got, c.want)
		}
	}
}

func TestCmpCondNegate(t *testing.T) {
	// Property: negated condition always evaluates to the complement.
	f := func(cc uint8, a, b int64) bool {
		c := CmpCond(cc % uint8(cmpCondMax))
		return c.Eval(a, b) == !c.Negate().Eval(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCmpCondNegateInvolution(t *testing.T) {
	for c := CmpEQ; c < cmpCondMax; c++ {
		if c.Negate().Negate() != c {
			t.Errorf("%s.Negate().Negate() = %s", c, c.Negate().Negate())
		}
	}
}

func TestValidateRanges(t *testing.T) {
	good := Inst{Op: OpAdd, Dst: 1, Src1: 2, Src2: 3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid add rejected: %v", err)
	}
	bad := []Inst{
		{Op: Op(250)},
		{Op: OpAdd, Dst: 64},
		{Op: OpAdd, Src1: 64},
		{Op: OpAdd, QP: 64},
		{Op: OpCmp, PD1: 64, PD2: 1},
		{Op: OpCmp, PD1: 3, PD2: 3}, // identical destinations
		{Op: OpCmp, PD1: 1, PD2: 2, CC: CmpCond(15)},
		{Op: OpPinit, PD1: 1, Imm: 7},
		{Op: OpBr, Target: -1}, // unresolved, no label
		{Op: OpPand, PD1: 1, PS1: 64, PS2: 2},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad[%d] (%+v) accepted", i, in)
		}
	}
}

func TestInstClassifiers(t *testing.T) {
	br := Inst{Op: OpBr, Target: 0}
	if !br.IsBranch() || !br.IsDirectBranch() {
		t.Error("br not classified as direct branch")
	}
	brr := Inst{Op: OpBrr, Src1: 1}
	if !brr.IsBranch() || brr.IsDirectBranch() {
		t.Error("brr misclassified")
	}
	cmp := Inst{Op: OpCmp, PD1: 1, PD2: 2}
	if !cmp.IsPredDef() {
		t.Error("cmp not a predicate define")
	}
	if got, n := cmp.PredDests(); n != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("cmp PredDests = %v, %d", got, n)
	}
	pand := Inst{Op: OpPand, PD1: 3, PS1: 1, PS2: 2}
	if got, n := pand.PredSources(); n != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("pand PredSources = %v, %d", got, n)
	}
	add := Inst{Op: OpAdd, Dst: 5, Src1: 1, Src2: 2}
	if d, ok := add.RegDest(); !ok || d != 5 {
		t.Errorf("add RegDest = %v, %v", d, ok)
	}
	if got, n := add.RegSources(); n != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("add RegSources = %v, %d", got, n)
	}
	addi := Inst{Op: OpAdd, Dst: 5, Src1: 1, Imm: 3, HasImm: true}
	if got, n := addi.RegSources(); n != 1 || got[0] != 1 {
		t.Errorf("addi RegSources = %v, %d", got, n)
	}
	st := Inst{Op: OpSt, Src1: 1, Src2: 2}
	if _, ok := st.RegDest(); ok {
		t.Error("st should have no register destination")
	}
	for _, c := range []struct {
		in   Inst
		want bool
	}{
		{Inst{Op: OpBr, QP: 3}, true},
		{Inst{Op: OpBrl, QP: 3}, true},
		{Inst{Op: OpCloop}, true},
		{Inst{Op: OpCloop, QP: 3}, true},
		{Inst{Op: OpBr}, false},  // p0-guarded: always taken
		{Inst{Op: OpBrl}, false}, // an unconditional call
		{Inst{Op: OpBrr, QP: 3}, false},
		{Inst{Op: OpCmp, QP: 3}, false},
	} {
		if got := c.in.IsCondBranch(); got != c.want {
			t.Errorf("%s IsCondBranch = %v, want %v", c.in.String(), got, c.want)
		}
	}
}

// TestOperandHelpersDoNotAllocate pins the operand helpers at zero heap
// allocations for every opcode, register and immediate form: the timing
// model calls them once per simulated instruction.
func TestOperandHelpersDoNotAllocate(t *testing.T) {
	var insts []Inst
	for op := OpNop; op < opMax; op++ {
		insts = append(insts,
			Inst{Op: op, Dst: 1, Src1: 2, Src2: 3, PD1: 1, PD2: 2, PS1: 3, PS2: 4},
			Inst{Op: op, Dst: 1, Src1: 2, Imm: 5, HasImm: true, PD1: 1, PS1: 3})
	}
	var sum int
	allocs := testing.AllocsPerRun(100, func() {
		for i := range insts {
			in := &insts[i]
			srcs, n := in.RegSources()
			sum += int(srcs[0]) + n
			pd, n := in.PredDests()
			sum += int(pd[1]) + n
			ps, n := in.PredSources()
			sum += int(ps[1]) + n
		}
	})
	if allocs != 0 {
		t.Errorf("operand helpers allocate %v times per pass over %d instructions", allocs, len(insts))
	}
	if sum == 0 {
		t.Error("operand helpers reported no operands")
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpNop}, "nop"},
		{Inst{Op: OpAdd, Dst: 1, Src1: 2, Src2: 3}, "add r1 = r2, r3"},
		{Inst{Op: OpAdd, Dst: 1, Src1: 2, Imm: -4, HasImm: true}, "add r1 = r2, -4"},
		{Inst{Op: OpMovi, Dst: 9, Imm: 42}, "movi r9 = 42"},
		{
			Inst{Op: OpCmp, CC: CmpLT, CT: CmpUnc, PD1: 1, PD2: 2, Src1: 3, Src2: 4},
			"cmp.lt.unc p1, p2 = r3, r4",
		},
		{Inst{Op: OpBr, QP: 5, Label: "loop"}, "(p5) br loop"},
		{Inst{Op: OpBr, Target: 17}, "br @17"},
		{Inst{Op: OpLd, Dst: 1, Src1: 2, Imm: 8}, "ld r1 = [r2 + 8]"},
		{Inst{Op: OpSt, Src1: 2, Imm: 0, Src2: 3}, "st [r2 + 0] = r3"},
		{Inst{Op: OpPor, PD1: 3, PS1: 1, PS2: 2}, "por p3 = p1, p2"},
		{Inst{Op: OpHalt, Imm: 1}, "halt 1"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}
