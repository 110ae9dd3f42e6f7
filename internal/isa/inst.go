package isa

import "fmt"

// Inst is a single P64 instruction. The zero value is a nop guarded by p0.
//
// Field usage by opcode:
//
//	ALU/Mov:      Dst, Src1, Src2 or Imm (HasImm)
//	Movi:         Dst, Imm
//	Cmp:          PD1, PD2, CC, CT, Src1, Src2 or Imm
//	Ld:           Dst, Src1 (base), Imm (offset)
//	St:           Src2 (value), Src1 (base), Imm (offset)
//	Br/Cloop:     Target (and Label before resolution); Cloop also Dst (counter)
//	Brl:          Dst (link), Target
//	Brr:          Src1 (target address)
//	Pand/Por:     PD1, PS1, PS2
//	Pmov:         PD1, PS1
//	Pinit:        PD1, Imm (0 or 1)
//	Out:          Src1
//	Halt:         Imm (exit code)
type Inst struct {
	Op Op
	QP PReg // qualifying predicate; P0 means unguarded

	Dst  Reg
	Src1 Reg
	Src2 Reg

	Imm    int64
	HasImm bool // ALU/Cmp: use Imm instead of Src2

	// Compare fields.
	PD1, PD2 PReg
	CC       CmpCond
	CT       CmpType

	// Predicate-manipulation sources.
	PS1, PS2 PReg

	// Branch target as an instruction index; -1 or Label-only before the
	// assembler resolves labels.
	Target int
	Label  string

	// Region marks a region-based branch: a branch the if-converter left
	// inside a predicated region. The paper's mechanisms key on this class.
	Region bool
}

// Nop returns a no-op instruction.
func Nop() Inst { return Inst{Op: OpNop} }

// IsBranch reports whether the instruction can redirect control flow.
func (in *Inst) IsBranch() bool {
	switch in.Op {
	case OpBr, OpBrl, OpBrr, OpCloop:
		return true
	}
	return false
}

// IsDirectBranch reports whether the instruction is a branch with a static
// target.
func (in *Inst) IsDirectBranch() bool {
	switch in.Op {
	case OpBr, OpBrl, OpCloop:
		return true
	}
	return false
}

// IsPredDef reports whether the instruction writes predicate registers.
func (in *Inst) IsPredDef() bool {
	switch in.Op {
	case OpCmp, OpPand, OpPor, OpPmov, OpPinit:
		return true
	}
	return false
}

// The operand helpers below return their registers in a fixed-size array
// plus a count: the used entries are the first n. The timing model queries
// operands for every simulated instruction, and a returned slice would put
// a heap allocation on that path.

// PredDests returns the predicate registers the instruction may write, as
// the first n entries of dsts.
func (in *Inst) PredDests() (dsts [2]PReg, n int) {
	switch in.Op {
	case OpCmp:
		return [2]PReg{in.PD1, in.PD2}, 2
	case OpPand, OpPor, OpPmov, OpPinit:
		return [2]PReg{in.PD1}, 1
	}
	return dsts, 0
}

// PredSources returns the predicate registers the instruction reads, not
// counting the qualifying predicate, as the first n entries of srcs.
func (in *Inst) PredSources() (srcs [2]PReg, n int) {
	switch in.Op {
	case OpPand, OpPor:
		return [2]PReg{in.PS1, in.PS2}, 2
	case OpPmov:
		return [2]PReg{in.PS1}, 1
	}
	return srcs, 0
}

// RegDest returns the general register written by the instruction and
// whether there is one.
func (in *Inst) RegDest() (Reg, bool) {
	switch in.Op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar, OpMul,
		OpDiv, OpMod, OpMov, OpMovi, OpLd, OpBrl:
		return in.Dst, true
	case OpCloop:
		return in.Dst, true // counter is read-modify-write
	}
	return 0, false
}

// RegSources returns the general registers the instruction reads, as the
// first n entries of srcs.
func (in *Inst) RegSources() (srcs [2]Reg, n int) {
	switch in.Op {
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar, OpMul, OpDiv, OpMod, OpCmp:
		if in.HasImm {
			return [2]Reg{in.Src1}, 1
		}
		return [2]Reg{in.Src1, in.Src2}, 2
	case OpMov, OpLd, OpBrr, OpOut:
		return [2]Reg{in.Src1}, 1
	case OpSt:
		return [2]Reg{in.Src1, in.Src2}, 2
	case OpCloop:
		return [2]Reg{in.Dst}, 1
	}
	return srcs, 0
}

// Validate checks structural well-formedness: opcode and field ranges. It
// does not check that branch targets are in range; the program container
// does that once labels are resolved.
func (in *Inst) Validate() error {
	if !in.Op.Valid() {
		return fmt.Errorf("isa: invalid opcode %d", in.Op)
	}
	if in.QP >= NumPRegs {
		return fmt.Errorf("isa: %s: qualifying predicate %d out of range", in.Op, in.QP)
	}
	check := func(r Reg, what string) error {
		if r >= NumRegs {
			return fmt.Errorf("isa: %s: %s register %d out of range", in.Op, what, r)
		}
		return nil
	}
	checkP := func(p PReg, what string) error {
		if p >= NumPRegs {
			return fmt.Errorf("isa: %s: %s predicate %d out of range", in.Op, what, p)
		}
		return nil
	}
	if d, ok := in.RegDest(); ok {
		if err := check(d, "destination"); err != nil {
			return err
		}
	}
	srcs, n := in.RegSources()
	for _, r := range srcs[:n] {
		if err := check(r, "source"); err != nil {
			return err
		}
	}
	pdsts, n := in.PredDests()
	for _, p := range pdsts[:n] {
		if err := checkP(p, "destination"); err != nil {
			return err
		}
	}
	psrcs, n := in.PredSources()
	for _, p := range psrcs[:n] {
		if err := checkP(p, "source"); err != nil {
			return err
		}
	}
	switch in.Op {
	case OpCmp:
		if !in.CC.Valid() {
			return fmt.Errorf("isa: cmp: invalid condition %d", in.CC)
		}
		if !in.CT.Valid() {
			return fmt.Errorf("isa: cmp: invalid compare type %d", in.CT)
		}
		if in.PD1 == in.PD2 && in.PD1 != P0 {
			return fmt.Errorf("isa: cmp: identical predicate destinations %s", in.PD1)
		}
	case OpPinit:
		if in.Imm != 0 && in.Imm != 1 {
			return fmt.Errorf("isa: pinit: immediate must be 0 or 1, got %d", in.Imm)
		}
	case OpBr, OpBrl, OpCloop:
		if in.Target < 0 && in.Label == "" {
			return fmt.Errorf("isa: %s: unresolved branch with no label", in.Op)
		}
	}
	return nil
}

// String renders the instruction in assembly syntax.
func (in Inst) String() string {
	guard := ""
	if in.QP != P0 {
		guard = fmt.Sprintf("(%s) ", in.QP)
	}
	return guard + in.body()
}

// brName appends the region-based-branch suffix to a branch mnemonic.
func (in *Inst) brName(base string) string {
	if in.Region {
		return base + ".region"
	}
	return base
}

func (in *Inst) body() string {
	src2 := func() string {
		if in.HasImm {
			return fmt.Sprintf("%d", in.Imm)
		}
		return in.Src2.String()
	}
	target := func() string {
		if in.Label != "" {
			return in.Label
		}
		return fmt.Sprintf("@%d", in.Target)
	}
	switch in.Op {
	case OpNop:
		return "nop"
	case OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar, OpMul, OpDiv, OpMod:
		return fmt.Sprintf("%s %s = %s, %s", in.Op, in.Dst, in.Src1, src2())
	case OpMov:
		return fmt.Sprintf("mov %s = %s", in.Dst, in.Src1)
	case OpMovi:
		return fmt.Sprintf("movi %s = %d", in.Dst, in.Imm)
	case OpCmp:
		name := "cmp." + in.CC.String()
		if in.CT != CmpNorm {
			name += "." + in.CT.String()
		}
		return fmt.Sprintf("%s %s, %s = %s, %s", name, in.PD1, in.PD2, in.Src1, src2())
	case OpLd:
		return fmt.Sprintf("ld %s = [%s + %d]", in.Dst, in.Src1, in.Imm)
	case OpSt:
		return fmt.Sprintf("st [%s + %d] = %s", in.Src1, in.Imm, in.Src2)
	case OpBr:
		return in.brName("br") + " " + target()
	case OpBrl:
		return fmt.Sprintf("%s %s = %s", in.brName("brl"), in.Dst, target())
	case OpBrr:
		return in.brName("brr") + " " + in.Src1.String()
	case OpCloop:
		return fmt.Sprintf("%s %s, %s", in.brName("cloop"), in.Dst, target())
	case OpPand:
		return fmt.Sprintf("pand %s = %s, %s", in.PD1, in.PS1, in.PS2)
	case OpPor:
		return fmt.Sprintf("por %s = %s, %s", in.PD1, in.PS1, in.PS2)
	case OpPmov:
		return fmt.Sprintf("pmov %s = %s", in.PD1, in.PS1)
	case OpPinit:
		return fmt.Sprintf("pinit %s = %d", in.PD1, in.Imm)
	case OpOut:
		return "out " + in.Src1.String()
	case OpHalt:
		return fmt.Sprintf("halt %d", in.Imm)
	case OpTrap:
		return "trap"
	}
	return fmt.Sprintf("op(%d)", uint8(in.Op))
}
