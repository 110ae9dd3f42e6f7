package prog

import (
	"fmt"

	"repro/internal/isa"
)

// Builder incrementally constructs a Program. It offers low-level
// instruction emission plus structured control-flow helpers (If, IfElse,
// While) that generate conventional compare-and-branch code — the input
// shape the if-converter consumes.
//
// Guard predicates for structured control flow are drawn from a small
// cyclic pool (p1..p15): a structured guard is dead immediately after its
// branch, so reuse is safe, and keeping the pool small leaves predicate
// registers free for the if-converter.
type Builder struct {
	p        *Program
	nextTmp  int
	poolNext int
	err      error
}

// Cond describes a compare condition for structured helpers.
type Cond struct {
	CC     isa.CmpCond
	S1     isa.Reg
	S2     isa.Reg
	Imm    int64
	HasImm bool
}

// RR builds a register-register condition.
func RR(cc isa.CmpCond, s1, s2 isa.Reg) Cond {
	return Cond{CC: cc, S1: s1, S2: s2}
}

// RI builds a register-immediate condition.
func RI(cc isa.CmpCond, s1 isa.Reg, imm int64) Cond {
	return Cond{CC: cc, S1: s1, Imm: imm, HasImm: true}
}

// NewBuilder returns a builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{p: New(name)}
}

// Program resolves labels, validates, and returns the built program.
func (b *Builder) Program() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.p.Resolve(); err != nil {
		return nil, err
	}
	if err := b.p.Validate(); err != nil {
		return nil, err
	}
	return b.p, nil
}

// MustProgram is Program but panics on error; intended for static workload
// definitions where a build error is a programming bug.
func (b *Builder) MustProgram() *Program {
	p, err := b.Program()
	if err != nil {
		panic(fmt.Sprintf("prog: building %s: %v", b.p.Name, err))
	}
	return p
}

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("prog builder %s: "+format, append([]any{b.p.Name}, args...)...)
	}
}

// Emit appends an instruction and returns a pointer to it so the caller can
// adjust fields (typically the guard: b.Emit(...).QP = p).
func (b *Builder) Emit(in isa.Inst) *isa.Inst {
	if in.IsDirectBranch() && in.Label == "" && in.Target == 0 {
		in.Target = -1
	}
	b.p.Insts = append(b.p.Insts, in)
	return &b.p.Insts[len(b.p.Insts)-1]
}

// Label binds name to the next instruction.
func (b *Builder) Label(name string) {
	if _, dup := b.p.Labels[name]; dup {
		b.fail("duplicate label %q", name)
		return
	}
	b.p.Labels[name] = len(b.p.Insts)
}

// NewLabel invents a fresh label name with the given prefix (not bound).
func (b *Builder) NewLabel(prefix string) string {
	b.nextTmp++
	return fmt.Sprintf(".%s%d", prefix, b.nextTmp)
}

// allocGuard returns the next guard predicate from the cyclic pool.
func (b *Builder) allocGuard() (t, f isa.PReg) {
	// Pairs (1,2), (3,4), ... (13,14), then wrap.
	const pairs = 7
	i := b.poolNext % pairs
	b.poolNext++
	return isa.PReg(1 + 2*i), isa.PReg(2 + 2*i)
}

// SetData records initial memory contents at base.
func (b *Builder) SetData(base int64, words []int64) { b.p.SetData(base, words) }

// --- Per-opcode helpers -------------------------------------------------

func (b *Builder) alu(op isa.Op, d, s1, s2 isa.Reg) *isa.Inst {
	return b.Emit(isa.Inst{Op: op, Dst: d, Src1: s1, Src2: s2})
}

func (b *Builder) alui(op isa.Op, d, s1 isa.Reg, imm int64) *isa.Inst {
	return b.Emit(isa.Inst{Op: op, Dst: d, Src1: s1, Imm: imm, HasImm: true})
}

// Add emits d = s1 + s2.
func (b *Builder) Add(d, s1, s2 isa.Reg) *isa.Inst { return b.alu(isa.OpAdd, d, s1, s2) }

// Addi emits d = s1 + imm.
func (b *Builder) Addi(d, s1 isa.Reg, imm int64) *isa.Inst { return b.alui(isa.OpAdd, d, s1, imm) }

// Sub emits d = s1 - s2.
func (b *Builder) Sub(d, s1, s2 isa.Reg) *isa.Inst { return b.alu(isa.OpSub, d, s1, s2) }

// Subi emits d = s1 - imm.
func (b *Builder) Subi(d, s1 isa.Reg, imm int64) *isa.Inst { return b.alui(isa.OpSub, d, s1, imm) }

// And emits d = s1 & s2.
func (b *Builder) And(d, s1, s2 isa.Reg) *isa.Inst { return b.alu(isa.OpAnd, d, s1, s2) }

// Andi emits d = s1 & imm.
func (b *Builder) Andi(d, s1 isa.Reg, imm int64) *isa.Inst { return b.alui(isa.OpAnd, d, s1, imm) }

// Or emits d = s1 | s2.
func (b *Builder) Or(d, s1, s2 isa.Reg) *isa.Inst { return b.alu(isa.OpOr, d, s1, s2) }

// Ori emits d = s1 | imm.
func (b *Builder) Ori(d, s1 isa.Reg, imm int64) *isa.Inst { return b.alui(isa.OpOr, d, s1, imm) }

// Xor emits d = s1 ^ s2.
func (b *Builder) Xor(d, s1, s2 isa.Reg) *isa.Inst { return b.alu(isa.OpXor, d, s1, s2) }

// Xori emits d = s1 ^ imm.
func (b *Builder) Xori(d, s1 isa.Reg, imm int64) *isa.Inst { return b.alui(isa.OpXor, d, s1, imm) }

// Shli emits d = s1 << imm.
func (b *Builder) Shli(d, s1 isa.Reg, imm int64) *isa.Inst { return b.alui(isa.OpShl, d, s1, imm) }

// Shri emits d = s1 >> imm (logical).
func (b *Builder) Shri(d, s1 isa.Reg, imm int64) *isa.Inst { return b.alui(isa.OpShr, d, s1, imm) }

// Sari emits d = s1 >> imm (arithmetic).
func (b *Builder) Sari(d, s1 isa.Reg, imm int64) *isa.Inst { return b.alui(isa.OpSar, d, s1, imm) }

// Mul emits d = s1 * s2.
func (b *Builder) Mul(d, s1, s2 isa.Reg) *isa.Inst { return b.alu(isa.OpMul, d, s1, s2) }

// Muli emits d = s1 * imm.
func (b *Builder) Muli(d, s1 isa.Reg, imm int64) *isa.Inst { return b.alui(isa.OpMul, d, s1, imm) }

// Div emits d = s1 / s2 (signed).
func (b *Builder) Div(d, s1, s2 isa.Reg) *isa.Inst { return b.alu(isa.OpDiv, d, s1, s2) }

// Modi emits d = s1 % imm (signed).
func (b *Builder) Modi(d, s1 isa.Reg, imm int64) *isa.Inst { return b.alui(isa.OpMod, d, s1, imm) }

// Mod emits d = s1 % s2 (signed).
func (b *Builder) Mod(d, s1, s2 isa.Reg) *isa.Inst { return b.alu(isa.OpMod, d, s1, s2) }

// Mov emits d = s.
func (b *Builder) Mov(d, s isa.Reg) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpMov, Dst: d, Src1: s})
}

// Movi emits d = imm.
func (b *Builder) Movi(d isa.Reg, imm int64) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpMovi, Dst: d, Imm: imm})
}

// Cmp emits pt, pf = cc(s1, s2) with normal write type.
func (b *Builder) Cmp(cc isa.CmpCond, pt, pf isa.PReg, s1, s2 isa.Reg) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpCmp, CC: cc, PD1: pt, PD2: pf, Src1: s1, Src2: s2})
}

// Cmpi emits pt, pf = cc(s1, imm) with normal write type.
func (b *Builder) Cmpi(cc isa.CmpCond, pt, pf isa.PReg, s1 isa.Reg, imm int64) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpCmp, CC: cc, PD1: pt, PD2: pf, Src1: s1, Imm: imm, HasImm: true})
}

// Ld emits d = mem[base + off].
func (b *Builder) Ld(d, base isa.Reg, off int64) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpLd, Dst: d, Src1: base, Imm: off})
}

// St emits mem[base + off] = val.
func (b *Builder) St(base isa.Reg, off int64, val isa.Reg) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpSt, Src1: base, Imm: off, Src2: val})
}

// Br emits an unconditional branch to label.
func (b *Builder) Br(label string) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpBr, Label: label, Target: -1})
}

// BrIf emits a branch to label guarded by p (taken iff p).
func (b *Builder) BrIf(p isa.PReg, label string) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpBr, QP: p, Label: label, Target: -1})
}

// Brl emits a branch-and-link to label, writing the return index to d.
func (b *Builder) Brl(d isa.Reg, label string) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpBrl, Dst: d, Label: label, Target: -1})
}

// Brr emits an indirect branch to the address in s.
func (b *Builder) Brr(s isa.Reg) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpBrr, Src1: s})
}

// Cloop emits a counted-loop branch: if ctr != 0 { ctr--; goto label }.
func (b *Builder) Cloop(ctr isa.Reg, label string) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpCloop, Dst: ctr, Label: label, Target: -1})
}

// Nop emits a no-op.
func (b *Builder) Nop() *isa.Inst { return b.Emit(isa.Inst{Op: isa.OpNop}) }

// Nopn emits n no-ops; tests and workloads use it to control the distance
// between a predicate define and its consuming branch.
func (b *Builder) Nopn(n int) {
	for i := 0; i < n; i++ {
		b.Nop()
	}
}

// Out emits the value of s to the program output stream.
func (b *Builder) Out(s isa.Reg) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpOut, Src1: s})
}

// Halt stops the program with the given exit code.
func (b *Builder) Halt(code int64) *isa.Inst {
	return b.Emit(isa.Inst{Op: isa.OpHalt, Imm: code})
}

// Trap emits a trap (error halt).
func (b *Builder) Trap() *isa.Inst { return b.Emit(isa.Inst{Op: isa.OpTrap}) }

// --- Structured control flow ---------------------------------------------

// emitCond materialises cond into a fresh guard pair and returns them.
func (b *Builder) emitCond(c Cond) (pt, pf isa.PReg) {
	pt, pf = b.allocGuard()
	in := isa.Inst{Op: isa.OpCmp, CC: c.CC, PD1: pt, PD2: pf, Src1: c.S1}
	if c.HasImm {
		in.Imm, in.HasImm = c.Imm, true
	} else {
		in.Src2 = c.S2
	}
	b.Emit(in)
	return pt, pf
}

// If emits: if cond { then() }.
func (b *Builder) If(c Cond, then func()) {
	_, pf := b.emitCond(c)
	end := b.NewLabel("endif")
	b.BrIf(pf, end)
	then()
	b.Label(end)
}

// IfElse emits: if cond { then() } else { els() }.
func (b *Builder) IfElse(c Cond, then, els func()) {
	_, pf := b.emitCond(c)
	elseL := b.NewLabel("else")
	end := b.NewLabel("endif")
	b.BrIf(pf, elseL)
	then()
	b.Br(end)
	b.Label(elseL)
	els()
	b.Label(end)
}

// While emits a top-tested loop: while cond { body() }.
func (b *Builder) While(c Cond, body func()) {
	head := b.NewLabel("while")
	end := b.NewLabel("wend")
	b.Label(head)
	_, pf := b.emitCond(c)
	b.BrIf(pf, end)
	body()
	b.Br(head)
	b.Label(end)
}

// DoWhile emits a bottom-tested loop: do { body() } while cond. The body
// always runs at least once, and the loop closes with a single guarded
// backward branch — the shape hyperblock formation likes best.
func (b *Builder) DoWhile(c Cond, body func()) {
	head := b.NewLabel("do")
	b.Label(head)
	body()
	pt, _ := b.emitCond(c)
	b.BrIf(pt, head)
}

// SwitchCase is one arm of a Switch.
type SwitchCase struct {
	Value int64
	Body  func()
}

// Switch emits an if-else chain comparing s against each case value in
// order, running the first matching body, or def (which may be nil) when
// nothing matches — the dispatch shape interpreters use.
func (b *Builder) Switch(s isa.Reg, cases []SwitchCase, def func()) {
	end := b.NewLabel("swend")
	for _, c := range cases {
		c := c
		next := b.NewLabel("swnext")
		_, pf := b.emitCond(RI(isa.CmpEQ, s, c.Value))
		b.BrIf(pf, next)
		c.Body()
		b.Br(end)
		b.Label(next)
	}
	if def != nil {
		def()
	}
	b.Label(end)
}

// CountedLoop emits a cloop-based loop running body n times. It clobbers
// ctr. n must be >= 1.
func (b *Builder) CountedLoop(ctr isa.Reg, n int64, body func()) {
	if n < 1 {
		b.fail("CountedLoop with n=%d < 1", n)
		return
	}
	b.Movi(ctr, n-1)
	head := b.NewLabel("loop")
	b.Label(head)
	body()
	b.Cloop(ctr, head)
}
