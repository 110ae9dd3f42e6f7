// Package emu implements the P64 functional emulator: architectural
// registers, predicate registers, paged word-addressed memory, and precise
// step-by-step execution with nullification of false-guarded instructions.
//
// The emulator is both the correctness oracle (original and if-converted
// programs must produce identical results) and the source of every
// simulation input: internal/record's Recorder calls StepInto once per
// dynamic instruction and packs the outcome bits of each StepInfo, and
// the event traces, execution profiles and timing-model replays all
// derive from that one recording.
package emu

import (
	"errors"
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
)

// pageBits sets the memory page granularity (words per page = 1<<pageBits).
const pageBits = 12

const pageWords = 1 << pageBits

// Fault describes an execution error with program position context.
type Fault struct {
	Prog  string
	Index int
	Inst  string
	Msg   string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("emu: %s at %s[%d] %q", f.Msg, f.Prog, f.Index, f.Inst)
}

// ErrLimit is returned by Run when the instruction budget is exhausted
// before the program halts.
var ErrLimit = errors.New("emu: instruction limit exceeded")

// PredWrite records one predicate register write performed by a step.
type PredWrite struct {
	P isa.PReg
	V bool
}

// StepInfo reports what one dynamic instruction did. The pipeline model and
// trace capture consume it. PredWrites aliases a scratch buffer owned by
// the machine: consume it before the next Step call, copy it to retain it.
type StepInfo struct {
	Index      int       // static instruction index
	Inst       *isa.Inst // the instruction (points into the program)
	GuardTrue  bool      // value of the qualifying predicate at execute
	Taken      bool      // branches: control actually redirected
	NextPC     int       // pc after this step
	CmpValue   bool      // cmp: the evaluated condition (meaningful when GuardTrue)
	Halted     bool      // program halted at this step
	PredWrites []PredWrite
}

// Machine is a P64 architectural machine bound to one program.
type Machine struct {
	Prog *prog.Program

	Regs  [isa.NumRegs]int64
	Preds [isa.NumPRegs]bool
	PC    int

	mem    map[int64]*[pageWords]int64
	Output []int64

	Halted   bool
	ExitCode int64

	// Dynamic counters.
	Steps     uint64 // dynamic instructions fetched/stepped
	Nullified uint64 // steps whose guard was false

	// scratch buffer reused across steps to avoid per-step allocation
	predScratch [2]PredWrite
}

// New creates a machine for the program, loading its initial data. The
// program must already resolve and validate.
func New(p *prog.Program) (*Machine, error) {
	if err := p.Resolve(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Prog: p, mem: make(map[int64]*[pageWords]int64)}
	m.Preds[isa.P0] = true
	for base, words := range p.Data {
		for i, w := range words {
			if err := m.Store(base+int64(i), w); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// Load reads a memory word.
func (m *Machine) Load(addr int64) (int64, error) {
	if addr < 0 {
		return 0, fmt.Errorf("emu: load from negative address %d", addr)
	}
	pg := m.mem[addr>>pageBits]
	if pg == nil {
		return 0, nil
	}
	return pg[addr&(pageWords-1)], nil
}

// Store writes a memory word.
func (m *Machine) Store(addr, val int64) error {
	if addr < 0 {
		return fmt.Errorf("emu: store to negative address %d", addr)
	}
	key := addr >> pageBits
	pg := m.mem[key]
	if pg == nil {
		pg = new([pageWords]int64)
		m.mem[key] = pg
	}
	pg[addr&(pageWords-1)] = val
	return nil
}

// MemSnapshot returns all nonzero memory words; used by tests to compare
// final states.
func (m *Machine) MemSnapshot() map[int64]int64 {
	out := make(map[int64]int64)
	for key, pg := range m.mem {
		base := key << pageBits
		for i, w := range pg {
			if w != 0 {
				out[base+int64(i)] = w
			}
		}
	}
	return out
}

func (m *Machine) fault(idx int, format string, args ...any) error {
	in := ""
	if idx >= 0 && idx < len(m.Prog.Insts) {
		in = m.Prog.Insts[idx].String()
	}
	return &Fault{Prog: m.Prog.Name, Index: idx, Inst: in, Msg: fmt.Sprintf(format, args...)}
}

func (m *Machine) setReg(r isa.Reg, v int64) {
	if r != isa.R0 {
		m.Regs[r] = v
	}
}

func (m *Machine) setPred(p isa.PReg, v bool, writes *[]PredWrite) {
	if p == isa.P0 {
		return
	}
	m.Preds[p] = v
	*writes = append(*writes, PredWrite{P: p, V: v})
}

// Step executes one instruction and returns what happened.
func (m *Machine) Step() (StepInfo, error) {
	var info StepInfo
	err := m.StepInto(&info)
	return info, err
}

// StepInto is Step writing its report into *info instead of returning
// it, so a caller stepping millions of times (the recorder) reuses one
// StepInfo. When the step cannot start (after a halt, or with the pc
// outside the program) *info is left unchanged.
func (m *Machine) StepInto(info *StepInfo) error {
	if m.Halted {
		return fmt.Errorf("emu: %s: step after halt", m.Prog.Name)
	}
	if m.PC < 0 || m.PC >= len(m.Prog.Insts) {
		return m.fault(m.PC, "pc out of range")
	}
	idx := m.PC
	in := &m.Prog.Insts[idx]
	*info = StepInfo{Index: idx, Inst: in, NextPC: idx + 1}
	info.PredWrites = m.predScratch[:0]
	m.Steps++

	guard := m.Preds[in.QP]
	info.GuardTrue = guard

	src2 := func() int64 {
		if in.HasImm {
			return in.Imm
		}
		return m.Regs[in.Src2]
	}

	if !guard {
		// Nullified — with two exceptions that still act under a false
		// guard: unconditional-type compares clear their destinations.
		m.Nullified++
		if in.Op == isa.OpCmp && in.CT == isa.CmpUnc {
			m.setPred(in.PD1, false, &info.PredWrites)
			m.setPred(in.PD2, false, &info.PredWrites)
		}
		m.PC = info.NextPC
		return nil
	}

	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		m.setReg(in.Dst, m.Regs[in.Src1]+src2())
	case isa.OpSub:
		m.setReg(in.Dst, m.Regs[in.Src1]-src2())
	case isa.OpAnd:
		m.setReg(in.Dst, m.Regs[in.Src1]&src2())
	case isa.OpOr:
		m.setReg(in.Dst, m.Regs[in.Src1]|src2())
	case isa.OpXor:
		m.setReg(in.Dst, m.Regs[in.Src1]^src2())
	case isa.OpShl:
		m.setReg(in.Dst, m.Regs[in.Src1]<<(uint64(src2())&63))
	case isa.OpShr:
		m.setReg(in.Dst, int64(uint64(m.Regs[in.Src1])>>(uint64(src2())&63)))
	case isa.OpSar:
		m.setReg(in.Dst, m.Regs[in.Src1]>>(uint64(src2())&63))
	case isa.OpMul:
		m.setReg(in.Dst, m.Regs[in.Src1]*src2())
	case isa.OpDiv:
		d := src2()
		if d == 0 {
			return m.fault(idx, "division by zero")
		}
		m.setReg(in.Dst, m.Regs[in.Src1]/d)
	case isa.OpMod:
		d := src2()
		if d == 0 {
			return m.fault(idx, "modulo by zero")
		}
		m.setReg(in.Dst, m.Regs[in.Src1]%d)
	case isa.OpMov:
		m.setReg(in.Dst, m.Regs[in.Src1])
	case isa.OpMovi:
		m.setReg(in.Dst, in.Imm)
	case isa.OpCmp:
		c := in.CC.Eval(m.Regs[in.Src1], src2())
		info.CmpValue = c
		switch in.CT {
		case isa.CmpNorm, isa.CmpUnc:
			m.setPred(in.PD1, c, &info.PredWrites)
			m.setPred(in.PD2, !c, &info.PredWrites)
		case isa.CmpAnd:
			if !c {
				m.setPred(in.PD1, false, &info.PredWrites)
				m.setPred(in.PD2, false, &info.PredWrites)
			}
		case isa.CmpOr:
			if c {
				m.setPred(in.PD1, true, &info.PredWrites)
				m.setPred(in.PD2, true, &info.PredWrites)
			}
		}
	case isa.OpLd:
		v, err := m.Load(m.Regs[in.Src1] + in.Imm)
		if err != nil {
			return m.fault(idx, "%v", err)
		}
		m.setReg(in.Dst, v)
	case isa.OpSt:
		if err := m.Store(m.Regs[in.Src1]+in.Imm, m.Regs[in.Src2]); err != nil {
			return m.fault(idx, "%v", err)
		}
	case isa.OpBr:
		info.Taken = true
		info.NextPC = in.Target
	case isa.OpBrl:
		m.setReg(in.Dst, int64(idx+1))
		info.Taken = true
		info.NextPC = in.Target
	case isa.OpBrr:
		t := m.Regs[in.Src1]
		if t < 0 || t >= int64(len(m.Prog.Insts)) {
			return m.fault(idx, "indirect branch to %d out of range", t)
		}
		info.Taken = true
		info.NextPC = int(t)
	case isa.OpCloop:
		if m.Regs[in.Dst] != 0 {
			m.setReg(in.Dst, m.Regs[in.Dst]-1)
			info.Taken = true
			info.NextPC = in.Target
		}
	case isa.OpPand:
		m.setPred(in.PD1, m.Preds[in.PS1] && m.Preds[in.PS2], &info.PredWrites)
	case isa.OpPor:
		m.setPred(in.PD1, m.Preds[in.PS1] || m.Preds[in.PS2], &info.PredWrites)
	case isa.OpPmov:
		m.setPred(in.PD1, m.Preds[in.PS1], &info.PredWrites)
	case isa.OpPinit:
		m.setPred(in.PD1, in.Imm != 0, &info.PredWrites)
	case isa.OpOut:
		m.Output = append(m.Output, m.Regs[in.Src1])
	case isa.OpHalt:
		m.Halted = true
		m.ExitCode = in.Imm
		info.Halted = true
	case isa.OpTrap:
		return m.fault(idx, "trap executed (if-conversion bug or explicit trap)")
	default:
		return m.fault(idx, "unimplemented opcode %s", in.Op)
	}

	m.PC = info.NextPC
	return nil
}

// Result summarises a completed run.
type Result struct {
	ExitCode  int64
	Steps     uint64
	Nullified uint64
	Output    []int64
}

// Run executes until halt or until limit dynamic instructions have been
// stepped. A limit of 0 means no limit. It returns ErrLimit (wrapped) if
// the budget is exhausted.
func (m *Machine) Run(limit uint64) (Result, error) {
	for !m.Halted {
		if limit > 0 && m.Steps >= limit {
			return m.result(), fmt.Errorf("%w (%d steps in %s)", ErrLimit, m.Steps, m.Prog.Name)
		}
		if _, err := m.Step(); err != nil {
			return m.result(), err
		}
	}
	return m.result(), nil
}

func (m *Machine) result() Result {
	return Result{ExitCode: m.ExitCode, Steps: m.Steps, Nullified: m.Nullified, Output: m.Output}
}

// RunProgram is a convenience: build a machine and run to completion.
func RunProgram(p *prog.Program, limit uint64) (Result, error) {
	m, err := New(p)
	if err != nil {
		return Result{}, err
	}
	return m.Run(limit)
}
