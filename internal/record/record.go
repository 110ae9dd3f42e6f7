// Package record runs a program once on the emulator and keeps what every
// downstream view reads of each dynamic instruction, packed into one
// 32-bit word per step: the static instruction index plus the outcome
// bits (guard, taken, compare value, post-step predicate values).
//
// One recording serves the whole reproduction. trace.FromRecording
// derives the branch and predicate-define event stream from it,
// profile.FromRecording the per-instruction execution profile, and
// pipeline.Replay the timing model's run. The static rules those
// views share — which instructions are conditional branches, which
// compares feed a (region) branch guard, when a predicate define writes
// its destinations — live here, in the per-program table Recording.Insts,
// so each rule has one home. Program is the only emulator loop: every
// view is derived from a finished recording, none from a live run.
package record

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
)

// Step is one recorded dynamic instruction: the static index above
// flagBits outcome bits.
type Step uint32

const (
	flagGuard Step = 1 << iota // the qualifying predicate was true
	flagTaken                  // control was redirected
	flagCmp                    // cmp: the evaluated condition
	flagPred0                  // post-step value of the first non-P0 predicate dest
	flagPred1                  // post-step value of the second
)

const flagBits = 5

// maxInsts is the longest program a recording can index: a static index
// must fit in the 32-flagBits bits above the outcome flags.
const maxInsts = 1 << (32 - flagBits)

// chunkSteps is the number of steps per staging chunk in Program.
const chunkSteps = 1 << 12

// Index returns the step's static instruction index.
func (s Step) Index() int { return int(s >> flagBits) }

// Guard reports whether the step's qualifying predicate was true.
func (s Step) Guard() bool { return s&flagGuard != 0 }

// Taken reports whether the step redirected control.
func (s Step) Taken() bool { return s&flagTaken != 0 }

// Cmp reports a compare's evaluated condition (false when nullified).
func (s Step) Cmp() bool { return s&flagCmp != 0 }

// PredDest reports the post-step value of the instruction's j-th non-P0
// predicate destination (Inst.PDefs[j]).
func (s Step) PredDest(j int) bool { return s&(flagPred0<<j) != 0 }

// Event classifies an instruction by the trace event it produces.
type Event uint8

const (
	// NoEvent marks an instruction no predictor view observes.
	NoEvent Event = iota
	// Define marks a compare: a predicate define, the input of the
	// predicate global update mechanism.
	Define
	// Branch marks a conditional branch (isa.Inst.IsCondBranch).
	Branch
)

// writeRule says when an instruction writes its predicate destinations.
type writeRule uint8

const (
	writesNever   writeRule = iota
	writesGuarded           // under a true guard
	writesAlways            // cmp.unc: clears both under a false guard
	writesIfFalse           // cmp.and: under a true guard, when the condition fails
	writesIfTrue            // cmp.or: under a true guard, when the condition holds
)

// Inst is what the views of a recording need of one static instruction,
// classified once per program.
type Inst struct {
	Op     isa.Op
	QP     isa.PReg
	Region bool
	Event  Event
	// PDefs are the predicate destinations other than P0, in
	// isa.Inst.PredDests order; NPDef counts them. PredDef is set for
	// every predicate define, even one writing only P0.
	PDefs   [2]isa.PReg
	NPDef   uint8
	PredDef bool
	// FeedsBranch and FeedsRegionBranch mark a compare whose destination
	// guards some branch, or some region branch. Predicate register reuse
	// makes the classification conservative, as a hardware or
	// compiler-table implementation would be.
	FeedsBranch, FeedsRegionBranch bool
	// GuardImpliesTaken marks a conditional br or brl, taken iff its
	// guard is true; a cloop's true guard still tests its counter.
	GuardImpliesTaken bool

	writes writeRule
}

// Wrote reports whether step s of this instruction wrote its PDefs.
func (in *Inst) Wrote(s Step) bool {
	switch in.writes {
	case writesGuarded:
		return s.Guard()
	case writesAlways:
		return true
	case writesIfFalse:
		return s.Guard() && !s.Cmp()
	case writesIfTrue:
		return s.Guard() && s.Cmp()
	}
	return false
}

// decode builds the program's static table.
func decode(p *prog.Program) []Inst {
	var branchGuards, regionGuards uint64
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.IsBranch() && in.QP != isa.P0 {
			branchGuards |= 1 << in.QP
			if in.Region {
				regionGuards |= 1 << in.QP
			}
		}
	}
	insts := make([]Inst, len(p.Insts))
	for i := range p.Insts {
		in := &p.Insts[i]
		si := &insts[i]
		si.Op, si.QP, si.Region = in.Op, in.QP, in.Region
		pdsts, npd := in.PredDests()
		for _, pd := range pdsts[:npd] {
			if pd != isa.P0 {
				si.PDefs[si.NPDef] = pd
				si.NPDef++
			}
		}
		si.PredDef = npd > 0
		if si.NPDef > 0 {
			si.writes = writesGuarded
		}
		switch {
		case in.Op == isa.OpCmp:
			si.Event = Define
			mask := uint64(1)<<in.PD1 | uint64(1)<<in.PD2
			si.FeedsBranch = branchGuards&mask != 0
			si.FeedsRegionBranch = regionGuards&mask != 0
			if si.NPDef > 0 {
				switch in.CT {
				case isa.CmpUnc:
					si.writes = writesAlways
				case isa.CmpAnd:
					si.writes = writesIfFalse
				case isa.CmpOr:
					si.writes = writesIfTrue
				}
			}
		case in.IsCondBranch():
			si.Event = Branch
			si.GuardImpliesTaken = in.Op != isa.OpCloop
		}
	}
	return insts
}

// Recording is one functional execution of a program. It is read-only
// once Program returns; any number of views may derive from it
// concurrently.
type Recording struct {
	Prog *prog.Program
	// Insts is the program's static table, indexed by Step.Index.
	Insts []Inst
	// Steps holds one word per executed step; len equals cap.
	Steps []Step
	// Next is the pc after the last recorded step; a step's own next pc
	// is the following step's index.
	Next     int
	ExitCode int64
	// Nullified counts the steps whose guard was false.
	Nullified uint64
	// Events counts the steps whose instruction produces a trace event.
	Events int
	// Err is the terminal error: nil when the program halted, an error
	// wrapping emu.ErrLimit after a limit stop, or the emulator's fault.
	Err error
	// faultIdx is the static index of the step that faulted, or -1 when
	// none did (or the pc left the program).
	faultIdx int
}

// Faulted returns the step that faulted, with every outcome bit clear,
// and whether one did: the timing model fetches and issues it before
// stopping where the emulator faulted. A pc that left the program
// faults without a step.
func (x *Recording) Faulted() (Step, bool) {
	if x.faultIdx < 0 {
		return 0, false
	}
	return Step(x.faultIdx) << flagBits, true
}

// Program runs p once on the emulator, for at most limit steps (0 means
// no limit), and records every step. A limit stop or a fault ends the
// recording and is kept in Recording.Err; Program itself fails only when
// the program cannot run at all or is too long to index.
func Program(p *prog.Program, limit uint64) (*Recording, error) {
	return program(p, limit, maxInsts)
}

// program is Program with the program-length bound as a parameter, so
// tests can exercise the refusal on a small program.
func program(p *prog.Program, limit uint64, max int) (*Recording, error) {
	if len(p.Insts) > max {
		return nil, fmt.Errorf("record: %s has %d instructions; a recording indexes at most %d",
			p.Name, len(p.Insts), max)
	}
	m, err := emu.New(p)
	if err != nil {
		return nil, err
	}
	x := &Recording{Prog: p, Insts: decode(p), faultIdx: -1}
	// Steps are staged in fixed-size chunks and copied once into an
	// exact-size slice: no growth copies, no spare capacity kept for the
	// recording's lifetime.
	var full [][]Step
	chunk := make([]Step, chunkSteps)
	n := 0
	var info emu.StepInfo // scratch for each step's report
	for !m.Halted {
		if limit > 0 && m.Steps >= limit {
			x.Err = fmt.Errorf("%w (%d steps in %s)", emu.ErrLimit, m.Steps, p.Name)
			break
		}
		idx := m.PC
		if err := m.StepInto(&info); err != nil {
			x.Err = err
			if idx >= 0 && idx < len(x.Insts) {
				x.faultIdx = idx
			}
			break
		}
		s := Step(idx) << flagBits
		if info.GuardTrue {
			s |= flagGuard
		}
		if info.Taken {
			s |= flagTaken
		}
		if info.CmpValue {
			s |= flagCmp
		}
		in := &x.Insts[idx]
		for j, pd := range in.PDefs[:in.NPDef] {
			if m.Preds[pd] {
				s |= flagPred0 << j
			}
		}
		if in.Event != NoEvent {
			x.Events++
		}
		chunk[n] = s
		if n++; n == chunkSteps {
			full = append(full, chunk)
			chunk = make([]Step, chunkSteps)
			n = 0
		}
	}
	x.Next, x.ExitCode, x.Nullified = m.PC, m.ExitCode, m.Nullified
	if total := len(full)*chunkSteps + n; total > 0 {
		x.Steps = make([]Step, total)
		off := 0
		for _, c := range full {
			off += copy(x.Steps[off:], c)
		}
		copy(x.Steps[off:], chunk[:n])
	}
	return x, nil
}
