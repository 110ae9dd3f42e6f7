// Package pipeline implements an in-order, single-issue timing model for
// P64 with a parameterised branch-misprediction penalty, operand
// scoreboarding, nullified-slot costs for predicated instructions, and a
// fetch-stage integration of the paper's mechanisms: the squash false path
// filter consults a predicate scoreboard fed by in-flight defines, and the
// predicate global update mechanism inserts define outcomes into the
// predictor's global history as they resolve.
//
// The model is deliberately first-order: it charges one issue slot per
// fetched instruction (nullified or not), data-dependence stalls from a
// latency table, and a flat flush penalty per direction misprediction.
// Branch targets are assumed perfectly predicted (direction-only study,
// as in the paper).
//
// A run has two halves. Record executes the program once on the emulator
// and keeps what the timing model reads of each step; (*Exec).Run replays
// that recording under one machine configuration. Run does both, once.
package pipeline

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
)

// Config parameterises one timing run.
type Config struct {
	// Predictor supplies branch directions; it is Reset before the run.
	Predictor bpred.Predictor

	// UseSFPF enables the squash false path filter at fetch.
	UseSFPF bool
	// FilterTrue extends the filter to known-true guards on branches whose
	// guard implies taken.
	FilterTrue bool
	// TrainFiltered lets filtered branches train the predictor.
	TrainFiltered bool

	// PGU selects which resolved predicate defines update global history.
	PGU core.PGUPolicy

	// MispredictPenalty is the flush cost in cycles. Default 10.
	MispredictPenalty uint64
	// PredResolveLatency is the number of cycles after a define issues
	// before its value is visible to the fetch-stage filter and to the
	// history update. Default 5.
	PredResolveLatency uint64
	// IssueWidth is the number of instructions issued per cycle. Default 1.
	// Wider machines amortise nullified slots (cheapening predication)
	// while misprediction penalties stay flat — the axis the paper's
	// trade-off moves along. A taken branch ends its issue group.
	IssueWidth int

	// RASDepth sizes the return-address stack predicting indirect-branch
	// (brr) targets: calls push their return point, indirect branches pop
	// a predicted target, and a wrong target costs MispredictPenalty.
	// Depth 0 makes every executed indirect branch pay the penalty.
	// Default 8. Direct branch targets are assumed decode-resolved
	// (direction-only study, as in the paper).
	RASDepth int
	// NoRAS forces RASDepth 0 (the zero value of RASDepth means
	// "default", so disabling needs an explicit flag).
	NoRAS bool
}

// DefaultConfig returns the machine configuration used by the experiments,
// with the given predictor.
func DefaultConfig(p bpred.Predictor) Config {
	return Config{
		Predictor:          p,
		MispredictPenalty:  10,
		PredResolveLatency: 5,
	}
}

// WithDefaults returns c with every zero-valued machine parameter
// replaced by its default (the configuration Run actually simulates):
// penalty 10, resolve latency 5, issue width 1, RAS depth 8 (0 under
// NoRAS). Two configs that differ only in zero values versus their
// defaults describe the same machine once passed through it.
func (c Config) WithDefaults() Config {
	if c.MispredictPenalty == 0 {
		c.MispredictPenalty = 10
	}
	if c.PredResolveLatency == 0 {
		c.PredResolveLatency = 5
	}
	if c.IssueWidth <= 0 {
		c.IssueWidth = 1
	}
	if c.RASDepth <= 0 {
		c.RASDepth = 8
	}
	if c.NoRAS {
		c.RASDepth = 0
	}
	return c
}

// Stats reports the outcome of a timing run.
type Stats struct {
	Cycles    uint64
	Insts     uint64 // fetched instructions (including nullified)
	Nullified uint64
	Stalls    uint64 // cycles lost to operand dependences

	Branches          uint64 // conditional branches
	Mispredicts       uint64
	RegionBranches    uint64
	RegionMispredicts uint64

	Filtered     uint64
	FilteredTrue uint64
	FilterErrors uint64
	InsertedBits uint64

	IndirectBranches uint64 // executed indirect (brr) branches
	RASMisses        uint64 // indirect branches with a wrong predicted target

	ExitCode int64
}

// IPC returns instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insts) / float64(s.Cycles)
}

// MispredictRate returns mispredictions per conditional branch.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// latency returns the execute latency of an instruction in cycles.
func latency(op isa.Op) uint64 {
	switch op {
	case isa.OpLd:
		return 3
	case isa.OpMul:
		return 3
	case isa.OpDiv, isa.OpMod:
		return 12
	default:
		return 1
	}
}

// Each recorded step is one uint32: the static instruction index above
// flagBits outcome bits.
const (
	flagGuard = 1 << iota // the qualifying predicate was true
	flagTaken             // control was redirected
	flagCmp               // cmp: the evaluated condition
	flagPred0             // post-step value of the first non-P0 predicate dest
	flagPred1             // post-step value of the second
	flagBits  = iota
)

// maxRecordInsts is the longest program a recording can index: a static
// index must fit in the 32-flagBits bits above the outcome flags.
const maxRecordInsts = 1 << (32 - flagBits)

// recordChunk is the number of steps per staging chunk in Record.
const recordChunk = 1 << 13

// staticInst is what the timing loop needs of one static instruction,
// decoded once per program instead of once per dynamic instruction.
type staticInst struct {
	lat   uint64 // execute latency
	srcs  [2]isa.Reg
	nsrc  int
	dst   isa.Reg
	wrDst bool // writes dst, a register other than r0, when its guard holds
	// pdefs are the predicate dests other than P0, in PredDests order;
	// predDef is set for every predicate define, even one writing only P0.
	pdefs   [2]isa.PReg
	npdef   int
	predDef bool
	op      isa.Op
	qp      isa.PReg
	region  bool
	// condBranch marks the conditional branches the predictor sees.
	condBranch bool
	// cmp only: whether a destination guards some branch or some region
	// branch, the PGU policies' static selection.
	guardsBranch, guardsRegion bool
}

// decode builds the program's static table. Which predicate registers
// guard (region) branches mirrors trace.Collect's classification, so the
// PGU policy selects defines the same way a compiler-marked encoding
// would.
func decode(p *prog.Program) []staticInst {
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
	insts := make([]staticInst, len(p.Insts))
	for i := range p.Insts {
		in := &p.Insts[i]
		si := &insts[i]
		si.lat = latency(in.Op)
		si.srcs, si.nsrc = in.RegSources()
		d, ok := in.RegDest()
		si.dst, si.wrDst = d, ok && d != isa.R0
		pdsts, npd := in.PredDests()
		for _, pd := range pdsts[:npd] {
			if pd != isa.P0 {
				si.pdefs[si.npdef] = pd
				si.npdef++
			}
		}
		si.predDef = npd > 0
		si.op, si.qp, si.region = in.Op, in.QP, in.Region
		si.condBranch = (in.Op == isa.OpBr || in.Op == isa.OpBrl) && in.QP != isa.P0 ||
			in.Op == isa.OpCloop
		if in.Op == isa.OpCmp {
			mask := uint64(1)<<in.PD1 | uint64(1)<<in.PD2
			si.guardsBranch = branchGuards&mask != 0
			si.guardsRegion = regionGuards&mask != 0
		}
	}
	return insts
}

// Exec is one functional execution of a program, recorded once by Record
// and replayed by Run under any number of timing configurations. The
// paper's mechanisms change what the front end predicts, never what the
// program computes, so one recording serves every predictor, filter,
// PGU, width and RAS setting. An Exec is read-only once Record returns;
// concurrent Runs may share it.
type Exec struct {
	insts []staticInst
	// steps holds one packed word per executed step: the static index
	// shifted above the outcome flags. Its length equals its capacity.
	steps []uint32
	// next is the pc after the last recorded step; a step's own next pc
	// is the following step's index.
	next     int
	exitCode int64
	// err is the terminal limit or fault error, nil when the program
	// halted. faultIdx is the static index of the step that faulted, or
	// -1 when none did (or the pc left the program).
	err      error
	faultIdx int
}

// Record runs the program once on the emulator, for at most limit steps
// (0 means no limit), and records what the timing model reads of each
// step. A limit stop or an emulator fault ends the recording; Run
// reports it after replaying the steps before it. Record fails only when
// the program cannot run at all or is too long to index.
func Record(p *prog.Program, limit uint64) (*Exec, error) {
	return record(p, limit, maxRecordInsts)
}

// record is Record with the program-length bound as a parameter, so tests
// can exercise the refusal on a small program.
func record(p *prog.Program, limit uint64, maxInsts int) (*Exec, error) {
	if len(p.Insts) > maxInsts {
		return nil, fmt.Errorf("pipeline: %s has %d instructions; a recording indexes at most %d",
			p.Name, len(p.Insts), maxInsts)
	}
	m, err := emu.New(p)
	if err != nil {
		return nil, err
	}
	x := &Exec{insts: decode(p), faultIdx: -1}

	// Steps are staged in fixed-size chunks and copied once into an
	// exact-size slice, as trace.Collect stages events: no growth copies,
	// no spare capacity kept for the suite's lifetime.
	var full [][]uint32
	chunk := make([]uint32, recordChunk)
	n := 0
	for !m.Halted {
		if limit > 0 && m.Steps >= limit {
			x.err = fmt.Errorf("pipeline: %w (%d steps in %s)", emu.ErrLimit, m.Steps, p.Name)
			break
		}
		idx := m.PC
		si, err := m.Step()
		if err != nil {
			x.err = err
			if idx >= 0 && idx < len(x.insts) {
				x.faultIdx = idx
			}
			break
		}
		w := uint32(idx) << flagBits
		if si.GuardTrue {
			w |= flagGuard
		}
		if si.Taken {
			w |= flagTaken
		}
		if si.CmpValue {
			w |= flagCmp
		}
		in := &x.insts[idx]
		for j, pd := range in.pdefs[:in.npdef] {
			if m.Preds[pd] {
				w |= flagPred0 << j
			}
		}
		chunk[n] = w
		if n++; n == recordChunk {
			full = append(full, chunk)
			chunk = make([]uint32, recordChunk)
			n = 0
		}
	}
	x.next, x.exitCode = m.PC, m.ExitCode
	if total := len(full)*recordChunk + n; total > 0 {
		x.steps = make([]uint32, total)
		off := 0
		for _, c := range full {
			off += copy(x.steps[off:], c)
		}
		copy(x.steps[off:], chunk[:n])
	}
	return x, nil
}

// pendingResolve is one in-flight predicate define. A define writes at
// most two predicates (a compare's PD1 and PD2), so the pairs live in
// fixed arrays and queueing a define allocates nothing.
type pendingResolve struct {
	at    uint64 // cycle at which the values become fetch-visible
	n     int    // used entries of preds and vals
	preds [2]isa.PReg
	vals  [2]bool
	// pgu carries the define outcome bit when the policy selects it.
	pgu    bool
	pguBit bool
}

// Run executes the program on the timing model: it records the program's
// execution and replays it once under cfg.
func Run(p *prog.Program, cfg Config, limit uint64) (Stats, error) {
	x, err := Record(p, limit)
	if err != nil {
		return Stats{}, err
	}
	return x.Run(cfg)
}

// Run replays the recorded execution on the timing model configured by
// cfg. A recording that ended in a limit stop or a fault returns the
// statistics accumulated up to it together with the recorded error.
func (x *Exec) Run(cfg Config) (Stats, error) {
	cfg = cfg.WithDefaults()
	if cfg.Predictor == nil {
		return Stats{}, fmt.Errorf("pipeline: no predictor configured")
	}
	cfg.Predictor.Reset()

	var st Stats
	sfpf := core.NewSFPF()
	obs, _ := cfg.Predictor.(bpred.HistoryObserver)
	// The predictor predicts and trains in one step at resolve time. That
	// is exact: nothing touches the predictor between a branch's fetch and
	// its resolve, since history bits are only inserted at the top of the
	// loop.
	pred := bpred.AsFused(cfg.Predictor)
	pgu := obs != nil && cfg.PGU != core.PGUOff

	var regReady [isa.NumRegs]uint64
	var cycle uint64
	slot := 0 // instructions issued in the current cycle
	width := cfg.IssueWidth
	ras := make([]int, 0, cfg.RASDepth) // return-address stack
	// pending[head:] is the resolve queue in issue order. Pops advance
	// head; a push into a full backing array first compacts the drained
	// prefix away, so the queue settles on one array for the whole run.
	// 64 entries exceed the defines one resolve latency holds in flight
	// at the experiments' widths, so the array rarely grows.
	pending := make([]pendingResolve, 0, 64)
	head := 0

	steps := x.steps
	for i := 0; ; i++ {
		// A faulting step is fetched and issued like any other, then
		// stops the run where the emulator faulted.
		var w uint32
		if i < len(steps) {
			w = steps[i]
		} else if x.faultIdx >= 0 {
			w = uint32(x.faultIdx) << flagBits
		} else {
			break
		}

		// Apply resolves that became visible by the current fetch cycle.
		for ; head < len(pending) && pending[head].at <= cycle; head++ {
			pr := &pending[head]
			for j := range pr.n {
				sfpf.Resolve(pr.preds[j], pr.vals[j])
			}
			if pr.pgu {
				obs.ObserveBit(pr.pguBit)
				st.InsertedBits++
			}
		}

		idx := int(w >> flagBits)
		in := &x.insts[idx]

		// Fetch-stage bookkeeping.
		var filtered, filteredTrue bool
		if in.condBranch {
			st.Branches++
			if in.region {
				st.RegionBranches++
			}
			if known, val := sfpf.Lookup(in.qp); cfg.UseSFPF && in.qp != isa.P0 && known {
				filtered = !val
				filteredTrue = val && cfg.FilterTrue && in.op != isa.OpCloop // guard implies taken
			}
		}
		sfpf.FetchDef(in.pdefs[:in.npdef]...)

		// Issue: stall until source operands are ready, then take one of
		// the cycle's issue slots.
		ready := cycle
		for _, r := range in.srcs[:in.nsrc] {
			if regReady[r] > ready {
				ready = regReady[r]
			}
		}
		if ready > cycle {
			st.Stalls += ready - cycle
			cycle = ready
			slot = 0
		}
		issue := cycle
		slot++
		if slot >= width {
			cycle++
			slot = 0
		}

		if i == len(steps) {
			return st, x.err
		}
		guard, taken := w&flagGuard != 0, w&flagTaken != 0
		st.Insts++
		if !guard {
			st.Nullified++
		}
		if in.wrDst && guard {
			regReady[in.dst] = issue + in.lat
		}

		// Schedule predicate resolution for the fetch-stage structures.
		if in.predDef {
			pr := pendingResolve{at: issue + cfg.PredResolveLatency, n: in.npdef, preds: in.pdefs}
			for j := range in.npdef {
				pr.vals[j] = w&(flagPred0<<j) != 0
			}
			if pgu && in.op == isa.OpCmp && guard {
				switch cfg.PGU {
				case core.PGUAll:
					pr.pgu = true
				case core.PGUBranchGuards:
					pr.pgu = in.guardsBranch
				case core.PGURegionGuards:
					pr.pgu = in.guardsRegion
				}
				pr.pguBit = w&flagCmp != 0
			}
			if len(pending) == cap(pending) && head > 0 {
				pending, head = pending[:copy(pending, pending[head:])], 0
			}
			pending = append(pending, pr)
		}

		// Resolve the branch.
		if in.condBranch {
			switch {
			case filtered:
				st.Filtered++
				if taken {
					st.FilterErrors++
				}
				if cfg.TrainFiltered {
					pred.Update(uint64(idx), taken)
				}
			case filteredTrue:
				st.FilteredTrue++
				if !taken {
					st.FilterErrors++
				}
				if cfg.TrainFiltered {
					pred.Update(uint64(idx), taken)
				}
			default:
				if pred.PredictUpdate(uint64(idx), taken) != taken {
					st.Mispredicts++
					if in.region {
						st.RegionMispredicts++
					}
					cycle += cfg.MispredictPenalty
					slot = 0
				}
			}
		}
		// Return-address stack: calls push their return point; indirect
		// branches pop a predicted target and pay the flush penalty when
		// it is wrong (or when the stack is empty/disabled).
		if guard {
			switch in.op {
			case isa.OpBrl:
				if cfg.RASDepth > 0 {
					if len(ras) == cfg.RASDepth {
						copy(ras, ras[1:])
						ras = ras[:len(ras)-1]
					}
					ras = append(ras, idx+1)
				}
			case isa.OpBrr:
				st.IndirectBranches++
				predicted := -1
				if len(ras) > 0 {
					predicted = ras[len(ras)-1]
					ras = ras[:len(ras)-1]
				}
				next := x.next
				if i+1 < len(steps) {
					next = int(steps[i+1] >> flagBits)
				}
				if predicted != next {
					st.RASMisses++
					cycle += cfg.MispredictPenalty
					slot = 0
				}
			}
		}

		// A taken branch ends its issue group: the redirected fetch starts
		// a new cycle.
		if taken && slot != 0 {
			cycle++
			slot = 0
		}
	}
	if x.err != nil {
		return st, x.err
	}
	if slot != 0 {
		cycle++
	}
	st.Cycles = cycle
	st.ExitCode = x.exitCode
	return st, nil
}
