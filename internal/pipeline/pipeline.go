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
// A run has two halves. The program's recorded execution
// (internal/record) supplies every step's outcome; Replay times it under
// one machine configuration. The paper's mechanisms change what the
// front end predicts, never what the program computes, so one recording
// serves every predictor, filter, PGU, width and RAS setting. Run does
// both halves, once.
package pipeline

import (
	"errors"
	"fmt"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/record"
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

// staticInst is what the timing loop needs of one static instruction,
// decoded once per replay instead of once per dynamic instruction: the
// recording's classification plus the timing model's own operand and
// latency table.
type staticInst struct {
	record.Inst
	lat   uint64 // execute latency
	srcs  [2]isa.Reg
	nsrc  uint8
	dst   isa.Reg
	wrDst bool // writes dst, a register other than r0, when its guard holds
}

// staticTable adds the timing model's operand and latency table to the
// recording's static table: O(static instructions), against the replay's
// O(dynamic steps).
func staticTable(x *record.Recording) []staticInst {
	insts := make([]staticInst, len(x.Insts))
	for i := range x.Prog.Insts {
		in := &x.Prog.Insts[i]
		si := &insts[i]
		si.Inst = x.Insts[i]
		si.lat = latency(in.Op)
		srcs, nsrc := in.RegSources()
		si.srcs, si.nsrc = srcs, uint8(nsrc)
		d, ok := in.RegDest()
		si.dst, si.wrDst = d, ok && d != isa.R0
	}
	return insts
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
// execution (record.Program, for at most limit steps; 0 means no limit)
// and replays it once under cfg. A limit stop or an emulator fault ends
// the recording; the replay reports it after the steps before it. Run
// fails without statistics only when the program cannot run at all or
// is too long to index.
func Run(p *prog.Program, cfg Config, limit uint64) (Stats, error) {
	x, err := record.Program(p, limit)
	if err != nil {
		return Stats{}, err
	}
	return Replay(x, cfg)
}

// Replay runs the recorded execution on the timing model configured by
// cfg. A recording that ended in a limit stop or a fault returns the
// statistics accumulated up to it together with the recorded error: a
// limit stop prefixed "pipeline: ", a fault as the emulator raised it.
// The recording is only read; concurrent replays may share it.
func Replay(x *record.Recording, cfg Config) (Stats, error) {
	cfg = cfg.WithDefaults()
	if cfg.Predictor == nil {
		return Stats{}, fmt.Errorf("pipeline: no predictor configured")
	}
	cfg.Predictor.Reset()
	insts := staticTable(x)
	runErr := x.Err
	if errors.Is(runErr, emu.ErrLimit) {
		runErr = fmt.Errorf("pipeline: %w", runErr)
	}

	var st Stats
	sfpf := core.NewSFPF()
	obs, _ := cfg.Predictor.(bpred.HistoryObserver)
	// The predictor predicts and trains in one step at resolve time. That
	// is exact: nothing touches the predictor between a branch's fetch and
	// its resolve, since history bits are only inserted at the top of the
	// loop.
	pred := cfg.Predictor
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

	steps := x.Steps
	fault, faulted := x.Faulted()
	for i := 0; ; i++ {
		// A faulting step is fetched and issued like any other, then
		// stops the run where the emulator faulted.
		var w record.Step
		if i < len(steps) {
			w = steps[i]
		} else if faulted {
			w = fault
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

		idx := w.Index()
		in := &insts[idx]

		// Fetch-stage bookkeeping.
		var filtered, filteredTrue bool
		if in.Event == record.Branch {
			st.Branches++
			if in.Region {
				st.RegionBranches++
			}
			if known, val := sfpf.Lookup(in.QP); cfg.UseSFPF && in.QP != isa.P0 && known {
				filtered = !val
				filteredTrue = val && cfg.FilterTrue && in.GuardImpliesTaken
			}
		}
		sfpf.FetchDef(in.PDefs[:in.NPDef]...)

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
			return st, runErr
		}
		guard, taken := w.Guard(), w.Taken()
		st.Insts++
		if !guard {
			st.Nullified++
		}
		if in.wrDst && guard {
			regReady[in.dst] = issue + in.lat
		}

		// Schedule predicate resolution for the fetch-stage structures.
		if in.PredDef {
			pr := pendingResolve{at: issue + cfg.PredResolveLatency, n: int(in.NPDef), preds: in.PDefs}
			for j := range pr.n {
				pr.vals[j] = w.PredDest(j)
			}
			if pgu && in.Event == record.Define && guard {
				pr.pgu = cfg.PGU.SelectsDefine(in.FeedsBranch, in.FeedsRegionBranch)
				pr.pguBit = w.Cmp()
			}
			if len(pending) == cap(pending) && head > 0 {
				pending, head = pending[:copy(pending, pending[head:])], 0
			}
			pending = append(pending, pr)
		}

		// Resolve the branch.
		if in.Event == record.Branch {
			switch {
			case filtered:
				st.Filtered++
				if taken {
					st.FilterErrors++
				}
				if cfg.TrainFiltered {
					pred.PredictUpdate(uint64(idx), taken)
				}
			case filteredTrue:
				st.FilteredTrue++
				if !taken {
					st.FilterErrors++
				}
				if cfg.TrainFiltered {
					pred.PredictUpdate(uint64(idx), taken)
				}
			default:
				if pred.PredictUpdate(uint64(idx), taken) != taken {
					st.Mispredicts++
					if in.Region {
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
			switch in.Op {
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
				next := x.Next
				if i+1 < len(steps) {
					next = steps[i+1].Index()
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
	if runErr != nil {
		return st, runErr
	}
	if slot != 0 {
		cycle++
	}
	st.Cycles = cycle
	st.ExitCode = x.ExitCode
	return st, nil
}
