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

// Run executes the program on the timing model.
func Run(p *prog.Program, cfg Config, limit uint64) (Stats, error) {
	cfg = cfg.WithDefaults()
	if cfg.Predictor == nil {
		return Stats{}, fmt.Errorf("pipeline: no predictor configured")
	}
	cfg.Predictor.Reset()
	m, err := emu.New(p)
	if err != nil {
		return Stats{}, err
	}

	// Static classification mirroring trace.Collect: which predicate
	// registers guard (region) branches, so the PGU policy can select
	// defines the same way a compiler-marked encoding would.
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

	var st Stats
	sfpf := core.NewSFPF()
	obs, _ := cfg.Predictor.(bpred.HistoryObserver)
	// The predictor predicts and trains in one step at resolve time. That
	// is exact: nothing touches the predictor between a branch's fetch and
	// its resolve, since history bits are only inserted at the top of the
	// loop.
	pred := bpred.AsFused(cfg.Predictor)

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

	for !m.Halted {
		if limit > 0 && m.Steps >= limit {
			return st, fmt.Errorf("pipeline: %w (%d steps in %s)", emu.ErrLimit, m.Steps, p.Name)
		}

		// Apply resolves that became visible by the current fetch cycle.
		for ; head < len(pending) && pending[head].at <= cycle; head++ {
			pr := &pending[head]
			for j := range pr.n {
				sfpf.Resolve(pr.preds[j], pr.vals[j])
			}
			if pr.pgu && obs != nil {
				obs.ObserveBit(pr.pguBit)
				st.InsertedBits++
			}
		}

		idx := m.PC
		in := &p.Insts[idx]

		// Fetch-stage bookkeeping before functional execution.
		isCondBranch := (in.Op == isa.OpBr || in.Op == isa.OpBrl) && in.QP != isa.P0 ||
			in.Op == isa.OpCloop
		guardImpliesTaken := in.Op != isa.OpCloop
		var filtered, filteredTrue bool
		if isCondBranch {
			st.Branches++
			if in.Region {
				st.RegionBranches++
			}
			if known, val := sfpf.Lookup(in.QP); cfg.UseSFPF && in.QP != isa.P0 && known {
				filtered = !val
				filteredTrue = val && cfg.FilterTrue && guardImpliesTaken
			}
		}
		pdsts, npd := in.PredDests()
		sfpf.FetchDef(pdsts[:npd]...)

		// Issue: stall until source operands are ready, then take one of
		// the cycle's issue slots.
		ready := cycle
		srcs, nsrc := in.RegSources()
		for _, r := range srcs[:nsrc] {
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

		si, err := m.Step()
		if err != nil {
			return st, err
		}
		st.Insts++
		if !si.GuardTrue {
			st.Nullified++
		}
		if d, ok := in.RegDest(); ok && d != isa.R0 && si.GuardTrue {
			regReady[d] = issue + latency(in.Op)
		}

		// Schedule predicate resolution for the fetch-stage structures.
		if npd > 0 {
			pr := pendingResolve{at: issue + cfg.PredResolveLatency}
			for _, pd := range pdsts[:npd] {
				if pd == isa.P0 {
					continue
				}
				pr.preds[pr.n], pr.vals[pr.n] = pd, m.Preds[pd]
				pr.n++
			}
			if in.Op == isa.OpCmp && si.GuardTrue && cfg.PGU != core.PGUOff && obs != nil {
				mask := uint64(1)<<in.PD1 | uint64(1)<<in.PD2
				selected := false
				switch cfg.PGU {
				case core.PGUAll:
					selected = true
				case core.PGUBranchGuards:
					selected = branchGuards&mask != 0
				case core.PGURegionGuards:
					selected = regionGuards&mask != 0
				}
				if selected {
					pr.pgu, pr.pguBit = true, si.CmpValue
				}
			}
			if len(pending) == cap(pending) && head > 0 {
				pending, head = pending[:copy(pending, pending[head:])], 0
			}
			pending = append(pending, pr)
		}

		// Resolve the branch.
		if isCondBranch {
			switch {
			case filtered:
				st.Filtered++
				if si.Taken {
					st.FilterErrors++
				}
				if cfg.TrainFiltered {
					pred.Update(uint64(idx), si.Taken)
				}
			case filteredTrue:
				st.FilteredTrue++
				if !si.Taken {
					st.FilterErrors++
				}
				if cfg.TrainFiltered {
					pred.Update(uint64(idx), si.Taken)
				}
			default:
				if pred.PredictUpdate(uint64(idx), si.Taken) != si.Taken {
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
		if si.GuardTrue {
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
				if predicted != si.NextPC {
					st.RASMisses++
					cycle += cfg.MispredictPenalty
					slot = 0
				}
			}
		}

		// A taken branch ends its issue group: the redirected fetch starts
		// a new cycle.
		if si.Taken && slot != 0 {
			cycle++
			slot = 0
		}
	}
	if slot != 0 {
		cycle++
	}
	st.Cycles = cycle
	st.ExitCode = m.ExitCode
	return st, nil
}
