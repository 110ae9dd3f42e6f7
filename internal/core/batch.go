// The evaluator's feed loop.
//
// Every consumer — experiment sweeps, the differential oracle, serving
// sessions, trace replay CLIs — advances an Evaluator through FeedBatch;
// Feed is its one-event case. The loop makes one predictor call per
// branch it trains: PredictUpdate, the predictor's one predict-then-train
// step. A filtered branch under TrainFiltered takes the same step and
// discards the prediction. When SFPF, PGU and per-branch statistics are
// all off — the serving configuration — FeedBatch runs feedTight, which
// has no filter, pending-bit or per-branch work to skip.

package core

import (
	"unsafe"

	"repro/internal/isa"
	"repro/internal/trace"
)

// Feed advances the evaluation by one event. Events must arrive in
// dynamic order (non-decreasing Step), as a trace replay produces them.
func (e *Evaluator) Feed(ev *trace.Event) { e.FeedBatch(unsafe.Slice(ev, 1)) }

// FeedBatch advances the evaluation by a batch of events, exactly as
// feeding them to Feed one at a time would. Events must arrive in dynamic
// order across batches, as with Feed. FeedBatch only reads the events;
// the caller may reuse the slice afterwards.
func (e *Evaluator) FeedBatch(events []trace.Event) {
	if !e.cfg.UseSFPF && !e.cfg.PerBranch && e.pgu == PGUOff && len(e.pending) == 0 {
		e.feedTight(events)
		return
	}
	p := e.p
	useSFPF := e.cfg.UseSFPF
	filterTrue := e.cfg.FilterTrue
	trainFiltered := e.cfg.TrainFiltered
	resolveDelay := e.cfg.ResolveDelay
	perBranch := e.cfg.PerBranch
	pguDelay := e.cfg.PGUDelay
	pguPolicy := e.pgu
	m := &e.m
	for i := range events {
		ev := &events[i]
		if len(e.pending) > 0 && e.pending[0].applyAt <= ev.Step {
			e.flush(ev.Step)
		}
		switch ev.Kind {
		case trace.KindPredDef:
			m.PredDefs++
			// Testing PGUOff first keeps the Selects call off every
			// define when PGU is off (measured, EXPERIMENTS.md).
			if pguPolicy != PGUOff && pguPolicy.Selects(ev) && ev.Executed() {
				e.pending = append(e.pending, pendingBit{applyAt: ev.Step + pguDelay, bit: ev.Value()})
			}
		case trace.KindBranch:
			pc, taken := uint64(ev.PC), ev.Taken()
			m.Branches++
			if ev.Region() {
				m.RegionBranches++
			}
			var bs *BranchStats
			if perBranch {
				if m.ByPC == nil {
					m.ByPC = make(map[uint64]*BranchStats)
				}
				bs = m.ByPC[pc]
				if bs == nil {
					bs = &BranchStats{PC: pc, Region: ev.Region()}
					m.ByPC[pc] = bs
				}
				bs.Count++
				if taken {
					bs.Taken++
				}
			}
			if useSFPF && ev.Guard != isa.P0 && ev.GuardDist >= resolveDelay {
				if !ev.GuardVal() {
					// Known-false guard: the branch cannot be taken.
					m.Filtered++
					if taken {
						m.FilterErrors++ // impossible by ISA semantics
					}
					if bs != nil {
						bs.Filtered++
					}
					if trainFiltered {
						p.PredictUpdate(pc, taken)
					}
					continue
				}
				if filterTrue && ev.GuardImpliesTaken() {
					// Known-true guard on a guard-implies-taken branch.
					m.FilteredTrue++
					if !taken {
						m.FilterErrors++
					}
					if bs != nil {
						bs.Filtered++
					}
					if trainFiltered {
						p.PredictUpdate(pc, taken)
					}
					continue
				}
			}
			if p.PredictUpdate(pc, taken) != taken {
				m.Mispredicts++
				if ev.Region() {
					m.RegionMispredicts++
				}
				if bs != nil {
					bs.Mispredicts++
				}
			}
		}
	}
}

// feedTight is FeedBatch for the configuration with SFPF off, PGU off
// (an off policy or a history-less predictor), no per-branch
// statistics and nothing pending: each branch event is counter
// bookkeeping plus one predictor step, and predicate defines only count.
// It is kept apart because it measured faster than the full loop on that
// configuration (EXPERIMENTS.md, "Engine: one feed loop").
func (e *Evaluator) feedTight(events []trace.Event) {
	p := e.p
	m := &e.m
	for i := range events {
		ev := &events[i]
		if ev.Kind != trace.KindBranch {
			if ev.Kind == trace.KindPredDef {
				m.PredDefs++
			}
			continue
		}
		pc, taken := uint64(ev.PC), ev.Taken()
		m.Branches++
		if ev.Region() {
			m.RegionBranches++
			if p.PredictUpdate(pc, taken) != taken {
				m.Mispredicts++
				m.RegionMispredicts++
			}
			continue
		}
		if p.PredictUpdate(pc, taken) != taken {
			m.Mispredicts++
		}
	}
}
