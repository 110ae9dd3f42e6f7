package oracle

import (
	"fmt"
	"reflect"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/trace"
)

// referenceEvaluate is a deliberately naive reimplementation of the
// trace-driven evaluation loop in core.Evaluator.FeedBatch: the squash false
// path filter decision, the predicate-global-update bit insertion with
// its delay, and all the metric accounting, written from the definitions
// rather than from the production code. It indexes the event slice
// directly and keeps the delayed history bits in an explicit queue it
// rescans from the front, trading speed for obviousness. Like
// core.NewEvaluator it trains cfg.Predictor from the state it is given,
// which must be fresh or Reset.
func referenceEvaluate(tr *trace.Trace, cfg core.EvalConfig) core.Metrics {
	p := cfg.Predictor
	obs, hasHistory := p.(bpred.HistoryObserver)
	inserting := hasHistory && cfg.PGU != core.PGUOff

	var m core.Metrics
	type delayed struct {
		applyAt uint64
		bit     bool
	}
	var queue []delayed

	for i := range tr.Events {
		ev := &tr.Events[i]

		// Deliver every delayed predicate bit that has reached the
		// history by this event's fetch point, oldest first.
		for len(queue) > 0 && queue[0].applyAt <= ev.Step {
			obs.ObserveBit(queue[0].bit)
			m.InsertedBits++
			queue = queue[1:]
		}

		if ev.Kind == trace.KindPredDef {
			m.PredDefs++
			if inserting && cfg.PGU.Selects(ev) && ev.Executed() {
				queue = append(queue, delayed{applyAt: ev.Step + cfg.PGUDelay, bit: ev.Value()})
			}
			continue
		}

		// Branch event.
		pc, taken := uint64(ev.PC), ev.Taken()
		m.Branches++
		if ev.Region() {
			m.RegionBranches++
		}
		var bs *core.BranchStats
		if cfg.PerBranch {
			if m.ByPC == nil {
				m.ByPC = make(map[uint64]*core.BranchStats)
			}
			bs = m.ByPC[pc]
			if bs == nil {
				bs = &core.BranchStats{PC: pc, Region: ev.Region()}
				m.ByPC[pc] = bs
			}
			bs.Count++
			if taken {
				bs.Taken++
			}
		}

		// The filter may handle the branch: the guard must be a real
		// predicate and resolved early enough to be known at fetch.
		if cfg.UseSFPF && ev.Guard != isa.P0 && ev.GuardDist >= cfg.ResolveDelay {
			filtered := false
			if !ev.GuardVal() {
				m.Filtered++
				if taken {
					m.FilterErrors++
				}
				filtered = true
			} else if cfg.FilterTrue && ev.GuardImpliesTaken() {
				m.FilteredTrue++
				if !taken {
					m.FilterErrors++
				}
				filtered = true
			}
			if filtered {
				if bs != nil {
					bs.Filtered++
				}
				if cfg.TrainFiltered {
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
	m.Insts = tr.Insts
	return m
}

// CheckEvaluator collects the case's trace and compares core.Evaluate
// against the naive reference evaluation: the SFPF decisions, PGU
// insertions, and all counters must agree exactly.
func CheckEvaluator(c Case) error {
	tr, err := trace.Collect(c.Prog, c.Limit)
	if err != nil {
		return fmt.Errorf("oracle: %s: collect: %w", c.Name, err)
	}
	cfgGot, err := c.config()
	if err != nil {
		return err
	}
	got := core.Evaluate(tr, cfgGot)
	cfgWant, err := c.config()
	if err != nil {
		return err
	}
	want := referenceEvaluate(tr, cfgWant)
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("oracle: %s: evaluator diverges from reference: %s", c.Name, metricsDiff(got, want))
	}
	return nil
}
