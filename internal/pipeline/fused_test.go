package pipeline

import (
	"errors"
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/ifconv"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/workload"
)

// splitPredictor and splitObserver hide bpred.Fused from Run, so it runs
// the predictor through bpred.AsFused's Predict-then-Update wrapper.
// splitObserver keeps the history hook, without which the PGU arms would
// go quiet.
type splitPredictor struct{ bpred.Predictor }

type splitObserver struct {
	bpred.Predictor
	bpred.HistoryObserver
}

func hideFused(p bpred.Predictor) bpred.Predictor {
	if obs, ok := p.(bpred.HistoryObserver); ok {
		return splitObserver{p, obs}
	}
	return splitPredictor{p}
}

// diffBudget caps each run; a run cut at the budget still returns its
// partial stats, which must agree just the same.
const diffBudget = 30_000

// timingConfigs is a spread of machine configurations that together
// switch on every filter, PGU, width and RAS option.
var timingConfigs = []Config{
	{},
	{UseSFPF: true, PGU: core.PGUAll},
	{UseSFPF: true, FilterTrue: true, PGU: core.PGUBranchGuards},
	{UseSFPF: true, FilterTrue: true, TrainFiltered: true, PGU: core.PGURegionGuards, IssueWidth: 4},
	{IssueWidth: 4, NoRAS: true, PGU: core.PGUAll},
	{UseSFPF: true, TrainFiltered: true, NoRAS: true},
}

// suitePrograms returns every suite workload, original and if-converted.
func suitePrograms(t *testing.T) []*prog.Program {
	t.Helper()
	var out []*prog.Program
	for _, w := range workload.Suite() {
		p := w.Build()
		cp, _, err := ifconv.Convert(w.Build(), ifconv.Config{})
		if err != nil {
			t.Fatalf("convert %s: %v", w.Name, err)
		}
		out = append(out, p, cp)
	}
	return out
}

// TestFusedMatchesSplit runs every registry kind through the timing model
// twice, once as is and once behind a shim hiding bpred.Fused, over the
// suite and timingConfigs. The fused resolve-time step must leave every
// statistic unchanged. Each (kind, program) pair runs two of the
// configurations, rotating, so every kind meets every configuration and
// every program meets every configuration.
func TestFusedMatchesSplit(t *testing.T) {
	configs := timingConfigs
	progs := suitePrograms(t)
	if testing.Short() {
		progs = progs[:4]
	}
	for ki, kind := range sim.Kinds() {
		spec := sim.For(kind)
		if _, ok := spec.MustNew().(bpred.Fused); !ok {
			t.Errorf("%s does not implement bpred.Fused; the fused path goes untested", kind)
		}
		if _, ok := hideFused(spec.MustNew()).(bpred.Fused); ok {
			t.Fatalf("%s: shim still exposes bpred.Fused", kind)
		}
		for pi, p := range progs {
			for _, ci := range []int{(ki + pi) % len(configs), (ki + pi + len(configs)/2) % len(configs)} {
				base := configs[ci]
				run := func(pred bpred.Predictor) Stats {
					cfg := base
					cfg.Predictor = pred
					st, err := Run(p, cfg, diffBudget)
					if err != nil && !errors.Is(err, emu.ErrLimit) {
						t.Fatalf("%s on %s, config %d: %v", kind, p.Name, ci, err)
					}
					return st
				}
				fused, split := run(spec.MustNew()), run(hideFused(spec.MustNew()))
				if fused != split {
					t.Errorf("%s on %s, config %d:\n fused %+v\n split %+v", kind, p.Name, ci, fused, split)
				}
			}
		}
	}
}
