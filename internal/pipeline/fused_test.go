package pipeline

import (
	"errors"
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/ifconv"
	"repro/internal/oracle"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/workload"
)

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
// twice, once with the registry predictor's fused step and once with its
// naive reference model from internal/oracle, which predicts and then
// trains in two separate calls, over the suite and timingConfigs. Every
// statistic must agree. Each (kind, program) pair runs two of the
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
				ref, err := oracle.ReferenceFor(spec)
				if err != nil {
					t.Fatal(err)
				}
				if fused, split := run(spec.MustNew()), run(ref); fused != split {
					t.Errorf("%s on %s, config %d:\n fused %+v\n split %+v", kind, p.Name, ci, fused, split)
				}
			}
		}
	}
}
