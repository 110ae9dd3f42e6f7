package oracle

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/sim"
	"repro/internal/workload"
)

// equivCase builds the standard equivalence-test case: an if-converted
// workload (so predicate-defining events reach the SFPF and PGU paths)
// under a mid-sized gshare with every evaluation feature switched on.
func equivCase(t *testing.T, name string, cfg core.EvalConfig) Case {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := ifconv.Convert(w.Build(), ifconv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return Case{Name: name, Prog: cp, Limit: 3_000_000, Spec: sim.For("gshare", 11, 7), Cfg: cfg}
}

func fullCfg() core.EvalConfig {
	return core.EvalConfig{
		UseSFPF: true, ResolveDelay: core.DefaultResolveDelay,
		PGU: core.PGUAll, PGUDelay: core.DefaultPGUDelay,
		PerBranch: true,
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	c := equivCase(t, "bsearch", fullCfg())
	if err := CheckSerializeRoundTrip(c); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluatorMatchesReference sweeps the evaluation-config space —
// filter on/off and training, PGU selection modes, per-branch stats —
// against the naive reference evaluator.
func TestEvaluatorMatchesReference(t *testing.T) {
	configs := []core.EvalConfig{
		{},
		{UseSFPF: true, ResolveDelay: core.DefaultResolveDelay},
		{UseSFPF: true, ResolveDelay: core.DefaultResolveDelay, FilterTrue: true},
		{UseSFPF: true, ResolveDelay: core.DefaultResolveDelay, TrainFiltered: true},
		{UseSFPF: true, ResolveDelay: 1, FilterTrue: true, TrainFiltered: true},
		{PGU: core.PGUAll, PGUDelay: core.DefaultPGUDelay},
		{PGU: core.PGUBranchGuards, PGUDelay: 1},
		{PGU: core.PGURegionGuards, PGUDelay: core.DefaultPGUDelay},
		fullCfg(),
	}
	for i, cfg := range configs {
		cfg := cfg
		t.Run(fmt.Sprintf("cfg-%d", i), func(t *testing.T) {
			c := equivCase(t, "collatz", cfg)
			if err := CheckEvaluator(c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBatchEquivalenceAllKinds replays every predictor spec in the
// registry through per-event Feed calls and through batched FeedBatch
// calls and requires bit-identical Metrics — the in-tree form of the
// cmd/oracle fastpath matrix.
func TestBatchEquivalenceAllKinds(t *testing.T) {
	for _, kind := range sim.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			c := equivCase(t, "collatz", fullCfg())
			c.Spec = sim.MustParse(kind)
			if err := CheckBatchEquivalence(c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSweepParallel(t *testing.T) {
	cases := []Case{
		equivCase(t, "scan", fullCfg()),
		equivCase(t, "bsearch", fullCfg()),
		equivCase(t, "sieve", core.EvalConfig{PerBranch: true}),
	}
	if err := CheckSweepParallel(context.Background(), cases, 4); err != nil {
		t.Fatal(err)
	}
}
