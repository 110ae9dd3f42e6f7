package pipeline

import (
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/prog"
	"repro/internal/workload"
)

// TestRunAllocsIndependentOfLength is the timing model's allocation gate:
// a run allocates its machine, queues and stacks once, and nothing per
// simulated instruction. Two sizes of the same loop, with the filter, PGU
// and a wide machine all busy, must allocate exactly as often.
func TestRunAllocsIndependentOfLength(t *testing.T) {
	cases := []struct {
		name  string
		build func(n int64) *prog.Program
		cfg   func() Config
	}{
		{"correlated/pgu", func(n int64) *prog.Program { return workload.CorrelatedDemo(n, 9) }, func() Config {
			cfg := DefaultConfig(bpred.NewGShare(12, 8))
			cfg.UseSFPF, cfg.PGU = true, core.PGUAll
			return cfg
		}},
		{"falsepath/sfpf-wide", func(n int64) *prog.Program { return workload.FalsePathDemo(n, 6, 7) }, func() Config {
			cfg := DefaultConfig(bpred.NewTournament(12, 8))
			cfg.UseSFPF, cfg.FilterTrue, cfg.TrainFiltered = true, true, true
			cfg.PGU, cfg.IssueWidth = core.PGURegionGuards, 4
			return cfg
		}},
	}
	for _, c := range cases {
		allocs := func(n int64) (float64, uint64) {
			p := c.build(n)
			cfg := c.cfg()
			var insts uint64
			a := testing.AllocsPerRun(5, func() {
				st, err := Run(p, cfg, 0)
				if err != nil {
					t.Fatal(err)
				}
				insts = st.Insts
			})
			return a, insts
		}
		shortA, shortN := allocs(200)
		longA, longN := allocs(3000)
		if longN < 10*shortN {
			t.Fatalf("%s: long run %d insts is not much longer than short run %d", c.name, longN, shortN)
		}
		if shortA != longA {
			t.Errorf("%s: %v allocs over %d insts but %v over %d; want the same count",
				c.name, shortA, shortN, longA, longN)
		}
	}
}

// BenchmarkRun times the timing model on an if-converted suite kernel
// with the filter and PGU on, the shape the speedup experiments run.
func BenchmarkRun(b *testing.B) {
	p, _, err := ifconv.Convert(workload.ByNameMust("classify").Build(), ifconv.Config{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(bpred.NewGShare(12, 8))
	cfg.UseSFPF, cfg.PGU = true, core.PGUAll
	b.ReportAllocs()
	var insts uint64
	for i := 0; i < b.N; i++ {
		st, err := Run(p, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Insts
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}
