package pipeline

import (
	"testing"
	"unsafe"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/prog"
	"repro/internal/workload"
)

// allocCases are two loops whose length scales with n, each with a timing
// configuration that keeps the filter, PGU and a wide machine busy.
var allocCases = []struct {
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

// TestRunAllocsIndependentOfLength is the timing model's allocation gate:
// a replay allocates its queues and stacks once, and nothing per
// simulated instruction. Two sizes of the same loop must replay with
// exactly as many allocations.
func TestRunAllocsIndependentOfLength(t *testing.T) {
	for _, c := range allocCases {
		allocs := func(n int64) (float64, uint64) {
			x, err := Record(c.build(n), 0)
			if err != nil {
				t.Fatal(err)
			}
			cfg := c.cfg()
			var insts uint64
			a := testing.AllocsPerRun(5, func() {
				st, err := x.Run(cfg)
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

// TestRecordRetainsFourBytesPerStep bounds what a recording keeps for
// its lifetime: one 4-byte word per executed step in a slice with no
// spare capacity, however many staging chunks the run went through.
func TestRecordRetainsFourBytesPerStep(t *testing.T) {
	for _, c := range allocCases {
		x, err := Record(c.build(3000), 0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := x.Run(c.cfg())
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(x.steps)) != st.Insts || len(x.steps) <= recordChunk {
			t.Fatalf("%s: %d recorded steps for %d insts (want more than one %d-step chunk)",
				c.name, len(x.steps), st.Insts, recordChunk)
		}
		if cap(x.steps) != len(x.steps) {
			t.Errorf("%s: steps hold capacity %d for %d steps", c.name, cap(x.steps), len(x.steps))
		}
		if sz := unsafe.Sizeof(x.steps[0]); sz != 4 {
			t.Errorf("%s: %d bytes per recorded step, want 4", c.name, sz)
		}
	}
}

// BenchmarkRun times the timing model on an if-converted suite kernel
// with the filter and PGU on, the shape the speedup experiments run:
// one recording plus one replay per iteration.
func BenchmarkRun(b *testing.B) {
	p, cfg := benchProgram(b)
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

// BenchmarkReplay times the per-configuration half of BenchmarkRun alone:
// replaying one recording, as every timing cell of an experiment grid
// after the first does.
func BenchmarkReplay(b *testing.B) {
	p, cfg := benchProgram(b)
	x, err := Record(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		st, err := x.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		insts += st.Insts
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
}

func benchProgram(b *testing.B) (*prog.Program, Config) {
	b.Helper()
	p, _, err := ifconv.Convert(workload.ByNameMust("classify").Build(), ifconv.Config{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(bpred.NewGShare(12, 8))
	cfg.UseSFPF, cfg.PGU = true, core.PGUAll
	return p, cfg
}
