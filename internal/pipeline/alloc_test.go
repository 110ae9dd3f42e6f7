package pipeline

import (
	"testing"
	"unsafe"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/prog"
	"repro/internal/record"
	"repro/internal/trace"
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
			x := mustRecord(t, c.build(n), 0)
			cfg := c.cfg()
			var insts uint64
			a := testing.AllocsPerRun(5, func() {
				st, err := Replay(x, cfg)
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
		x := mustRecord(t, c.build(3000), 0)
		st, err := Replay(x, c.cfg())
		if err != nil {
			t.Fatal(err)
		}
		steps := x.Steps
		if uint64(len(steps)) != st.Insts || len(steps) <= stagingChunk {
			t.Fatalf("%s: %d recorded steps for %d insts (want more than one %d-step chunk)",
				c.name, len(steps), st.Insts, stagingChunk)
		}
		if cap(steps) != len(steps) {
			t.Errorf("%s: steps hold capacity %d for %d steps", c.name, cap(steps), len(steps))
		}
		if sz := unsafe.Sizeof(steps[0]); sz != 4 {
			t.Errorf("%s: %d bytes per recorded step, want 4", c.name, sz)
		}
	}
}

// stagingChunk is the size, in steps, of record.Program's staging chunks;
// record's own tests pin the value.
const stagingChunk = 1 << 12

// mustRecord records p for at most limit steps, the first half of Run.
func mustRecord(tb testing.TB, p *prog.Program, limit uint64) *record.Recording {
	tb.Helper()
	x, err := record.Program(p, limit)
	if err != nil {
		tb.Fatal(err)
	}
	return x
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
// does once its program is recorded.
func BenchmarkReplay(b *testing.B) {
	p, cfg := benchProgram(b)
	x := mustRecord(b, p, 0)
	b.ReportAllocs()
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		st, err := Replay(x, cfg)
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

// BenchmarkDerive times the trace-side front end on the same kernel as
// BenchmarkRun, in ns per emulated instruction: "collect" is one
// recording plus one derive pass (trace.Collect, what a suite pays per
// program), and "derive" is the derive pass alone over a finished
// recording (what a trace costs once the program is recorded for timing
// anyway).
func BenchmarkDerive(b *testing.B) {
	p, _ := benchProgram(b)
	x, err := record.Program(p, 0)
	if err != nil {
		b.Fatal(err)
	}
	insts := float64(len(x.Steps))
	perInst := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(insts*float64(b.N)), "ns/inst")
	}
	b.Run("collect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.Collect(p, 0); err != nil {
				b.Fatal(err)
			}
		}
		perInst(b)
	})
	b.Run("derive", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := trace.FromRecording(x); err != nil {
				b.Fatal(err)
			}
		}
		perInst(b)
	})
}
