package core

import (
	"reflect"
	"testing"

	"repro/internal/ifconv"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func evalCfg() EvalConfig {
	return EvalConfig{
		Predictor: sim.For("gshare", 12, 8).MustNew(),
		UseSFPF:   true, ResolveDelay: DefaultResolveDelay,
		PGU: PGUAll, PGUDelay: DefaultPGUDelay,
		PerBranch: true,
	}
}

// TestEvaluatorMatchesEvaluate feeds the same event stream in uneven
// batches through an incremental Evaluator and in one pass through
// Evaluate; the metrics must be identical. This is the guarantee a
// serving session (batch-fed over its lifetime) relies on.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	p, _, err := ifconv.Convert(workload.ByNameMust("bsearch").Build(), ifconv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	whole := Evaluate(tr, evalCfg())

	e := NewEvaluator(evalCfg())
	for i := 0; i < len(tr.Events); {
		n := 1 + i%97 // uneven batch sizes, including size 1
		if i+n > len(tr.Events) {
			n = len(tr.Events) - i
		}
		e.FeedBatch(tr.Events[i : i+n])
		i += n
	}
	e.AddInsts(tr.Insts)
	if got := e.Metrics(); !reflect.DeepEqual(whole, got) {
		t.Errorf("batched evaluator diverges:\nwhole:   %+v\nbatched: %+v", whole, got)
	}
}

// TestEvaluatorSnapshotIsIndependent takes a mid-stream snapshot and
// checks that continued feeding does not mutate it.
func TestEvaluatorSnapshotIsIndependent(t *testing.T) {
	tr, err := trace.Collect(workload.ByNameMust("scan").Build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) < 100 {
		t.Fatalf("trace too short: %d events", len(tr.Events))
	}
	e := NewEvaluator(evalCfg())
	for i := 0; i < 50; i++ {
		e.Feed(&tr.Events[i])
	}
	snap := e.MetricsSnapshot()
	frozen := snap.Clone()
	for i := 50; i < len(tr.Events); i++ {
		e.Feed(&tr.Events[i])
	}
	if !reflect.DeepEqual(snap, frozen) {
		t.Error("snapshot mutated by continued feeding")
	}
	if e.Metrics().Branches == snap.Branches {
		t.Error("evaluator did not advance past the snapshot")
	}
}

// TestMetricsClone checks the ByPC map is deep-copied.
func TestMetricsClone(t *testing.T) {
	m := Metrics{Branches: 3, ByPC: map[uint64]*BranchStats{7: {PC: 7, Count: 3}}}
	c := m.Clone()
	m.ByPC[7].Count = 99
	if c.ByPC[7].Count != 3 {
		t.Errorf("clone shares BranchStats: %+v", c.ByPC[7])
	}
	var zero Metrics
	if got := zero.Clone(); got.ByPC != nil {
		t.Errorf("clone of nil ByPC allocated a map")
	}
}

// TestParsePGUPolicy covers the textual policy spellings.
func TestParsePGUPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want PGUPolicy
		ok   bool
	}{
		{"", PGUOff, true},
		{"off", PGUOff, true},
		{"region", PGURegionGuards, true},
		{"region-guards", PGURegionGuards, true},
		{"branch", PGUBranchGuards, true},
		{"branch-guards", PGUBranchGuards, true},
		{"all", PGUAll, true},
		{"everything", PGUOff, false},
	} {
		got, err := ParsePGUPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParsePGUPolicy(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// BenchmarkNewEvaluator times building a predictor from its spec and an
// evaluator around it: the construction layer every sweep job, harness
// cell and serving session pays before its first event. The specs are
// the sweep benchmark's four 2^22-counter geometries plus the default
// tournament, so construction reads apart from the feed loop it
// precedes.
func BenchmarkNewEvaluator(b *testing.B) {
	base := evalCfg()
	for _, text := range []string{"gshare:22:16", "gselect:22:16", "bimodal:22", "tournament:22:16", "tournament:12:8"} {
		spec := sim.MustParse(text)
		b.Run(text, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := base
				cfg.Predictor = spec.MustNew()
				if NewEvaluator(cfg).Predictor() == nil {
					b.Fatal("no predictor")
				}
			}
		})
	}
}
