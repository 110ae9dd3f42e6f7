package repro

import (
	"context"
	"sync"
	"testing"

	"repro/internal/harness"
)

// The benchmarks below regenerate the reconstructed paper tables/figures,
// one per experiment (see DESIGN.md's experiment index). They share one
// prepared suite; each iteration re-runs the experiment's full sweep, so
// ns/op measures the cost of regenerating that table.

var (
	suiteOnce sync.Once
	suite     *harness.Suite
	suiteErr  error
)

func sharedSuite(b *testing.B) *harness.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = harness.NewSuite(harness.Config{})
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

func benchExperiment(b *testing.B, id string) {
	s := sharedSuite(b)
	e, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harness.Config{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := e.Run(context.Background(), s, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// BenchmarkE1Characterisation regenerates the Table-1 analogue: workload
// characterisation under if-conversion.
func BenchmarkE1Characterisation(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2PredicationEffect regenerates the predication-effect figure:
// misprediction rate of remaining branches before/after conversion.
func BenchmarkE2PredicationEffect(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3SFPF regenerates the squash-false-path-filter figure.
func BenchmarkE3SFPF(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4PGU regenerates the predicate-global-update figure.
func BenchmarkE4PGU(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5Combined regenerates the combined-mechanisms figure.
func BenchmarkE5Combined(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Speedup regenerates the pipeline speedup figure.
func BenchmarkE6Speedup(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7ResolveDelay regenerates the resolve-delay sensitivity sweep.
func BenchmarkE7ResolveDelay(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8Policies regenerates the PGU insertion-policy ablation.
func BenchmarkE8Policies(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9FilterBoth regenerates the filter-both-directions extension.
func BenchmarkE9FilterBoth(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10Scheduling regenerates the compare-scheduling ablation.
func BenchmarkE10Scheduling(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11ProfileGuided regenerates the profile-guided vs greedy
// hyperblock-selection comparison.
func BenchmarkE11ProfileGuided(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12IssueWidth regenerates the issue-width sensitivity sweep.
func BenchmarkE12IssueWidth(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13Architectures regenerates the PGU-across-architectures
// comparison.
func BenchmarkE13Architectures(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14RASDepth regenerates the return-address-stack depth sweep.
func BenchmarkE14RASDepth(b *testing.B) { benchExperiment(b, "E14") }

// Component micro-benchmarks: the substrate costs behind the experiments.

func BenchmarkEmulator(b *testing.B) {
	w := MustWorkload("classify")
	p := w.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(p, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(0)
		_ = res
	}
}

func BenchmarkIfConvert(b *testing.B) {
	p := MustWorkload("fsm").Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := IfConvert(p, IfConvConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceCollect(b *testing.B) {
	p := MustWorkload("scan").Build()
	cp, _, err := IfConvert(p, IfConvConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CollectTrace(cp, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateGshare(b *testing.B) {
	p := MustWorkload("bsearch").Build()
	cp, _, err := IfConvert(p, IfConvConfig{})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := CollectTrace(cp, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := Evaluate(tr, EvalConfig{
			Predictor: NewGShare(12, 8),
			UseSFPF:   true, ResolveDelay: DefaultResolveDelay,
			PGU: PGUAll, PGUDelay: DefaultPGUDelay,
		})
		if m.Branches == 0 {
			b.Fatal("empty evaluation")
		}
	}
}

// feedBench measures the evaluator feed loop itself — the hot path behind
// every sweep, oracle run, and serving session — isolated from trace
// collection. The generic variant makes one Feed call per event; the
// batch variant feeds the whole trace through one FeedBatch call. Their
// ratio is the per-call cost Feed adds (see EXPERIMENTS.md and
// cmd/bpbench).
func feedBench(b *testing.B, spec string, batch bool) {
	p := MustWorkload("bsearch").Build()
	cp, _, err := IfConvert(p, IfConvConfig{})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := CollectTrace(cp, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := EvalConfig{
		UseSFPF: true, ResolveDelay: DefaultResolveDelay,
		PGU: PGUAll, PGUDelay: DefaultPGUDelay,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cfg.Predictor, err = NewPredictor(spec); err != nil {
			b.Fatal(err)
		}
		e := NewEvaluator(cfg)
		if batch {
			e.FeedBatch(tr.Events)
		} else {
			for j := range tr.Events {
				e.Feed(&tr.Events[j])
			}
		}
		if e.Metrics().Branches == 0 {
			b.Fatal("empty evaluation")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(tr.Events)*b.N)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkFeedGenericGshare(b *testing.B)     { feedBench(b, "gshare:12:8", false) }
func BenchmarkFeedBatchGshare(b *testing.B)       { feedBench(b, "gshare:12:8", true) }
func BenchmarkFeedGenericPerceptron(b *testing.B) { feedBench(b, "perceptron:8:24", false) }
func BenchmarkFeedBatchPerceptron(b *testing.B)   { feedBench(b, "perceptron:8:24", true) }

func BenchmarkPipeline(b *testing.B) {
	p := MustWorkload("sort").Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := RunPipeline(p, DefaultPipelineConfig(NewGShare(12, 8)), 0)
		if err != nil {
			b.Fatal(err)
		}
		if st.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
}
