package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/trace"
)

// specializedPredictors builds one instance of every concrete predictor
// kind, each of which implements bpred.Fused.
func specializedPredictors() map[string]func() bpred.Predictor {
	return map[string]func() bpred.Predictor{
		"static":     func() bpred.Predictor { return bpred.NewStatic(true) },
		"bimodal":    func() bpred.Predictor { return bpred.NewBimodal(10) },
		"gshare":     func() bpred.Predictor { return bpred.NewGShare(10, 8) },
		"gselect":    func() bpred.Predictor { return bpred.NewGSelect(10, 6) },
		"gag":        func() bpred.Predictor { return bpred.NewGAg(10) },
		"local":      func() bpred.Predictor { return bpred.NewLocal(8, 8, 8) },
		"tournament": func() bpred.Predictor { return bpred.NewTournament(10, 8) },
		"agree":      func() bpred.Predictor { return bpred.NewAgree(10, 8) },
		"perceptron": func() bpred.Predictor { return bpred.NewPerceptron(8, 12) },
	}
}

// syntheticBatch builds a reusable event batch that exercises the filter
// and PGU arms of the feed loop: unguarded and guarded branches (both
// guard values), region branches, and executed predicate defines. Every
// Step is zero so the batch can be replayed indefinitely (Feed requires
// non-decreasing steps) with a zero PGUDelay flushing each pending bit on
// the following event.
func syntheticBatch(n int) []trace.Event {
	r := rng.New(11)
	evs := make([]trace.Event, n)
	for i := range evs {
		if i%4 == 3 {
			evs[i] = trace.Event{
				Kind: trace.KindPredDef, PC: uint64(i % 64),
				Executed: r.Chance(0.9), Value: r.Bool(),
				FeedsBranch: true, FeedsRegionBranch: i%8 == 7,
			}
			continue
		}
		ev := trace.Event{
			Kind: trace.KindBranch, PC: uint64(i % 128),
			Taken: r.Bool(), Region: i%5 == 0,
		}
		if i%6 == 0 {
			ev.Guard = isa.PReg(1)
			ev.GuardDist = 16
			ev.GuardImpliesTaken = true
			// A known-false guard forces the branch not taken; keep the
			// event consistent so FilterErrors stays zero.
			ev.GuardVal = ev.Taken
		}
		evs[i] = ev
	}
	return evs
}

// TestFeedBatchZeroAllocs pins the feed loop's allocation count to zero
// for every specialized predictor kind: after one warm-up batch (which
// sizes the pending-bit buffer), steady-state FeedBatch calls and
// per-event Feed calls must not allocate at all.
func TestFeedBatchZeroAllocs(t *testing.T) {
	events := syntheticBatch(512)
	configs := map[string]EvalConfig{
		// The featured path: filter and PGU arms live, pending bits flowing.
		"featured": {UseSFPF: true, ResolveDelay: 4, PGU: PGUAll, PGUDelay: 0},
		// The tight prediction-only path the serving hot loop runs.
		"tight": {},
	}
	for cfgName, cfg := range configs {
		for name, build := range specializedPredictors() {
			t.Run(cfgName+"/"+name, func(t *testing.T) {
				cfg := cfg
				cfg.Predictor = build()
				e := NewEvaluator(cfg)
				e.FeedBatch(events)
				if avg := testing.AllocsPerRun(50, func() { e.FeedBatch(events) }); avg != 0 {
					t.Errorf("FeedBatch allocates %.2f times per batch on %s; want 0", avg, name)
				}
				feedEach := func() {
					for i := range events {
						e.Feed(&events[i])
					}
				}
				if avg := testing.AllocsPerRun(50, feedEach); avg != 0 {
					t.Errorf("per-event Feed allocates %.2f times per batch on %s; want 0", avg, name)
				}
				if e.Metrics().FilterErrors != 0 {
					t.Errorf("synthetic batch produced %d filter errors", e.Metrics().FilterErrors)
				}
			})
		}
	}
}

// TestFeedBatchMatchesFeedSynthetic checks batch-vs-generic equivalence
// on the synthetic stream, whose guarded events exercise both filter arms
// with TrainFiltered on — a corner the workload-derived oracle cases
// reach only through if-conversion.
func TestFeedBatchMatchesFeedSynthetic(t *testing.T) {
	events := syntheticBatch(4096)
	configs := map[string]EvalConfig{
		// Everything on, including both filter arms with TrainFiltered — a
		// corner the workload-derived oracle cases reach only through
		// if-conversion.
		"featured": {
			UseSFPF: true, FilterTrue: true, TrainFiltered: true, ResolveDelay: 4,
			PGU: PGUAll, PGUDelay: 0, PerBranch: true,
		},
		// Everything off: the tight prediction-only loop.
		"tight": {},
	}
	for cfgName, base := range configs {
		for name, build := range specializedPredictors() {
			t.Run(cfgName+"/"+name, func(t *testing.T) {
				cfg := base
				cfg.Predictor = build()
				gen := NewEvaluator(cfg)
				for i := range events {
					gen.Feed(&events[i])
				}
				cfg.Predictor = build()
				bat := NewEvaluator(cfg)
				for i := 0; i < len(events); i += 100 {
					end := i + 100
					if end > len(events) {
						end = len(events)
					}
					bat.FeedBatch(events[i:end])
				}
				if got, want := bat.Metrics(), gen.Metrics(); !reflect.DeepEqual(got, want) {
					t.Errorf("batch metrics diverge from per-event Feed:\n%s", metricsDiffTest(got, want))
				}
			})
		}
	}
}

// metricsDiffTest mirrors the oracle's field-by-field diff for readable
// failures without importing internal/oracle (which imports core).
func metricsDiffTest(a, b Metrics) string {
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	out := ""
	for i := 0; i < av.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			out += fmt.Sprintf("%s: got %v want %v\n",
				av.Type().Field(i).Name, av.Field(i), bv.Field(i))
		}
	}
	return out
}

// unregisteredPredictor is a Predictor without a fused step, so the
// evaluator runs it through bpred.AsFused's Predict-then-Update wrapper.
type unregisteredPredictor struct{ last bool }

func (u *unregisteredPredictor) Name() string            { return "unregistered" }
func (u *unregisteredPredictor) Predict(pc uint64) bool  { return u.last }
func (u *unregisteredPredictor) Update(_ uint64, t bool) { u.last = t }
func (u *unregisteredPredictor) Reset()                  { u.last = false }

// TestFeedBatchFallback checks a predictor without a fused step: it must
// still evaluate, with batch metrics identical to per-event feeding.
func TestFeedBatchFallback(t *testing.T) {
	events := syntheticBatch(2048)
	gen := NewEvaluator(EvalConfig{Predictor: &unregisteredPredictor{}})
	for i := range events {
		gen.Feed(&events[i])
	}
	bat := NewEvaluator(EvalConfig{Predictor: &unregisteredPredictor{}})
	bat.FeedBatch(events)
	if got, want := bat.Metrics(), gen.Metrics(); !reflect.DeepEqual(got, want) {
		t.Errorf("fallback batch metrics diverge:\n%s", metricsDiffTest(got, want))
	}
}

// TestPendingCapacityBounded feeds a long PGU-heavy stream — bursts of
// predicate defines with a large apply delay, drained gradually by
// following branches — and checks the pending-bit buffer's capacity stays
// bounded by the peak in-flight count instead of marching through an
// ever-growing backing array (the long-lived serving-session leak the
// compacting flush prevents).
func TestPendingCapacityBounded(t *testing.T) {
	const (
		burst  = 64
		cycles = 4000
		capMax = 8 * burst
	)
	e := NewEvaluator(EvalConfig{
		Predictor: bpred.NewGShare(10, 8),
		PGU:       PGUAll, PGUDelay: burst, // bits stay pending across the burst
	})
	batch := make([]trace.Event, 0, 2*burst)
	step := uint64(0)
	for cycle := 0; cycle < cycles; cycle++ {
		batch = batch[:0]
		for j := 0; j < burst; j++ {
			batch = append(batch, trace.Event{
				Kind: trace.KindPredDef, Step: step, PC: uint64(j),
				Executed: true, Value: j%2 == 0, FeedsBranch: true,
			})
			step++
		}
		for j := 0; j < burst; j++ {
			batch = append(batch, trace.Event{
				Kind: trace.KindBranch, Step: step, PC: uint64(j), Taken: j%3 == 0,
			})
			step += 3 // staggered steps drain the pending bits partially
		}
		e.FeedBatch(batch)
		if c := cap(e.pending); c > capMax {
			t.Fatalf("cycle %d: pending capacity %d exceeds bound %d (len %d)",
				cycle, c, capMax, len(e.pending))
		}
	}
	if len(e.pending) > burst {
		t.Errorf("pending length %d after final drain; want <= %d", len(e.pending), burst)
	}
	if e.Metrics().InsertedBits == 0 {
		t.Error("stream inserted no history bits; the test did not exercise the PGU path")
	}
}
