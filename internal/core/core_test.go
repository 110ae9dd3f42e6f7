package core

import (
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestSFPFInitialState(t *testing.T) {
	f := NewSFPF()
	known, val := f.Lookup(isa.P0)
	if !known || !val {
		t.Error("p0 must be known true")
	}
	known, val = f.Lookup(5)
	if !known || val {
		t.Error("reset predicates must be known false")
	}
}

func TestSFPFFetchResolveCycle(t *testing.T) {
	f := NewSFPF()
	f.FetchDef(3, 4)
	if known, _ := f.Lookup(3); known {
		t.Error("p3 known while its define is in flight")
	}
	f.Resolve(3, true)
	known, val := f.Lookup(3)
	if !known || !val {
		t.Error("p3 not known true after resolve")
	}
	if known, _ := f.Lookup(4); known {
		t.Error("p4 resolved without a Resolve call")
	}
	f.Resolve(4, false)
	known, val = f.Lookup(4)
	if !known || val {
		t.Error("p4 not known false after resolve")
	}
}

func TestSFPFP0Untouchable(t *testing.T) {
	f := NewSFPF()
	f.FetchDef(isa.P0)
	f.Resolve(isa.P0, false)
	known, val := f.Lookup(isa.P0)
	if !known || !val {
		t.Error("p0 state changed")
	}
}

func TestSFPFStaleResolveStaysUnknown(t *testing.T) {
	// Two defines of p3 in flight; the older resolve must not make p3
	// known while the younger writer is still outstanding.
	f := NewSFPF()
	f.FetchDef(3) // older writer
	f.FetchDef(3) // younger writer
	f.Resolve(3, false)
	if known, _ := f.Lookup(3); known {
		t.Fatal("p3 known after stale resolve with a younger writer in flight")
	}
	f.Resolve(3, true)
	known, val := f.Lookup(3)
	if !known || !val {
		t.Fatal("p3 not known true after the youngest writer resolved")
	}
}

func TestSFPFReset(t *testing.T) {
	f := NewSFPF()
	f.FetchDef(7)
	f.Resolve(7, true)
	f.Reset()
	known, val := f.Lookup(7)
	if !known || val {
		t.Error("reset did not restore known-false")
	}
}

func TestPGUPolicySelects(t *testing.T) {
	defAll := &trace.Event{Kind: trace.KindPredDef}
	defBr := &trace.Event{Kind: trace.KindPredDef, Flags: trace.FlagFeedsBranch}
	defRg := &trace.Event{Kind: trace.KindPredDef, Flags: trace.FlagFeedsBranch | trace.FlagFeedsRegionBranch}
	br := &trace.Event{Kind: trace.KindBranch}
	cases := []struct {
		p    PGUPolicy
		ev   *trace.Event
		want bool
	}{
		{PGUOff, defAll, false},
		{PGUOff, defRg, false},
		{PGUAll, defAll, true},
		{PGUAll, br, false},
		{PGUBranchGuards, defAll, false},
		{PGUBranchGuards, defBr, true},
		{PGURegionGuards, defBr, false},
		{PGURegionGuards, defRg, true},
	}
	for _, c := range cases {
		if got := c.p.Selects(c.ev); got != c.want {
			t.Errorf("%s.Selects(%+v) = %v, want %v", c.p, c.ev, got, c.want)
		}
		// The timing model selects by the static classes alone; on a
		// define the two forms must agree.
		if c.ev.Kind == trace.KindPredDef {
			if got := c.p.SelectsDefine(c.ev.FeedsBranch(), c.ev.FeedsRegionBranch()); got != c.want {
				t.Errorf("%s.SelectsDefine(%v, %v) = %v, want %v",
					c.p, c.ev.FeedsBranch(), c.ev.FeedsRegionBranch(), got, c.want)
			}
		}
	}
	if PGUPolicy(9).SelectsDefine(true, true) {
		t.Error("an unknown policy selects a define")
	}
}

func TestPGUPolicyStrings(t *testing.T) {
	want := map[PGUPolicy]string{
		PGUOff: "off", PGUAll: "all",
		PGUBranchGuards: "branch-guards", PGURegionGuards: "region-guards",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

// TestPGUOffWithoutOpenHistory: PGU inserts into the predictor's global
// history, so over a predictor without one (bimodal) PGUAll inserts no
// bits and evaluates exactly as PGUOff does, while gshare under the same
// stream inserts bits under PGUAll and none under PGUOff.
func TestPGUOffWithoutOpenHistory(t *testing.T) {
	events := syntheticBatch(4096)
	run := func(p bpred.Predictor, policy PGUPolicy) Metrics {
		e := NewEvaluator(EvalConfig{Predictor: p, PGU: policy})
		e.FeedBatch(events)
		return e.Metrics()
	}
	on, off := run(bpred.NewBimodal(8), PGUAll), run(bpred.NewBimodal(8), PGUOff)
	if on.InsertedBits != 0 {
		t.Errorf("bimodal under PGUAll inserted %d history bits, want 0", on.InsertedBits)
	}
	if !reflect.DeepEqual(on, off) {
		t.Errorf("bimodal under PGUAll diverges from PGUOff:\n%s", metricsDiffTest(on, off))
	}
	if m := run(bpred.NewGShare(8, 8), PGUAll); m.InsertedBits == 0 {
		t.Error("gshare under PGUAll inserted no history bits")
	}
	if m := run(bpred.NewGShare(8, 8), PGUOff); m.InsertedBits != 0 {
		t.Errorf("gshare under PGUOff inserted %d history bits", m.InsertedBits)
	}
}

func collectT(t *testing.T, p *prog.Program) *trace.Trace {
	t.Helper()
	tr, err := trace.Collect(p, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSFPFFiltersAndNeverErrs(t *testing.T) {
	tr := collectT(t, workload.FalsePathDemo(2000, 8, 42))
	base := Evaluate(tr, EvalConfig{Predictor: bpred.NewGShare(12, 8)})
	filt := Evaluate(tr, EvalConfig{
		Predictor:    bpred.NewGShare(12, 8),
		UseSFPF:      true,
		ResolveDelay: DefaultResolveDelay,
	})
	if filt.FilterErrors != 0 {
		t.Fatalf("filter errors: %d (the 100%% accuracy claim is broken)", filt.FilterErrors)
	}
	if filt.Filtered == 0 {
		t.Fatal("filter never fired")
	}
	// Roughly half the region branches have a false guard; nearly all
	// should be filtered (define-to-branch distance is 9 > delay 6).
	if got := float64(filt.Filtered) / float64(filt.RegionBranches); got < 0.35 {
		t.Errorf("filter coverage of region branches = %.2f, want ~0.5", got)
	}
	// The unfiltered stream is all-taken: the predictor should now be
	// nearly perfect. The baseline sees a ~50/50 stream.
	if filt.Mispredicts*4 > base.Mispredicts {
		t.Errorf("SFPF did not help enough: base %d -> filtered %d mispredicts",
			base.Mispredicts, filt.Mispredicts)
	}
}

func TestSFPFRespectsResolveDelay(t *testing.T) {
	// With only 2 instructions between define and branch, a delay of 6
	// must prevent filtering; a delay of 2 must allow it.
	tr := collectT(t, workload.FalsePathDemo(500, 1, 43))
	near := Evaluate(tr, EvalConfig{
		Predictor: bpred.NewGShare(12, 8), UseSFPF: true, ResolveDelay: 6,
	})
	if near.Filtered != 0 {
		t.Errorf("filtered %d branches despite unresolved guards", near.Filtered)
	}
	far := Evaluate(tr, EvalConfig{
		Predictor: bpred.NewGShare(12, 8), UseSFPF: true, ResolveDelay: 2,
	})
	if far.Filtered == 0 {
		t.Error("short delay filtered nothing")
	}
}

func TestSFPFFilterTrue(t *testing.T) {
	tr := collectT(t, workload.FalsePathDemo(1000, 8, 44))
	both := Evaluate(tr, EvalConfig{
		Predictor: bpred.NewGShare(12, 8), UseSFPF: true, FilterTrue: true,
		ResolveDelay: DefaultResolveDelay,
	})
	if both.FilterErrors != 0 {
		t.Fatalf("filter errors with FilterTrue: %d", both.FilterErrors)
	}
	if both.FilteredTrue == 0 {
		t.Error("FilterTrue never fired")
	}
	// With both directions filtered, the region branch should contribute
	// almost no mispredictions at all.
	if both.RegionMispredicts > both.RegionBranches/20 {
		t.Errorf("region mispredicts %d of %d with both filters",
			both.RegionMispredicts, both.RegionBranches)
	}
}

func TestPGURestoresCorrelation(t *testing.T) {
	tr := collectT(t, workload.CorrelatedDemo(3000, 9))
	base := Evaluate(tr, EvalConfig{Predictor: bpred.NewGShare(12, 8)})
	pgu := Evaluate(tr, EvalConfig{
		Predictor: bpred.NewGShare(12, 8),
		PGU:       PGUAll, PGUDelay: DefaultPGUDelay,
	})
	if pgu.InsertedBits == 0 {
		t.Fatal("PGU inserted no bits")
	}
	// The correlated branch is ~50% taken on random data: the baseline
	// should mispredict heavily, PGU should nearly eliminate those misses.
	if base.Mispredicts < tr.Branches/8 {
		t.Fatalf("baseline suspiciously good: %d misses / %d branches", base.Mispredicts, tr.Branches)
	}
	if pgu.Mispredicts*3 > base.Mispredicts {
		t.Errorf("PGU did not restore correlation: base %d -> pgu %d", base.Mispredicts, pgu.Mispredicts)
	}
}

func TestPGUDelayMatters(t *testing.T) {
	// If the bit enters the history only after the dependent branch has
	// been predicted, it cannot help.
	tr := collectT(t, workload.CorrelatedDemo(2000, 10))
	late := Evaluate(tr, EvalConfig{
		Predictor: bpred.NewGShare(12, 8),
		PGU:       PGUAll, PGUDelay: 50,
	})
	soon := Evaluate(tr, EvalConfig{
		Predictor: bpred.NewGShare(12, 8),
		PGU:       PGUAll, PGUDelay: 2,
	})
	if soon.Mispredicts*2 > late.Mispredicts {
		t.Errorf("timely insertion (%d) not clearly better than late (%d)",
			soon.Mispredicts, late.Mispredicts)
	}
}

func TestPGUPolicyFiltersDefines(t *testing.T) {
	tr := collectT(t, workload.CorrelatedDemo(500, 11))
	all := Evaluate(tr, EvalConfig{Predictor: bpred.NewGShare(12, 8), PGU: PGUAll, PGUDelay: 2})
	guards := Evaluate(tr, EvalConfig{Predictor: bpred.NewGShare(12, 8), PGU: PGUBranchGuards, PGUDelay: 2})
	region := Evaluate(tr, EvalConfig{Predictor: bpred.NewGShare(12, 8), PGU: PGURegionGuards, PGUDelay: 2})
	if !(all.InsertedBits >= guards.InsertedBits && guards.InsertedBits >= region.InsertedBits) {
		t.Errorf("insertion counts not monotone: all=%d guards=%d region=%d",
			all.InsertedBits, guards.InsertedBits, region.InsertedBits)
	}
	if region.InsertedBits == 0 {
		t.Error("region policy inserted nothing despite region branches")
	}
}

func TestEvaluateMetricsBasics(t *testing.T) {
	tr := collectT(t, workload.FalsePathDemo(200, 8, 5))
	m := Evaluate(tr, EvalConfig{Predictor: bpred.NewBimodal(10)})
	if m.Branches == 0 || m.Insts == 0 {
		t.Fatalf("empty metrics: %+v", m)
	}
	if m.Branches != tr.Branches {
		t.Errorf("branches %d != trace %d", m.Branches, tr.Branches)
	}
	if m.PredDefs != tr.PredDefs {
		t.Errorf("preddefs %d != trace %d", m.PredDefs, tr.PredDefs)
	}
	if m.MispredictRate() < 0 || m.MispredictRate() > 1 {
		t.Errorf("rate out of range: %f", m.MispredictRate())
	}
	if m.MPKI() <= 0 {
		t.Errorf("MPKI = %f", m.MPKI())
	}
	var zero Metrics
	if zero.MispredictRate() != 0 || zero.MPKI() != 0 || zero.RegionMispredictRate() != 0 || zero.FilterCoverage() != 0 {
		t.Error("zero metrics not zero")
	}
}

func TestPerBranchStats(t *testing.T) {
	tr := collectT(t, workload.FalsePathDemo(500, 8, 12))
	m := Evaluate(tr, EvalConfig{
		Predictor: bpred.NewGShare(12, 8), UseSFPF: true, ResolveDelay: 6,
		PerBranch: true,
	})
	if len(m.ByPC) == 0 {
		t.Fatal("no per-branch stats collected")
	}
	var total, mispredicts, filtered uint64
	for _, bs := range m.ByPC {
		total += bs.Count
		mispredicts += bs.Mispredicts
		filtered += bs.Filtered
		if r := bs.MispredictRate(); r < 0 || r > 1 {
			t.Errorf("branch %d rate %f", bs.PC, r)
		}
	}
	if total != m.Branches || mispredicts != m.Mispredicts || filtered != m.Filtered+m.FilteredTrue {
		t.Errorf("per-branch sums (%d,%d,%d) disagree with totals (%d,%d,%d)",
			total, mispredicts, filtered, m.Branches, m.Mispredicts, m.Filtered+m.FilteredTrue)
	}
	top := m.TopMispredicted(3)
	if len(top) == 0 {
		t.Fatal("no top branches")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Mispredicts > top[i-1].Mispredicts {
			t.Error("top list not sorted")
		}
	}
	// Without the flag, no map is built.
	m2 := Evaluate(tr, EvalConfig{Predictor: bpred.NewGShare(12, 8)})
	if m2.ByPC != nil {
		t.Error("per-branch stats collected without the flag")
	}
}

func TestBranchReport(t *testing.T) {
	m := Metrics{ByPC: map[uint64]*BranchStats{
		0x40: {PC: 0x40, Count: 10, Taken: 4, Mispredicts: 4},
		0x10: {PC: 0x10, Count: 6, Taken: 6, Mispredicts: 1},
		0x20: {PC: 0x20, Count: 8, Taken: 2, Mispredicts: 4},
		0x30: {PC: 0x30, Count: 2, Taken: 0, Mispredicts: 0},
	}}
	rep := m.BranchReport(3)
	if rep.StaticBranches != 4 || rep.Events != 26 || rep.Mispredicts != 9 {
		t.Fatalf("totals: %+v", rep)
	}
	// 0x20 and 0x40 tie at 4 mispredicts; the lower PC ranks first.
	wantPCs := []uint64{0x20, 0x40, 0x10}
	if len(rep.Top) != 3 {
		t.Fatalf("top len %d", len(rep.Top))
	}
	for i, want := range wantPCs {
		if rep.Top[i].PC != want {
			t.Errorf("top[%d].PC = %#x, want %#x", i, rep.Top[i].PC, want)
		}
	}
	// Entries are copies, not aliases into ByPC.
	rep.Top[0].Mispredicts = 999
	if m.ByPC[0x20].Mispredicts != 4 {
		t.Error("report aliases the live ByPC map")
	}
	if got, want := rep.Accuracy(), 1-9.0/26.0; got != want {
		t.Errorf("accuracy %f, want %f", got, want)
	}
	var zero BranchReport
	if zero.Accuracy() != 0 {
		t.Error("zero report accuracy not zero")
	}
}

func TestBranchStatsZeroSafe(t *testing.T) {
	bs := &BranchStats{Count: 5, Filtered: 5}
	if bs.MispredictRate() != 0 {
		t.Error("fully filtered branch rate not zero")
	}
}

func TestTrainFilteredKnob(t *testing.T) {
	tr := collectT(t, workload.FalsePathDemo(1000, 8, 6))
	noTrain := Evaluate(tr, EvalConfig{
		Predictor: bpred.NewGShare(12, 8), UseSFPF: true, ResolveDelay: 6,
	})
	train := Evaluate(tr, EvalConfig{
		Predictor: bpred.NewGShare(12, 8), UseSFPF: true, ResolveDelay: 6,
		TrainFiltered: true,
	})
	// Training with filtered (all not-taken) outcomes pollutes the tables
	// for the surviving all-taken stream: it must not be better.
	if train.Mispredicts < noTrain.Mispredicts {
		t.Errorf("training filtered branches helped (%d < %d)?",
			train.Mispredicts, noTrain.Mispredicts)
	}
}
