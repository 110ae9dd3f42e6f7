package charz

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

// evTrace builds an in-memory trace from (pc, taken) pairs in event
// order — the minimal input Characterize needs.
func evTrace(evs ...[2]uint64) *trace.Trace {
	tr := &trace.Trace{Name: "hand"}
	for i, e := range evs {
		tr.Events = append(tr.Events, trace.Event{
			Kind:  trace.KindBranch,
			Step:  uint64(i),
			PC:    uint32(e[0]),
			Flags: trace.FlagTaken.If(e[1] == 1),
		})
	}
	tr.Branches = uint64(len(evs))
	return tr
}

// seq emits n events at one pc whose outcomes cycle through pattern.
func seq(pc uint64, pattern []uint64, n int) [][2]uint64 {
	out := make([][2]uint64, n)
	for i := range out {
		out[i] = [2]uint64{pc, pattern[i%len(pattern)]}
	}
	return out
}

func characterize(t *testing.T, tr *trace.Trace, opt Options) *Report {
	t.Helper()
	rep, err := Characterize(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func near(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v ± %v", name, got, want, tol)
	}
}

func TestAllTaken(t *testing.T) {
	rep := characterize(t, evTrace(seq(7, []uint64{1}, 100)...), Options{})
	if rep.Events != 100 || len(rep.Branches) != 1 {
		t.Fatalf("events=%d branches=%d", rep.Events, len(rep.Branches))
	}
	b := rep.Branches[0]
	if b.PC != 7 || b.Count != 100 || b.Taken != 100 {
		t.Errorf("branch header: %+v", b)
	}
	near(t, "rate", b.TakenRate, 1, 0)
	near(t, "H(Y)", b.Entropy, 0, 0)
	for i, h := range b.CondEntropy {
		near(t, "cond", h, 0, 0)
		_ = i
	}
	near(t, "H(Y|g)", b.GlobalCondEntropy, 0, 0)
	// The zero-weight perceptron probe predicts taken from event one.
	near(t, "sep", b.Separability, 1, 0)
}

func TestAllNotTaken(t *testing.T) {
	rep := characterize(t, evTrace(seq(7, []uint64{0}, 100)...), Options{})
	b := rep.Branches[0]
	near(t, "rate", b.TakenRate, 0, 0)
	near(t, "H(Y)", b.Entropy, 0, 0)
	// The probe's first guess (taken) is its only miss; one update
	// drives every later prediction not-taken.
	near(t, "sep", b.Separability, 0.99, 0)
}

func TestAlternating(t *testing.T) {
	rep := characterize(t, evTrace(seq(3, []uint64{1, 0}, 64)...), Options{})
	b := rep.Branches[0]
	near(t, "rate", b.TakenRate, 0.5, 0)
	near(t, "H(Y)", b.Entropy, 1, 1e-12)
	// One bit of history determines the next outcome exactly.
	for i, d := range rep.Depths {
		near(t, "cond", b.CondEntropy[i], 0, 0)
		_ = d
	}
	near(t, "H(Y|g)", b.GlobalCondEntropy, 0, 0)
	if b.Separability < 0.9 {
		t.Errorf("alternating not separable: sep=%v", b.Separability)
	}
}

// TestPeriodThree pins the conditioned-entropy ladder of the T,T,N
// cycle: one bit of history is ambiguous after a T (the two T positions
// diverge), two bits pin the phase exactly.
func TestPeriodThree(t *testing.T) {
	const n = 999 // 333 full cycles
	rep := characterize(t, evTrace(seq(3, []uint64{1, 1, 0}, n)...), Options{})
	b := rep.Branches[0]
	near(t, "rate", b.TakenRate, 2.0/3, 1e-9)
	near(t, "H(Y)", b.Entropy, H2(2.0/3), 1e-12)
	// Contexts after a T split 50/50 and cover 2/3 of samples:
	// H(Y|h1) = 2/3 bits, up to the one skipped warmup event.
	near(t, "H(Y|h1)", b.CondEntropy[0], 2.0/3, 0.01)
	near(t, "H(Y|h2)", b.CondEntropy[1], 0, 0)
	near(t, "H(Y|h4)", b.CondEntropy[2], 0, 0)
	near(t, "H(Y|h8)", b.CondEntropy[3], 0, 0)
	if b.Separability < 0.9 {
		t.Errorf("period-3 not separable: sep=%v", b.Separability)
	}
}

func TestSeededCoinFlip(t *testing.T) {
	r := rng.New(42)
	var evs [][2]uint64
	for i := 0; i < 8192; i++ {
		evs = append(evs, [2]uint64{1, uint64(b2u(r.Bool()))})
	}
	rep := characterize(t, evTrace(evs...), Options{})
	b := rep.Branches[0]
	near(t, "rate", b.TakenRate, 0.5, 0.02)
	if b.Entropy < 0.98 {
		t.Errorf("H(Y) = %v, want ~1", b.Entropy)
	}
	// History conditioning removes nothing real; only finite-sample
	// bias (~K/(2N ln 2)) pulls the deepest estimate down.
	for i, d := range rep.Depths {
		if b.CondEntropy[i] < b.Entropy-0.1 {
			t.Errorf("H(Y|h%d) = %v too far below H(Y) = %v", d, b.CondEntropy[i], b.Entropy)
		}
	}
	near(t, "sep", b.Separability, 0.5, 0.06)
}

// TestSingleOutcomeEdges: a one-event branch and a single-outcome
// branch must report zero entropies and finite metrics, never NaN.
func TestSingleOutcomeEdges(t *testing.T) {
	rep := characterize(t, evTrace([2]uint64{5, 1}), Options{})
	if rep.Events != 1 {
		t.Fatalf("events = %d", rep.Events)
	}
	b := rep.Branches[0]
	if b.Count != 1 || b.TakenRate != 1 || b.Entropy != 0 || b.Separability != 1 {
		t.Errorf("one-event branch: %+v", b)
	}
	for _, h := range b.CondEntropy {
		if h != 0 {
			t.Errorf("conditioned entropy with no conditioned samples: %v", h)
		}
	}
	checkFinite(t, rep)
}

func TestEmptyTrace(t *testing.T) {
	rep := characterize(t, evTrace(), Options{})
	if rep.Events != 0 || len(rep.Branches) != 0 {
		t.Fatalf("empty trace: %+v", rep)
	}
	checkFinite(t, rep)
}

// TestGlobalConditioning interleaves a coin-flip leader with a follower
// that copies the leader's outcome: invisible to the follower's local
// history, fully determined by one bit of global history.
func TestGlobalConditioning(t *testing.T) {
	r := rng.New(7)
	var evs [][2]uint64
	for i := 0; i < 4096; i++ {
		v := uint64(b2u(r.Bool()))
		evs = append(evs, [2]uint64{10, v}, [2]uint64{20, v})
	}
	rep := characterize(t, evTrace(evs...), Options{})
	if len(rep.Branches) != 2 || rep.Branches[0].PC != 10 || rep.Branches[1].PC != 20 {
		t.Fatalf("branches not sorted by PC: %+v", rep.Branches)
	}
	follower := rep.Branches[1]
	if follower.CondEntropy[3] < 0.8 {
		t.Errorf("follower local H(Y|h8) = %v, want ~1 (local history can't see the leader)",
			follower.CondEntropy[3])
	}
	near(t, "follower H(Y|g8)", follower.GlobalCondEntropy, 0, 1e-9)
}

func TestGlobalDepthDisabled(t *testing.T) {
	rep := characterize(t, evTrace(seq(1, []uint64{1, 0}, 32)...), Options{GlobalDepth: -1})
	if rep.GlobalDepth >= 0 {
		t.Errorf("GlobalDepth = %d, want negative passthrough", rep.GlobalDepth)
	}
	if rep.GlobalCondEntropy != 0 {
		t.Errorf("disabled global conditioning reported %v", rep.GlobalCondEntropy)
	}
}

func TestOptionValidation(t *testing.T) {
	tr := evTrace(seq(1, []uint64{1}, 4)...)
	for _, opt := range []Options{
		{Depths: []int{0}},
		{Depths: []int{33}},
		{Depths: []int{4, -1}},
		{GlobalDepth: 33},
	} {
		if _, err := Characterize(tr, opt); err == nil {
			t.Errorf("options %+v accepted", opt)
		}
	}
}

func TestCondAt(t *testing.T) {
	rep := characterize(t, evTrace(seq(1, []uint64{1, 0}, 64)...), Options{})
	if got := rep.CondAt(4); got != rep.CondEntropy[2] {
		t.Errorf("CondAt(4) = %v, want %v", got, rep.CondEntropy[2])
	}
	// A depth the report doesn't have falls back to H(Y).
	if got := rep.CondAt(5); got != rep.Entropy {
		t.Errorf("CondAt(5) = %v, want H(Y) = %v", got, rep.Entropy)
	}
}

func TestH2(t *testing.T) {
	cases := []struct{ p, h float64 }{
		{0, 0}, {1, 0}, {-0.5, 0}, {1.5, 0},
		{0.5, 1},
		{0.25, 0.8112781244591328},
	}
	for _, c := range cases {
		near(t, "H2", H2(c.p), c.h, 1e-12)
	}
	// InvH2 inverts H2 on [0, 1/2].
	for _, h := range []float64{0, 0.1, 0.3, 0.5, 0.9, 1} {
		near(t, "H2(InvH2)", H2(InvH2(h)), h, 1e-9)
	}
}

func checkFinite(t *testing.T, rep *Report) {
	t.Helper()
	finite := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s not finite: %v", name, v)
		}
	}
	finite("TakenRate", rep.TakenRate)
	finite("Entropy", rep.Entropy)
	finite("GlobalCondEntropy", rep.GlobalCondEntropy)
	finite("Separability", rep.Separability)
	for _, h := range rep.CondEntropy {
		finite("CondEntropy", h)
	}
	for _, b := range rep.Branches {
		finite("branch TakenRate", b.TakenRate)
		finite("branch Entropy", b.Entropy)
		finite("branch GlobalCondEntropy", b.GlobalCondEntropy)
		finite("branch Separability", b.Separability)
		for _, h := range b.CondEntropy {
			finite("branch CondEntropy", h)
		}
	}
}
