package bpred

import (
	"testing"

	"repro/internal/rng"
)

// trainAndMeasure feeds (pc, outcome) pairs and returns the misprediction
// count over the last half (after warmup).
func trainAndMeasure(p Predictor, pcs []uint64, outcomes []bool) int {
	misses := 0
	half := len(outcomes) / 2
	for i := range outcomes {
		pred := p.Predict(pcs[i])
		if i >= half && pred != outcomes[i] {
			misses++
		}
		p.PredictUpdate(pcs[i], outcomes[i])
	}
	return misses
}

func constSeq(pc uint64, val bool, n int) ([]uint64, []bool) {
	pcs := make([]uint64, n)
	outs := make([]bool, n)
	for i := range pcs {
		pcs[i] = pc
		outs[i] = val
	}
	return pcs, outs
}

func TestStatic(t *testing.T) {
	st := NewStatic(true)
	if !st.Predict(0) {
		t.Error("static-taken predicted not-taken")
	}
	st.PredictUpdate(0, false)
	if !st.Predict(0) {
		t.Error("static changed after update")
	}
	if NewStatic(false).Predict(5) {
		t.Error("static-nottaken predicted taken")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(10)
	pcs, outs := constSeq(0x40, true, 100)
	if m := trainAndMeasure(b, pcs, outs); m != 0 {
		t.Errorf("bimodal missed %d on constant-taken branch", m)
	}
}

func TestBimodalHysteresis(t *testing.T) {
	b := NewBimodal(10)
	// Saturate taken.
	for i := 0; i < 10; i++ {
		b.PredictUpdate(4, true)
	}
	// One not-taken must not flip the prediction (2-bit hysteresis).
	b.PredictUpdate(4, false)
	if !b.Predict(4) {
		t.Error("single not-taken flipped a saturated counter")
	}
	b.PredictUpdate(4, false)
	if b.Predict(4) {
		t.Error("two not-takens should flip the prediction")
	}
}

func TestBimodalAliasing(t *testing.T) {
	// Two PCs that collide in a tiny table interfere; in a larger table
	// they do not.
	small := NewBimodal(2)
	// pc 1 and pc 5 collide (index mask 3).
	for i := 0; i < 8; i++ {
		small.PredictUpdate(1, true)
	}
	small.PredictUpdate(5, false)
	small.PredictUpdate(5, false)
	if small.Predict(1) {
		t.Error("expected destructive aliasing in tiny table")
	}
	big := NewBimodal(10)
	for i := 0; i < 8; i++ {
		big.PredictUpdate(1, true)
	}
	big.PredictUpdate(5, false)
	big.PredictUpdate(5, false)
	if !big.Predict(1) {
		t.Error("unexpected aliasing in large table")
	}
}

func TestGShareLearnsAlternation(t *testing.T) {
	// A strict T,N,T,N pattern is invisible to bimodal but trivial with
	// one bit of history.
	g := NewGShare(10, 8)
	n := 200
	misses := 0
	for i := 0; i < n; i++ {
		out := i%2 == 0
		pred := g.Predict(0x10)
		if i >= n/2 && pred != out {
			misses++
		}
		g.PredictUpdate(0x10, out)
	}
	if misses != 0 {
		t.Errorf("gshare missed %d on alternating branch", misses)
	}
	b := NewBimodal(10)
	bm := 0
	for i := 0; i < n; i++ {
		out := i%2 == 0
		if p := b.Predict(0x10); i >= n/2 && p != out {
			bm++
		}
		b.PredictUpdate(0x10, out)
	}
	if bm < n/4 {
		t.Errorf("bimodal unexpectedly good on alternation: %d misses", bm)
	}
}

func TestGShareLearnsCorrelation(t *testing.T) {
	// Branch B repeats the outcome of the immediately preceding branch A;
	// A is random. gshare should predict B near-perfectly, bimodal ~50%.
	r := rng.New(7)
	n := 2000
	gm, bm := 0, 0
	g := NewGShare(12, 8)
	b := NewBimodal(12)
	for i := 0; i < n; i++ {
		a := r.Bool()
		// Branch A at pc 0x100.
		g.PredictUpdate(0x100, a)
		b.PredictUpdate(0x100, a)
		// Branch B at pc 0x200 repeats a.
		if p := g.Predict(0x200); i >= n/2 && p != a {
			gm++
		}
		g.PredictUpdate(0x200, a)
		if p := b.Predict(0x200); i >= n/2 && p != a {
			bm++
		}
		b.PredictUpdate(0x200, a)
	}
	if gm > n/50 {
		t.Errorf("gshare missed %d/%d on correlated branch", gm, n/2)
	}
	if bm < n/8 {
		t.Errorf("bimodal suspiciously good on random correlated branch: %d", bm)
	}
}

func TestGAgAndGSelectLearnAlternation(t *testing.T) {
	for _, p := range []Predictor{NewGAg(10), NewGSelect(12, 6)} {
		n := 200
		misses := 0
		for i := 0; i < n; i++ {
			out := i%2 == 0
			if pred := p.Predict(0x30); i >= n/2 && pred != out {
				misses++
			}
			p.PredictUpdate(0x30, out)
		}
		if misses != 0 {
			t.Errorf("%s missed %d on alternating branch", p.Name(), misses)
		}
	}
}

func TestLocalLearnsPeriodicPattern(t *testing.T) {
	// Period-4 pattern TTTN per branch: local history nails it.
	l := NewLocal(8, 10, 10)
	n := 400
	misses := 0
	for i := 0; i < n; i++ {
		out := i%4 != 3
		if p := l.Predict(0x44); i >= n/2 && p != out {
			misses++
		}
		l.PredictUpdate(0x44, out)
	}
	if misses != 0 {
		t.Errorf("local missed %d on periodic branch", misses)
	}
}

func TestLocalHistoriesAreIndependent(t *testing.T) {
	l := NewLocal(8, 10, 10)
	// Branch X always taken, branch Y alternates; they must not disturb
	// each other (distinct history entries and mostly distinct patterns).
	misses := 0
	n := 400
	for i := 0; i < n; i++ {
		if p := l.Predict(1); i >= n/2 && !p {
			misses++
		}
		l.PredictUpdate(1, true)
		out := i%2 == 0
		l.PredictUpdate(2, out)
	}
	if misses != 0 {
		t.Errorf("local missed %d on constant branch with busy neighbour", misses)
	}
}

func TestTournamentBeatsWorseComponent(t *testing.T) {
	// Alternation: the global component wins; constant: both fine. The
	// tournament should be near-perfect on a mix.
	tp := NewTournament(12, 8)
	n := 600
	misses := 0
	for i := 0; i < n; i++ {
		out := i%2 == 0
		if p := tp.Predict(0x50); i >= n/2 && p != out {
			misses++
		}
		tp.PredictUpdate(0x50, out)
	}
	if misses > n/50 {
		t.Errorf("tournament missed %d on alternating branch", misses)
	}
}

func TestObserveBitShiftsHistory(t *testing.T) {
	g := NewGShare(10, 8)
	g.ObserveBit(true)
	g.ObserveBit(false)
	g.ObserveBit(true)
	if got := g.History(); got != 0b101 {
		t.Errorf("history = %b, want 101", got)
	}
}

func TestObserveBitChangesPrediction(t *testing.T) {
	// Train gshare so that history H predicts taken and history H'
	// predicts not-taken; ObserveBit should switch between them.
	g := NewGShare(12, 4)
	for i := 0; i < 8; i++ {
		g.Reset()
	}
	g.Reset()
	// With history 0: train taken. With history 1: train not-taken.
	for i := 0; i < 4; i++ {
		g.hist = 0
		g.PredictUpdate(0x7, true)
		g.hist = 1
		g.PredictUpdate(0x7, false)
	}
	g.hist = 0
	if !g.Predict(0x7) {
		t.Fatal("history-0 prediction not taken")
	}
	g.ObserveBit(true) // history becomes ...1
	if g.Predict(0x7) {
		t.Error("ObserveBit did not steer the prediction")
	}
}

func TestResetClearsState(t *testing.T) {
	preds := []Predictor{
		NewBimodal(8), NewGShare(8, 6), NewGSelect(8, 4),
		NewGAg(8), NewLocal(6, 8, 8), NewTournament(8, 6),
	}
	for _, p := range preds {
		for i := 0; i < 50; i++ {
			p.PredictUpdate(uint64(i%7), true)
		}
		p.Reset()
		// After reset, counters are weakly not-taken everywhere.
		if p.Predict(3) {
			t.Errorf("%s predicts taken after reset", p.Name())
		}
	}
}

func TestNames(t *testing.T) {
	cases := map[string]Predictor{
		"bimodal-8":     NewBimodal(8),
		"gshare-10.8":   NewGShare(10, 8),
		"gselect-10.4":  NewGSelect(10, 4),
		"gag-9":         NewGAg(9),
		"local-6.8.8":   NewLocal(6, 8, 8),
		"tournament-10": NewTournament(10, 8),
		"static-taken":  NewStatic(true),
	}
	for want, p := range cases {
		if got := p.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestGSelectClampsHistBits(t *testing.T) {
	g := NewGSelect(4, 10)
	// Must not panic and must index within the table.
	for i := 0; i < 100; i++ {
		g.PredictUpdate(uint64(i), i%3 == 0)
	}
}

func TestPredictDoesNotMutate(t *testing.T) {
	g := NewGShare(10, 8)
	for i := 0; i < 20; i++ {
		g.PredictUpdate(9, i%2 == 0)
	}
	h := g.History()
	p1 := g.Predict(9)
	p2 := g.Predict(9)
	if p1 != p2 || g.History() != h {
		t.Error("Predict mutated predictor state")
	}
}
