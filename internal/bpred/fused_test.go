package bpred

import (
	"testing"

	"repro/internal/rng"
)

// fusedPair names one predictor configuration and builds two fresh,
// identically configured instances for split-vs-fused comparison.
func fusedPairs() map[string]func() (Predictor, Predictor) {
	mk := func(f func() Predictor) func() (Predictor, Predictor) {
		return func() (Predictor, Predictor) { return f(), f() }
	}
	return map[string]func() (Predictor, Predictor){
		"static-taken":    mk(func() Predictor { return NewStatic(true) }),
		"static-nottaken": mk(func() Predictor { return NewStatic(false) }),
		"bimodal":         mk(func() Predictor { return NewBimodal(6) }),
		"gshare":          mk(func() Predictor { return NewGShare(6, 5) }),
		"gselect":         mk(func() Predictor { return NewGSelect(6, 4) }),
		"gag":             mk(func() Predictor { return NewGAg(6) }),
		"local":           mk(func() Predictor { return NewLocal(4, 6, 6) }),
		"tournament":      mk(func() Predictor { return NewTournament(6, 5) }),
		"agree":           mk(func() Predictor { return NewAgree(4, 4) }),
		"perceptron":      mk(func() Predictor { return NewPerceptron(4, 10) }),
	}
}

// TestPredictUpdateMatchesSplit drives every predictor kind over a
// randomized stream twice — once through the split Predict-then-Update
// API and once through the fused PredictUpdate step — and requires the
// same prediction at every event. Small tables force heavy aliasing, and
// interleaved ObserveBit traffic exercises the fused history shifts.
func TestPredictUpdateMatchesSplit(t *testing.T) {
	for name, build := range fusedPairs() {
		t.Run(name, func(t *testing.T) {
			split, fusedP := build()
			fused := AsFused(fusedP)
			if fused != fusedP {
				t.Fatalf("%s does not implement Fused", fusedP.Name())
			}
			sObs, _ := split.(HistoryObserver)
			fObs, _ := fusedP.(HistoryObserver)
			r := rng.New(7)
			for i := 0; i < 20000; i++ {
				pc := r.Bits(16)
				taken := r.Bool()
				want := split.Predict(pc)
				split.Update(pc, taken)
				got := fused.PredictUpdate(pc, taken)
				if got != want {
					t.Fatalf("event %d: fused predicted %v, split predicted %v (pc=%#x taken=%v)",
						i, got, want, pc, taken)
				}
				if sObs != nil && r.Chance(0.15) {
					bit := r.Bool()
					sObs.ObserveBit(bit)
					fObs.ObserveBit(bit)
				}
			}
		})
	}
}

// TestAgreeBiasBounded feeds the agree predictor an adversarial stream of
// ever-new PCs — the long-lived serving-session attack the old unbounded
// bias map was vulnerable to — and checks the bias store stays at its
// fixed construction size.
func TestAgreeBiasBounded(t *testing.T) {
	a := NewAgree(8, 6)
	wantEntries := len(a.bias)
	wantSets := len(a.rr)
	for pc := uint64(0); pc < 1_000_000; pc++ {
		a.Predict(pc)
		a.Update(pc, pc%3 == 0)
	}
	if len(a.bias) != wantEntries || cap(a.bias) != wantEntries {
		t.Errorf("bias store grew: len %d cap %d, want fixed %d", len(a.bias), cap(a.bias), wantEntries)
	}
	if len(a.rr) != wantSets {
		t.Errorf("rr store grew: len %d, want fixed %d", len(a.rr), wantSets)
	}
	if 1<<8 != wantEntries {
		t.Errorf("bias store holds %d entries, want 2^tableBits = %d", wantEntries, 1<<8)
	}
}

// TestAgreeBiasDisplacement pins the BTB-style displacement semantics:
// five distinct PCs mapping to one 4-way set displace round-robin, and a
// displaced branch falls back to the default not-taken bias until its
// next outcome re-allocates it.
func TestAgreeBiasDisplacement(t *testing.T) {
	a := NewAgree(2, 0) // one bias set of 4 ways
	// Fill the set with four always-taken branches.
	for pc := uint64(0); pc < 4; pc++ {
		a.Update(pc, true)
	}
	for pc := uint64(0); pc < 4; pc++ {
		if !a.lookupBias(pc) {
			t.Fatalf("pc %d bias lost while the set had room", pc)
		}
	}
	// A fifth branch displaces way 0 (round-robin from the start).
	a.Update(4, true)
	if !a.lookupBias(4) {
		t.Error("new branch was not allocated")
	}
	if a.lookupBias(0) {
		t.Error("displaced branch still reports its old bias")
	}
}
