package bpred

import "testing"

func TestAgreeLearnsBiasedBranch(t *testing.T) {
	a := NewAgree(10, 6)
	misses := 0
	n := 200
	for i := 0; i < n; i++ {
		if p := a.Predict(0x20); i >= n/2 && !p {
			misses++
		}
		a.PredictUpdate(0x20, true)
	}
	if misses != 0 {
		t.Errorf("agree missed %d on constant-taken branch", misses)
	}
}

func TestAgreeFirstOutcomeSetsBias(t *testing.T) {
	a := NewAgree(10, 6)
	a.PredictUpdate(4, false) // bias fixed to not-taken
	// With a fresh weakly-agree counter, the prediction follows the bias.
	if a.Predict(4) {
		t.Error("prediction ignores the recorded bias")
	}
}

func TestAgreeToleratesAliasing(t *testing.T) {
	// Two branches that collide in the counter table but have opposite
	// biases: because both *agree* with their own bias, the shared
	// counters reinforce instead of fight. A gshare of the same size
	// suffers destructive interference.
	const bits = 2 // 4 counters: guaranteed collisions
	agree := NewAgree(bits, 0)
	gs := NewGShare(bits, 0)
	n := 400
	am, gm := 0, 0
	// pc 1 always taken, pc 5 never taken; they alias under mask 3.
	for i := 0; i < n; i++ {
		if p := agree.Predict(1); i >= n/2 && !p {
			am++
		}
		agree.PredictUpdate(1, true)
		if p := agree.Predict(5); i >= n/2 && p {
			am++
		}
		agree.PredictUpdate(5, false)

		if p := gs.Predict(1); i >= n/2 && !p {
			gm++
		}
		gs.PredictUpdate(1, true)
		if p := gs.Predict(5); i >= n/2 && p {
			gm++
		}
		gs.PredictUpdate(5, false)
	}
	if am != 0 {
		t.Errorf("agree missed %d under aliasing", am)
	}
	if gm == 0 {
		t.Error("gshare unexpectedly immune to aliasing (test broken?)")
	}
}

func TestAgreeHistoryCorrelation(t *testing.T) {
	// Alternating branch: history lets agree flip agreement per pattern.
	a := NewAgree(10, 4)
	misses := 0
	n := 400
	for i := 0; i < n; i++ {
		out := i%2 == 0
		if p := a.Predict(0x9); i >= n/2 && p != out {
			misses++
		}
		a.PredictUpdate(0x9, out)
	}
	if misses != 0 {
		t.Errorf("agree missed %d on alternating branch", misses)
	}
}

func TestAgreeResetAndName(t *testing.T) {
	a := NewAgree(8, 4)
	a.PredictUpdate(3, true)
	a.Reset()
	a.PredictUpdate(3, false)
	if a.Predict(3) {
		t.Error("bias survived reset")
	}
	if a.Name() != "agree-8.4" {
		t.Errorf("name = %q", a.Name())
	}
}
