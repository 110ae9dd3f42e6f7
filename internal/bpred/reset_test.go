package bpred

import (
	"testing"

	"repro/internal/rng"
)

// TestResetRestoresInitialBehaviour replays the same randomized stream
// twice over every concrete predictor, first fresh from its constructor
// and then after a Reset, injecting history bits through ObserveBit
// where the predictor has an open history. The second pass must predict
// identically to the first: any state Reset fails to clear — a warm
// table entry, a stale history bit, a leftover perceptron weight — or
// any initial value it sets differently from the constructor shows up
// as a divergence.
func TestResetRestoresInitialBehaviour(t *testing.T) {
	preds := []Predictor{
		NewStatic(true),
		NewStatic(false),
		NewBimodal(8),
		NewGShare(10, 8),
		NewGSelect(10, 4),
		NewGAg(8),
		NewLocal(6, 8, 8),
		NewTournament(10, 8),
		NewAgree(9, 7),
		NewPerceptron(6, 12),
	}
	for _, p := range preds {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			replay := func() []bool {
				r := rng.New(42)
				obs, isObs := p.(HistoryObserver)
				out := make([]bool, 0, 4000)
				for i := 0; i < 4000; i++ {
					pc := r.Bits(20)
					taken := r.Bool()
					out = append(out, p.Predict(pc))
					p.PredictUpdate(pc, taken)
					if isObs && r.Chance(0.15) {
						obs.ObserveBit(r.Bool())
					}
				}
				return out
			}
			first := replay()
			p.Reset()
			second := replay()
			for i := range first {
				if first[i] != second[i] {
					t.Fatalf("prediction %d differs after Reset: %v then %v", i, first[i], second[i])
				}
			}
		})
	}
}
