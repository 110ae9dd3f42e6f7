package bpred

import (
	"testing"

	"repro/internal/rng"
)

func TestPerceptronLearnsBias(t *testing.T) {
	p := NewPerceptron(8, 12)
	misses := 0
	n := 400
	for i := 0; i < n; i++ {
		if pr := p.Predict(0x11); i >= n/2 && !pr {
			misses++
		}
		p.PredictUpdate(0x11, true)
	}
	if misses != 0 {
		t.Errorf("perceptron missed %d on constant branch", misses)
	}
}

func TestPerceptronLearnsAlternation(t *testing.T) {
	p := NewPerceptron(8, 12)
	misses := 0
	n := 400
	for i := 0; i < n; i++ {
		out := i%2 == 0
		if pr := p.Predict(0x22); i >= n/2 && pr != out {
			misses++
		}
		p.PredictUpdate(0x22, out)
	}
	if misses != 0 {
		t.Errorf("perceptron missed %d on alternation", misses)
	}
}

func TestPerceptronLearnsSingleBitCorrelation(t *testing.T) {
	// Branch B repeats branch A, with noise branches in between: the
	// perceptron should discover which history position matters.
	r := rng.New(5)
	p := NewPerceptron(8, 16)
	misses := 0
	n := 3000
	for i := 0; i < n; i++ {
		a := r.Bool()
		p.PredictUpdate(0x100, a)
		p.PredictUpdate(0x200, r.Bool()) // noise
		p.PredictUpdate(0x300, r.Bool()) // noise
		if pr := p.Predict(0x400); i >= n/2 && pr != a {
			misses++
		}
		p.PredictUpdate(0x400, a)
	}
	// Threshold-based training keeps |y| near theta, so noise bits flip a
	// small fraction of predictions; ~7% residual error is expected.
	if misses > n/10 {
		t.Errorf("perceptron missed %d/%d on noisy single-bit correlation", misses, n/2)
	}
}

func TestPerceptronCannotLearnXOR(t *testing.T) {
	// The classic limitation: XOR of two history bits is not linearly
	// separable. A gshare of comparable size learns it; the perceptron
	// cannot. This is a property check of the implementation, not a flaw.
	r := rng.New(6)
	p := NewPerceptron(8, 8)
	g := NewGShare(12, 8)
	pm, gm := 0, 0
	n := 4000
	for i := 0; i < n; i++ {
		a, b := r.Bool(), r.Bool()
		x := a != b
		for _, pr := range []Predictor{p, g} {
			pr.PredictUpdate(0x100, a)
			pr.PredictUpdate(0x200, b)
		}
		if pr := p.Predict(0x300); i >= n/2 && pr != x {
			pm++
		}
		p.PredictUpdate(0x300, x)
		if pr := g.Predict(0x300); i >= n/2 && pr != x {
			gm++
		}
		g.PredictUpdate(0x300, x)
	}
	if gm > n/40 {
		t.Errorf("gshare missed %d on XOR (test broken?)", gm)
	}
	if pm < n/8 {
		t.Errorf("perceptron suspiciously good on XOR: %d misses", pm)
	}
}

func TestPerceptronWeightSaturation(t *testing.T) {
	p := NewPerceptron(4, 4)
	for i := 0; i < 1000; i++ {
		p.PredictUpdate(1, true)
	}
	w := p.row(p.index(1))
	for i, v := range w {
		if v > 127 || v < -127 {
			t.Errorf("weight %d out of range: %d", i, v)
		}
	}
}

func TestPerceptronResetAndName(t *testing.T) {
	p := NewPerceptron(6, 10)
	for i := 0; i < 50; i++ {
		p.PredictUpdate(2, true)
	}
	p.Reset()
	// Fresh perceptron with zero weights predicts taken (y = 0 >= 0);
	// that's the defined tie-break.
	if !p.Predict(2) {
		t.Error("zero perceptron tie-break changed")
	}
	if p.Name() != "perceptron-6.10" {
		t.Errorf("name = %q", p.Name())
	}
}
