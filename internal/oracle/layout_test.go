package oracle

import (
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/sim"
)

// TestCheckLayoutAllKinds runs the adversarial saturation streams for
// every registry kind against its reference model.
func TestCheckLayoutAllKinds(t *testing.T) {
	for _, kind := range sim.Kinds() {
		t.Run(kind, func(t *testing.T) {
			if err := CheckLayout(sim.MustParse(kind), 1, 4096); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// brokenLaneBimodal is a bimodal predictor with a deliberate one-lane
// packing bug: updates land on the neighbouring counter. The layout
// streams must catch it even though broad randomized traffic often
// trains neighbours similarly enough to slip through short runs.
type brokenLaneBimodal struct {
	b *bpred.Bimodal
}

func (p *brokenLaneBimodal) Name() string           { return "broken-lane" }
func (p *brokenLaneBimodal) Reset()                 { p.b.Reset() }
func (p *brokenLaneBimodal) Predict(pc uint64) bool { return p.b.Predict(pc) }

func (p *brokenLaneBimodal) PredictUpdate(pc uint64, t bool) bool {
	pred := p.b.Predict(pc)
	p.b.PredictUpdate(pc^1, t)
	return pred
}

// TestCheckLayoutCatchesLaneBug checks the streams have teeth: the
// lane-neighbour stream pulls adjacent counters in opposite directions,
// so an off-by-one-lane update diverges from the reference.
func TestCheckLayoutCatchesLaneBug(t *testing.T) {
	spec := sim.For("bimodal", 12)
	ref, err := ReferenceFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := &brokenLaneBimodal{b: bpred.NewBimodal(12)}
	var failed error
	for _, s := range layoutStreams(1, 4096) {
		ref.Reset()
		if err := checkScripted(got, ref, s.name, s.events); err != nil {
			failed = err
			break
		}
	}
	if failed == nil {
		t.Fatal("one-lane update bug not detected by any layout stream")
	}
	if !strings.Contains(failed.Error(), "diverges") {
		t.Fatalf("unexpected error shape: %v", failed)
	}
}
