package oracle

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// synCase resolves a synthetic charz point through the workload
// registry — the same by-name path sweeps, the harness, and the serving
// daemon use — so these checks double as coverage of that wiring.
func synCase(t *testing.T, name string, spec sim.Spec) Case {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return Case{Name: name, Prog: w.Build(), Limit: 3_000_000, Spec: spec, Cfg: fullCfg()}
}

// TestSyntheticEquivalence runs the differential evaluators over
// generated traces: the synthetic families stress predictors with
// statistics the hand-written workloads don't reach (pure noise, exact
// periodicity, long-lag copies), and every evaluation path must still
// agree on them.
func TestSyntheticEquivalence(t *testing.T) {
	points := []struct {
		name string
		spec sim.Spec
	}{
		{"syn:bias:p=0.97:n=256", sim.For("gshare", 11, 7)},
		{"syn:periodic:pat=11010010:n=256", sim.For("local", 6, 8, 10)},
		{"syn:lag:k=6:eps=0.02:n=256", sim.For("perceptron", 6, 16)},
		{"syn:xcorr:eps=0.02:n=256", sim.For("tournament", 10, 8)},
	}
	for _, p := range points {
		p := p
		t.Run(p.name, func(t *testing.T) {
			c := synCase(t, p.name, p.spec)
			if err := CheckSerializeRoundTrip(c); err != nil {
				t.Error(err)
			}
			if err := CheckBatchEquivalence(c); err != nil {
				t.Error(err)
			}
		})
	}
}
