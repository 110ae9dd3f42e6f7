package sim

import (
	"bytes"
	"testing"

	"repro/internal/bpred"
	"repro/internal/rng"
)

// TestConstructorStateEqualsReset requires a freshly constructed
// predictor to serialize to the same bytes as the same predictor after
// it has been trained and Reset. core.NewEvaluator takes its predictor
// as it is given, so the constructor must build exactly the state Reset
// restores. Every registry kind is checked at its default size, plus the
// 2^22-counter geometries the sweep benchmark runs, whose constructors
// skip the fill pass a small table would hide.
func TestConstructorStateEqualsReset(t *testing.T) {
	var specs []Spec
	for _, k := range Kinds() {
		specs = append(specs, For(k))
	}
	for _, text := range []string{"gshare:22:16", "gselect:22:16", "bimodal:22", "tournament:22:16"} {
		specs = append(specs, MustParse(text))
	}
	for _, sp := range specs {
		t.Run(sp.String(), func(t *testing.T) {
			p := sp.MustNew()
			st, ok := p.(bpred.Stater)
			if !ok {
				t.Fatalf("%s does not implement bpred.Stater", p.Name())
			}
			fresh := st.AppendState(nil)

			r := rng.New(11)
			obs, _ := p.(bpred.HistoryObserver)
			for i := 0; i < 20000; i++ {
				p.PredictUpdate(r.Uint64(), r.Bool())
				if obs != nil && r.Chance(0.15) {
					obs.ObserveBit(r.Bool())
				}
			}
			if len(fresh) > 0 && bytes.Equal(st.AppendState(nil), fresh) {
				t.Fatal("training left the state unchanged: the check would prove nothing")
			}

			p.Reset()
			got := st.AppendState(nil)
			if len(got) != len(fresh) {
				t.Fatalf("state after Reset is %d bytes, fresh state %d", len(got), len(fresh))
			}
			for i := range got {
				if got[i] != fresh[i] {
					t.Fatalf("state after Reset differs from the constructor's at byte %d of %d: %#x, fresh %#x",
						i, len(got), got[i], fresh[i])
				}
			}
		})
	}
}
