package pipeline

import (
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTimingMatchesTraceEvaluator is a cross-model invariant: with SFPF
// and PGU off, the timing model and the trace evaluator drive the same
// predictor through the same predict-and-update sequence (every
// conditional branch, in program order, nothing inserted into history),
// so over one recording — replayed by the timing model, and derived
// into the trace the evaluator reads — they count the same Branches and
// Mispredicts. Issue width and the RAS change timing, never that
// sequence. Every registry kind runs on every suite program, original
// and if-converted, at widths 1 and 4.
func TestTimingMatchesTraceEvaluator(t *testing.T) {
	progs := suitePrograms(t)
	if testing.Short() {
		progs = progs[:4]
	}
	for _, p := range progs {
		x, err := record.Program(p, 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.FromRecording(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range sim.Kinds() {
			spec := sim.For(kind)
			m := core.Evaluate(tr, core.EvalConfig{Predictor: spec.MustNew()})
			for _, width := range []int{1, 4} {
				cfg := DefaultConfig(spec.MustNew())
				cfg.IssueWidth = width
				st, err := Replay(x, cfg)
				if err != nil {
					t.Fatalf("%s on %s, width %d: %v", kind, p.Name, width, err)
				}
				if st.Branches != m.Branches || st.Mispredicts != m.Mispredicts {
					t.Errorf("%s on %s, width %d: timing model %d branches, %d mispredicts; evaluator %d, %d",
						kind, p.Name, width, st.Branches, st.Mispredicts, m.Branches, m.Mispredicts)
				}
			}
		}
	}
}
