package core

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// feedEvents runs the first n events of tr through e.
func feedEvents(e *Evaluator, tr *trace.Trace, n int) {
	for i := 0; i < n; i++ {
		e.Feed(&tr.Events[i])
	}
}

// TestStateRoundTripMidStream cuts a run in the middle, serializes the
// evaluator + predictor state, restores into a fresh evaluator, and
// finishes the run on both. The restored evaluator must produce
// identical metrics AND identical re-encoded state bytes — the
// canonicality contract internal/snap builds on.
func TestStateRoundTripMidStream(t *testing.T) {
	tr, err := trace.Collect(workload.ByNameMust("bsearch").Build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cut := len(tr.Events) / 2

	ref := NewEvaluator(evalCfg())
	feedEvents(ref, tr, len(tr.Events))
	ref.AddInsts(tr.Insts)

	src := NewEvaluator(evalCfg())
	feedEvents(src, tr, cut)
	blob := src.AppendState(nil)
	pblob := src.Predictor().(interface {
		AppendState(buf []byte) []byte
	}).AppendState(nil)

	dst := NewEvaluator(evalCfg())
	if err := dst.LoadState(wire.NewCursor(blob)); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if err := dst.Predictor().(interface {
		LoadState(c *wire.Cursor) error
	}).LoadState(wire.NewCursor(pblob)); err != nil {
		t.Fatalf("predictor LoadState: %v", err)
	}
	if got := dst.AppendState(nil); !bytes.Equal(got, blob) {
		t.Fatalf("re-encoded state differs from source (%d vs %d bytes)", len(got), len(blob))
	}

	for i := cut; i < len(tr.Events); i++ {
		dst.Feed(&tr.Events[i])
	}
	dst.AddInsts(tr.Insts)
	if want, got := ref.Metrics(), dst.Metrics(); !reflect.DeepEqual(want, got) {
		t.Errorf("restored evaluator diverges:\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestStateRoundTripNoPerBranch covers the ByPC-absent encoding.
func TestStateRoundTripNoPerBranch(t *testing.T) {
	cfg := evalCfg()
	cfg.PerBranch = false
	tr, err := trace.Collect(workload.ByNameMust("scan").Build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	src := NewEvaluator(cfg)
	feedEvents(src, tr, len(tr.Events)/3)
	blob := src.AppendState(nil)

	cfg.Predictor = evalCfg().Predictor // src's predictor stays src's
	dst := NewEvaluator(cfg)
	if err := dst.LoadState(wire.NewCursor(blob)); err != nil {
		t.Fatalf("LoadState: %v", err)
	}
	if dst.Metrics().ByPC != nil {
		t.Error("restored evaluator grew a ByPC map the source did not have")
	}
	if got := dst.AppendState(nil); !bytes.Equal(got, blob) {
		t.Error("re-encoded state differs from source")
	}
}

// TestLoadStateRejectsMalformed exercises every LoadState error path:
// truncation at each section, count fields larger than the remaining
// bytes could hold (allocation bound), and per-branch entries violating
// the strictly-increasing-PC canonical order.
func TestLoadStateRejectsMalformed(t *testing.T) {
	tr, err := trace.Collect(workload.ByNameMust("bsearch").Build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	src := NewEvaluator(evalCfg())
	feedEvents(src, tr, len(tr.Events)/2)
	good := src.AppendState(nil)
	if err := NewEvaluator(evalCfg()).LoadState(wire.NewCursor(good)); err != nil {
		t.Fatalf("sanity: good blob rejected: %v", err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 2, 5, len(good) / 2, len(good) - 1} {
			if err := NewEvaluator(evalCfg()).LoadState(wire.NewCursor(good[:n])); err == nil {
				t.Errorf("accepted truncation to %d bytes", n)
			}
		}
	})

	t.Run("huge pending count", func(t *testing.T) {
		blob := wire.AppendU32(nil, 1<<30)
		if err := NewEvaluator(evalCfg()).LoadState(wire.NewCursor(blob)); err == nil {
			t.Error("accepted pending count exceeding input size")
		}
	})

	t.Run("huge perbranch count", func(t *testing.T) {
		blob := wire.AppendU32(nil, 0) // no pending bits
		for i := 0; i < 10; i++ {
			blob = wire.AppendU64(blob, 0) // counters
		}
		blob = wire.AppendBool(blob, true)
		blob = wire.AppendU32(blob, 1<<30)
		if err := NewEvaluator(evalCfg()).LoadState(wire.NewCursor(blob)); err == nil {
			t.Error("accepted per-branch count exceeding input size")
		}
	})

	t.Run("non-increasing PCs", func(t *testing.T) {
		appendBranch := func(blob []byte, pc uint64) []byte {
			blob = wire.AppendU64(blob, pc)
			for i := 0; i < 4; i++ {
				blob = wire.AppendU64(blob, 1)
			}
			return wire.AppendBool(blob, false)
		}
		blob := wire.AppendU32(nil, 0)
		for i := 0; i < 10; i++ {
			blob = wire.AppendU64(blob, 0)
		}
		blob = wire.AppendBool(blob, true)
		blob = wire.AppendU32(blob, 2)
		blob = appendBranch(blob, 7)
		blob = appendBranch(blob, 7) // duplicate PC: not strictly increasing
		if err := NewEvaluator(evalCfg()).LoadState(wire.NewCursor(blob)); err == nil {
			t.Error("accepted per-branch stats with non-increasing PCs")
		}
	})

	t.Run("failed load leaves evaluator intact", func(t *testing.T) {
		e := NewEvaluator(evalCfg())
		feedEvents(e, tr, 100)
		before := e.Metrics()
		if err := e.LoadState(wire.NewCursor(good[:len(good)-1])); err == nil {
			t.Fatal("truncated blob accepted")
		}
		if got := e.Metrics(); !reflect.DeepEqual(before, got) {
			t.Error("failed LoadState mutated the evaluator")
		}
	})
}

// TestConfigAccessorStripsPredictor pins the accessor contract snapshot
// writers rely on: Config returns the evaluation parameters without
// leaking the live predictor, and Predictor returns the live instance.
func TestConfigAccessorStripsPredictor(t *testing.T) {
	e := NewEvaluator(evalCfg())
	cfg := e.Config()
	if cfg.Predictor != nil {
		t.Error("Config() leaked the live predictor")
	}
	if cfg.PGU != PGUAll || !cfg.UseSFPF || !cfg.PerBranch {
		t.Errorf("Config() dropped parameters: %+v", cfg)
	}
	if e.Predictor() == nil {
		t.Error("Predictor() returned nil")
	}
}
