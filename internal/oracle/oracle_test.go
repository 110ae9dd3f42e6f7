package oracle

import (
	"strings"
	"testing"

	"repro/internal/bpred"
	"repro/internal/sim"
)

// testStream is the stream most differential tests use: long enough to
// saturate small tables and exercise every branch-behaviour mode.
var testStream = Stream{Seed: 7, Events: 6000}

// TestCheckSpecAllKinds runs every registered kind, at its default
// parameters and at a spread of explicit sizes, against its naive
// reference model.
func TestCheckSpecAllKinds(t *testing.T) {
	specs := make([]string, 0, len(sim.Kinds()))
	specs = append(specs, sim.Kinds()...)
	specs = append(specs,
		"bimodal:6",
		"gshare:10:10",
		"gshare:14:4",
		"gselect:12:5",
		"gselect:8:12", // histBits clamped to tableBits by the constructor
		"gag:5",
		"local:6:8:9",
		"tournament:9",
		"agree:8:10",
		"perceptron:7:17",
	)
	for _, s := range specs {
		s := s
		t.Run(s, func(t *testing.T) {
			if err := CheckSpec(sim.MustParse(s), testStream); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// brokenGShare is a deliberately wrong gshare: its index function has an
// off-by-one in the history mask, folding one fewer history bit than
// configured. (Note a constant offset added after the fold would be a
// bijective remap of the table and behaviourally invisible — the bug has
// to change the aliasing structure to be a bug at all.) Everything else —
// counters, history handling, interface shape — matches the real one.
type brokenGShare struct {
	table []uint8
	hist  uint64
	hbits int
}

func newBrokenGShare(tableBits, histBits int) *brokenGShare {
	b := &brokenGShare{table: make([]uint8, 1<<tableBits), hbits: histBits}
	b.Reset()
	return b
}

func (b *brokenGShare) Name() string { return "broken-gshare" }

func (b *brokenGShare) index(pc uint64) uint64 {
	mask := uint64(1)<<(b.hbits-1) - 1 // off by one: drops the oldest history bit
	return (pc ^ (b.hist & mask)) & uint64(len(b.table)-1)
}

func (b *brokenGShare) Predict(pc uint64) bool { return b.table[b.index(pc)] >= 2 }

func (b *brokenGShare) PredictUpdate(pc uint64, taken bool) bool {
	i := b.index(pc)
	pred := b.table[i] >= 2
	if taken && b.table[i] < 3 {
		b.table[i]++
	} else if !taken && b.table[i] > 0 {
		b.table[i]--
	}
	b.ObserveBit(taken)
	return pred
}

func (b *brokenGShare) ObserveBit(bit bool) {
	b.hist = b.hist<<1 | boolBit(bit)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (b *brokenGShare) Reset() {
	for i := range b.table {
		b.table[i] = 1
	}
	b.hist = 0
}

// TestCheckPredictorCatchesIndexOffByOne seeds a one-character index bug
// into a scratch gshare and requires the differential check to find it.
// This is the sensitivity proof for the whole oracle: if this bug slipped
// through, every "ok" from CheckPredictor would be meaningless.
func TestCheckPredictorCatchesIndexOffByOne(t *testing.T) {
	ref, err := ReferenceFor(sim.For("gshare", 10, 6))
	if err != nil {
		t.Fatal(err)
	}
	err = CheckPredictor(newBrokenGShare(10, 6), ref, testStream)
	if err == nil {
		t.Fatal("off-by-one gshare index not caught")
	}
	if !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("unexpected error text: %v", err)
	}
}

// shiftGShare is the real gshare with one bug, confined to its training
// step: the step shifts each outcome into the history twice, an
// off-by-one in the history shift. Predict is the real, correct peek.
type shiftGShare struct{ *bpred.GShare }

func (g shiftGShare) PredictUpdate(pc uint64, taken bool) bool {
	pred := g.GShare.PredictUpdate(pc, taken)
	g.ObserveBit(taken)
	return pred
}

// TestCheckPredictorCatchesTrainingStepBug: a bug that lives only in
// PredictUpdate — the step every consumer trains with — must fail both
// the randomized check and the scripted layout streams, even though
// every Predict peek reads correctly from the state it is given.
func TestCheckPredictorCatchesTrainingStepBug(t *testing.T) {
	spec := sim.For("gshare", 10, 6)
	ref, err := ReferenceFor(spec)
	if err != nil {
		t.Fatal(err)
	}
	mutant := shiftGShare{bpred.NewGShare(10, 6)}
	if err := CheckPredictor(mutant, ref, testStream); err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Errorf("CheckPredictor missed the training-step bug: %v", err)
	}
	var scripted error
	for _, s := range layoutStreams(1, 4096) {
		if scripted = checkScripted(mutant, ref, s.name, s.events); scripted != nil {
			break
		}
	}
	if scripted == nil || !strings.Contains(scripted.Error(), "diverges") {
		t.Errorf("checkScripted missed the training-step bug: %v", scripted)
	}
}

// TestCheckPredictorRejectsObserverMismatch: a predictor with an open
// history checked against one without is a harness bug, not a divergence,
// and must be reported as such.
func TestCheckPredictorRejectsObserverMismatch(t *testing.T) {
	static, err := sim.MustParse("taken").New()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ReferenceFor(sim.For("gshare", 10, 6))
	if err != nil {
		t.Fatal(err)
	}
	err = CheckPredictor(static, ref, testStream)
	if err == nil || !strings.Contains(err.Error(), "HistoryObserver") {
		t.Fatalf("observer mismatch not reported, got: %v", err)
	}
}

func TestReferenceForUnknownKind(t *testing.T) {
	if _, err := ReferenceFor(sim.Spec{Kind: "neural-oracle"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// stickyGShare forgets to clear its history register on Reset — the
// exact class of bug CheckResetReplay exists to catch.
type stickyGShare struct{ brokenGShare }

func (s *stickyGShare) Name() string { return "sticky-gshare" }

func (s *stickyGShare) index(pc uint64) uint64 {
	mask := uint64(1)<<s.hbits - 1
	return (pc ^ (s.hist & mask)) & uint64(len(s.table)-1)
}

func (s *stickyGShare) Predict(pc uint64) bool { return s.table[s.index(pc)] >= 2 }

func (s *stickyGShare) PredictUpdate(pc uint64, taken bool) bool {
	i := s.index(pc)
	pred := s.table[i] >= 2
	if taken && s.table[i] < 3 {
		s.table[i]++
	} else if !taken && s.table[i] > 0 {
		s.table[i]--
	}
	s.ObserveBit(taken)
	return pred
}

func (s *stickyGShare) Reset() {
	for i := range s.table {
		s.table[i] = 1
	}
	// Bug under test: s.hist is left warm.
}

func TestCheckResetReplay(t *testing.T) {
	for _, kind := range sim.Kinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			p, err := sim.MustParse(kind).New()
			if err != nil {
				t.Fatal(err)
			}
			if err := CheckResetReplay(p, testStream); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("catches-warm-history", func(t *testing.T) {
		sticky := &stickyGShare{}
		sticky.table = make([]uint8, 1<<10)
		sticky.hbits = 8
		if err := CheckResetReplay(sticky, testStream); err == nil {
			t.Fatal("warm history after Reset not caught")
		}
	})
}

func TestCheckInterleaveInvariance(t *testing.T) {
	for _, kind := range []string{"taken", "nottaken"} {
		p, err := sim.MustParse(kind).New()
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckInterleaveInvariance(p, testStream); err != nil {
			t.Errorf("%s: %v", kind, err)
		}
	}
	// Sanity: a trainable predictor must NOT satisfy the property —
	// if it did, the check would be vacuous.
	b, err := sim.MustParse("bimodal").New()
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInterleaveInvariance(b, testStream); err == nil {
		t.Error("bimodal unexpectedly invariant under interleaving; check is vacuous")
	}
}

func TestCheckTableDoubling(t *testing.T) {
	for _, s := range []string{"bimodal", "bimodal:8", "gshare", "gshare:12:6", "gselect:12:5"} {
		s := s
		t.Run(s, func(t *testing.T) {
			if err := CheckTableDoubling(sim.MustParse(s), testStream); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("rejects-unsupported", func(t *testing.T) {
		if err := CheckTableDoubling(sim.MustParse("perceptron"), testStream); err == nil {
			t.Fatal("unsupported kind accepted")
		}
	})
	t.Run("rejects-wide-history-gshare", func(t *testing.T) {
		if err := CheckTableDoubling(sim.For("gshare", 6, 10), testStream); err == nil {
			t.Fatal("gshare with hist > table bits accepted")
		}
	})
}

func TestReportRendering(t *testing.T) {
	var r Report
	r.Add("alpha", nil)
	if !r.OK() {
		t.Fatal("clean report not OK")
	}
	r.Add("beta", errIntentional)
	if r.OK() || len(r.Failures()) != 1 {
		t.Fatalf("failure not tracked: %+v", r)
	}
	out := r.String()
	for _, want := range []string{"ok   alpha", "FAIL beta", "2 checks, 1 divergences"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

var errIntentional = errFixed("intentional")

type errFixed string

func (e errFixed) Error() string { return string(e) }
