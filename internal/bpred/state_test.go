package bpred

import (
	"bytes"
	"testing"

	"repro/internal/rng"
	"repro/internal/wire"
)

// drive trains p over a deterministic randomized stream, interleaving
// ObserveBit traffic so history registers hold non-branch bits too.
func drive(p Predictor, seed uint64, n int) {
	r := rng.New(seed)
	obs, _ := p.(HistoryObserver)
	for i := 0; i < n; i++ {
		pc := r.Uint64() % 64
		p.PredictUpdate(pc, r.Uint64()&3 != 0)
		if obs != nil && r.Uint64()&7 == 0 {
			obs.ObserveBit(r.Uint64()&1 == 1)
		}
	}
}

// TestStateRoundTripResume snapshots a trained predictor, loads the
// state into a freshly constructed twin, and requires the twin to agree
// with the original on every future prediction — and to re-serialize to
// the identical bytes.
func TestStateRoundTripResume(t *testing.T) {
	for name, build := range predictorPairs() {
		t.Run(name, func(t *testing.T) {
			orig, twin := build()
			drive(orig, 42, 5000)

			state := orig.(Stater).AppendState(nil)
			c := wire.NewCursor(state)
			if err := twin.(Stater).LoadState(c); err != nil {
				t.Fatalf("LoadState: %v", err)
			}
			if err := c.Done(); err != nil {
				t.Fatalf("state not fully consumed: %v", err)
			}
			if got := twin.(Stater).AppendState(nil); !bytes.Equal(got, state) {
				t.Fatalf("re-serialized state differs (%d vs %d bytes)", len(got), len(state))
			}

			// Byte-identical resume: both must now make the same
			// predictions and evolve identically.
			r := rng.New(7)
			oobs, _ := orig.(HistoryObserver)
			tobs, _ := twin.(HistoryObserver)
			for i := 0; i < 3000; i++ {
				pc := r.Uint64() % 64
				taken := r.Uint64()&3 == 0
				po := orig.PredictUpdate(pc, taken)
				pt := twin.PredictUpdate(pc, taken)
				if po != pt {
					t.Fatalf("event %d: original predicted %v, restored twin %v", i, po, pt)
				}
				if oobs != nil && i%5 == 0 {
					bit := r.Uint64()&1 == 1
					oobs.ObserveBit(bit)
					tobs.ObserveBit(bit)
				}
			}
			if a, b := orig.(Stater).AppendState(nil), twin.(Stater).AppendState(nil); !bytes.Equal(a, b) {
				t.Fatal("states diverged after resume")
			}
		})
	}
}

// TestLoadStateRejectsTruncation checks every kind fails cleanly on a
// truncated payload instead of loading partial state silently.
func TestLoadStateRejectsTruncation(t *testing.T) {
	for name, build := range predictorPairs() {
		if name == "static-taken" || name == "static-nottaken" {
			continue // zero-length state cannot be truncated
		}
		t.Run(name, func(t *testing.T) {
			orig, twin := build()
			drive(orig, 3, 1000)
			state := orig.(Stater).AppendState(nil)
			c := wire.NewCursor(state[:len(state)-1])
			if err := twin.(Stater).LoadState(c); err == nil && c.Done() == nil {
				t.Fatal("truncated state loaded without error")
			}
		})
	}
}

// TestLoadStateRejectsCorruptValues checks the semantic validation:
// out-of-range counters and round-robin cursors are refused.
func TestLoadStateRejectsCorruptValues(t *testing.T) {
	b := NewBimodal(4)
	state := b.AppendState(nil)
	state[0] = 9 // counter > 3
	if err := NewBimodal(4).LoadState(wire.NewCursor(state)); err == nil {
		t.Fatal("out-of-range counter accepted")
	}

	a := NewAgree(4, 4)
	state = a.AppendState(nil)
	// Layout: u64 hist, then the counter table, then rr.
	state[8+a.table.size()] = agreeWays // rr cursor out of range
	if err := NewAgree(4, 4).LoadState(wire.NewCursor(state)); err == nil {
		t.Fatal("out-of-range rr cursor accepted")
	}

	state = a.AppendState(nil)
	state[8+a.table.size()+len(a.rr)+8] = 7 // bias flags > 3
	if err := NewAgree(4, 4).LoadState(wire.NewCursor(state)); err == nil {
		t.Fatal("out-of-range bias flags accepted")
	}
}
