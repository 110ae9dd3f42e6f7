package oracle

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Packed-layout differential checks. internal/bpred stores its 2-bit
// saturating counters 32 to a uint64 word with a branch-free
// transition-table update, while the reference models keep one small
// integer per counter and saturate with explicit branches. The
// randomized stream in CheckSpec trains tables broadly but rarely parks
// a counter on a saturation rail or hammers neighbouring lanes of one
// packed word, which is exactly where a shift, mask, or transition-table
// bug in the packed layout would hide. These streams aim at that
// surface directly; the comparison is still end-to-end through the
// public Predict/PredictUpdate API, so every kind's index hashing sits
// between the stream and the table, and the check stays valid no matter
// how the storage layout evolves.

// layoutEvent is one scripted (pc, outcome) step.
type layoutEvent struct {
	pc    uint64
	taken bool
}

// layoutStreams builds the adversarial saturation streams, each sized
// around n events. All randomness derives from seed.
func layoutStreams(seed uint64, n int) []struct {
	name   string
	events []layoutEvent
} {
	if n <= 0 {
		n = 1 << 14
	}
	var out []struct {
		name   string
		events []layoutEvent
	}
	add := func(name string, evs []layoutEvent) {
		out = append(out, struct {
			name   string
			events []layoutEvent
		}{name, evs})
	}

	// Every counter of a 64-entry window driven hard onto the taken rail,
	// then hard onto the not-taken rail, repeatedly: extra updates past
	// saturation must be no-ops in both layouts. 64 consecutive PCs span
	// two full packed words for a directly-indexed table.
	const window = 64
	evs := make([]layoutEvent, 0, n)
	for len(evs) < n {
		for rail := 0; rail < 2; rail++ {
			for rep := 0; rep < 6; rep++ {
				for pc := uint64(0); pc < window; pc++ {
					evs = append(evs, layoutEvent{pc, rail == 0})
				}
			}
		}
	}
	add("rails", evs)

	// A single hot branch alternating taken/not-taken: the counter
	// oscillates across the weak middle states, the transitions a wrong
	// transition table gets wrong first.
	evs = make([]layoutEvent, n)
	for i := range evs {
		evs[i] = layoutEvent{pc: 3, taken: i%2 == 0}
	}
	add("flip", evs)

	// Neighbouring lanes pulled in opposite directions in lockstep: pc
	// and pc+1 share a packed word, so a one-lane shift bug bleeds one
	// stream's updates into the other and the predictions split from the
	// reference within a few events.
	evs = make([]layoutEvent, 0, n)
	for base := uint64(0); len(evs) < n; base = (base + 2) % window {
		for rep := 0; rep < 8; rep++ {
			evs = append(evs, layoutEvent{base, true}, layoutEvent{base + 1, false})
		}
	}
	add("lanes", evs)

	// Dense random traffic over a tiny pool: every counter in the window
	// crosses the saturation rails and the middle states in random order,
	// with heavy aliasing for the history-indexed kinds.
	r := rng.New(seed)
	evs = make([]layoutEvent, n)
	for i := range evs {
		evs[i] = layoutEvent{pc: r.Uint64() % 8, taken: r.Bool()}
	}
	add("dense", evs)

	return out
}

// CheckLayout drives spec's registry predictor and its naive reference
// over the adversarial saturation streams and reports the first
// divergence. It is the layout-targeted companion to CheckSpec: same
// end-to-end comparison, streams chosen to stress the packed counter
// storage rather than the index functions.
func CheckLayout(spec sim.Spec, seed uint64, events int) error {
	for _, s := range layoutStreams(seed, events) {
		p, err := spec.New()
		if err != nil {
			return err
		}
		ref, err := ReferenceFor(spec)
		if err != nil {
			return err
		}
		if err := checkScripted(p, ref, s.name, s.events); err != nil {
			return err
		}
	}
	return nil
}

// checkScripted is CheckPredictor over an explicit event script.
func checkScripted(got, want bpred.Predictor, stream string, evs []layoutEvent) error {
	got.Reset()
	want.Reset()
	for i, ev := range evs {
		if err := checkStep(got, want, ev.pc, ev.taken); err != nil {
			return fmt.Errorf("%w on %s stream at event %d", err, stream, i)
		}
	}
	return nil
}
