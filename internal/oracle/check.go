package oracle

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/sim"
)

// observeChance is the probability of injecting an out-of-band history
// bit (the predicate-global-update path) between branch events during a
// differential run, when the predictor under test has an open history.
const observeChance = 0.1

// CheckPredictor drives got and want over the same randomized stream and
// returns an error describing the first divergence, or nil if every
// prediction matched. Both predictors are Reset first. Each event peeks
// got's Predict, then steps both through PredictUpdate: the step's
// prediction must match the reference's, and the peek must match the
// step, so the training step every consumer runs and the state-free
// peek charz/probe reads are both checked. When both expose an open
// global history, predicate-style outside bits are injected into the
// two histories in lockstep, so the ObserveBit path is differentially
// tested too.
func CheckPredictor(got, want bpred.Predictor, s Stream) error {
	s = s.withDefaults()
	gObs, gOK := got.(bpred.HistoryObserver)
	wObs, wOK := want.(bpred.HistoryObserver)
	if gOK != wOK {
		return fmt.Errorf("oracle: %s and %s disagree on implementing HistoryObserver (%v vs %v)",
			got.Name(), want.Name(), gOK, wOK)
	}
	got.Reset()
	want.Reset()
	g := newStreamGen(s)
	for i := 0; i < s.Events; i++ {
		pc, taken := g.next()
		if err := checkStep(got, want, pc, taken); err != nil {
			return fmt.Errorf("%w at event %d", err, i)
		}
		if gOK && g.r.Chance(observeChance) {
			bit := g.r.Bool()
			gObs.ObserveBit(bit)
			wObs.ObserveBit(bit)
		}
	}
	return nil
}

// checkStep peeks got's prediction for pc, steps got and want through
// PredictUpdate with the outcome, and reports a step that diverges from
// the reference or a peek that diverges from its own step.
func checkStep(got, want bpred.Predictor, pc uint64, taken bool) error {
	peek := got.Predict(pc)
	gp, wp := got.PredictUpdate(pc, taken), want.PredictUpdate(pc, taken)
	if gp != wp {
		return fmt.Errorf("oracle: %s diverges from %s: pc=%#x predicted taken=%v, reference says %v",
			got.Name(), want.Name(), pc, gp, wp)
	}
	if peek != gp {
		return fmt.Errorf("oracle: %s diverges from its own step: pc=%#x Predict peeked taken=%v, PredictUpdate predicted %v",
			got.Name(), pc, peek, gp)
	}
	return nil
}

// CheckSpec builds the registry predictor for spec and its reference
// model and checks them against each other.
func CheckSpec(spec sim.Spec, s Stream) error {
	p, err := spec.New()
	if err != nil {
		return err
	}
	ref, err := ReferenceFor(spec)
	if err != nil {
		return err
	}
	return CheckPredictor(p, ref, s)
}
