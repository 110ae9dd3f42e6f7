package oracle

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/sim"
)

// This file holds the metamorphic checks: properties relating two runs of
// the same implementation, needing no reference model at all.

// replayPredictions resets p and replays the stream through PredictUpdate,
// returning each step's prediction. Outside history bits are injected
// at the same deterministic points on every call with the same Stream.
func replayPredictions(p bpred.Predictor, s Stream) []bool {
	s = s.withDefaults()
	obs, isObs := p.(bpred.HistoryObserver)
	p.Reset()
	g := newStreamGen(s)
	out := make([]bool, 0, s.Events)
	for i := 0; i < s.Events; i++ {
		pc, taken := g.next()
		out = append(out, p.PredictUpdate(pc, taken))
		if isObs && g.r.Chance(observeChance) {
			obs.ObserveBit(g.r.Bool())
		}
	}
	return out
}

// CheckResetReplay trains p over the stream, Resets it, and replays the
// identical stream: the two prediction sequences must match exactly.
// Any state Reset forgets to clear (a stale history bit, a warm table, a
// leftover bias entry) shows up as a divergence in the second pass.
func CheckResetReplay(p bpred.Predictor, s Stream) error {
	first := replayPredictions(p, s)
	second := replayPredictions(p, s)
	for i := range first {
		if first[i] != second[i] {
			return fmt.Errorf("oracle: %s predicts differently after Reset at event %d: first run %v, replay %v",
				p.Name(), i, first[i], second[i])
		}
	}
	return nil
}

// CheckInterleaveInvariance checks that p's predictions on a stream are
// unchanged when an independent second stream is interleaved between its
// events. Only predictors with no trainable state satisfy this — it is
// the Static sanity property: traffic from elsewhere can never change a
// static prediction.
func CheckInterleaveInvariance(p bpred.Predictor, s Stream) error {
	s = s.withDefaults()
	alone := replayPredictions(p, s)

	p.Reset()
	ga := newStreamGen(s)
	other := s
	other.Seed = s.Seed + 0x9e3779b9
	gb := newStreamGen(other)
	for i := 0; i < s.Events; i++ {
		pcA, takenA := ga.next()
		if got := p.PredictUpdate(pcA, takenA); got != alone[i] {
			return fmt.Errorf("oracle: %s changed its prediction under interleaving at event %d: alone %v, interleaved %v",
				p.Name(), i, alone[i], got)
		}
		pcB, takenB := gb.next()
		p.PredictUpdate(pcB, takenB)
	}
	return nil
}

// CheckTableDoubling builds spec and the same spec with one more table
// bit, and drives both over a stream confined to PCs that index
// identically in either table: behaviour must be identical, because every
// touched entry exists at the same index in both. It supports the kinds
// whose index function makes the confinement expressible (bimodal,
// gshare, gselect).
func CheckTableDoubling(spec sim.Spec, s Stream) error {
	n, err := sim.Parse(spec.String())
	if err != nil {
		return err
	}
	// pcBits is the largest PC width for which small-table and
	// doubled-table indices provably coincide.
	var pcBits int
	switch n.Kind {
	case "bimodal":
		pcBits = n.TableBits
	case "gshare":
		// index = (pc ^ hist) mod table; both operands must stay below
		// the smaller table size.
		if n.HistBits > n.TableBits {
			return fmt.Errorf("oracle: table doubling for gshare needs hist <= table bits, got %s", n)
		}
		pcBits = n.TableBits
	case "gselect":
		// index = (pc << hist | hist) mod table.
		pcBits = n.TableBits - n.HistBits
	default:
		return fmt.Errorf("oracle: table doubling unsupported for kind %q", n.Kind)
	}
	if pcBits < 1 {
		return fmt.Errorf("oracle: spec %s leaves no PC bits for the doubling check", n)
	}

	small, err := n.New()
	if err != nil {
		return err
	}
	big := n
	big.TableBits++
	bigP, err := big.New()
	if err != nil {
		return err
	}

	s = s.withDefaults()
	s.PCBits = pcBits
	g := newStreamGen(s)
	smallObs, _ := small.(bpred.HistoryObserver)
	bigObs, _ := bigP.(bpred.HistoryObserver)
	for i := 0; i < s.Events; i++ {
		pc, taken := g.next()
		sp, bp := small.PredictUpdate(pc, taken), bigP.PredictUpdate(pc, taken)
		if sp != bp {
			return fmt.Errorf("oracle: %s and %s diverge at event %d: pc=%#x small=%v doubled=%v",
				small.Name(), bigP.Name(), i, pc, sp, bp)
		}
		if smallObs != nil && g.r.Chance(observeChance) {
			bit := g.r.Bool()
			smallObs.ObserveBit(bit)
			bigObs.ObserveBit(bit)
		}
	}
	return nil
}
