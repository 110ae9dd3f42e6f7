package oracle

import (
	"fmt"

	"repro/internal/bpred"
	"repro/internal/sim"
)

// This file holds the reference models: one naive reimplementation per
// registered predictor kind. They deliberately use different machinery
// from internal/bpred — counters live in maps keyed by modulo-reduced
// indices instead of mask-indexed slices, histories are bool slices read
// back-to-front instead of shifted uint64s — so an off-by-one in a shift,
// mask or saturation boundary diverges instead of cancelling out.
//
// Each model keeps the naive split form as its specification: Predict
// reads, the unexported update trains, and PredictUpdate (through step)
// runs Predict then update. The production kinds fuse the two into one
// step; CheckPredictor and checkScripted drive that step against this
// split.

// refModel is a reference model's split form.
type refModel interface {
	Predict(pc uint64) bool
	update(pc uint64, taken bool)
}

// step is the reference PredictUpdate: predict, then train.
func step(m refModel, pc uint64, taken bool) bool {
	pred := m.Predict(pc)
	m.update(pc, taken)
	return pred
}

// ReferenceFor returns the naive reference implementation matching spec
// (defaults filled in exactly as the registry fills them). Every kind in
// the sim registry must have a reference; a missing one is an error so
// adding a predictor without extending the oracle fails loudly.
func ReferenceFor(spec sim.Spec) (bpred.Predictor, error) {
	// Parsing the canonical spelling normalizes defaulted parameters the
	// same way Spec.New does before construction.
	n, err := sim.Parse(spec.String())
	if err != nil {
		return nil, err
	}
	switch n.Kind {
	case "taken":
		return &refStatic{taken: true}, nil
	case "nottaken":
		return &refStatic{taken: false}, nil
	case "bimodal":
		return newRefBimodal(n.TableBits), nil
	case "gshare":
		return newRefGShare(n.TableBits, n.HistBits), nil
	case "gselect":
		return newRefGSelect(n.TableBits, n.HistBits), nil
	case "gag":
		return newRefGAg(n.HistBits), nil
	case "local":
		return newRefLocal(n.TableBits, n.HistBits, n.PatBits), nil
	case "tournament":
		return newRefTournament(n.TableBits, n.HistBits), nil
	case "agree":
		return newRefAgree(n.TableBits, n.HistBits), nil
	case "perceptron":
		return newRefPerceptron(n.TableBits, n.HistBits), nil
	}
	return nil, fmt.Errorf("oracle: no reference implementation for predictor kind %q", n.Kind)
}

// refTable is a sparse table of 2-bit saturating counters: a map from
// index to counter value, absent entries holding the initial value.
type refTable struct {
	init int
	m    map[uint64]int
}

func newRefTable(init int) refTable { return refTable{init: init, m: map[uint64]int{}} }

func (t refTable) get(i uint64) int {
	if v, ok := t.m[i]; ok {
		return v
	}
	return t.init
}

func (t refTable) taken(i uint64) bool { return t.get(i) >= 2 }

func (t refTable) update(i uint64, taken bool) {
	v := t.get(i)
	if taken && v < 3 {
		v++
	} else if !taken && v > 0 {
		v--
	}
	t.m[i] = v
}

// refHistory records outcome bits in arrival order; recent(0) is the
// newest bit and value(n) assembles the newest n bits with the newest in
// bit position 0 — the same number a shift-left-insert register masked to
// n bits holds.
type refHistory struct{ bits []bool }

func (h *refHistory) observe(b bool) { h.bits = append(h.bits, b) }

func (h *refHistory) recent(i int) bool {
	if i >= len(h.bits) {
		return false
	}
	return h.bits[len(h.bits)-1-i]
}

func (h *refHistory) value(n int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		if h.recent(i) {
			v |= 1 << i
		}
	}
	return v
}

func pow2(bits int) uint64 { return uint64(1) << bits }

// refStatic is the reference for the static kinds.
type refStatic struct{ taken bool }

func (s *refStatic) Name() string        { return fmt.Sprintf("ref-static-%v", s.taken) }
func (s *refStatic) Predict(uint64) bool { return s.taken }
func (s *refStatic) update(uint64, bool) {}
func (s *refStatic) Reset()              {}

func (s *refStatic) PredictUpdate(pc uint64, taken bool) bool { return step(s, pc, taken) }

// refBimodal is the reference bimodal predictor.
type refBimodal struct {
	bits int
	t    refTable
}

func newRefBimodal(bits int) *refBimodal { return &refBimodal{bits: bits, t: newRefTable(1)} }

func (b *refBimodal) Name() string { return fmt.Sprintf("ref-bimodal-%d", b.bits) }

func (b *refBimodal) Predict(pc uint64) bool { return b.t.taken(pc % pow2(b.bits)) }

func (b *refBimodal) update(pc uint64, taken bool) { b.t.update(pc%pow2(b.bits), taken) }

func (b *refBimodal) PredictUpdate(pc uint64, taken bool) bool { return step(b, pc, taken) }

func (b *refBimodal) Reset() { b.t = newRefTable(1) }

// refGShare is the reference gshare predictor.
type refGShare struct {
	tableBits, histBits int
	t                   refTable
	h                   refHistory
}

func newRefGShare(tableBits, histBits int) *refGShare {
	return &refGShare{tableBits: tableBits, histBits: histBits, t: newRefTable(1)}
}

func (g *refGShare) Name() string { return fmt.Sprintf("ref-gshare-%d.%d", g.tableBits, g.histBits) }

func (g *refGShare) index(pc uint64) uint64 { return (pc ^ g.h.value(g.histBits)) % pow2(g.tableBits) }

func (g *refGShare) Predict(pc uint64) bool { return g.t.taken(g.index(pc)) }

func (g *refGShare) update(pc uint64, taken bool) {
	g.t.update(g.index(pc), taken)
	g.ObserveBit(taken)
}

func (g *refGShare) PredictUpdate(pc uint64, taken bool) bool { return step(g, pc, taken) }

func (g *refGShare) ObserveBit(bit bool) { g.h.observe(bit) }

func (g *refGShare) Reset() {
	g.t = newRefTable(1)
	g.h = refHistory{}
}

// refGSelect is the reference gselect predictor.
type refGSelect struct {
	tableBits, histBits int
	t                   refTable
	h                   refHistory
}

func newRefGSelect(tableBits, histBits int) *refGSelect {
	// The real constructor clamps the history contribution to the table
	// size; the reference must model the same constructed shape.
	if histBits > tableBits {
		histBits = tableBits
	}
	return &refGSelect{tableBits: tableBits, histBits: histBits, t: newRefTable(1)}
}

func (g *refGSelect) Name() string { return fmt.Sprintf("ref-gselect-%d.%d", g.tableBits, g.histBits) }

func (g *refGSelect) index(pc uint64) uint64 {
	return ((pc << g.histBits) | g.h.value(g.histBits)) % pow2(g.tableBits)
}

func (g *refGSelect) Predict(pc uint64) bool { return g.t.taken(g.index(pc)) }

func (g *refGSelect) update(pc uint64, taken bool) {
	g.t.update(g.index(pc), taken)
	g.ObserveBit(taken)
}

func (g *refGSelect) PredictUpdate(pc uint64, taken bool) bool { return step(g, pc, taken) }

func (g *refGSelect) ObserveBit(bit bool) { g.h.observe(bit) }

func (g *refGSelect) Reset() {
	g.t = newRefTable(1)
	g.h = refHistory{}
}

// refGAg is the reference GAg predictor.
type refGAg struct {
	histBits int
	t        refTable
	h        refHistory
}

func newRefGAg(histBits int) *refGAg { return &refGAg{histBits: histBits, t: newRefTable(1)} }

func (g *refGAg) Name() string { return fmt.Sprintf("ref-gag-%d", g.histBits) }

func (g *refGAg) Predict(uint64) bool { return g.t.taken(g.h.value(g.histBits)) }

func (g *refGAg) update(_ uint64, taken bool) {
	g.t.update(g.h.value(g.histBits), taken)
	g.ObserveBit(taken)
}

func (g *refGAg) PredictUpdate(pc uint64, taken bool) bool { return step(g, pc, taken) }

func (g *refGAg) ObserveBit(bit bool) { g.h.observe(bit) }

func (g *refGAg) Reset() {
	g.t = newRefTable(1)
	g.h = refHistory{}
}

// refLocal is the reference PAg two-level local predictor.
type refLocal struct {
	entBits, histBits, patBits int
	hists                      map[uint64]*refHistory
	t                          refTable
}

func newRefLocal(entBits, histBits, patBits int) *refLocal {
	return &refLocal{
		entBits: entBits, histBits: histBits, patBits: patBits,
		hists: map[uint64]*refHistory{}, t: newRefTable(1),
	}
}

func (l *refLocal) Name() string {
	return fmt.Sprintf("ref-local-%d.%d.%d", l.entBits, l.histBits, l.patBits)
}

func (l *refLocal) hist(pc uint64) *refHistory {
	i := pc % pow2(l.entBits)
	h, ok := l.hists[i]
	if !ok {
		h = &refHistory{}
		l.hists[i] = h
	}
	return h
}

func (l *refLocal) patIndex(pc uint64) uint64 {
	return l.hist(pc).value(l.histBits) % pow2(l.patBits)
}

func (l *refLocal) Predict(pc uint64) bool { return l.t.taken(l.patIndex(pc)) }

func (l *refLocal) update(pc uint64, taken bool) {
	// Pattern index is computed against the pre-update history, as the
	// real predictor does.
	l.t.update(l.patIndex(pc), taken)
	l.hist(pc).observe(taken)
}

func (l *refLocal) PredictUpdate(pc uint64, taken bool) bool { return step(l, pc, taken) }

func (l *refLocal) Reset() {
	l.hists = map[uint64]*refHistory{}
	l.t = newRefTable(1)
}

// refAgree is the reference agree predictor: counters learn agreement
// with a first-outcome bias bit held in a BTB-like bounded store. The
// real implementation keeps a flat 4-way tagged array with per-set
// round-robin cursors; the reference models the same policy as a map of
// per-set entry lists, filled in allocation order and replaced by a
// cycling position — different machinery, same displacement behaviour.
type refAgreeEntry struct {
	pc   uint64
	bias bool
}

type refAgree struct {
	tableBits, histBits int
	ways                int
	t                   refTable
	h                   refHistory
	sets                map[uint64][]refAgreeEntry
	rr                  map[uint64]int
}

func newRefAgree(tableBits, histBits int) *refAgree {
	return &refAgree{tableBits: tableBits, histBits: histBits, ways: 4,
		t: newRefTable(2), sets: map[uint64][]refAgreeEntry{}, rr: map[uint64]int{}}
}

func (a *refAgree) Name() string { return fmt.Sprintf("ref-agree-%d.%d", a.tableBits, a.histBits) }

func (a *refAgree) index(pc uint64) uint64 { return (pc ^ a.h.value(a.histBits)) % pow2(a.tableBits) }

// set returns pc's bias-set number: the bias store holds 2^tableBits
// entries in ways-wide sets.
func (a *refAgree) set(pc uint64) uint64 {
	sets := pow2(a.tableBits) / uint64(a.ways)
	if sets == 0 {
		sets = 1
	}
	return pc % sets
}

// lookupBias returns the stored bias for pc, defaulting to not-taken.
func (a *refAgree) lookupBias(pc uint64) bool {
	for _, e := range a.sets[a.set(pc)] {
		if e.pc == pc {
			return e.bias
		}
	}
	return false
}

// allocBias returns pc's stored bias, allocating (or displacing
// round-robin) an entry with the current outcome on a miss.
func (a *refAgree) allocBias(pc uint64, taken bool) bool {
	s := a.set(pc)
	for _, e := range a.sets[s] {
		if e.pc == pc {
			return e.bias
		}
	}
	if len(a.sets[s]) < a.ways {
		a.sets[s] = append(a.sets[s], refAgreeEntry{pc: pc, bias: taken})
		return taken
	}
	w := a.rr[s]
	a.rr[s] = (w + 1) % a.ways
	a.sets[s][w] = refAgreeEntry{pc: pc, bias: taken}
	return taken
}

func (a *refAgree) Predict(pc uint64) bool {
	return a.lookupBias(pc) == a.t.taken(a.index(pc))
}

func (a *refAgree) update(pc uint64, taken bool) {
	bias := a.allocBias(pc, taken)
	a.t.update(a.index(pc), taken == bias)
	a.ObserveBit(taken)
}

func (a *refAgree) PredictUpdate(pc uint64, taken bool) bool { return step(a, pc, taken) }

func (a *refAgree) ObserveBit(bit bool) { a.h.observe(bit) }

func (a *refAgree) Reset() {
	a.t = newRefTable(2)
	a.h = refHistory{}
	a.sets = map[uint64][]refAgreeEntry{}
	a.rr = map[uint64]int{}
}

// refPerceptron is the reference perceptron predictor, with plain-int
// weights clamped to the hardware range.
type refPerceptron struct {
	entBits, histBits int
	weights           map[uint64][]int
	h                 refHistory
	theta             int
}

func newRefPerceptron(entBits, histBits int) *refPerceptron {
	return &refPerceptron{
		entBits: entBits, histBits: histBits,
		weights: map[uint64][]int{},
		theta:   int(1.93*float64(histBits) + 14),
	}
}

func (p *refPerceptron) Name() string {
	return fmt.Sprintf("ref-perceptron-%d.%d", p.entBits, p.histBits)
}

func (p *refPerceptron) row(pc uint64) []int {
	i := pc % pow2(p.entBits)
	w, ok := p.weights[i]
	if !ok {
		w = make([]int, 1+p.histBits)
		p.weights[i] = w
	}
	return w
}

func (p *refPerceptron) output(pc uint64) int {
	w := p.row(pc)
	y := w[0]
	for i := 0; i < p.histBits; i++ {
		if p.h.recent(i) {
			y += w[i+1]
		} else {
			y -= w[i+1]
		}
	}
	return y
}

func (p *refPerceptron) Predict(pc uint64) bool { return p.output(pc) >= 0 }

func clampStep(w int, up bool) int {
	if up && w < 127 {
		return w + 1
	}
	if !up && w > -127 {
		return w - 1
	}
	return w
}

func (p *refPerceptron) update(pc uint64, taken bool) {
	y := p.output(pc)
	mispredicted := (y >= 0) != taken
	mag := y
	if mag < 0 {
		mag = -mag
	}
	if mispredicted || mag <= p.theta {
		w := p.row(pc)
		w[0] = clampStep(w[0], taken)
		for i := 0; i < p.histBits; i++ {
			w[i+1] = clampStep(w[i+1], p.h.recent(i) == taken)
		}
	}
	p.ObserveBit(taken)
}

func (p *refPerceptron) PredictUpdate(pc uint64, taken bool) bool { return step(p, pc, taken) }

func (p *refPerceptron) ObserveBit(bit bool) { p.h.observe(bit) }

func (p *refPerceptron) Reset() {
	p.weights = map[uint64][]int{}
	p.h = refHistory{}
}

// refTournament is the reference McFarling tournament predictor,
// composed from the reference global and local components.
type refTournament struct {
	bits    int
	global  *refGShare
	local   *refLocal
	chooser refTable
}

func newRefTournament(bits, histBits int) *refTournament {
	return &refTournament{
		bits:    bits,
		global:  newRefGShare(bits, histBits),
		local:   newRefLocal(bits-2, 10, bits-2),
		chooser: newRefTable(1),
	}
}

func (t *refTournament) Name() string { return fmt.Sprintf("ref-tournament-%d", t.bits) }

func (t *refTournament) chIndex(pc uint64) uint64 { return pc % pow2(t.bits) }

func (t *refTournament) Predict(pc uint64) bool {
	if t.chooser.taken(t.chIndex(pc)) {
		return t.global.Predict(pc)
	}
	return t.local.Predict(pc)
}

func (t *refTournament) update(pc uint64, taken bool) {
	g := t.global.Predict(pc)
	l := t.local.Predict(pc)
	if g != l {
		t.chooser.update(t.chIndex(pc), g == taken)
	}
	t.global.update(pc, taken)
	t.local.update(pc, taken)
}

func (t *refTournament) PredictUpdate(pc uint64, taken bool) bool { return step(t, pc, taken) }

func (t *refTournament) ObserveBit(bit bool) { t.global.ObserveBit(bit) }

func (t *refTournament) Reset() {
	t.global.Reset()
	t.local.Reset()
	t.chooser = newRefTable(1)
}

// Compile-time interface checks: every reference is a Predictor, and the
// ones whose real counterpart accepts outside history bits are observers.
var (
	_ bpred.Predictor       = (*refStatic)(nil)
	_ bpred.Predictor       = (*refBimodal)(nil)
	_ bpred.Predictor       = (*refGShare)(nil)
	_ bpred.Predictor       = (*refGSelect)(nil)
	_ bpred.Predictor       = (*refGAg)(nil)
	_ bpred.Predictor       = (*refLocal)(nil)
	_ bpred.Predictor       = (*refAgree)(nil)
	_ bpred.Predictor       = (*refPerceptron)(nil)
	_ bpred.Predictor       = (*refTournament)(nil)
	_ bpred.HistoryObserver = (*refGShare)(nil)
	_ bpred.HistoryObserver = (*refGSelect)(nil)
	_ bpred.HistoryObserver = (*refGAg)(nil)
	_ bpred.HistoryObserver = (*refAgree)(nil)
	_ bpred.HistoryObserver = (*refPerceptron)(nil)
	_ bpred.HistoryObserver = (*refTournament)(nil)
)
