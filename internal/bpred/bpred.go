// Package bpred implements the conventional branch direction predictors
// the paper uses as baselines: static, bimodal, two-level global (GAg,
// gshare, gselect), two-level local (PAg), and a McFarling-style
// tournament predictor.
//
// Predictors with a global history register implement HistoryObserver,
// which lets the paper's predicate global update mechanism (internal/core)
// shift predicate-define outcomes into the same history the branch
// outcomes use.
package bpred

import "fmt"

// Predictor predicts conditional-branch directions. Predict must not
// change predictor state; Update supplies the resolved outcome and trains
// tables and histories.
type Predictor interface {
	// Name identifies the predictor and its configuration.
	Name() string
	// Predict returns the predicted direction for the branch at pc.
	Predict(pc uint64) bool
	// Update trains the predictor with the branch's actual outcome.
	Update(pc uint64, taken bool)
	// Reset restores the initial state.
	Reset()
}

// HistoryObserver is implemented by predictors whose global history can
// incorporate outcome bits that are not branch outcomes. This is the hook
// the predicate global update predictor uses.
type HistoryObserver interface {
	// ObserveBit shifts one outcome bit into the global history.
	ObserveBit(bit bool)
}

// Fused is implemented by predictors offering a fused predict+train step.
// PredictUpdate(pc, taken) must be exactly equivalent to
//
//	pred := p.Predict(pc)
//	p.Update(pc, taken)
//
// but computes shared work (table indices, perceptron sums, bias lookups)
// once instead of twice. Every concrete predictor in this package
// implements it; the evaluator and the timing model take any predictor
// through AsFused, so they make one predictor call per branch.
type Fused interface {
	Predictor
	// PredictUpdate returns the prediction for pc and trains with the
	// actual outcome in one step.
	PredictUpdate(pc uint64, taken bool) bool
}

// AsFused returns p itself when it implements Fused, and otherwise a
// wrapper whose PredictUpdate runs p's Predict and then its Update.
func AsFused(p Predictor) Fused {
	if f, ok := p.(Fused); ok {
		return f
	}
	return splitFused{p}
}

// splitFused adapts a Predictor without a fused step to Fused.
type splitFused struct{ Predictor }

// PredictUpdate implements Fused.
func (s splitFused) PredictUpdate(pc uint64, taken bool) bool {
	pred := s.Predict(pc)
	s.Update(pc, taken)
	return pred
}

// counterInit is the initial 2-bit counter value: 1, weakly not-taken,
// the usual convention. Counters live packed in ctrTable words; values
// 0..3 predict taken when >= 2.
const counterInit = 1

// b2u is the branch-free bool-to-bit conversion the fused history shifts
// and the packed counter update use; the compiler lowers it to a SETcc,
// keeping PredictUpdate loops free of extra branches.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Static always predicts the same direction.
type Static struct{ Taken bool }

// NewStatic returns a static predictor.
func NewStatic(taken bool) *Static { return &Static{Taken: taken} }

// Name implements Predictor.
func (s *Static) Name() string {
	if s.Taken {
		return "static-taken"
	}
	return "static-nottaken"
}

// Predict implements Predictor.
func (s *Static) Predict(uint64) bool { return s.Taken }

// Update implements Predictor.
func (s *Static) Update(uint64, bool) {}

// PredictUpdate implements Fused.
func (s *Static) PredictUpdate(uint64, bool) bool { return s.Taken }

// Reset implements Predictor.
func (s *Static) Reset() {}

// Bimodal is a pc-indexed table of 2-bit counters.
type Bimodal struct {
	bits  int
	table ctrTable
}

// NewBimodal returns a bimodal predictor with 2^bits counters.
func NewBimodal(bits int) *Bimodal {
	return &Bimodal{bits: bits, table: newCtrTable(bits, counterInit)}
}

func (b *Bimodal) index(pc uint64) uint64 { return pc & b.table.mask }

// Name implements Predictor.
func (b *Bimodal) Name() string { return fmt.Sprintf("bimodal-%d", b.bits) }

// Predict implements Predictor.
func (b *Bimodal) Predict(pc uint64) bool { return b.table.taken(b.index(pc)) }

// Update implements Predictor.
func (b *Bimodal) Update(pc uint64, taken bool) {
	b.table.update(b.index(pc), taken)
}

// PredictUpdate implements Fused.
func (b *Bimodal) PredictUpdate(pc uint64, taken bool) bool {
	return b.table.predictUpdate(b.index(pc), b2u(taken))
}

// Reset implements Predictor.
func (b *Bimodal) Reset() { b.table.reset() }

// GShare is a two-level global predictor indexing its counter table with
// pc XOR global-history.
type GShare struct {
	tableBits int
	histBits  int
	table     ctrTable
	hist      uint64
}

// NewGShare returns a gshare predictor with 2^tableBits counters and
// histBits of global history.
func NewGShare(tableBits, histBits int) *GShare {
	return &GShare{tableBits: tableBits, histBits: histBits, table: newCtrTable(tableBits, counterInit)}
}

func (g *GShare) index(pc uint64) uint64 {
	h := g.hist & ((1 << g.histBits) - 1)
	return (pc ^ h) & g.table.mask
}

// Name implements Predictor.
func (g *GShare) Name() string { return fmt.Sprintf("gshare-%d.%d", g.tableBits, g.histBits) }

// Predict implements Predictor.
func (g *GShare) Predict(pc uint64) bool { return g.table.taken(g.index(pc)) }

// Update implements Predictor.
func (g *GShare) Update(pc uint64, taken bool) {
	g.table.update(g.index(pc), taken)
	g.ObserveBit(taken)
}

// PredictUpdate implements Fused.
func (g *GShare) PredictUpdate(pc uint64, taken bool) bool {
	up := b2u(taken)
	pred := g.table.predictUpdate(g.index(pc), up)
	g.hist = g.hist<<1 | up
	return pred
}

// ObserveBit implements HistoryObserver.
func (g *GShare) ObserveBit(bit bool) {
	g.hist <<= 1
	if bit {
		g.hist |= 1
	}
}

// Reset implements Predictor.
func (g *GShare) Reset() {
	g.table.reset()
	g.hist = 0
}

// History returns the current global history (low histBits valid).
func (g *GShare) History() uint64 { return g.hist & ((1 << g.histBits) - 1) }

// GSelect concatenates low pc bits with global history to index its table.
type GSelect struct {
	tableBits int
	histBits  int
	table     ctrTable
	hist      uint64
}

// NewGSelect returns a gselect predictor with 2^tableBits counters, of
// which histBits index bits come from history and the rest from the pc.
func NewGSelect(tableBits, histBits int) *GSelect {
	if histBits > tableBits {
		histBits = tableBits
	}
	return &GSelect{tableBits: tableBits, histBits: histBits, table: newCtrTable(tableBits, counterInit)}
}

func (g *GSelect) index(pc uint64) uint64 {
	h := g.hist & ((1 << g.histBits) - 1)
	return ((pc << g.histBits) | h) & g.table.mask
}

// Name implements Predictor.
func (g *GSelect) Name() string { return fmt.Sprintf("gselect-%d.%d", g.tableBits, g.histBits) }

// Predict implements Predictor.
func (g *GSelect) Predict(pc uint64) bool { return g.table.taken(g.index(pc)) }

// Update implements Predictor.
func (g *GSelect) Update(pc uint64, taken bool) {
	g.table.update(g.index(pc), taken)
	g.ObserveBit(taken)
}

// PredictUpdate implements Fused.
func (g *GSelect) PredictUpdate(pc uint64, taken bool) bool {
	up := b2u(taken)
	pred := g.table.predictUpdate(g.index(pc), up)
	g.hist = g.hist<<1 | up
	return pred
}

// ObserveBit implements HistoryObserver.
func (g *GSelect) ObserveBit(bit bool) {
	g.hist <<= 1
	if bit {
		g.hist |= 1
	}
}

// Reset implements Predictor.
func (g *GSelect) Reset() {
	g.table.reset()
	g.hist = 0
}

// GAg indexes its table purely by global history.
type GAg struct {
	histBits int
	table    ctrTable
	hist     uint64
}

// NewGAg returns a GAg predictor with histBits of history and 2^histBits
// counters.
func NewGAg(histBits int) *GAg {
	return &GAg{histBits: histBits, table: newCtrTable(histBits, counterInit)}
}

// Name implements Predictor.
func (g *GAg) Name() string { return fmt.Sprintf("gag-%d", g.histBits) }

// Predict implements Predictor.
func (g *GAg) Predict(uint64) bool {
	return g.table.taken(g.hist & g.table.mask)
}

// Update implements Predictor.
func (g *GAg) Update(_ uint64, taken bool) {
	g.table.update(g.hist&g.table.mask, taken)
	g.ObserveBit(taken)
}

// PredictUpdate implements Fused.
func (g *GAg) PredictUpdate(_ uint64, taken bool) bool {
	up := b2u(taken)
	pred := g.table.predictUpdate(g.hist&g.table.mask, up)
	g.hist = g.hist<<1 | up
	return pred
}

// ObserveBit implements HistoryObserver.
func (g *GAg) ObserveBit(bit bool) {
	g.hist <<= 1
	if bit {
		g.hist |= 1
	}
}

// Reset implements Predictor.
func (g *GAg) Reset() {
	g.table.reset()
	g.hist = 0
}

// Local is a PAg two-level predictor: a pc-indexed table of per-branch
// histories feeding a shared pattern table of counters.
type Local struct {
	histEntBits int // log2 of history-table entries
	histBits    int // history length per entry
	patBits     int // log2 of pattern-table counters
	hists       []uint64
	table       ctrTable
}

// NewLocal returns a local predictor with 2^histEntBits branch histories of
// histBits each and a 2^patBits pattern table.
func NewLocal(histEntBits, histBits, patBits int) *Local {
	return &Local{
		histEntBits: histEntBits,
		histBits:    histBits,
		patBits:     patBits,
		hists:       make([]uint64, 1<<histEntBits),
		table:       newCtrTable(patBits, counterInit),
	}
}

func (l *Local) histIndex(pc uint64) uint64 { return pc & (uint64(len(l.hists)) - 1) }

func (l *Local) patIndex(pc uint64) uint64 {
	h := l.hists[l.histIndex(pc)] & ((1 << l.histBits) - 1)
	return h & l.table.mask
}

// Name implements Predictor.
func (l *Local) Name() string {
	return fmt.Sprintf("local-%d.%d.%d", l.histEntBits, l.histBits, l.patBits)
}

// Predict implements Predictor.
func (l *Local) Predict(pc uint64) bool { return l.table.taken(l.patIndex(pc)) }

// Update implements Predictor.
func (l *Local) Update(pc uint64, taken bool) {
	l.table.update(l.patIndex(pc), taken)
	hi := l.histIndex(pc)
	l.hists[hi] <<= 1
	if taken {
		l.hists[hi] |= 1
	}
}

// PredictUpdate implements Fused.
func (l *Local) PredictUpdate(pc uint64, taken bool) bool {
	hi := l.histIndex(pc)
	h := l.hists[hi] & ((1 << l.histBits) - 1)
	up := b2u(taken)
	pred := l.table.predictUpdate(h&l.table.mask, up)
	l.hists[hi] = l.hists[hi]<<1 | up
	return pred
}

// Reset implements Predictor.
func (l *Local) Reset() {
	clear(l.hists)
	l.table.reset()
}

// Tournament is a McFarling combining predictor: a global (gshare) and a
// local component with a pc-indexed chooser. Predicate history bits
// observed via ObserveBit flow into the global component.
type Tournament struct {
	global  *GShare
	local   *Local
	chooser ctrTable // taken == true selects the global component
	chBits  int
}

// NewTournament returns a tournament predictor; bits sizes the chooser and
// both component tables, histBits the global history.
func NewTournament(bits, histBits int) *Tournament {
	return &Tournament{
		global:  NewGShare(bits, histBits),
		local:   NewLocal(bits-2, 10, bits-2),
		chooser: newCtrTable(bits, counterInit),
		chBits:  bits,
	}
}

// Name implements Predictor.
func (t *Tournament) Name() string { return fmt.Sprintf("tournament-%d", t.chBits) }

func (t *Tournament) chIndex(pc uint64) uint64 { return pc & t.chooser.mask }

// Predict implements Predictor.
func (t *Tournament) Predict(pc uint64) bool {
	if t.chooser.taken(t.chIndex(pc)) {
		return t.global.Predict(pc)
	}
	return t.local.Predict(pc)
}

// Update implements Predictor.
func (t *Tournament) Update(pc uint64, taken bool) {
	g := t.global.Predict(pc)
	l := t.local.Predict(pc)
	if g != l {
		t.chooser.update(t.chIndex(pc), g == taken)
	}
	t.global.Update(pc, taken)
	t.local.Update(pc, taken)
}

// PredictUpdate implements Fused. The chooser is read before any
// component trains, so the returned prediction matches Predict-then-Update
// exactly; the component predictions come back from the components' own
// fused steps instead of being computed twice.
func (t *Tournament) PredictUpdate(pc uint64, taken bool) bool {
	ci := t.chIndex(pc)
	useGlobal := t.chooser.taken(ci)
	g := t.global.PredictUpdate(pc, taken)
	l := t.local.PredictUpdate(pc, taken)
	if g != l {
		t.chooser.update(ci, g == taken)
	}
	if useGlobal {
		return g
	}
	return l
}

// ObserveBit implements HistoryObserver; bits flow to the global component.
func (t *Tournament) ObserveBit(bit bool) { t.global.ObserveBit(bit) }

// Reset implements Predictor.
func (t *Tournament) Reset() {
	t.global.Reset()
	t.local.Reset()
	t.chooser.reset()
}

// Compile-time interface checks.
var (
	_ Predictor       = (*Static)(nil)
	_ Predictor       = (*Bimodal)(nil)
	_ Predictor       = (*GShare)(nil)
	_ Predictor       = (*GSelect)(nil)
	_ Predictor       = (*GAg)(nil)
	_ Predictor       = (*Local)(nil)
	_ Predictor       = (*Tournament)(nil)
	_ HistoryObserver = (*GShare)(nil)
	_ HistoryObserver = (*GSelect)(nil)
	_ HistoryObserver = (*GAg)(nil)
	_ HistoryObserver = (*Tournament)(nil)
	_ Fused           = (*Static)(nil)
	_ Fused           = (*Bimodal)(nil)
	_ Fused           = (*GShare)(nil)
	_ Fused           = (*GSelect)(nil)
	_ Fused           = (*GAg)(nil)
	_ Fused           = (*Local)(nil)
	_ Fused           = (*Tournament)(nil)
)
