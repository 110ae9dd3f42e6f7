// Package core implements the paper's two contributions:
//
//   - the squash false path filter (SFPF): a fetch-stage structure tracking
//     resolved predicate values; a fetched branch whose qualifying predicate
//     is known false is predicted not-taken with 100% accuracy and bypasses
//     the normal predictor;
//   - the predicate global update (PGU) branch predictor: predicate-define
//     outcomes are shifted into the global branch history, restoring the
//     correlation bits that if-conversion removed from the branch stream.
//
// The trace-driven evaluator (Evaluate) combines either or both mechanisms
// with any baseline predictor from internal/bpred. Its input is a
// trace's event slice, fed through Evaluator.FeedBatch: Evaluate feeds a
// whole *trace.Trace at once, serving sessions feed client batches as
// they arrive. internal/pipeline uses the same SFPF type with exact
// cycle-level resolve tracking.
package core

import "repro/internal/isa"

// SFPF is the squash false path filter: a fetch-stage predicate scoreboard.
// Each predicate register is either known (with its value) or unknown.
// Fetching an instruction that may write a predicate makes that predicate
// unknown; when the instruction resolves, the predicate becomes known
// again with its architectural value. A branch guard that is known at
// fetch determines the branch outcome with certainty.
type SFPF struct {
	known    [isa.NumPRegs]bool
	value    [isa.NumPRegs]bool
	inflight [isa.NumPRegs]uint32
}

// NewSFPF returns a filter with every predicate known in its reset state
// (architecturally, predicates reset to false and p0 to true).
func NewSFPF() *SFPF {
	f := &SFPF{}
	f.Reset()
	return f
}

// Reset restores the post-reset architectural state: all predicates known,
// p0 true, the rest false.
func (f *SFPF) Reset() {
	for i := range f.known {
		f.known[i] = true
		f.value[i] = false
		f.inflight[i] = 0
	}
	f.value[isa.P0] = true
}

// FetchDef records that an instruction which may write the given
// predicates has been fetched: their values become unknown until every
// in-flight writer has resolved.
func (f *SFPF) FetchDef(preds ...isa.PReg) {
	for _, p := range preds {
		if p == isa.P0 {
			continue
		}
		f.known[p] = false
		f.inflight[p]++
	}
}

// Resolve records the architectural value of a predicate once one of its
// in-flight writers has executed. Writers must resolve in fetch order; the
// predicate becomes known again only when the newest writer resolves, so a
// stale resolve can never expose a value that a younger in-flight define
// is about to overwrite — this is what preserves the filter's 100%
// accuracy guarantee.
func (f *SFPF) Resolve(p isa.PReg, v bool) {
	if p == isa.P0 {
		return
	}
	if f.inflight[p] > 0 {
		f.inflight[p]--
	}
	if f.inflight[p] == 0 {
		f.known[p] = true
		f.value[p] = v
	}
}

// Lookup reports whether the guard's value is known at fetch, and if so
// what it is. p0 is always known true.
func (f *SFPF) Lookup(g isa.PReg) (known, val bool) {
	return f.known[g], f.value[g]
}
