// Package trace captures branch and predicate-define event streams from
// emulated program runs. Trace-driven simulation over these events is how
// the predictor experiments run (fast, repeatable), mirroring the paper's
// trace-driven methodology; the cycle-level model in internal/pipeline
// provides the timing view.
package trace

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// Kind distinguishes event types.
type Kind uint8

// Event kinds.
const (
	// KindBranch is a conditional branch: a guarded br/brl or a cloop.
	// Unconditional (p0-guarded) branches are not direction-prediction
	// events and are not recorded.
	KindBranch Kind = iota
	// KindPredDef is a compare instruction (the predicate defines the
	// predicate global update mechanism feeds on).
	KindPredDef
)

// Event is one dynamic branch or predicate-define occurrence.
type Event struct {
	Kind Kind
	Step uint64 // dynamic instruction number at which the event fetched
	PC   uint64 // static instruction index

	// Branch fields.
	Taken    bool
	Guard    isa.PReg
	GuardVal bool
	// GuardDist is the number of dynamic instructions since the guard
	// predicate was last written. The squash false path filter can act on
	// a branch only if this distance covers the predicate resolve latency.
	GuardDist uint64
	// Region marks region-based branches (branches the if-converter left
	// inside predicated regions).
	Region bool
	// GuardImpliesTaken is true for br/brl (taken iff guard true) and
	// false for cloop (a true guard still tests its counter).
	GuardImpliesTaken bool

	// Predicate-define fields.
	Executed          bool // the compare's own guard was true
	Value             bool // evaluated condition (meaningful when Executed)
	FeedsBranch       bool // statically feeds some branch guard
	FeedsRegionBranch bool // statically feeds some region-based branch guard
}

// Trace is an ordered event stream plus run-level counts.
type Trace struct {
	Name           string
	Events         []Event
	Insts          uint64 // total dynamic instructions
	Nullified      uint64 // dynamic instructions nullified by a false guard
	Branches       uint64 // conditional branch events
	RegionBranches uint64
	PredDefs       uint64
}

// collectChunk is the number of events per staging chunk in Collect.
const collectChunk = 1 << 11

// Collect runs the program to completion and records its event stream.
// It materializes the same stream Stream produces, for traces that are
// replayed many times across a predictor sweep. Events are staged in
// fixed-size chunks and copied once into an exact-size slice
// (len(Events) == cap(Events)), so a trace neither pays for repeated
// growth copies nor keeps spare capacity for its lifetime.
func Collect(p *prog.Program, limit uint64) (*Trace, error) {
	r := newEmuReader(p, limit)
	var full [][]Event
	chunk := make([]Event, collectChunk)
	n := 0
	for r.Next(&chunk[n]) {
		if n++; n == collectChunk {
			full = append(full, chunk)
			chunk = make([]Event, collectChunk)
			n = 0
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	tr := &Trace{Name: p.Name}
	if total := len(full)*collectChunk + n; total > 0 {
		tr.Events = make([]Event, total)
		off := 0
		for _, c := range full {
			off += copy(tr.Events[off:], c)
		}
		copy(tr.Events[off:], chunk[:n])
	}
	c := r.Counts()
	tr.Insts = c.Insts
	tr.Nullified = c.Nullified
	tr.Branches = c.Branches
	tr.RegionBranches = c.RegionBranches
	tr.PredDefs = c.PredDefs
	return tr, nil
}
