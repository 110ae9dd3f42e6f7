// Package trace captures branch and predicate-define event streams from
// emulated program runs. Trace-driven simulation over these events is how
// the predictor experiments run (fast, repeatable), mirroring the paper's
// trace-driven methodology; the cycle-level model in internal/pipeline
// provides the timing view.
//
// A trace is a view of a program's recorded execution (internal/record):
// FromRecording derives it in one pass over the recorded steps, and
// Collect is one recording plus that pass. Stream derives the same
// events, by the same per-step rule, from a live recorder instead, and
// keeps no recording.
package trace

import (
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/record"
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

// Collect runs the program to completion and records its event stream:
// one recording (record.Program) and one pass deriving the events from
// it (FromRecording). It materializes the same stream Stream produces,
// for traces that are replayed many times across a predictor sweep.
// The event slice is exact-size (len(Events) == cap(Events)), so a
// trace keeps no spare capacity for its lifetime.
func Collect(p *prog.Program, limit uint64) (*Trace, error) {
	x, err := record.Program(p, limit)
	if err != nil {
		return nil, err
	}
	return FromRecording(x)
}
