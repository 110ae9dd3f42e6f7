// Package trace captures branch and predicate-define event streams from
// emulated program runs. Trace-driven simulation over these events is how
// the predictor experiments run (fast, repeatable), mirroring the paper's
// trace-driven methodology; the cycle-level model in internal/pipeline
// provides the timing view.
//
// A trace is a view of a program's recorded execution (internal/record):
// FromRecording derives it in one pass over the recorded steps, and
// Collect is one recording plus that pass. Its Events slice is how
// events reach every consumer: the evaluator feeds it through
// core.Evaluator.FeedBatch, the characterizer (internal/charz) walks it,
// and WriteTo/ReadTrace serialize it.
//
// An Event is laid out exactly as its 24-byte P64T wire record, with the
// boolean fields packed into Flags and read through accessor methods, so
// ReadTraceFrom decodes a batch by reading the records into the event
// slice and fixing up the multi-byte fields in one pass.
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

// Event is one dynamic branch or predicate-define occurrence. Its memory
// layout is the 24-byte P64T record (serialize.go): kind, flags, guard,
// a pad byte, then PC, Step and GuardDist at offsets 4, 8 and 16, so a
// decode reads records straight into an event slice. Event must stay
// pointer-free and keep these offsets; TestEventLayout pins them.
type Event struct {
	Kind  Kind
	Flags Flags    // the boolean fields, one bit each (accessors below)
	Guard isa.PReg // the branch's guard predicate
	_     uint8
	PC    uint32 // static instruction index
	Step  uint64 // dynamic instruction number at which the event fetched
	// GuardDist is the number of dynamic instructions since the guard
	// predicate was last written. The squash false path filter can act on
	// a branch only if this distance covers the predicate resolve latency.
	GuardDist uint64
}

// Flags holds an event's boolean fields, one bit each, in P64T order
// (LSB first).
type Flags uint8

// Event flag bits.
const (
	// Branch flags.
	FlagTaken    Flags = 1 << iota
	FlagGuardVal       // the guard predicate's value
	// FlagRegion marks region-based branches (branches the if-converter
	// left inside predicated regions).
	FlagRegion
	// FlagGuardImpliesTaken is set for br/brl (taken iff guard true) and
	// clear for cloop (a true guard still tests its counter).
	FlagGuardImpliesTaken

	// Predicate-define flags.
	FlagExecuted          // the compare's own guard was true
	FlagValue             // evaluated condition (meaningful when executed)
	FlagFeedsBranch       // statically feeds some branch guard
	FlagFeedsRegionBranch // statically feeds some region-based branch guard
)

// If returns f when on holds and no flags otherwise, so flags build from
// conditions: FlagTaken.If(taken) | FlagRegion.If(region).
func (f Flags) If(on bool) Flags {
	if on {
		return f
	}
	return 0
}

// Taken reports FlagTaken.
func (ev *Event) Taken() bool { return ev.Flags&FlagTaken != 0 }

// GuardVal reports FlagGuardVal.
func (ev *Event) GuardVal() bool { return ev.Flags&FlagGuardVal != 0 }

// Region reports FlagRegion.
func (ev *Event) Region() bool { return ev.Flags&FlagRegion != 0 }

// GuardImpliesTaken reports FlagGuardImpliesTaken.
func (ev *Event) GuardImpliesTaken() bool { return ev.Flags&FlagGuardImpliesTaken != 0 }

// Executed reports FlagExecuted.
func (ev *Event) Executed() bool { return ev.Flags&FlagExecuted != 0 }

// Value reports FlagValue.
func (ev *Event) Value() bool { return ev.Flags&FlagValue != 0 }

// FeedsBranch reports FlagFeedsBranch.
func (ev *Event) FeedsBranch() bool { return ev.Flags&FlagFeedsBranch != 0 }

// FeedsRegionBranch reports FlagFeedsRegionBranch.
func (ev *Event) FeedsRegionBranch() bool { return ev.Flags&FlagFeedsRegionBranch != 0 }

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
// it (FromRecording). The event slice is exact-size (len(Events) ==
// cap(Events)), so a trace keeps no spare capacity for its lifetime.
func Collect(p *prog.Program, limit uint64) (*Trace, error) {
	x, err := record.Program(p, limit)
	if err != nil {
		return nil, err
	}
	return FromRecording(x)
}
