package trace

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/record"
)

// FromRecording derives the event stream of a recorded run: the trace
// Collect returns for the same program and limit. The recording must
// have ended in a halt; a limit stop or a fault is returned as the
// error, prefixed "trace: ", and no partial trace. The event slice is
// sized from the recording's event count (len(Events) == cap(Events)).
func FromRecording(x *record.Recording) (*Trace, error) {
	if x.Err != nil {
		return nil, fmt.Errorf("trace: %w", x.Err)
	}
	tr := &Trace{Name: x.Prog.Name, Insts: uint64(len(x.Steps)), Nullified: x.Nullified}
	if x.Events > 0 {
		tr.Events = make([]Event, x.Events)
	}
	// lastDef[p] is the number of the step that last wrote p.
	var lastDef [isa.NumPRegs]uint64
	k := 0
	for i, s := range x.Steps {
		n := uint64(i)
		in := &x.Insts[s.Index()]
		switch in.Event {
		case record.Define:
			tr.Events[k] = Event{
				Kind: KindPredDef,
				Step: n,
				PC:   uint32(s.Index()),
				Flags: FlagExecuted.If(s.Guard()) | FlagValue.If(s.Cmp()) |
					FlagFeedsBranch.If(in.FeedsBranch) | FlagFeedsRegionBranch.If(in.FeedsRegionBranch),
			}
			k++
			tr.PredDefs++
		case record.Branch:
			tr.Events[k] = Event{
				Kind:  KindBranch,
				Step:  n,
				PC:    uint32(s.Index()),
				Guard: in.QP,
				Flags: FlagTaken.If(s.Taken()) | FlagGuardVal.If(s.Guard()) |
					FlagRegion.If(in.Region) | FlagGuardImpliesTaken.If(in.GuardImpliesTaken),
				GuardDist: n - lastDef[in.QP],
			}
			k++
			tr.Branches++
			if in.Region {
				tr.RegionBranches++
			}
		}
		if in.NPDef != 0 && in.Wrote(s) {
			for _, p := range in.PDefs[:in.NPDef] {
				lastDef[p] = n
			}
		}
	}
	return tr, nil
}
