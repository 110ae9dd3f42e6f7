package trace

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/record"
)

// deriver turns recorded steps into events. It is the one per-step rule
// behind both FromRecording (a whole recording at once) and Stream (one
// live step at a time).
type deriver struct {
	insts []record.Inst
	// lastDef[p] is the number of the step that last wrote p.
	lastDef [isa.NumPRegs]uint64
	counts  Counts // Branches, RegionBranches and PredDefs
}

// step derives step number n, recorded as s: it fills ev and reports
// true when the step produced an event, and leaves ev alone otherwise.
func (d *deriver) step(n uint64, s record.Step, ev *Event) bool {
	in := &d.insts[s.Index()]
	emitted := false
	switch in.Event {
	case record.Define:
		*ev = Event{
			Kind:              KindPredDef,
			Step:              n,
			PC:                uint64(s.Index()),
			Executed:          s.Guard(),
			Value:             s.Cmp(),
			FeedsBranch:       in.FeedsBranch,
			FeedsRegionBranch: in.FeedsRegionBranch,
		}
		d.counts.PredDefs++
		emitted = true
	case record.Branch:
		*ev = Event{
			Kind:              KindBranch,
			Step:              n,
			PC:                uint64(s.Index()),
			Taken:             s.Taken(),
			Guard:             in.QP,
			GuardVal:          s.Guard(),
			GuardDist:         n - d.lastDef[in.QP],
			Region:            in.Region,
			GuardImpliesTaken: in.GuardImpliesTaken,
		}
		d.counts.Branches++
		if in.Region {
			d.counts.RegionBranches++
		}
		emitted = true
	}
	if in.NPDef != 0 && in.Wrote(s) {
		for _, p := range in.PDefs[:in.NPDef] {
			d.lastDef[p] = n
		}
	}
	return emitted
}

// FromRecording derives the event stream of a recorded run: the trace
// Collect returns for the same program and limit. The recording must
// have ended in a halt; a limit stop or a fault is returned as the
// error, prefixed "trace: ", and no partial trace. The event slice is
// sized from the recording's event count (len(Events) == cap(Events)).
func FromRecording(x *record.Recording) (*Trace, error) {
	if x.Err != nil {
		return nil, fmt.Errorf("trace: %w", x.Err)
	}
	tr := &Trace{Name: x.Prog.Name}
	if x.Events > 0 {
		tr.Events = make([]Event, x.Events)
	}
	d := deriver{insts: x.Insts}
	// Each step derives into the next free slot; once every event is
	// placed, the trailing steps derive into a scratch event instead.
	var spare Event
	k := 0
	for i, s := range x.Steps {
		ev := &spare
		if k < len(tr.Events) {
			ev = &tr.Events[k]
		}
		if d.step(uint64(i), s, ev) {
			k++
		}
	}
	tr.Insts = uint64(len(x.Steps))
	tr.Nullified = x.Nullified
	tr.Branches = d.counts.Branches
	tr.RegionBranches = d.counts.RegionBranches
	tr.PredDefs = d.counts.PredDefs
	return tr, nil
}
