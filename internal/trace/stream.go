package trace

import (
	"fmt"

	"repro/internal/prog"
	"repro/internal/record"
)

// Stream returns a Source that replays p's event stream straight from
// the emulator: each Replay runs the program again, deriving events as
// the emulation advances instead of materializing an []Event slice or a
// recording. Use it when a trace is consumed once (memory stays flat
// regardless of run length); use Collect when the same trace is
// replayed across a predictor sweep.
func Stream(p *prog.Program, limit uint64) Source { return &streamSource{p: p, limit: limit} }

type streamSource struct {
	p     *prog.Program
	limit uint64
}

// Replay implements Source.
func (s *streamSource) Replay() Reader {
	rec, err := record.NewRecorder(s.p, s.limit)
	if err != nil {
		return &streamReader{err: err}
	}
	return &streamReader{rec: rec, d: deriver{insts: rec.Insts()}}
}

// streamReader derives the event stream from a live recorder, one step
// at a time, by the same rule FromRecording applies to a whole
// recording.
type streamReader struct {
	rec  *record.Recorder
	d    deriver
	err  error
	done bool
}

// Next implements Reader: it steps the emulator until the next
// event-producing instruction (compare or conditional branch) or the end
// of the run.
func (r *streamReader) Next(ev *Event) bool {
	if r.err != nil || r.done {
		return false
	}
	for {
		n := r.rec.Steps() // dynamic number of the instruction about to run
		s, ok := r.rec.Next()
		if !ok {
			break
		}
		if r.d.step(n, s, ev) {
			return true
		}
	}
	if err := r.rec.Err(); err != nil {
		r.err = fmt.Errorf("trace: %w", err)
		return false
	}
	r.done = true
	return false
}

// Err implements Reader.
func (r *streamReader) Err() error { return r.err }

// Counts implements Reader; totals are complete once Next returned false
// with a nil Err.
func (r *streamReader) Counts() Counts {
	c := r.d.counts
	if r.rec != nil {
		c.Insts, c.Nullified = r.rec.Steps(), r.rec.Nullified()
	}
	return c
}

var (
	_ Source = (*streamSource)(nil)
	_ Reader = (*streamReader)(nil)
)
