// External test package: workload (imported for real programs) now
// resolves synthetic charz workloads, and charz consumes this package —
// an in-package test would close an import cycle.
package trace_test

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/record"
	"repro/internal/trace"
	"repro/internal/workload"
)

// countdown builds a program whose while loop runs iters times: each
// iteration and the final failing test contribute one compare and one
// conditional branch, so the trace holds exactly 2*(iters+1) events.
func countdown(name string, iters int64) *prog.Program {
	b := prog.NewBuilder(name)
	b.Movi(1, iters)
	b.While(prog.RI(isa.CmpGT, 1, 0), func() {
		b.Subi(1, 1, 1)
	})
	b.Halt(0)
	return b.MustProgram()
}

// TestStreamMatchesCollect checks every workload's collected event
// stream against the recording it is derived from: one event per
// event-producing step, in step order, with counts that add up, in an
// exact-size slice (len == cap). Besides the suite it covers a program
// with no events and countdown programs whose runs end on and around
// record.Program's staging-chunk boundaries.
func TestStreamMatchesCollect(t *testing.T) {
	type tc struct {
		name  string
		p     *prog.Program
		nEvts int // expected event count; -1 when not pinned
	}
	var cases []tc
	for _, w := range workload.Suite() {
		cases = append(cases, tc{w.Name, w.Build(), -1})
	}
	halt := prog.NewBuilder("no-events")
	halt.Halt(0)
	cases = append(cases, tc{"no-events", halt.MustProgram(), 0})
	// A countdown with n events runs 2n steps.
	chunk := trace.RecordChunkForTest
	for _, steps := range []int{chunk - 4, chunk, chunk + 4, 2*chunk + 4} {
		n := steps / 2
		name := fmt.Sprintf("events-%d", n)
		cases = append(cases, tc{name, countdown(name, int64(n/2-1)), n})
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			x, err := record.Program(c.p, 3_000_000)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Collect(c.p, 3_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Events) != cap(tr.Events) {
				t.Errorf("Events len %d, cap %d: not exact-size", len(tr.Events), cap(tr.Events))
			}
			if c.nEvts >= 0 && len(tr.Events) != c.nEvts {
				t.Fatalf("collected %d events, want %d", len(tr.Events), c.nEvts)
			}
			if c.nEvts > 0 && len(x.Steps) != 2*c.nEvts {
				t.Fatalf("countdown ran %d steps, want %d", len(x.Steps), 2*c.nEvts)
			}
			if len(tr.Events) != x.Events || tr.Insts != uint64(len(x.Steps)) || tr.Nullified != x.Nullified {
				t.Fatalf("trace has %d events over %d insts (%d nullified); recording %d over %d (%d)",
					len(tr.Events), tr.Insts, tr.Nullified, x.Events, len(x.Steps), x.Nullified)
			}
			var branches, region, defs uint64
			for i, ev := range tr.Events {
				if i > 0 && ev.Step <= tr.Events[i-1].Step {
					t.Fatalf("event %d at step %d follows step %d", i, ev.Step, tr.Events[i-1].Step)
				}
				if ev.Step >= tr.Insts || x.Steps[ev.Step].Index() != int(ev.PC) {
					t.Fatalf("event %d (%+v) is not its step's instruction", i, ev)
				}
				switch ev.Kind {
				case trace.KindBranch:
					branches++
					if ev.Region() {
						region++
					}
				case trace.KindPredDef:
					defs++
				}
			}
			if branches != tr.Branches || region != tr.RegionBranches || defs != tr.PredDefs {
				t.Errorf("counts %d/%d/%d, events hold %d/%d/%d (branches/region/defines)",
					tr.Branches, tr.RegionBranches, tr.PredDefs, branches, region, defs)
			}
		})
	}
}
