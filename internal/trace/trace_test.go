// External test package: workload (imported for real programs) now
// resolves synthetic charz workloads, and charz consumes this package —
// an in-package test would close an import cycle.
package trace_test

import (
	"errors"
	"testing"

	"repro/internal/emu"
	"repro/internal/ifconv"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/workload"
)

func collect(t *testing.T, p *prog.Program) *trace.Trace {
	t.Helper()
	tr, err := trace.Collect(p, 1_000_000)
	if err != nil {
		t.Fatalf("collect %s: %v", p.Name, err)
	}
	return tr
}

func TestCollectCountsBranches(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Movi(1, 3)
	b.While(prog.RI(isa.CmpGT, 1, 0), func() {
		b.Subi(1, 1, 1)
	})
	b.Halt(0)
	tr := collect(t, b.MustProgram())
	// The while loop runs 3 iterations + 1 failing test: 4 conditional
	// branch events and 4 compares. The back-edge br is unconditional and
	// must not appear.
	if tr.Branches != 4 {
		t.Errorf("branches = %d, want 4", tr.Branches)
	}
	if tr.PredDefs != 4 {
		t.Errorf("preddefs = %d, want 4", tr.PredDefs)
	}
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Kind == trace.KindBranch && ev.Guard == isa.P0 {
			t.Errorf("unconditional branch recorded: %+v", ev)
		}
	}
}

func TestCollectTakenMatchesOutcome(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Movi(1, 1)
	b.Cmpi(isa.CmpEQ, 2, 3, 1, 1) // p2 true
	b.BrIf(2, "x")
	b.Label("x")
	b.Cmpi(isa.CmpEQ, 4, 5, 1, 0) // p4 false
	b.BrIf(4, "y")
	b.Label("y")
	b.Halt(0)
	tr := collect(t, b.MustProgram())
	var branches []trace.Event
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindBranch {
			branches = append(branches, ev)
		}
	}
	if len(branches) != 2 {
		t.Fatalf("got %d branch events", len(branches))
	}
	if !branches[0].Taken || !branches[0].GuardVal {
		t.Errorf("first branch: %+v", branches[0])
	}
	if branches[1].Taken || branches[1].GuardVal {
		t.Errorf("second branch: %+v", branches[1])
	}
}

func TestGuardDist(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Movi(1, 1)                  // step 0
	b.Cmpi(isa.CmpEQ, 2, 3, 1, 1) // step 1: defines p2
	b.Nopn(4)
	b.BrIf(2, "x") // step 6: dist = 6-1 = 5
	b.Label("x")
	b.Halt(0)
	tr := collect(t, b.MustProgram())
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindBranch {
			if ev.GuardDist != 5 {
				t.Errorf("GuardDist = %d, want 5", ev.GuardDist)
			}
			return
		}
	}
	t.Fatal("no branch event")
}

func TestStepsMonotonic(t *testing.T) {
	p := workload.Synth(3, 60)
	tr := collect(t, p)
	var last uint64
	for i, ev := range tr.Events {
		if i > 0 && ev.Step <= last {
			t.Fatalf("event %d step %d not after %d", i, ev.Step, last)
		}
		last = ev.Step
	}
	if tr.Insts == 0 || tr.Insts < last {
		t.Errorf("Insts = %d, last step %d", tr.Insts, last)
	}
}

func TestCloopEventsAreConditional(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Movi(1, 2)
	b.Label("top")
	b.Addi(2, 2, 1)
	b.Cloop(1, "top")
	b.Halt(0)
	tr := collect(t, b.MustProgram())
	n := 0
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindBranch {
			n++
			if ev.GuardImpliesTaken {
				t.Error("cloop marked guard-implies-taken")
			}
		}
	}
	if n != 3 {
		t.Errorf("cloop events = %d, want 3", n)
	}
}

func TestRegionFlagsAfterIfConversion(t *testing.T) {
	b := prog.NewBuilder("loop")
	b.Movi(1, 10)
	b.Movi(2, 0)
	b.While(prog.RI(isa.CmpGT, 1, 0), func() {
		b.IfElse(prog.RI(isa.CmpGT, 1, 5),
			func() { b.Add(2, 2, 1) },
			func() { b.Sub(2, 2, 1) },
		)
		b.Subi(1, 1, 1)
	})
	b.Out(2)
	b.Halt(0)
	p := b.MustProgram()
	cp, rep, err := ifconv.Convert(p, ifconv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regions) == 0 {
		t.Fatalf("nothing converted: %v", rep.Rejected)
	}
	tr := collect(t, cp)
	if tr.RegionBranches == 0 {
		t.Errorf("no region branch events in converted trace\n%s", cp)
	}
	// Dynamic branch count should drop after if-conversion.
	tr0 := collect(t, p)
	if tr.Branches >= tr0.Branches {
		t.Errorf("branches did not drop: %d -> %d", tr0.Branches, tr.Branches)
	}
}

func TestFeedsBranchClassification(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Movi(1, 1)
	b.Cmpi(isa.CmpEQ, 2, 3, 1, 1) // p2 guards a branch below
	b.Cmpi(isa.CmpEQ, 4, 5, 1, 0) // p4/p5 guard nothing
	b.BrIf(2, "x")
	b.Label("x")
	b.Halt(0)
	tr := collect(t, b.MustProgram())
	var defs []trace.Event
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindPredDef {
			defs = append(defs, ev)
		}
	}
	if len(defs) != 2 {
		t.Fatalf("defs = %d", len(defs))
	}
	if !defs[0].FeedsBranch {
		t.Error("branch-feeding compare not flagged")
	}
	if defs[1].FeedsBranch {
		t.Error("non-feeding compare flagged")
	}
}

func TestNullifiedCompareNotExecuted(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Emit(isa.Inst{Op: isa.OpPinit, PD1: 9, Imm: 0})
	b.Cmpi(isa.CmpEQ, 2, 3, 1, 0).QP = 9 // nullified
	b.Halt(0)
	tr := collect(t, b.MustProgram())
	for _, ev := range tr.Events {
		if ev.Kind == trace.KindPredDef && ev.Executed {
			t.Errorf("nullified compare marked executed: %+v", ev)
		}
	}
	if tr.PredDefs != 1 {
		t.Errorf("preddefs = %d", tr.PredDefs)
	}
}

func TestCollectLimit(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Label("x")
	b.Br("x")
	if _, err := trace.Collect(b.MustProgram(), 50); !errors.Is(err, emu.ErrLimit) {
		t.Fatalf("infinite loop: err = %v, want emu.ErrLimit", err)
	}
	// A limit hit after several staging chunks have filled fails the
	// same way: no partial trace is returned.
	p := countdown("long", int64(4*trace.CollectChunkForTest))
	tr, err := trace.Collect(p, uint64(8*trace.CollectChunkForTest))
	if !errors.Is(err, emu.ErrLimit) || tr != nil {
		t.Fatalf("limited long run: trace %v, err = %v, want nil and emu.ErrLimit", tr, err)
	}
}
