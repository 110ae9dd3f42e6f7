package record

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/prog"
)

// TestRecordRejectsUnindexableProgram runs the length check under a
// 3-instruction bound, so a small program exceeds it: the program must be
// refused rather than packed with a truncated index. At the real bound
// the same program records.
func TestRecordRejectsUnindexableProgram(t *testing.T) {
	b := prog.NewBuilder("fits")
	b.Movi(1, 1)
	b.Addi(1, 1, 1)
	b.Halt(0)
	if _, err := program(b.MustProgram(), 0, 3); err != nil {
		t.Fatalf("3-instruction program: %v", err)
	}
	b = prog.NewBuilder("toolong")
	b.Movi(1, 1)
	b.Addi(1, 1, 1)
	b.Addi(1, 1, 1)
	b.Halt(0)
	p := b.MustProgram()
	_, err := program(p, 0, 3)
	if err == nil || !strings.Contains(err.Error(), "toolong has 4 instructions; a recording indexes at most 3") {
		t.Fatalf("4-instruction program under a 3-instruction bound: %v", err)
	}
	if _, err := Program(p, 0); err != nil {
		t.Fatalf("4-instruction program at the real bound: %v", err)
	}
}

// TestRecordingEndings covers the three ways a recording ends and what
// each leaves behind: a halt (exit code, final pc, no error), a limit
// stop (wrapped emu.ErrLimit, no faulting step) and a fault inside the
// program (the faulting instruction as a flagless step).
func TestRecordingEndings(t *testing.T) {
	b := prog.NewBuilder("halts")
	b.Movi(1, 3)
	b.Label("loop")
	b.Subi(1, 1, 1)
	b.Cmpi(isa.CmpGT, 2, 3, 1, 0)
	b.BrIf(2, "loop")
	b.Halt(7)
	x, err := Program(b.MustProgram(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if x.Err != nil || x.ExitCode != 7 || x.Next != 5 || len(x.Steps) != 11 || x.Events != 6 {
		t.Errorf("halt: err %v, exit %d, next %d, %d steps, %d events; want nil, 7, 5, 11, 6",
			x.Err, x.ExitCode, x.Next, len(x.Steps), x.Events)
	}
	if _, ok := x.Faulted(); ok {
		t.Error("halt: reports a faulting step")
	}
	// The last loop test leaves p2 false, so the branch it guards is
	// nullified and falls through.
	last := x.Steps[len(x.Steps)-2]
	if last.Index() != 3 || last.Guard() || last.Taken() {
		t.Errorf("final loop branch recorded as index %d, guard %v, taken %v", last.Index(), last.Guard(), last.Taken())
	}

	x, err = Program(b.MustProgram(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(x.Err, emu.ErrLimit) || len(x.Steps) != 4 {
		t.Errorf("limit: err %v after %d steps", x.Err, len(x.Steps))
	}
	if _, ok := x.Faulted(); ok {
		t.Error("limit: reports a faulting step")
	}

	b = prog.NewBuilder("faults")
	b.Movi(1, 0)
	b.Div(2, 1, 1)
	b.Halt(0)
	x, err = Program(b.MustProgram(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var f *emu.Fault
	s, ok := x.Faulted()
	if !errors.As(x.Err, &f) || !ok || s.Index() != 1 || s.Guard() || len(x.Steps) != 1 {
		t.Errorf("fault: err %v, faulting step %v (index %d), %d steps", x.Err, ok, s.Index(), len(x.Steps))
	}
}

// TestProgramChunkBoundaries records straight-line runs whose lengths
// sit on and around the staging chunk: every step must land in order in
// an exact-size slice whichever chunk it was staged in. trace's and
// pipeline's chunk-boundary tests place their cases around a 4096-step
// chunk, so the size is pinned here.
func TestProgramChunkBoundaries(t *testing.T) {
	if chunkSteps != 4096 {
		t.Fatalf("staging chunk is %d steps; the trace and pipeline boundary tests assume 4096", chunkSteps)
	}
	for _, steps := range []int{1, chunkSteps - 1, chunkSteps, chunkSteps + 1, 2*chunkSteps + 1} {
		// steps-1 instructions, every other one a compare, then a halt.
		b := prog.NewBuilder("straight")
		cmps := 0
		for i := 0; i < steps-1; i++ {
			if i%2 == 0 {
				b.Cmpi(isa.CmpEQ, 1, 2, 1, int64(i))
				cmps++
			} else {
				b.Nop()
			}
		}
		b.Halt(0)
		x, err := Program(b.MustProgram(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(x.Steps) != steps || cap(x.Steps) != steps || x.Events != cmps || x.Err != nil {
			t.Fatalf("%d-step run: %d steps (cap %d), %d events, err %v; want %d steps, %d events",
				steps, len(x.Steps), cap(x.Steps), x.Events, x.Err, steps, cmps)
		}
		for i, s := range x.Steps {
			if s.Index() != i {
				t.Fatalf("%d-step run: step %d records instruction %d", steps, i, s.Index())
			}
		}
	}
}
