package emu

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
)

// run builds a program with fn and runs it to completion.
func run(t *testing.T, fn func(b *prog.Builder)) (*Machine, Result) {
	t.Helper()
	b := prog.NewBuilder("test")
	fn(b)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(100000)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, res
}

func TestALUOps(t *testing.T) {
	m, _ := run(t, func(b *prog.Builder) {
		b.Movi(1, 10)
		b.Movi(2, 3)
		b.Add(3, 1, 2)  // 13
		b.Sub(4, 1, 2)  // 7
		b.Mul(5, 1, 2)  // 30
		b.Div(6, 1, 2)  // 3
		b.Mod(7, 1, 2)  // 1
		b.And(8, 1, 2)  // 2
		b.Or(9, 1, 2)   // 11
		b.Xor(10, 1, 2) // 9
		b.Shli(11, 1, 2)
		b.Movi(12, -16)
		b.Sari(13, 12, 2) // -4
		b.Shri(14, 2, 1)  // 1
		b.Halt(0)
	})
	want := map[isa.Reg]int64{3: 13, 4: 7, 5: 30, 6: 3, 7: 1, 8: 2, 9: 11, 10: 9, 11: 40, 13: -4, 14: 1}
	for r, v := range want {
		if m.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, m.Regs[r], v)
		}
	}
}

func TestR0HardwiredZero(t *testing.T) {
	m, _ := run(t, func(b *prog.Builder) {
		b.Movi(0, 55)
		b.Add(1, 0, 0)
		b.Halt(0)
	})
	if m.Regs[0] != 0 || m.Regs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d", m.Regs[0], m.Regs[1])
	}
}

func TestNullification(t *testing.T) {
	m, res := run(t, func(b *prog.Builder) {
		b.Movi(1, 1)
		b.Cmpi(isa.CmpEQ, 2, 3, 1, 0) // p2 = (r1==0) = false, p3 = true
		b.Movi(4, 111).QP = 2         // nullified
		b.Movi(5, 222).QP = 3         // executes
		b.Halt(0)
	})
	if m.Regs[4] != 0 {
		t.Errorf("nullified movi wrote r4 = %d", m.Regs[4])
	}
	if m.Regs[5] != 222 {
		t.Errorf("guarded-true movi: r5 = %d", m.Regs[5])
	}
	if res.Nullified != 1 {
		t.Errorf("nullified count = %d", res.Nullified)
	}
}

func TestCmpTypes(t *testing.T) {
	// p5 guards: set p5=false via a compare, then check unc/and/or effects.
	m, _ := run(t, func(b *prog.Builder) {
		b.Movi(1, 7)
		// p5 true, p6 false
		b.Cmpi(isa.CmpEQ, 5, 6, 1, 7)
		// Normal compare under false guard: no write. p10/p11 stay 0.
		b.Cmpi(isa.CmpEQ, 10, 11, 1, 7).QP = 6
		// Unc compare under false guard: both cleared even though they'd be set.
		b.Emit(isa.Inst{Op: isa.OpCmp, QP: 6, CC: isa.CmpEQ, CT: isa.CmpUnc, PD1: 12, PD2: 13, Src1: 1, Imm: 7, HasImm: true})
		// Seed p20/p21 true.
		b.Emit(isa.Inst{Op: isa.OpPinit, PD1: 20, Imm: 1})
		b.Emit(isa.Inst{Op: isa.OpPinit, PD1: 21, Imm: 1})
		// And-type with false condition clears both.
		b.Emit(isa.Inst{Op: isa.OpCmp, CC: isa.CmpEQ, CT: isa.CmpAnd, PD1: 20, PD2: 21, Src1: 1, Imm: 0, HasImm: true})
		// Or-type with true condition sets both.
		b.Emit(isa.Inst{Op: isa.OpCmp, CC: isa.CmpEQ, CT: isa.CmpOr, PD1: 22, PD2: 23, Src1: 1, Imm: 7, HasImm: true})
		// Or-type with false condition leaves p24/p25 unchanged (false).
		b.Emit(isa.Inst{Op: isa.OpCmp, CC: isa.CmpEQ, CT: isa.CmpOr, PD1: 24, PD2: 25, Src1: 1, Imm: 0, HasImm: true})
		b.Halt(0)
	})
	wantTrue := []isa.PReg{5, 22, 23}
	wantFalse := []isa.PReg{6, 10, 11, 12, 13, 20, 21, 24, 25}
	for _, p := range wantTrue {
		if !m.Preds[p] {
			t.Errorf("p%d = false, want true", p)
		}
	}
	for _, p := range wantFalse {
		if m.Preds[p] {
			t.Errorf("p%d = true, want false", p)
		}
	}
}

func TestPredicateOps(t *testing.T) {
	m, _ := run(t, func(b *prog.Builder) {
		b.Emit(isa.Inst{Op: isa.OpPinit, PD1: 1, Imm: 1})
		b.Emit(isa.Inst{Op: isa.OpPinit, PD1: 2, Imm: 0})
		b.Emit(isa.Inst{Op: isa.OpPand, PD1: 3, PS1: 1, PS2: 2}) // false
		b.Emit(isa.Inst{Op: isa.OpPor, PD1: 4, PS1: 1, PS2: 2})  // true
		b.Emit(isa.Inst{Op: isa.OpPmov, PD1: 5, PS1: 1})         // true
		b.Emit(isa.Inst{Op: isa.OpPmov, PD1: 6, PS1: 1, QP: 2})  // nullified
		b.Halt(0)
	})
	if m.Preds[3] || !m.Preds[4] || !m.Preds[5] || m.Preds[6] {
		t.Errorf("pred ops: p3=%v p4=%v p5=%v p6=%v", m.Preds[3], m.Preds[4], m.Preds[5], m.Preds[6])
	}
}

func TestP0Immutable(t *testing.T) {
	m, _ := run(t, func(b *prog.Builder) {
		b.Emit(isa.Inst{Op: isa.OpPinit, PD1: 0, Imm: 0})
		b.Halt(0)
	})
	if !m.Preds[0] {
		t.Error("p0 was cleared")
	}
}

func TestMemory(t *testing.T) {
	m, _ := run(t, func(b *prog.Builder) {
		b.Movi(1, 1000)
		b.Movi(2, 42)
		b.St(1, 5, 2)
		b.Ld(3, 1, 5)
		b.Ld(4, 1, 6) // untouched -> 0
		b.Halt(0)
	})
	if m.Regs[3] != 42 || m.Regs[4] != 0 {
		t.Errorf("r3=%d r4=%d", m.Regs[3], m.Regs[4])
	}
	snap := m.MemSnapshot()
	if snap[1005] != 42 || len(snap) != 1 {
		t.Errorf("snapshot = %v", snap)
	}
}

func TestInitialData(t *testing.T) {
	b := prog.NewBuilder("t")
	b.SetData(100, []int64{7, 8, 9})
	b.Movi(1, 100)
	b.Ld(2, 1, 1)
	b.Halt(0)
	p := b.MustProgram()
	m, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.Regs[2] != 8 {
		t.Errorf("r2 = %d", m.Regs[2])
	}
}

func TestBranchesAndGuards(t *testing.T) {
	_, res := run(t, func(b *prog.Builder) {
		b.Movi(1, 5)
		b.Cmpi(isa.CmpGT, 2, 3, 1, 0) // p2 true
		b.BrIf(2, "yes")
		b.Out(0) // skipped
		b.Halt(1)
		b.Label("yes")
		b.Movi(4, 1)
		b.Out(4)
		b.Halt(0)
	})
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
	if len(res.Output) != 1 || res.Output[0] != 1 {
		t.Errorf("output = %v", res.Output)
	}
}

func TestBranchNotTakenWhenGuardFalse(t *testing.T) {
	_, res := run(t, func(b *prog.Builder) {
		b.Movi(1, 5)
		b.Cmpi(isa.CmpLT, 2, 3, 1, 0) // p2 false
		b.BrIf(2, "bad")
		b.Halt(0)
		b.Label("bad")
		b.Halt(9)
	})
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestCloop(t *testing.T) {
	m, _ := run(t, func(b *prog.Builder) {
		b.Movi(1, 0) // sum
		b.Movi(2, 4) // counter: body runs 5 times
		b.Label("top")
		b.Addi(1, 1, 1)
		b.Cloop(2, "top")
		b.Halt(0)
	})
	if m.Regs[1] != 5 {
		t.Errorf("loop body ran %d times, want 5", m.Regs[1])
	}
}

func TestCloopGuardFalseDoesNotDecrement(t *testing.T) {
	m, _ := run(t, func(b *prog.Builder) {
		b.Movi(1, 3)
		b.Emit(isa.Inst{Op: isa.OpPinit, PD1: 5, Imm: 0})
		b.Cloop(1, "nowhere").QP = 5
		b.Halt(0)
		b.Label("nowhere")
		b.Halt(9)
	})
	if m.Regs[1] != 3 {
		t.Errorf("nullified cloop decremented: r1 = %d", m.Regs[1])
	}
	if m.ExitCode != 0 {
		t.Errorf("nullified cloop jumped: exit %d", m.ExitCode)
	}
}

func TestBrlAndBrr(t *testing.T) {
	_, res := run(t, func(b *prog.Builder) {
		b.Movi(1, 10)
		b.Brl(30, "double") // call; r30 = link
		b.Out(1)
		b.Halt(0)
		b.Label("double")
		b.Add(1, 1, 1)
		b.Brr(30) // return
	})
	if len(res.Output) != 1 || res.Output[0] != 20 {
		t.Errorf("output = %v", res.Output)
	}
}

func TestGuardedHalt(t *testing.T) {
	_, res := run(t, func(b *prog.Builder) {
		b.Emit(isa.Inst{Op: isa.OpPinit, PD1: 1, Imm: 0})
		b.Halt(7).QP = 1 // nullified
		b.Halt(3)
	})
	if res.ExitCode != 3 {
		t.Errorf("exit = %d", res.ExitCode)
	}
}

func TestTrapFaults(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Trap()
	p := b.MustProgram()
	if _, err := RunProgram(p, 10); err == nil {
		t.Fatal("trap did not fault")
	}
}

func TestDivByZeroFaults(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Div(1, 2, 3)
	b.Halt(0)
	if _, err := RunProgram(b.MustProgram(), 10); err == nil {
		t.Fatal("div by zero did not fault")
	}
}

func TestNegativeAddressFaults(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Movi(1, -5)
	b.Ld(2, 1, 0)
	b.Halt(0)
	if _, err := RunProgram(b.MustProgram(), 10); err == nil {
		t.Fatal("negative load did not fault")
	}
}

func TestRunLimit(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Label("x")
	b.Br("x")
	p := b.MustProgram()
	_, err := RunProgram(p, 100)
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("err = %v, want ErrLimit", err)
	}
}

func TestPCOutOfRangeFaults(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Movi(1, 1) // falls off the end
	p := b.MustProgram()
	if _, err := RunProgram(p, 10); err == nil {
		t.Fatal("running off the end did not fault")
	}
}

// TestStepIntoReusesInfo: StepInto overwrites the caller's StepInfo on
// every step it executes, and leaves it unchanged when the step cannot
// start (here, with the pc past the end).
func TestStepIntoReusesInfo(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Movi(1, 1)
	b.Cmpi(isa.CmpEQ, 2, 3, 1, 1)
	m, err := New(b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	var info StepInfo
	if err := m.StepInto(&info); err != nil || info.Index != 0 || info.CmpValue || len(info.PredWrites) != 0 {
		t.Fatalf("movi: %+v, %v", info, err)
	}
	if err := m.StepInto(&info); err != nil || info.Index != 1 || !info.CmpValue || len(info.PredWrites) != 2 {
		t.Fatalf("cmp: %+v, %v", info, err)
	}
	var f *Fault
	if err := m.StepInto(&info); !errors.As(err, &f) || f.Msg != "pc out of range" || info.Index != 1 {
		t.Fatalf("past the end: %+v, %v", info, err)
	}
}

func TestBrrOutOfRangeFaults(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Movi(1, 999)
	b.Brr(1)
	if _, err := RunProgram(b.MustProgram(), 10); err == nil {
		t.Fatal("wild indirect branch did not fault")
	}
}

func TestStepAfterHaltErrors(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Halt(0)
	m, err := New(b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(); err == nil {
		t.Fatal("step after halt succeeded")
	}
}

func TestStepInfoBranch(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Movi(1, 1)
	b.Cmpi(isa.CmpEQ, 2, 3, 1, 1) // p2 true
	b.BrIf(2, "end")
	b.Label("end")
	b.Halt(0)
	m, err := New(b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	var branchInfo StepInfo
	for !m.Halted {
		si, err := m.Step()
		if err != nil {
			t.Fatal(err)
		}
		if si.Inst.IsBranch() {
			branchInfo = si
		}
	}
	if !branchInfo.Taken || !branchInfo.GuardTrue {
		t.Errorf("branch info = %+v", branchInfo)
	}
}

func TestStepInfoPredWrites(t *testing.T) {
	b := prog.NewBuilder("t")
	b.Cmpi(isa.CmpEQ, 2, 3, 0, 0) // r0==0: p2 true, p3 false
	b.Halt(0)
	m, err := New(b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	si, err := m.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(si.PredWrites) != 2 {
		t.Fatalf("pred writes = %v", si.PredWrites)
	}
	if si.PredWrites[0] != (PredWrite{2, true}) || si.PredWrites[1] != (PredWrite{3, false}) {
		t.Errorf("pred writes = %v", si.PredWrites)
	}
	if !si.CmpValue {
		t.Error("CmpValue false")
	}
}

func TestDoWhileSemantics(t *testing.T) {
	// Body runs once even with a false condition, and loops while true.
	m, _ := run(t, func(b *prog.Builder) {
		b.Movi(1, 0)
		b.Movi(2, 0)
		b.DoWhile(prog.RI(isa.CmpGT, 1, 0), func() { b.Addi(2, 2, 1) })
		b.Movi(3, 3)
		b.Movi(4, 0)
		b.DoWhile(prog.RI(isa.CmpGT, 3, 0), func() {
			b.Addi(4, 4, 1)
			b.Subi(3, 3, 1)
		})
		b.Halt(0)
	})
	if m.Regs[2] != 1 {
		t.Errorf("false-condition do-while ran %d times, want 1", m.Regs[2])
	}
	if m.Regs[4] != 3 {
		t.Errorf("counting do-while ran %d times, want 3", m.Regs[4])
	}
}

func TestSwitchSemantics(t *testing.T) {
	for val, want := range map[int64]int64{1: 10, 2: 20, 9: 99} {
		m, _ := run(t, func(b *prog.Builder) {
			b.Movi(1, val)
			b.Switch(1, []prog.SwitchCase{
				{Value: 1, Body: func() { b.Movi(2, 10) }},
				{Value: 2, Body: func() { b.Movi(2, 20) }},
			}, func() { b.Movi(2, 99) })
			b.Halt(0)
		})
		if m.Regs[2] != want {
			t.Errorf("switch(%d) = %d, want %d", val, m.Regs[2], want)
		}
	}
}

func TestWhileLoopSemantics(t *testing.T) {
	m, _ := run(t, func(b *prog.Builder) {
		b.Movi(1, 4)
		b.Movi(2, 0)
		b.While(prog.RI(isa.CmpGT, 1, 0), func() {
			b.Add(2, 2, 1)
			b.Subi(1, 1, 1)
		})
		b.Halt(0)
	})
	if m.Regs[2] != 10 {
		t.Errorf("sum = %d, want 10", m.Regs[2])
	}
}

// TestConcurrentNewSharedProgram guards the contract that any number of
// goroutines may construct machines over one already-built program.
// New re-runs Resolve, and Resolve must perform no writes on an
// already-resolved program — the harness pipelines and sweeps build
// machines for the same program concurrently. Run under -race this
// test fails if Resolve ever writes unconditionally again.
func TestConcurrentNewSharedProgram(t *testing.T) {
	b := prog.NewBuilder("shared")
	b.Movi(1, 3)
	loop := b.NewLabel("loop")
	b.Label(loop)
	b.Subi(1, 1, 1)
	b.If(prog.RI(isa.CmpGT, 1, 0), func() {
		b.Br(loop)
	})
	b.Halt(0)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := New(p)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := m.Run(100000); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
