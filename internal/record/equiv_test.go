// External test package: the views derived from a recording (trace,
// profile) import this package, and the programs under test come from
// workload and ifconv.
package record_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/charz"
	"repro/internal/emu"
	"repro/internal/ifconv"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/record"
	"repro/internal/trace"
	"repro/internal/workload"
)

// equivLimit is the experiments' default step limit.
const equivLimit = 3_000_000

// refTrace is an event stream built straight off the emulator, one
// StepInfo at a time, with the predicate writes the emulator reports:
// the reference the recording-derived traces must reproduce. It shares
// no code with the recording.
func refTrace(p *prog.Program, limit uint64) (*trace.Trace, error) {
	var branchGuards, regionGuards uint64
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.IsBranch() && in.QP != isa.P0 {
			branchGuards |= 1 << in.QP
			if in.Region {
				regionGuards |= 1 << in.QP
			}
		}
	}
	m, err := emu.New(p)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{Name: p.Name}
	var lastDef [isa.NumPRegs]uint64
	for !m.Halted {
		if limit > 0 && m.Steps >= limit {
			return nil, fmt.Errorf("trace: %w (%d steps in %s)", emu.ErrLimit, m.Steps, p.Name)
		}
		step := m.Steps
		si, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		in := si.Inst
		switch {
		case in.Op == isa.OpCmp:
			tr.Events = append(tr.Events, trace.Event{
				Kind:              trace.KindPredDef,
				Step:              step,
				PC:                uint64(si.Index),
				Executed:          si.GuardTrue,
				Value:             si.CmpValue,
				FeedsBranch:       branchGuards&(1<<in.PD1|1<<in.PD2) != 0,
				FeedsRegionBranch: regionGuards&(1<<in.PD1|1<<in.PD2) != 0,
			})
			tr.PredDefs++
		case (in.Op == isa.OpBr || in.Op == isa.OpBrl) && in.QP != isa.P0, in.Op == isa.OpCloop:
			tr.Events = append(tr.Events, trace.Event{
				Kind:              trace.KindBranch,
				Step:              step,
				PC:                uint64(si.Index),
				Taken:             si.Taken,
				Guard:             in.QP,
				GuardVal:          si.GuardTrue,
				GuardDist:         step - lastDef[in.QP],
				Region:            in.Region,
				GuardImpliesTaken: in.Op != isa.OpCloop,
			})
			tr.Branches++
			if in.Region {
				tr.RegionBranches++
			}
		}
		for _, w := range si.PredWrites {
			lastDef[w.P] = step
		}
	}
	tr.Insts, tr.Nullified = m.Steps, m.Nullified
	return tr, nil
}

// refProfile is the profile built straight off the emulator: the
// reference profile.FromRecording must reproduce.
func refProfile(pr *prog.Program, pred bpred.Predictor, limit uint64) (*profile.Profile, error) {
	pred.Reset()
	m, err := emu.New(pr)
	if err != nil {
		return nil, err
	}
	p := &profile.Profile{
		Exec:       make([]uint64, len(pr.Insts)),
		Taken:      make([]uint64, len(pr.Insts)),
		Mispredict: make([]uint64, len(pr.Insts)),
	}
	for !m.Halted {
		if limit > 0 && m.Steps >= limit {
			return nil, fmt.Errorf("profile: %w (%d steps in %s)", emu.ErrLimit, m.Steps, pr.Name)
		}
		si, err := m.Step()
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		p.Exec[si.Index]++
		in := si.Inst
		if !in.IsBranch() {
			continue
		}
		if si.Taken {
			p.Taken[si.Index]++
		}
		if (in.Op == isa.OpBr || in.Op == isa.OpBrl) && in.QP != isa.P0 || in.Op == isa.OpCloop {
			if pred.Predict(uint64(si.Index)) != si.Taken {
				p.Mispredict[si.Index]++
			}
			pred.Update(uint64(si.Index), si.Taken)
		}
	}
	p.Insts = m.Steps
	return p, nil
}

// equivProgram is one program of the equivalence matrix.
type equivProgram struct {
	name string
	p    *prog.Program
}

// equivPrograms returns every suite program in its four experiment forms
// (original, greedy conversion, profile-guided conversion, conversion
// without compare scheduling) and every synthetic catalog point.
func equivPrograms(t *testing.T) []equivProgram {
	t.Helper()
	var out []equivProgram
	for _, w := range workload.Suite() {
		orig := w.Build()
		conv, _, err := ifconv.Convert(orig, ifconv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		prof, err := refProfile(orig, bpred.NewGShare(12, 8), equivLimit)
		if err != nil {
			t.Fatal(err)
		}
		profiled, _, err := ifconv.Convert(orig, ifconv.Config{Profile: prof})
		if err != nil {
			t.Fatal(err)
		}
		unsched, _, err := ifconv.Convert(orig, ifconv.Config{NoCompareScheduling: true})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out,
			equivProgram{w.Name + "/orig", orig},
			equivProgram{w.Name + "/conv", conv},
			equivProgram{w.Name + "/profiled", profiled},
			equivProgram{w.Name + "/unscheduled", unsched})
	}
	for _, n := range charz.CatalogNames() {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, equivProgram{n, w.Build()})
	}
	return out
}

// TestDerivedMatchesEmulator is the recording's equivalence gate: for
// every suite program in all four forms and every synthetic catalog
// point, the trace derived from one recording (Collect), the live
// stream (Stream) and the emulator-built reference carry identical
// events and counts, and the derived profile equals the reference
// profile.
func TestDerivedMatchesEmulator(t *testing.T) {
	progs := equivPrograms(t)
	if testing.Short() {
		progs = progs[:8]
	}
	for _, c := range progs {
		want, err := refTrace(c.p, equivLimit)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		x, err := record.Program(c.p, equivLimit)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, err := trace.FromRecording(x)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: derived trace differs from the reference (%d vs %d events, counts %+v vs %+v)",
				c.name, len(got.Events), len(want.Events), got.Counts(), want.Counts())
			continue
		}
		r := trace.Stream(c.p, equivLimit).Replay()
		var ev trace.Event
		i := 0
		for r.Next(&ev) {
			if i >= len(want.Events) || ev != want.Events[i] {
				t.Fatalf("%s: streamed event %d differs from the reference", c.name, i)
			}
			i++
		}
		if r.Err() != nil || i != len(want.Events) || r.Counts() != want.Counts() {
			t.Errorf("%s: stream ended after %d of %d events with %v, counts %+v vs %+v",
				c.name, i, len(want.Events), r.Err(), r.Counts(), want.Counts())
		}

		wantProf, err := refProfile(c.p, bpred.NewGShare(12, 8), equivLimit)
		if err != nil {
			t.Fatalf("%s: reference profile: %v", c.name, err)
		}
		gotProf, err := profile.FromRecording(x, bpred.NewGShare(12, 8))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(gotProf, wantProf) {
			t.Errorf("%s: derived profile differs from the reference", c.name)
		}
	}
}

// writeRules loops over every compare type under true and false guards,
// plus the predicate-manipulation defines, and branches on each
// destination a few steps later: a branch's GuardDist tells when its
// guard was last written, so a wrong write rule for any compare type or
// guard value changes an event.
func writeRules() *prog.Program {
	b := prog.NewBuilder("writerules")
	cmp := func(qp isa.PReg, ct isa.CmpType, cc isa.CmpCond, pd1, pd2 isa.PReg, src isa.Reg, imm int64) {
		b.Emit(isa.Inst{Op: isa.OpCmp, QP: qp, CT: ct, CC: cc, PD1: pd1, PD2: pd2, Src1: src, Imm: imm, HasImm: true})
	}
	b.Movi(1, 16)
	b.Label("loop")
	b.Andi(2, 1, 1)
	b.Andi(3, 1, 2)
	cmp(isa.P0, isa.CmpNorm, isa.CmpEQ, 1, 2, 2, 0)
	cmp(1, isa.CmpAnd, isa.CmpEQ, 3, 4, 3, 0)
	cmp(2, isa.CmpOr, isa.CmpNE, 3, 4, 3, 0)
	cmp(1, isa.CmpUnc, isa.CmpEQ, 5, 6, 3, 2)
	cmp(2, isa.CmpNorm, isa.CmpEQ, 9, 10, 3, 2)
	b.Emit(isa.Inst{Op: isa.OpPinit, QP: 2, PD1: 7, Imm: 1})
	b.Emit(isa.Inst{Op: isa.OpPand, QP: 1, PD1: 11, PS1: 3, PS2: 5})
	b.Emit(isa.Inst{Op: isa.OpPor, QP: 2, PD1: 12, PS1: 4, PS2: 6})
	b.Emit(isa.Inst{Op: isa.OpPmov, QP: 1, PD1: 13, PS1: 4})
	b.Nop()
	for i, p := range []isa.PReg{3, 4, 5, 6, 7, 9, 10, 11, 12, 13} {
		l := fmt.Sprintf("next%d", i)
		b.BrIf(p, l)
		b.Label(l)
	}
	b.Subi(1, 1, 1)
	cmp(isa.P0, isa.CmpNorm, isa.CmpGT, 8, 14, 1, 0)
	b.BrIf(8, "loop")
	b.Halt(0)
	return b.MustProgram()
}

// TestDerivedWriteRules checks the recording's predicate-write rules
// against the emulator's own writes on writeRules, where every compare
// type meets both guard values (the suite's programs use only some).
func TestDerivedWriteRules(t *testing.T) {
	p := writeRules()
	want, err := refTrace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Collect(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want.Events {
			if i < len(got.Events) && got.Events[i] != want.Events[i] {
				t.Fatalf("event %d:\n derived %+v\n     ref %+v", i, got.Events[i], want.Events[i])
			}
		}
		t.Fatalf("derived trace differs: %+v vs %+v", got.Counts(), want.Counts())
	}
}

// divZero loops a few times, then divides by a zero loaded from memory.
func divZero() *prog.Program {
	b := prog.NewBuilder("divzero")
	b.Movi(1, 6)
	b.CountedLoop(5, 7, func() {
		b.If(prog.RI(isa.CmpLT, 1, 4), func() { b.Addi(1, 1, 3) })
		b.Subi(1, 1, 1)
	})
	b.Movi(6, 900)
	b.Ld(2, 6, 0)
	b.Div(3, 1, 2)
	b.Halt(0)
	return b.MustProgram()
}

// TestDerivedErrorText pins the error text of every view for a limit
// stop and for an emulator fault, and checks it against the references:
// deriving from a recording changes no message.
func TestDerivedErrorText(t *testing.T) {
	scan := workload.ByNameMust("scan").Build()
	cases := []struct {
		name  string
		p     *prog.Program
		limit uint64
		trace string
		prof  string
	}{
		{"limit", scan, 1000,
			"trace: emu: instruction limit exceeded (1000 steps in scan)",
			"profile: emu: instruction limit exceeded (1000 steps in scan)"},
		{"fault", divZero(), 0,
			`trace: emu: division by zero at divzero[9] "div r3 = r1, r2"`,
			`profile: emu: division by zero at divzero[9] "div r3 = r1, r2"`},
	}
	for _, c := range cases {
		_, refErr := refTrace(c.p, c.limit)
		_, collectErr := trace.Collect(c.p, c.limit)
		r := trace.Stream(c.p, c.limit).Replay()
		var ev trace.Event
		for r.Next(&ev) {
		}
		for _, got := range []error{refErr, collectErr, r.Err()} {
			if got == nil || got.Error() != c.trace {
				t.Errorf("%s: trace error %v, want %q", c.name, got, c.trace)
			}
		}
		_, refErr = refProfile(c.p, bpred.NewGShare(12, 8), c.limit)
		_, collectErr = profile.Collect(c.p, nil, c.limit)
		for _, got := range []error{refErr, collectErr} {
			if got == nil || got.Error() != c.prof {
				t.Errorf("%s: profile error %v, want %q", c.name, got, c.prof)
			}
		}
	}
}
