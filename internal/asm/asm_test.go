package asm

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/ifconv"
	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestParseBasicProgram(t *testing.T) {
	src := `
; sum 1..5
        movi r1 = 5
        movi r2 = 0
loop:
        add r2 = r2, r1
        sub r1 = r1, 1
        cmp.gt p1, p2 = r1, 0
        (p1) br loop
        out r2
        halt 0
`
	p, err := Parse("sum", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := emu.RunProgram(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 15 {
		t.Errorf("output = %v, want [15]", res.Output)
	}
}

func TestParseAllForms(t *testing.T) {
	src := `
.data 100 = 1 2 -3 0x10
start:
        nop
        add r1 = r2, r3
        add r1 = r2, -7
        sub r4 = r4, 1
        and r5 = r5, 0xff
        or r6 = r6, r1
        xor r7 = r7, r7
        shl r1 = r1, 2
        shr r1 = r1, 2
        sar r1 = r1, 1
        mul r2 = r2, 3
        div r2 = r2, r3
        mod r2 = r2, 7
        mov r9 = r1
        movi r10 = -42
        movi r11 = start
        cmp.eq p1, p2 = r1, r2
        cmp.ltu.unc p3, p4 = r1, 5
        cmp.ge.and p5, p6 = r1, r2
        cmp.ne.or p7, p8 = r1, 0
        ld r1 = [r2 + 8]
        st [r2 + -1] = r3
        (p3) br start
        br.region start
        brl r30 = start
        brr r30
        cloop r9, start
        cloop.region r9, start
        pand p9 = p1, p2
        por p10 = p3, p4
        pmov p11 = p5
        pinit p12 = 1
        out r1
        (p1) halt 3
        trap
`
	p, err := Parse("forms", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Insts) != 35 {
		t.Fatalf("parsed %d instructions", len(p.Insts))
	}
	if p.Data[100][3] != 16 {
		t.Errorf("hex data word = %d", p.Data[100][3])
	}
	// Spot checks.
	if in := p.Insts[1]; in.Op != isa.OpAdd || in.Src2 != 3 || in.HasImm {
		t.Errorf("add rr: %+v", in)
	}
	if in := p.Insts[2]; !in.HasImm || in.Imm != -7 {
		t.Errorf("add ri: %+v", in)
	}
	if in := p.Insts[15]; in.Op != isa.OpMovi || in.Imm != 0 && in.Label != "" {
		// movi r11 = start resolves to instruction index of "start".
		if in.Imm != 1 {
			t.Errorf("movi label: %+v", in)
		}
	}
	if in := p.Insts[17]; in.CT != isa.CmpUnc || in.CC != isa.CmpLTU {
		t.Errorf("cmp.ltu.unc: %+v", in)
	}
	if in := p.Insts[23]; !in.Region || in.Op != isa.OpBr {
		t.Errorf("br.region: %+v", in)
	}
	if in := p.Insts[27]; !in.Region || in.Op != isa.OpCloop {
		t.Errorf("cloop.region: %+v", in)
	}
	if in := p.Insts[33]; in.QP != 1 || in.Op != isa.OpHalt || in.Imm != 3 {
		t.Errorf("guarded halt: %+v", in)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus r1 = r2",
		"add r1 = r2",              // missing operand
		"add r1 = r2, r3 r4",       // trailing tokens
		"add r99 = r1, r2",         // bad register
		"cmp p1, p2 = r1, r2",      // missing condition
		"cmp.xx p1, p2 = r1, r2",   // bad condition
		"cmp.eq.zz p1, p2 = r1, 0", // bad type
		"br",                       // missing target
		"(p1 add r1 = r2, r3",      // unclosed guard
		"ld r1 = [r2 - 8]",         // bad addressing
		"pinit p1 = 2",             // bad pinit immediate (validate)
		"br nowhere",               // unresolved label
		"x:\nx:\nhalt 0",           // duplicate label
		".data abc = 1",            // bad base
		".data 5 = zz",             // bad word
	}
	for _, src := range cases {
		if _, err := Parse("t", src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse("t", "nop\nnop\nbogus\n")
	if err == nil {
		t.Fatal("no error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error lacks line number: %v", err)
	}
}

func TestLabelOnSameLine(t *testing.T) {
	p, err := Parse("t", "top: nop\n br top\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Labels["top"] != 0 || p.Insts[1].Target != 0 {
		t.Errorf("labels: %v, target %d", p.Labels, p.Insts[1].Target)
	}
}

func TestAbsoluteTarget(t *testing.T) {
	p, err := Parse("t", "br @1\nhalt 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Insts[0].Target != 1 {
		t.Errorf("target = %d", p.Insts[0].Target)
	}
}

// roundTrip checks Format -> Parse -> Format is a fixed point.
func roundTrip(t *testing.T, name string, text string) {
	t.Helper()
	p, err := Parse(name, text)
	if err != nil {
		t.Fatalf("%s: first parse: %v", name, err)
	}
	text1 := Format(p)
	p2, err := Parse(name, text1)
	if err != nil {
		t.Fatalf("%s: reparse: %v\n%s", name, err, text1)
	}
	text2 := Format(p2)
	if text1 != text2 {
		t.Fatalf("%s: format not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", name, text1, text2)
	}
}

func TestRoundTripWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		p := w.Build()
		roundTrip(t, w.Name, Format(p))
	}
}

func TestRoundTripConvertedWorkloads(t *testing.T) {
	// The converted programs exercise region marks, unc compares, pinit,
	// por, guarded everything.
	for _, w := range workload.All() {
		p := w.Build()
		cp, _, err := ifconv.Convert(p, ifconv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, w.Name+".ifc", Format(cp))
	}
}

func TestRoundTripSynth(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		p := workload.Synth(seed, 60)
		roundTrip(t, p.Name, Format(p))
	}
}

func TestParsedProgramBehavesIdentically(t *testing.T) {
	// Assembling the disassembly must give a behaviourally identical
	// program.
	for _, w := range workload.All() {
		p := w.Build()
		q, err := Parse(p.Name, Format(p))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		rp, err := emu.RunProgram(p, 3_000_000)
		if err != nil {
			t.Fatal(err)
		}
		rq, err := emu.RunProgram(q, 3_000_000)
		if err != nil {
			t.Fatalf("%s reassembled: %v", w.Name, err)
		}
		if rp.Steps != rq.Steps || len(rp.Output) != len(rq.Output) {
			t.Fatalf("%s: behaviour differs after round trip", w.Name)
		}
		for i := range rp.Output {
			if rp.Output[i] != rq.Output[i] {
				t.Fatalf("%s: output[%d] differs", w.Name, i)
			}
		}
	}
}

// TestParsedProgramTracesIdentically pins that assembly text is lossless
// for everything the experiments read: every workload, original and
// if-converted, traces to the same P64T bytes after Format and Parse.
func TestParsedProgramTracesIdentically(t *testing.T) {
	for _, w := range workload.All() {
		p := w.Build()
		cp, _, err := ifconv.Convert(p, ifconv.Config{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, c := range []struct {
			name string
			p    *prog.Program
		}{{w.Name, p}, {w.Name + ".ifc", cp}} {
			t.Run(c.name, func(t *testing.T) {
				q, err := Parse(c.p.Name, Format(c.p))
				if err != nil {
					t.Fatal(err)
				}
				want, wantBytes := collectP64T(t, c.p)
				got, gotBytes := collectP64T(t, q)
				if bytes.Equal(gotBytes, wantBytes) {
					return
				}
				for i := range min(len(got.Events), len(want.Events)) {
					if got.Events[i] != want.Events[i] {
						t.Fatalf("event %d differs after round trip: got %+v, want %+v", i, got.Events[i], want.Events[i])
					}
				}
				gotHead, wantHead := *got, *want
				gotHead.Events, wantHead.Events = nil, nil
				t.Fatalf("trace differs after round trip: got %d events, header %+v; want %d, header %+v",
					len(got.Events), gotHead, len(want.Events), wantHead)
			})
		}
	}
}

// collectP64T traces p and returns the trace with its P64T bytes.
func collectP64T(t *testing.T, p *prog.Program) (*trace.Trace, []byte) {
	t.Helper()
	tr, err := trace.Collect(p, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}
