package repro

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// These tests exercise the public facade end to end: the paths a
// downstream user of the library takes.

func TestFacadeWorkloadList(t *testing.T) {
	ws := Workloads()
	if len(ws) < 10 {
		t.Fatalf("workload suite too small: %d", len(ws))
	}
	if _, err := WorkloadByName("scan"); err != nil {
		t.Error(err)
	}
	if _, err := WorkloadByName("definitely-not"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestFacadeBuildRunConvertEvaluate(t *testing.T) {
	p := MustWorkload("classify").Build()
	res, err := Run(p, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Fatalf("exit %d", res.ExitCode)
	}
	cp, rep, err := IfConvert(p, IfConvConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalEliminated() == 0 {
		t.Error("nothing eliminated")
	}
	tr, err := CollectTrace(cp, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(tr, EvalConfig{Predictor: NewGShare(12, 8)})
	if m.Branches == 0 {
		t.Error("no branches evaluated")
	}
}

func TestFacadeAssembleDisassemble(t *testing.T) {
	src := "movi r1 = 5\nout r1\nhalt 0\n"
	p, err := Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 1 || res.Output[0] != 5 {
		t.Errorf("output %v", res.Output)
	}
	text := Disassemble(p)
	if !strings.Contains(text, "movi r1 = 5") {
		t.Errorf("disassembly wrong:\n%s", text)
	}
	if _, err := Assemble("t", text); err != nil {
		t.Errorf("disassembly does not reassemble: %v", err)
	}
}

// TestFacadeLoadProgram covers the tools' -w/-f loader: a workload by
// name wins over a file, a file is named without its ".s" suffix, and
// unknown names, missing files and an empty selection are errors.
func TestFacadeLoadProgram(t *testing.T) {
	path := filepath.Join(t.TempDir(), "five.s")
	if err := os.WriteFile(path, []byte("movi r1 = 5\nout r1\nhalt 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err := LoadProgram("scan", path); err != nil || p.Name != "scan" {
		t.Errorf("workload and file: err %v; want the scan workload", err)
	}
	if p, err := LoadProgram("", path); err != nil || p.Name != strings.TrimSuffix(path, ".s") {
		t.Errorf("file: err %v; want a program named after the file", err)
	}
	for _, c := range [][2]string{{"definitely-not", ""}, {"", path + ".missing"}, {"", ""}} {
		if _, err := LoadProgram(c[0], c[1]); err == nil {
			t.Errorf("LoadProgram(%q, %q) succeeded", c[0], c[1])
		}
	}
}

func TestFacadeBuilder(t *testing.T) {
	b := NewBuilder("facade")
	b.Movi(1, 2)
	b.Muli(2, 1, 21)
	b.Out(2)
	b.Halt(0)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Output[0] != 42 {
		t.Errorf("output %v", res.Output)
	}
}

func TestFacadeSynth(t *testing.T) {
	p := Synth(99, 30)
	if _, err := Run(p, 2_000_000); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePipeline(t *testing.T) {
	p := MustWorkload("stream").Build()
	st, err := RunPipeline(p, DefaultPipelineConfig(NewTournament(12, 8)), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.IPC() <= 0 || st.IPC() > 1 {
		t.Errorf("IPC = %f", st.IPC())
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) < 9 {
		t.Fatalf("only %d experiments", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.Title == "" || e.Paper == "" || e.Expect == "" {
			t.Errorf("%s lacks documentation fields", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment %s", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"E1", "E3", "E4", "E6"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if _, err := ExperimentByID("E3"); err != nil {
		t.Error(err)
	}
	if _, err := ExperimentByID("E99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeRunOneExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("suite build is slow for -short")
	}
	s, err := NewSuite(ExperimentConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ExperimentByID("E5")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e.Run(context.Background(), s, ExperimentConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		t.Fatal("experiment produced no data")
	}
	md := tables[0].Markdown()
	if !strings.Contains(md, "|") {
		t.Error("markdown rendering broken")
	}
}

func TestFacadeSFPFDirectUse(t *testing.T) {
	f := NewSFPF()
	f.FetchDef(3)
	if known, _ := f.Lookup(3); known {
		t.Error("in-flight predicate reported known")
	}
	f.Resolve(3, true)
	if known, val := f.Lookup(3); !known || !val {
		t.Error("resolved predicate not known true")
	}
}
