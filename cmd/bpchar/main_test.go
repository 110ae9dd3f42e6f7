package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run %v: %v\noutput:\n%s", args, err, sb.String())
	}
	return sb.String()
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nonsense"},
		{"characterize"}, // neither -w nor -trace
		{"characterize", "-w", "x", "-trace", "y"}, // both
		{"characterize", "-w", "nope-such-workload"},
		{"characterize", "-w", "scan", "-depths", "1,zap"},
		{"generate", "-point", "syn:bogus:p=1"},
		{"probe"},
		{"probe", "-spec", "gshare:1:1", "-all"},
		{"probe", "-spec", "martian:3"},
	} {
		var sb strings.Builder
		if err := run(args, &sb); err == nil {
			t.Errorf("run %v succeeded, want error", args)
		}
	}
}

func TestCharacterizeSynthetic(t *testing.T) {
	out := runOut(t, "characterize", "-w", "syn:periodic:pat=110", "-branches")
	if !strings.Contains(out, "syn:periodic:pat=110") {
		t.Errorf("workload name missing from output:\n%s", out)
	}
	if !strings.Contains(out, "aggregate") {
		t.Errorf("no aggregate row:\n%s", out)
	}
	// A clean period-3 pattern is fully determined by 4 bits of history.
	if !strings.Contains(out, "H(Y|h4)") {
		t.Errorf("conditioned-entropy columns missing:\n%s", out)
	}
}

// TestCharacterizeGolden pins characterize's report byte for byte. The
// synthetic point is spelled non-canonically ("eps=0.020", an explicit
// default seed): the report names the workload as the user typed it,
// not by its canonical name.
func TestCharacterizeGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"characterize-syn-lag.golden", []string{"characterize", "-w", "syn:lag:k=6:eps=0.020:seed=1"}},
		{"characterize-scan-branches.golden", []string{"characterize", "-w", "scan", "-branches"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := runOut(t, c.args...); got != string(want) {
			t.Errorf("%v: report differs from %s\ngot:\n%s\nwant:\n%s", c.args, c.golden, got, want)
		}
	}
}

func TestGenerateListAndRoundTripThroughFile(t *testing.T) {
	list := runOut(t, "generate", "-list")
	if !strings.Contains(list, "syn:bias:p=0.7") || !strings.Contains(list, "syn:xcorr:eps=0.02") {
		t.Errorf("catalog listing incomplete:\n%s", list)
	}

	path := filepath.Join(t.TempDir(), "lag.trace")
	gen := runOut(t, "generate", "-point", "syn:lag:k=3:eps=0:n=512", "-o", path)
	if !strings.Contains(gen, "point: syn:lag:k=3:eps=0:n=512") {
		t.Errorf("canonical point name missing:\n%s", gen)
	}
	if !strings.Contains(gen, "wrote "+path) {
		t.Errorf("trace file not reported written:\n%s", gen)
	}
	// The serialized trace characterizes identically through -trace.
	ch := runOut(t, "characterize", "-trace", path)
	if !strings.Contains(ch, "branch events") {
		t.Errorf("trace-file characterization failed:\n%s", ch)
	}
}

func TestGenerateSolvesTarget(t *testing.T) {
	// A balanced structured target solves to the lag family.
	out := runOut(t, "generate", "-rate", "0.5", "-cond", "0.3", "-depth", "5")
	if !strings.Contains(out, "point: syn:lag:k=5:") {
		t.Errorf("target did not solve to lag-5:\n%s", out)
	}
}

func TestProbeAllKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("probe sweep in -short mode")
	}
	out := runOut(t, "probe", "-all")
	if strings.Count(out, "[ok]") != strings.Count(out, "\n") {
		t.Errorf("not every probed kind verified ok:\n%s", out)
	}
	for _, kind := range []string{"gshare", "tournament", "perceptron"} {
		if !strings.Contains(out, kind) {
			t.Errorf("kind %s missing from probe -all output:\n%s", kind, out)
		}
	}
}

func TestProbeSingleSpec(t *testing.T) {
	out := runOut(t, "probe", "-spec", "gselect:10:4")
	if !strings.Contains(out, "histbits=4") || !strings.Contains(out, "tablebits=10") {
		t.Errorf("probe inferred wrong structure:\n%s", out)
	}
	if !strings.Contains(out, "[ok]") {
		t.Errorf("probe verdict not ok:\n%s", out)
	}
}

func TestVersionFlag(t *testing.T) {
	if out := runOut(t, "-version"); !strings.Contains(out, "bpchar") {
		t.Errorf("version output: %q", out)
	}
}
