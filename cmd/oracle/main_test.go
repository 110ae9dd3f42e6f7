package main

import (
	"strings"
	"testing"
)

func TestRunFullMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full oracle matrix in -short mode")
	}
	var out strings.Builder
	if err := run([]string{"-events", "4000", "-synth", "2"}, &out); err != nil {
		t.Fatalf("oracle diverged: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"ref:gshare", "ref:perceptron", "reset:agree",
		"doubling:bimodal", "interleave:taken",
		"roundtrip:scan", "refeval:scan", "fastpath:scan",
		"refeval:synth-1", "sweep:serial-vs-parallel",
		"0 divergences",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(got, "FAIL") {
		t.Errorf("unexpected FAIL lines:\n%s", got)
	}
}

func TestRunKindSubset(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-events", "1500", "-kinds", "bimodal, gag", "-synth", "0"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "ref:bimodal") || !strings.Contains(got, "ref:gag") {
		t.Errorf("kind subset not honoured:\n%s", got)
	}
	if strings.Contains(got, "ref:gshare") {
		t.Errorf("-kinds did not restrict the reference checks:\n%s", got)
	}
}

func TestRunRejectsUnknownKind(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-kinds", "nonesuch"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown predictor kind") {
		t.Fatalf("bad -kinds accepted: %v", err)
	}
}
