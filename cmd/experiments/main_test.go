package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, id := range []string{"E1", "E3", "E12"} {
		if !strings.Contains(out, id) {
			t.Errorf("listing missing %s:\n%s", id, out)
		}
	}
}

func TestSingleExperimentMarkdown(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-id", "E1", "-format", "markdown", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "=== E1:") || !strings.Contains(out, "| workload |") {
		t.Errorf("markdown output wrong:\n%s", out)
	}
}

func TestSingleExperimentCSV(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-id", "E8", "-format", "csv", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "policy,rate") {
		t.Errorf("csv output wrong:\n%s", sb.String())
	}
}

func TestIDListAndRange(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-id", "E2a,E8", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "=== E2:") || !strings.Contains(out, "=== E8:") {
		t.Errorf("comma list did not run both experiments:\n%s", out)
	}
	if strings.Contains(out, "=== E5:") {
		t.Errorf("comma list ran an unselected experiment:\n%s", out)
	}

	sb.Reset()
	if err := run([]string{"-id", "E9-E10", "-quick"}, &sb); err != nil {
		t.Fatal(err)
	}
	out = sb.String()
	if !strings.Contains(out, "=== E9:") || !strings.Contains(out, "=== E10:") {
		t.Errorf("range did not run both experiments:\n%s", out)
	}
}

func TestErrors(t *testing.T) {
	var sb strings.Builder
	for _, args := range [][]string{
		{"-id", "E99"},
		{"-id", "E7-E3"},
		{"-format", "nope", "-id", "E1"},
	} {
		if err := run(args, &sb); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

func TestOutdirWritesCSVs(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	if err := run([]string{"-id", "E3", "-quick", "-outdir", dir}, &sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"E3a.csv", "E3b.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
		if !strings.Contains(string(data), "workload") && !strings.Contains(string(data), "table bits") {
			t.Errorf("%s lacks a header:\n%s", name, data)
		}
	}
}
