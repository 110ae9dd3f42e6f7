package harness

import (
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestGoldenCSVs regenerates every experiment's CSV output in memory and
// diffs it byte-for-byte against the checked-in results/*.csv files.
// This is the repository's regression gate: any change to the emulator,
// the if-converter, a predictor, the evaluation loop or the stats
// formatting that moves a published number shows up here as a diff, not
// as a silently drifting results directory. When a change is intentional,
// regenerate with `go run ./cmd/experiments -outdir results` and commit
// the new files alongside the code.
//
// Each experiment is its own subtest, so `-run 'TestGoldenCSVs/E2$'`
// re-checks one experiment and a failure names the experiment, not just
// the file.
func TestGoldenCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	if _, err := os.Stat(resultsDir); err != nil {
		t.Skipf("no results directory: %v", err)
	}

	s := testSuite(t)
	claimed := make(map[string]bool) // file base names experiments generate
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			for _, name := range checkGolden(t, s, e) {
				claimed[name] = true
			}
		})
	}

	t.Run("no-stale-files", func(t *testing.T) {
		entries, err := os.ReadDir(resultsDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			if ent.IsDir() || filepath.Ext(ent.Name()) != ".csv" {
				continue
			}
			if !claimed[ent.Name()] {
				t.Errorf("stale file results/%s: no experiment generates it", ent.Name())
			}
		}
	})
}

// resultsDir holds the checked-in experiment CSVs.
var resultsDir = filepath.Join("..", "..", "results")

// checkGolden runs e on s with the default config and diffs each of its
// tables byte-for-byte against results/; it returns the tables' CSV
// file names.
func checkGolden(t *testing.T, s *Suite, e Experiment) []string {
	t.Helper()
	tables, err := e.Run(context.Background(), s, Config{}.withDefaults())
	if err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	return diffGolden(t, Result{Experiment: e, Tables: tables})
}

// diffGolden diffs each of r's tables byte-for-byte against results/
// and returns the tables' CSV file names.
func diffGolden(t *testing.T, r Result) []string {
	t.Helper()
	names := make([]string, len(r.Tables))
	for i, tb := range r.Tables {
		name := r.TableName(i) + ".csv"
		names[i] = name
		got, err := os.ReadFile(filepath.Join(resultsDir, name))
		if err != nil {
			t.Errorf("missing file results/%s: experiment output not checked in (%v)", name, err)
			continue
		}
		if string(got) != tb.CSV() {
			t.Errorf("results/%s differs from regenerated output (intentional? regenerate with `go run ./cmd/experiments -outdir results`)", name)
		}
	}
	return names
}

// TestQuickGoldenCSVs runs, on a fresh suite built under the quick
// config, every experiment whose quick run keeps all its variants and
// tables, and diffs its output byte-for-byte against the committed
// full-mode results/*.csv. Quick mode may only drop sweep points: if it
// changed anything else a kept cell depends on (the step limit, the
// workload set, the suite's preparation), these experiments would
// render differently from their full runs.
func TestQuickGoldenCSVs(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment suite in -short mode")
	}
	if _, err := os.Stat(resultsDir); err != nil {
		t.Skipf("no results directory: %v", err)
	}

	var exps []Experiment
	for _, e := range All() {
		if quickUntrimmed(e) {
			exps = append(exps, e)
		}
	}
	if !slices.ContainsFunc(exps, func(e Experiment) bool { return e.ID == "E5" }) {
		t.Fatalf("E5 is trimmed in quick mode; untrimmed set: %s", ids(exps))
	}
	res, err := RunSelected(context.Background(), Config{Quick: true}, exps)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		t.Run(r.Experiment.ID, func(t *testing.T) { diffGolden(t, r) })
	}
}

// quickUntrimmed reports whether a quick run of e evaluates every
// declared variant and renders every declared table.
func quickUntrimmed(e Experiment) bool {
	if len(e.ActiveVariants(Config{Quick: true})) != len(e.Variants) {
		return false
	}
	return !slices.ContainsFunc(e.Tables, func(ts TableSpec) bool { return ts.FullOnly })
}
