package harness

import (
	"context"
	"os"
	"path/filepath"
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
	r := Result{Experiment: e, Tables: tables}
	names := make([]string, len(tables))
	for i, tb := range tables {
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
