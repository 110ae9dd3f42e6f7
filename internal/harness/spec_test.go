package harness

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/charz"
	"repro/internal/workload"
)

func ids(exps []Experiment) string {
	parts := make([]string, len(exps))
	for i, e := range exps {
		parts[i] = e.ID
	}
	return strings.Join(parts, ",")
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(All()) {
		t.Fatalf("Select(\"\") returned %d experiments, want %d", len(all), len(All()))
	}

	cases := []struct {
		expr string
		want string
	}{
		{"E3", "E3"},
		{"E2a", "E2"}, // table name resolves to its experiment
		{"E3b", "E3"}, //
		{"E2a,E5", "E2,E5"},
		{"E5, E2", "E5,E2"}, // order preserved, spaces tolerated
		{"E3-E7", "E3,E4,E5,E6,E7"},
		{"E5,E3-E4,E5", "E5,E3,E4"}, // duplicates collapse, first position wins
		{"E13-E14", "E13,E14"},
		{"E8-E10", "E8,E9,E10"}, // natural order, not lexical
		{"E1,,E2", "E1,E2"},     // empty tokens are tolerated
	}
	for _, c := range cases {
		got, err := Select(c.expr)
		if err != nil {
			t.Errorf("Select(%q): %v", c.expr, err)
			continue
		}
		if ids(got) != c.want {
			t.Errorf("Select(%q) = %s, want %s", c.expr, ids(got), c.want)
		}
	}

	for _, expr := range []string{"E99", "nope", "E7-E3", "E1-", "-E3", "E1-E2-E3", ","} {
		if got, err := Select(expr); err == nil {
			t.Errorf("Select(%q) accepted: %s", expr, ids(got))
		}
	}
}

// TestSpecDeterministicOutput runs one spec-driven experiment twice and
// requires byte-identical rendering: the engine's fan-out over the
// worker pool must not leak scheduling order into row order.
func TestSpecDeterministicOutput(t *testing.T) {
	s := testSuite(t)
	cfg := Config{Quick: true}
	e, err := ByID("E5")
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		tables, err := e.Run(context.Background(), s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tb := range tables {
			sb.WriteString(tb.CSV())
		}
		return sb.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("two runs of E5 rendered differently:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestSpecQuickTrimming checks both trimming axes: FullOnly variants
// drop out of sweeps, and FullOnly tables disappear entirely.
func TestSpecQuickTrimming(t *testing.T) {
	s := testSuite(t)

	e3, _ := ByID("E3")
	full := e3.Spec.ActiveVariants(Config{})
	quick := e3.Spec.ActiveVariants(Config{Quick: true})
	if len(quick) >= len(full) {
		t.Fatalf("quick kept %d of %d variants", len(quick), len(full))
	}
	tables, err := e3.Run(context.Background(), s, Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("E3 quick produced %d tables, want 2", len(tables))
	}
	if got := len(tables[1].Rows); got != 2 {
		t.Fatalf("E3b quick has %d sweep rows, want 2 (table bits 6 and 12)", got)
	}

	e2, _ := ByID("E2")
	tables, err = e2.Run(context.Background(), s, Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("E2 quick produced %d tables, want 2 (E2c is full-only)", len(tables))
	}
	for _, tb := range tables {
		if strings.Contains(tb.Title, "E2c") {
			t.Fatalf("full-only table rendered in quick mode: %s", tb.Title)
		}
	}
}

func TestSpecContextCancellation(t *testing.T) {
	s := testSuite(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, _ := ByID("E5")
	if _, err := e.Run(ctx, s, Config{Quick: true}); err == nil {
		t.Fatal("cancelled context did not abort the spec run")
	}
}

// TestSpecMissingWorkloadErrors: a spec naming a workload that does
// not exist fails with the workload lookup's own error, and neither the
// valid synthetic name beside it nor any cell is memoized.
func TestSpecMissingWorkloadErrors(t *testing.T) {
	for _, bad := range []string{"no-such-workload", "syn:no-such-family"} {
		s := &Suite{cfg: Config{}.withDefaults()}
		spec := Spec{
			ID: "EX", Title: "x", Workloads: []string{charz.CatalogNames()[0], bad},
			Variants: []Variant{{Key: "a"}},
			Tables:   []TableSpec{{Title: "x", Shape: RowsPerEntry, Cols: []Col{workloadCol()}}},
		}
		_, err := spec.Experiment().Run(context.Background(), s, Config{})
		_, want := workload.ByName(bad)
		if err == nil || want == nil {
			t.Fatalf("%s: run err %v, lookup err %v: want both non-nil", bad, err, want)
		}
		if !strings.Contains(err.Error(), bad) || !unwrapsTo(err, want) {
			t.Errorf("%s: err %q does not wrap the lookup error %q", bad, err, want)
		}
		if len(s.extra) != 0 || memoLen(s) != 0 {
			t.Errorf("%s: failed run memoized %d entries and %d cells", bad, len(s.extra), memoLen(s))
		}
	}
}

// unwrapsTo reports whether err's %w chain reaches an error rendering
// exactly as want (lookup errors are built per call, so identity
// comparison cannot apply).
func unwrapsTo(err, want error) bool {
	for ; err != nil; err = errors.Unwrap(err) {
		if err.Error() == want.Error() {
			return true
		}
	}
	return false
}

func TestConfigHash(t *testing.T) {
	e, _ := ByID("E3")
	full := e.ConfigHash(Config{})
	again := e.ConfigHash(Config{})
	quick := e.ConfigHash(Config{Quick: true})
	limited := e.ConfigHash(Config{Limit: 1000})
	if full != again {
		t.Fatal("hash not stable across calls")
	}
	if full == quick {
		t.Fatal("quick trimming must change the hash (different grid)")
	}
	if full == limited {
		t.Fatal("a different step limit must change the hash")
	}
	other, _ := ByID("E4")
	if e.ConfigHash(Config{}) == other.ConfigHash(Config{}) {
		t.Fatal("different experiments share a hash")
	}
}

// TestConfigHashesPinned pins every experiment's quick and full hash.
// The results store keys records on these hashes, so a refactor of the
// hashed document (a field dropped, renamed or reordered) must not move
// them: stored runs would stop matching their experiments.
func TestConfigHashesPinned(t *testing.T) {
	want := []struct{ id, quick, full string }{
		{"E1", "61063f8f8bd169d5", "773f0cc7c57fb57f"},
		{"E2", "0f626413284a6d86", "1112601cf6a2f365"},
		{"E3", "69bd14c3f86b3da2", "90d409e5e8f5077a"},
		{"E4", "cd9d6ce33a308d92", "3abca2c6b63057c7"},
		{"E5", "584f3f44449baa5c", "bd1c611aecdeaa82"},
		{"E6", "8eea2c6a1695b6ac", "d4b5cdcf313cf665"},
		{"E7", "684ad3efe374b056", "774c212dd8384867"},
		{"E8", "dbfc1dd779417245", "22715b9f48e0e582"},
		{"E9", "a88bbd475c404d93", "6595f012643354bd"},
		{"E10", "a5718130c9a9ee36", "ad24d24865f88338"},
		{"E11", "553130fb8b4e0c4a", "17cd85086f374dae"},
		{"E12", "3e5b36d904d170dc", "c050de2743697230"},
		{"E13", "d79808c685626c60", "fa5d4ddf731833db"},
		{"E14", "0275f939883364da", "e79ee2c30278113d"},
		{"E15", "a726289c2e275bc5", "8559bf80e3030d14"},
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments registered, %d pinned", len(all), len(want))
	}
	for i, w := range want {
		e := all[i]
		if e.ID != w.id {
			t.Fatalf("experiment %d is %s, want %s", i, e.ID, w.id)
		}
		if got := e.ConfigHash(Config{Quick: true}); got != w.quick {
			t.Errorf("%s quick hash %s, want %s", e.ID, got, w.quick)
		}
		if got := e.ConfigHash(Config{}); got != w.full {
			t.Errorf("%s full hash %s, want %s", e.ID, got, w.full)
		}
	}
}
