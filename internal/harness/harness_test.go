package harness

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = NewSuite(Config{})
	})
	if suiteErr != nil {
		t.Fatal(suiteErr)
	}
	return suite
}

func TestSuitePreparation(t *testing.T) {
	s := testSuite(t)
	if len(s.Entries) < 10 {
		t.Fatalf("suite has %d entries", len(s.Entries))
	}
	for _, e := range s.Entries {
		if e.Orig == nil || e.Conv == nil || e.OrigTrace == nil || e.ConvTrace == nil {
			t.Fatalf("%s incompletely prepared", e.Name)
		}
		if e.OrigTrace.Branches == 0 {
			t.Errorf("%s: empty original trace", e.Name)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) < 9 {
		t.Fatalf("%d experiments registered", len(all))
	}
	for i, e := range all {
		if i > 0 && idOrd(all[i-1].ID) >= idOrd(e.ID) {
			t.Errorf("experiments not in natural order: %s then %s", all[i-1].ID, e.ID)
		}
		if e.Spec == nil {
			t.Errorf("%s has no Spec", e.ID)
		}
	}
	if _, err := ByID("E1"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	s := testSuite(t)
	cfg := Config{Quick: true}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables, err := e.Run(context.Background(), s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Columns) == 0 || len(tb.Rows) == 0 {
					t.Errorf("empty table %q", tb.Title)
				}
			}
		})
	}
}

// The remaining tests assert the *scientific shapes* the reproduction is
// supposed to show (see DESIGN.md). They are the executable form of
// EXPERIMENTS.md.

func TestShapeE1ConversionRemovesBranches(t *testing.T) {
	s := testSuite(t)
	var before, after uint64
	for _, e := range s.Entries {
		before += e.OrigTrace.Branches
		after += e.ConvTrace.Branches
	}
	if float64(after) > 0.85*float64(before) {
		t.Errorf("conversion removed too little: %d -> %d dynamic branches", before, after)
	}
}

func TestShapeE3FilterNeverWrong(t *testing.T) {
	s := testSuite(t)
	var filtered, errors uint64
	for _, e := range s.Entries {
		m := core.Evaluate(e.ConvTrace, core.EvalConfig{
			Predictor: newGshare(), UseSFPF: true, FilterTrue: true,
			ResolveDelay: defResolve,
		})
		filtered += m.Filtered + m.FilteredTrue
		errors += m.FilterErrors
	}
	if filtered == 0 {
		t.Fatal("the filter never fired anywhere in the suite")
	}
	if errors != 0 {
		t.Fatalf("filter errors: %d — the 100%% accuracy claim fails", errors)
	}
}

func TestShapeE3FilterHelpsSomewhere(t *testing.T) {
	s := testSuite(t)
	helped := false
	for _, e := range s.Entries {
		base := core.Evaluate(e.ConvTrace, core.EvalConfig{Predictor: newGshare()})
		f := core.Evaluate(e.ConvTrace, core.EvalConfig{
			Predictor: newGshare(), UseSFPF: true, ResolveDelay: defResolve,
		})
		if f.Mispredicts < base.Mispredicts*9/10 && base.Mispredicts > 100 {
			helped = true
		}
		if f.Mispredicts > base.Mispredicts+base.Mispredicts/20+5 {
			t.Errorf("%s: SFPF made things notably worse: %d -> %d",
				e.Name, base.Mispredicts, f.Mispredicts)
		}
	}
	if !helped {
		t.Error("SFPF helped nowhere in the suite")
	}
}

func TestShapeE4PGUHelpsCorrelatedWorkloads(t *testing.T) {
	s := testSuite(t)
	for _, name := range []string{"corr", "bsearch"} {
		var entry *Entry
		for _, e := range s.Entries {
			if e.Name == name {
				entry = e
			}
		}
		if entry == nil {
			t.Fatalf("workload %s missing", name)
		}
		base := core.Evaluate(entry.ConvTrace, core.EvalConfig{Predictor: newGshare()})
		pgu := core.Evaluate(entry.ConvTrace, core.EvalConfig{
			Predictor: newGshare(), PGU: core.PGUAll, PGUDelay: defPGUDelay,
		})
		if pgu.Mispredicts*10 > base.Mispredicts*9 {
			t.Errorf("%s: PGU did not clearly help: %d -> %d mispredicts",
				name, base.Mispredicts, pgu.Mispredicts)
		}
	}
}

func TestShapeE7CoverageMonotone(t *testing.T) {
	s := testSuite(t)
	e7, err := ByID("E7")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e7.Run(context.Background(), s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		return v
	}
	for i := 1; i < len(rows); i++ {
		if parse(rows[i][1]) > parse(rows[i-1][1])+1e-9 {
			t.Errorf("coverage not monotone at row %d: %v", i, rows)
		}
	}
	// Zero delay must beat the largest delay.
	if parse(rows[0][1]) <= parse(rows[len(rows)-1][1]) {
		t.Errorf("coverage flat across delays: %v", rows)
	}
}

func TestShapeE8InsertionMonotone(t *testing.T) {
	s := testSuite(t)
	e8, err := ByID("E8")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e8.Run(context.Background(), s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows // off, region, branch, all
	bits := func(i int) uint64 {
		v, err := strconv.ParseUint(rows[i][2], 10, 64)
		if err != nil {
			t.Fatalf("bad bits cell %q", rows[i][2])
		}
		return v
	}
	if !(bits(0) == 0 && bits(0) <= bits(1) && bits(1) <= bits(2) && bits(2) <= bits(3)) {
		t.Errorf("insertion counts not monotone: %v", rows)
	}
}

func TestShapeE6MechanismsRecoverLosses(t *testing.T) {
	// Suite-wide, predicated code with both mechanisms must beat plain
	// predicated code (geomean speedup column increases). Cheap proxy:
	// compare the geomean rows of E6.
	s := testSuite(t)
	e6, err := ByID("E6")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e6.Run(context.Background(), s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	last := rows[len(rows)-1]
	if last[0] != "geomean" {
		t.Fatalf("expected geomean row, got %v", last)
	}
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
		if err != nil {
			t.Fatalf("bad speedup cell %q", cell)
		}
		return v
	}
	conv, both := parse(last[3]), parse(last[6])
	if both < conv {
		t.Errorf("mechanisms made predicated code slower overall: %.3f -> %.3f", conv, both)
	}
}

func TestShapeE11ProfiledNotWorseOverall(t *testing.T) {
	s := testSuite(t)
	e11, err := ByID("E11")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e11.Run(context.Background(), s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	last := rows[len(rows)-1]
	if last[0] != "geomean" {
		t.Fatalf("no geomean row: %v", last)
	}
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		return v
	}
	greedy, profiled := parse(last[3]), parse(last[4])
	if profiled < greedy-0.005 {
		t.Errorf("profile-guided selection worse than greedy overall: %.3f vs %.3f", profiled, greedy)
	}
	// Per workload, profiled conversion must never be a clear regression
	// below 1.00x (the whole point is refusing losses).
	for _, row := range rows[:len(rows)-1] {
		if v := parse(row[4]); v < 0.90 {
			t.Errorf("%s: profiled speedup %.2fx is a clear loss", row[0], v)
		}
	}
}

func TestShapeE12WidthMonotone(t *testing.T) {
	s := testSuite(t)
	e12, err := ByID("E12")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e12.Run(context.Background(), s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	parse := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", cell)
		}
		return v
	}
	for i := 1; i < len(rows); i++ {
		if parse(rows[i][2]) < parse(rows[i-1][2])-1e-9 {
			t.Errorf("conv speedup not monotone in width: %v", rows)
		}
	}
	if parse(rows[len(rows)-1][2]) <= parse(rows[0][2]) {
		t.Errorf("width did not grow the predication win: %v", rows)
	}
}

func TestShapeE13AllArchitecturesBenefit(t *testing.T) {
	s := testSuite(t)
	e13, err := ByID("E13")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := e13.Run(context.Background(), s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		impr, err := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[3])
		}
		if impr < 1.0 {
			t.Errorf("%s: PGU made the geomean worse (%.2fx)", row[0], impr)
		}
		worst, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[4])
		}
		if worst > 1.5 {
			t.Errorf("%s: PGU hurt some substantial workload by %.2fx", row[0], worst)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness run")
	}
	results, err := RunAll(Config{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 9 {
		t.Fatalf("%d results", len(results))
	}
}
