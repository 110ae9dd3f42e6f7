package harness

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"strings"
	"testing"
)

// freshSuite builds a suite no other test has run experiments on, so its
// cell memo starts empty.
func freshSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := NewSuite(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func memoLen(s *Suite) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells)
}

// TestGoldenOrderIndependent regenerates every experiment on a fresh
// suite in reverse order and in a seeded permutation: whichever
// experiment first computes a shared grid point, every CSV must match
// results/ byte for byte.
func TestGoldenOrderIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	all := All()
	reversed := make([]Experiment, len(all))
	for i, e := range all {
		reversed[len(all)-1-i] = e
	}
	permuted := make([]Experiment, len(all))
	for i, j := range rand.New(rand.NewSource(13)).Perm(len(all)) {
		permuted[i] = all[j]
	}
	for _, order := range []struct {
		name string
		exps []Experiment
	}{{"reverse", reversed}, {"permuted", permuted}} {
		t.Run(order.name, func(t *testing.T) {
			s := freshSuite(t)
			for _, e := range order.exps {
				checkGolden(t, s, e)
			}
		})
	}
}

// TestGoldenConcurrentExperiments runs E6 and E12 at the same time on
// one fresh suite; they share E6's width-1 timing points, so under -race
// this exercises concurrent first requests for the same memoized cell.
func TestGoldenConcurrentExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-model experiments in -short mode")
	}
	s := freshSuite(t)
	for _, id := range []string{"E6", "E12"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			checkGolden(t, s, e)
		})
	}
}

// TestCellMemoSharing pins the memo's resolved-configuration key: E11's
// orig/greedy cells are E6's orig/conv cells, and E12's width-1 cells
// are E6's (issue width 0 means 1). Over the 16-workload suite, E6 adds
// 5 variants × 16 cells, E11 only its profiled variant (16 more), and
// E12 its 9 variants at widths 2, 4 and 8 (144 more).
func TestCellMemoSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-model experiments in -short mode")
	}
	s := freshSuite(t)
	for _, step := range []struct {
		id   string
		want int
	}{{"E6", 80}, {"E11", 96}, {"E12", 240}} {
		e, err := ByID(step.id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Run(context.Background(), s, Config{}.withDefaults()); err != nil {
			t.Fatalf("%s: %v", step.id, err)
		}
		if got := memoLen(s); got != step.want {
			t.Fatalf("after %s the memo holds %d cells, want %d", step.id, got, step.want)
		}
	}
}

// TestExecMemoSharing pins the recording memo: a full E1–E15
// regeneration on a fresh suite emulates 76 programs, each once — the
// 16 suite workloads in their original, converted, profile-guided and
// unscheduled forms, plus E15's 12 synthetic originals — and derives
// every trace and profile from those recordings. Its 245 timing cells
// replay 48 of them (the original, converted and profiled programs).
func TestExecMemoSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite in -short mode")
	}
	s := freshSuite(t)
	for _, e := range All() {
		if _, err := e.Run(context.Background(), s, Config{}.withDefaults()); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	timing := 0
	for k := range s.cells {
		if k.timing {
			timing++
		}
	}
	recorded, replayed := 0, 0
	for _, me := range s.execs {
		if me.x != nil {
			recorded++
		}
		if me.timing != nil {
			replayed++
		}
	}
	if len(s.execs) != 76 || recorded != 76 || timing != 245 || replayed != 48 {
		t.Fatalf("%d memoized executions (%d recorded); %d timing cells replayed %d of them; want 76, 76, 245 and 48",
			len(s.execs), recorded, timing, replayed)
	}
}

// TestSuiteExecIsTheOnlyEmulation reads the package's own source: the
// one call that runs the emulator is record.Program inside Suite.exec,
// and nothing reaches for the collectors that would emulate again
// (trace.Collect, profile.Collect, pipeline.Run) or for the emulator
// itself.
func TestSuiteExecIsTheOnlyEmulation(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	banned := map[string]bool{
		"trace.Collect": true, "profile.Collect": true, "pipeline.Run": true,
		"emu.New": true, "emu.RunProgram": true,
	}
	var recordCalls []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					x, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					name := x.Name + "." + sel.Sel.Name
					if banned[name] {
						t.Errorf("%s calls %s", fset.Position(sel.Pos()), name)
					}
					if name == "record.Program" {
						recordCalls = append(recordCalls, fn.Name.Name)
					}
					return true
				})
			}
		}
	}
	if len(recordCalls) != 1 || recordCalls[0] != "exec" {
		t.Errorf("record.Program called from %v, want exactly once, from Suite.exec", recordCalls)
	}
}
