package harness

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/charz"
	"repro/internal/emu"
	"repro/internal/record"
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

func memoLen(s *Suite) int { return s.cells.size() }

// size returns the number of keys the memo holds.
func (m *memo[K, V]) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// keys returns the keys the memo holds, in no particular order.
func (m *memo[K, V]) keys() []K {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]K, 0, len(m.m))
	for k := range m.m {
		out = append(out, k)
	}
	return out
}

// stored returns k's memoized value; a key not yet memoized fails.
func stored[K comparable, V any](m *memo[K, V], k K) (V, error) {
	return m.get(k, func() (V, error) {
		var zero V
		return zero, errors.New("not memoized")
	})
}

// TestMemo pins the memo's contract: one computation per key however
// many goroutines ask at once, every caller seeing its value; an error
// kept and returned again without recomputing; keys independent.
func TestMemo(t *testing.T) {
	var m memo[string, *int]
	var calls atomic.Int32
	release := make(chan struct{})
	got := make([]*int, 32)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = m.get("a", func() (*int, error) {
				calls.Add(1)
				<-release // keep the computation in flight while other gets arrive
				return new(int), nil
			})
		}()
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("32 concurrent gets of one key ran f %d times, want 1", n)
	}
	for i, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("get %d returned %p, want the shared value %p", i, p, got[0])
		}
	}

	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if _, err := m.get("b", func() (*int, error) {
			calls.Add(1)
			return nil, boom
		}); err != boom {
			t.Fatalf("get %d of a failing key: err %v, want %v", i, err, boom)
		}
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("a failed key was recomputed: f ran %d times in all, want 2", n)
	}

	if v, err := m.get("c", func() (*int, error) { return new(int), nil }); err != nil || v == got[0] {
		t.Fatalf("distinct key c: %p, %v; want a value of its own", v, err)
	}
	if m.size() != 3 {
		t.Fatalf("memo holds %d keys, want 3", m.size())
	}
}

// TestFailedExtraEntryStaysMemoized pins the on-demand entries' failure
// rule, the same as every memo's: a synthetic workload that cannot be
// traced under the suite's step limit fails, and asking again returns
// the same error without recording the program again.
func TestFailedExtraEntryStaysMemoized(t *testing.T) {
	s := &Suite{cfg: Config{Limit: 10}}
	name := charz.CatalogNames()[0]
	_, err1 := s.extraEntries(context.Background(), []string{name})
	_, err2 := s.extraEntries(context.Background(), []string{name})
	if err1 == nil || !errors.Is(err1, emu.ErrLimit) {
		t.Fatalf("tracing %s in 10 steps: err %v, want a limit stop", name, err1)
	}
	if err2 == nil || err2.Error() != err1.Error() {
		t.Errorf("second request: err %v, want the memoized %v", err2, err1)
	}
	if n := s.recs.size(); n != 1 {
		t.Errorf("two requests recorded %d programs, want 1", n)
	}
	if n := s.extra.size(); n != 1 {
		t.Errorf("memo holds %d entries, want 1", n)
	}
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
	keys := s.recs.keys()
	recorded := 0
	for _, k := range keys {
		if x, err := stored(&s.recs, k); err == nil && x != nil {
			recorded++
		}
	}
	timing := 0
	replayed := make(map[*record.Recording]bool)
	for _, k := range s.cells.keys() {
		if !k.timing {
			continue
		}
		timing++
		x, err := stored(&s.recs, recKey{entry: k.entry, trace: k.trace, limit: k.limit})
		if err != nil || x == nil {
			t.Fatalf("timing cell %s/%s has no recording: %v", k.entry.Name, k.trace, err)
		}
		replayed[x] = true
	}
	if len(keys) != 76 || recorded != 76 || timing != 245 || len(replayed) != 48 {
		t.Fatalf("%d memoized recordings (%d recorded); %d timing cells replayed %d of them; want 76, 76, 245 and 48",
			len(keys), recorded, timing, len(replayed))
	}
}

// TestSuiteExecIsTheOnlyEmulation reads the package's own source: the
// one call that runs the emulator is record.Program inside the recording
// memo's function (Suite.recording),
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
	if len(recordCalls) != 1 || recordCalls[0] != "recording" {
		t.Errorf("record.Program called from %v, want exactly once, from Suite.recording", recordCalls)
	}
}
