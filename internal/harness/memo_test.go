package harness

import (
	"context"
	"math/rand"
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
// regeneration computes 245 timing cells, and they replay only 48
// distinct program executions (the entries' original, converted and
// profiled programs at the suite's one step limit), each recorded once.
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
	recorded := 0
	for _, me := range s.execs {
		if me.x != nil {
			recorded++
		}
	}
	if timing != 245 || len(s.execs) != 48 || recorded != 48 {
		t.Fatalf("%d timing cells replayed %d memoized executions (%d recorded), want 245 cells over 48",
			timing, len(s.execs), recorded)
	}
}
