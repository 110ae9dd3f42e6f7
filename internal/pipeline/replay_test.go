package pipeline

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/bpred"
	"repro/internal/emu"
	"repro/internal/prog"
)

// replayResult is one timing run's outcome, comparable with ==.
type replayResult struct {
	st  Stats
	err string
}

func outcome(st Stats, err error) replayResult {
	r := replayResult{st: st}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// withPredictor returns cfg driven by a fresh default predictor.
func withPredictor(cfg Config) Config {
	cfg.Predictor = bpred.NewGShare(12, 8)
	return cfg
}

// TestReplayMatchesRun replays one recording per program under every
// configuration of timingConfigs: in order, in reverse, and from two
// goroutines at once (ci.sh runs this under -race). Every replay must
// equal a fresh Run of the same configuration, partial statistics and
// limit error included, so a recording carries no state from one
// replay into the next.
func TestReplayMatchesRun(t *testing.T) {
	progs := suitePrograms(t)
	if testing.Short() {
		progs = progs[:4]
	}
	for _, p := range progs {
		want := make([]replayResult, len(timingConfigs))
		for ci, cfg := range timingConfigs {
			want[ci] = outcome(Run(p, withPredictor(cfg), diffBudget))
			if want[ci].err != "" && !strings.Contains(want[ci].err, emu.ErrLimit.Error()) {
				t.Fatalf("%s, config %d: %s", p.Name, ci, want[ci].err)
			}
		}
		x := recordExec(t, p, diffBudget)
		check := func(order string, ci int) error {
			if got := outcome(x.Run(withPredictor(timingConfigs[ci]))); got != want[ci] {
				return fmt.Errorf("%s %s, config %d:\n replay %+v\n    run %+v", order, p.Name, ci, got, want[ci])
			}
			return nil
		}
		for ci := range timingConfigs {
			if err := check("forward", ci); err != nil {
				t.Error(err)
			}
		}
		for ci := len(timingConfigs) - 1; ci >= 0; ci-- {
			if err := check("reverse", ci); err != nil {
				t.Error(err)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range timingConfigs {
					ci := k
					if g == 1 {
						ci = len(timingConfigs) - 1 - k
					}
					errs[g] = errors.Join(errs[g], check(fmt.Sprintf("goroutine %d", g), ci))
				}
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Error(err)
		}
	}
}

// TestRecordOutOfRangePC runs a program off its end: the run stops with
// the emulator's pc fault after replaying every step it did execute.
func TestRecordOutOfRangePC(t *testing.T) {
	b := prog.NewBuilder("falloff")
	b.Movi(1, 1)
	b.Addi(2, 1, 1)
	st, err := Run(b.MustProgram(), DefaultConfig(bpred.NewBimodal(8)), 0)
	var f *emu.Fault
	if !errors.As(err, &f) || f.Msg != "pc out of range" || f.Index != 2 {
		t.Fatalf("run off the end: %v", err)
	}
	if st.Insts != 2 || st.Stalls != 0 {
		t.Errorf("partial stats %+v, want 2 insts and no stalls", st)
	}
}
