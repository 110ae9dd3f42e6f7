package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestSweepOrdersResults(t *testing.T) {
	const n = 100
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func(context.Context) (int, error) {
			// Finish out of submission order on purpose.
			if i%7 == 0 {
				time.Sleep(time.Millisecond)
			}
			return i * i, nil
		}
	}
	for _, workers := range []int{0, 1, 3, 64} {
		got, err := Sweep(context.Background(), jobs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: results[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	got, err := Sweep[int](context.Background(), nil, 4)
	if err != nil || got != nil {
		t.Fatalf("Sweep(nil) = %v, %v", got, err)
	}
}

func TestSweepCapturesErrorWithIndex(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job[int]{
		func(context.Context) (int, error) { return 1, nil },
		func(context.Context) (int, error) { return 0, boom },
		func(context.Context) (int, error) { return 3, nil },
	}
	got, err := Sweep(context.Background(), jobs, 1)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "job 1") {
		t.Errorf("error lacks job index: %v", err)
	}
	if got[0] != 1 {
		t.Errorf("successful result lost: %v", got)
	}
}

func TestSweepErrorStopsRemainingJobs(t *testing.T) {
	var ran atomic.Int64
	const n = 1000
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func(ctx context.Context) (int, error) {
			ran.Add(1)
			if i == 0 {
				return 0, fmt.Errorf("fail fast")
			}
			// Hold every other job until the failure cancels the sweep,
			// so the other worker cannot drain the grid while the
			// failing job waits to be scheduled.
			<-ctx.Done()
			return i, nil
		}
	}
	if _, err := Sweep(context.Background(), jobs, 2); err == nil {
		t.Fatal("error swallowed")
	}
	// With 2 workers and the first job failing, only the failing job and
	// the other worker's in-flight job may have started.
	if ran.Load() > 2 {
		t.Errorf("%d of %d jobs ran after the failure", ran.Load(), n)
	}
}

func TestSweepHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	const n = 500
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func(context.Context) (int, error) {
			if i == 3 {
				cancel() // simulate an external timeout mid-sweep
			}
			ran.Add(1)
			return i, nil
		}
	}
	_, err := Sweep(ctx, jobs, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() > 10 {
		t.Errorf("%d jobs ran after cancellation", ran.Load())
	}
}

func TestSweepDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	jobs := make([]Job[int], 100)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) (int, error) {
			select {
			case <-time.After(2 * time.Millisecond):
			case <-ctx.Done():
			}
			return 0, nil
		}
	}
	if _, err := Sweep(ctx, jobs, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestMap(t *testing.T) {
	items := []int{3, 1, 4, 1, 5, 9}
	got, err := Map(context.Background(), items, 2, func(_ context.Context, v int) (int, error) {
		return v * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != items[i]*2 {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
}

// TestSweepParallelEvaluationsAreDeterministic runs the same predictor
// grid twice, serial and parallel, and requires identical results — the
// property the harness's byte-identical CSV regeneration rests on.
func TestSweepParallelEvaluationsAreDeterministic(t *testing.T) {
	specs := []Spec{
		For("gshare", 10, 6),
		For("bimodal", 10),
		For("agree", 10, 6),
		For("perceptron", 6, 12),
	}
	eval := func(s Spec) uint64 {
		p := s.MustNew()
		var misses uint64
		for i := 0; i < 5000; i++ {
			pc := uint64(i % 13)
			taken := (i/3)%2 == 0
			if p.Predict(pc) != taken {
				misses++
			}
			p.Update(pc, taken)
		}
		return misses
	}
	run := func(workers int) []uint64 {
		got, err := Map(context.Background(), specs, workers, func(_ context.Context, s Spec) (uint64, error) {
			return eval(s), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	serial, parallel := run(1), run(4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("spec %s: serial %d != parallel %d", specs[i], serial[i], parallel[i])
		}
	}
}
