package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestQuickRunWritesReport runs the quick grid at a tiny mintime and
// checks the emitted BENCH.json: fast/generic pairs per kind, a zero
// alloc measurement, and a self-comparison that passes.
func TestQuickRunWritesReport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	var out bytes.Buffer
	args := []string{"-quick", "-mintime", "10ms", "-kinds", "gshare", "-serve=false", "-o", path}
	if err := run(args, &out); err != nil {
		t.Fatalf("bpbench run: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH.json does not parse: %v", err)
	}
	byName := make(map[string]Result)
	for _, r := range rep.Results {
		byName[r.Name] = r
	}
	for _, want := range []string{
		"feed/gshare:12:8/fast", "feed/gshare:12:8/generic",
		"feed/gshare:12:8/fast-featured", "feed/gshare:12:8/generic-featured",
		"allocs/feed/gshare:12:8", "decode/p64t",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("report is missing %s", want)
		}
	}
	if a := byName["allocs/feed/gshare:12:8"]; a.Value != 0 {
		t.Errorf("gshare batch path allocates %.4f per event; want 0", a.Value)
	}
	// One 10 ms window can be preempted whole on a loaded machine, so each
	// path's rate is its best over the report's window and a few more
	// windows, measured alternating fast and generic.
	fast, generic := byName["feed/gshare:12:8/fast"].Value, byName["feed/gshare:12:8/generic"].Value
	window, err := suiteWindow()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sim.Parse("gshare")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		for _, batch := range []bool{true, false} {
			r, err := benchFeed(spec, window, 10*time.Millisecond, false, batch)
			if err != nil {
				t.Fatal(err)
			}
			if batch {
				fast = max(fast, r.Value)
			} else {
				generic = max(generic, r.Value)
			}
		}
	}
	if fast <= generic {
		t.Errorf("fast path (%.4g) not faster than generic (%.4g)", fast, generic)
	}
	if !strings.Contains(out.String(), "fast path") {
		t.Error("summary output missing the fast-path speedup line")
	}

	// Self-comparison with a roomy threshold must pass. A fresh run's row
	// can lose its one 10 ms window the same way, so it gets a few tries.
	args = []string{"-quick", "-mintime", "10ms", "-kinds", "gshare", "-serve=false", "-compare", path, "-threshold", "0.9"}
	for try := 1; ; try++ {
		out.Reset()
		err := run(args, &out)
		if err == nil {
			break
		}
		if try == 5 {
			t.Fatalf("self-comparison failed %d times, last: %v\n%s", try, err, out.String())
		}
	}
}

// TestCompareDetectsRegression doctors a baseline so the fresh run can
// never reach it, and requires the comparison to fail.
func TestCompareDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	base := Report{
		Tool: "bpbench",
		Results: []Result{
			// Unreachably fast baseline: any real measurement regresses.
			{Name: "feed/gshare:12:8/fast", Value: 1e15, Unit: "events/s", HigherBetter: true},
		},
	}
	data, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	args := []string{"-quick", "-mintime", "10ms", "-kinds", "gshare", "-serve=false", "-compare", path}
	err = run(args, &out)
	if err == nil {
		t.Fatalf("comparison against an unreachable baseline passed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("output does not report the regression:\n%s", out.String())
	}
}

// TestCompareZeroAllocBaseline checks the strict zero-baseline rule: an
// allocs/event metric with a 0 baseline must not tolerate the threshold
// fraction (0 × 1.25 = 0 would trivially pass anything).
func TestCompareZeroAllocBaseline(t *testing.T) {
	var out bytes.Buffer
	rep := &Report{Results: []Result{
		{Name: "allocs/feed/x", Value: 0.5, Unit: "allocs/event", HigherBetter: false},
	}}
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	data, _ := json.Marshal(Report{Results: []Result{
		{Name: "allocs/feed/x", Value: 0, Unit: "allocs/event", HigherBetter: false},
	}})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := compare(&out, rep, path, 0.25); err == nil {
		t.Error("reintroduced per-event allocation passed a zero-alloc baseline")
	}
}

// allocPredictor allocates on every step, standing in for a feed loop
// that has regressed to per-event allocation.
type allocPredictor struct{ last []byte }

func (p *allocPredictor) Name() string { return "alloc" }

func (p *allocPredictor) Predict(uint64) bool { return len(p.last)&1 == 0 }

func (p *allocPredictor) PredictUpdate(pc uint64, _ bool) bool {
	p.last = make([]byte, 16+pc%16)
	return len(p.last)&1 == 0
}

func (p *allocPredictor) Reset() {}

// TestFeedAllocsSeesRealAllocation: the smallest-window measurement must
// not hide a FeedBatch that allocates, which would read 0 and pass the
// zero-alloc gate.
func TestFeedAllocsSeesRealAllocation(t *testing.T) {
	window := make([]trace.Event, 256)
	for i := range window {
		window[i] = trace.Event{Kind: trace.KindBranch, PC: uint32(i), Flags: trace.FlagTaken.If(i%3 == 0)}
	}
	e := core.NewEvaluator(core.EvalConfig{Predictor: &allocPredictor{}})
	if got := feedAllocs(e, window); got < 1 {
		t.Errorf("allocating feed measured %.4f allocs/event; want at least 1", got)
	}
}
