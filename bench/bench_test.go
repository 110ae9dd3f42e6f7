package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestWindowRate(t *testing.T) {
	ops := []op{
		{end: 100 * time.Millisecond, events: 10},
		{end: 900 * time.Millisecond, events: 20}, // window 0: 30
		{end: 1500 * time.Millisecond, events: 5}, // window 1: 5
		{end: 2100 * time.Millisecond, events: 40},
		{end: 2200 * time.Millisecond, events: 60}, // window 2: 100
		{end: 3 * time.Second, events: 1000},       // after the phase: dropped
	}
	if got := windowRate(ops, 3*time.Second); got != 30 {
		t.Errorf("median of windows {30, 5, 100} = %v, want 30", got)
	}
	// A phase shorter than a second is one window scaled to a rate.
	if got := windowRate(ops[:1], 500*time.Millisecond); got != 20 {
		t.Errorf("10 events in 0.5 s = %v/s, want 20", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 7.75},
		{[]float64{5, 1, 4}, 1, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

const pageBefore = `# HELP bpservd_request_seconds Request latency by endpoint.
# TYPE bpservd_request_seconds histogram
bpservd_request_seconds_bucket{endpoint="post_events",le="0.001"} 4
bpservd_request_seconds_bucket{endpoint="post_events",le="+Inf"} 5
bpservd_request_seconds_sum{endpoint="post_events"} 0.5
bpservd_request_seconds_count{endpoint="post_events"} 5
# HELP bprouter_upstream_seconds Upstream attempts.
# TYPE bprouter_upstream_seconds histogram
bprouter_upstream_seconds_bucket{backend="a",le="+Inf"} 1
bprouter_upstream_seconds_sum{backend="a"} 1
bprouter_upstream_seconds_count{backend="a"} 1
# HELP bpservd_batches_total Batches.
# TYPE bpservd_batches_total counter
bpservd_batches_total 7
`

const pageAfter = `# HELP bpservd_request_seconds Request latency by endpoint.
# TYPE bpservd_request_seconds histogram
bpservd_request_seconds_bucket{endpoint="post_events",le="0.001"} 9
bpservd_request_seconds_bucket{endpoint="post_events",le="+Inf"} 15
bpservd_request_seconds_sum{endpoint="post_events"} 2.5
bpservd_request_seconds_count{endpoint="post_events"} 15
# HELP bprouter_upstream_seconds Upstream attempts.
# TYPE bprouter_upstream_seconds histogram
bprouter_upstream_seconds_bucket{backend="a",le="+Inf"} 2
bprouter_upstream_seconds_sum{backend="a"} 1.5
bprouter_upstream_seconds_count{backend="a"} 2
bprouter_upstream_seconds_bucket{backend="b",le="+Inf"} 1
bprouter_upstream_seconds_sum{backend="b"} 0.25
bprouter_upstream_seconds_count{backend="b"} 1
# HELP bpservd_batches_total Batches.
# TYPE bpservd_batches_total counter
bpservd_batches_total 19
`

func parsePage(t *testing.T, page string) series {
	t.Helper()
	fams, err := telemetry.ParseText(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	return flatten(fams)
}

func TestMetricsDelta(t *testing.T) {
	d := delta{parsePage(t, pageBefore), parsePage(t, pageAfter)}
	if mean, n := d.histMean("bpservd_request_seconds", `endpoint="post_events"`); mean != 0.2 || n != 10 {
		t.Errorf("post_events mean %v over %v, want 0.2 over 10", mean, n)
	}
	if got := d.get("bpservd_batches_total"); got != 12 {
		t.Errorf("batches delta %v, want 12", got)
	}
	// A series that first appears in the later scrape counts from zero.
	if got := d.total("bprouter_upstream_seconds_sum"); got != 0.75 {
		t.Errorf("upstream seconds summed over backends %v, want 0.75", got)
	}
	if mean, n := d.histMean("bpservd_request_seconds", `endpoint="get_stats"`); mean != 0 || n != 0 {
		t.Errorf("unobserved endpoint mean %v over %v, want 0 over 0", mean, n)
	}
}

func TestScheduleHashFollowsSeed(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		hash := func(seed uint64) string {
			in, err := w.inputs(ctx, seed)
			if err != nil {
				t.Fatal(err)
			}
			return scheduleHash(w, seed, in)
		}
		a, b, c := hash(1), hash(1), hash(2)
		if a != b {
			t.Errorf("%s: seed 1 gave schedules %s and %s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule %s", w.name, a)
		}
	}
}

// benchmarkFile is the part of the root BENCHMARK.json the smoke test
// checks reported metrics against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// units maps each declared metric to its unit.
func units(ms []struct{ Name, Unit string }) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// runBench runs the command in-process and decodes its last line.
func runBench(t *testing.T, out string, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-seconds", "0.5", "-root", "..", "-out", out)
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%v: correct %v, %d failed of %d", args, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

// checkMetrics requires the reported metrics to be exactly the declared
// ones, with the declared units.
func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", what, name)
		case m.Unit != want[name]:
			t.Errorf("%s: %s in %q, BENCHMARK.json says %q", what, name, m.Unit, want[name])
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s reported but not declared", what, name)
		}
	}
}

// TestWorkloadsSmoke runs every workload for half a second with every
// correctness gate on, and serve_stream once traced, against daemons
// built from this checkout.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemons and runs every workload")
	}
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	out := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(out, "bin")+string(filepath.Separator),
		"repro/cmd/bpservd", "repro/cmd/bprouter")
	if msg, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the daemons: %v\n%s", err, msg)
	}
	for _, w := range bf.Workloads {
		res := runBench(t, out, "-workload", w.Name, "-seed", "1")
		checkMetrics(t, w.Name, res.Metrics, units(bf.EndToEnd))
	}
	res := runBench(t, out, "-workload", "serve_stream", "-seed", "2", "-trace", "1")
	checkMetrics(t, "serve_stream traced", res.Metrics, units(bf.PerLayer))
	if _, err := os.Stat(filepath.Join(out, "spans", "serve_stream-seed2.jsonl")); err != nil {
		t.Errorf("traced run wrote no spans: %v", err)
	}
}
