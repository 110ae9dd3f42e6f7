// Command bpbench runs the repository's fixed performance-benchmark grid
// and records the results as machine-readable BENCH.json, the committed
// throughput baseline CI regresses against.
//
// The grid covers the performance-critical paths end to end:
//
//   - feed/<spec>/fast and feed/<spec>/generic — evaluator feed-loop
//     throughput (events/s) per registry predictor kind over a
//     cache-resident window of the 16-kernel suite's if-converted event
//     stream, fed one window per FeedBatch call (fast) and one event per
//     Feed call (generic). Their ratio is the per-call cost Feed adds.
//   - feed/<spec>/fast-featured and /generic-featured — the same loops
//     with the paper mechanisms live (SFPF + PGU), for the sweep-shaped
//     workload rather than the serving-shaped one (gshare only by
//     default; every kind with -allfeatured).
//   - allocs/feed/<spec> — steady-state heap allocations per event in
//     FeedBatch (must be 0 for every specialized kind).
//   - serve/feed/<spec> — serve-session throughput (events/s) through
//     real HTTP: binary P64T batches posted to an in-process server.
//   - experiments/all — wall-clock milliseconds to regenerate the full
//     E1–E15 experiment set (skipped with -quick).
//
// Usage:
//
//	bpbench [-quick] [-o BENCH.json] [-compare BENCH.json] [-threshold 0.25]
//	        [-mintime 1s] [-kinds gshare,perceptron] [-serve] [-version]
//
// With -compare, results are checked against a previously recorded
// baseline: any metric worse by more than the threshold fraction fails
// the run, which is how ci.sh gates performance regressions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ifconv"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Result is one benchmark measurement.
type Result struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// HigherBetter orients regression comparison: events/s improve upward,
	// allocs/event and wall milliseconds improve downward.
	HigherBetter bool `json:"higher_better"`
}

// Report is the BENCH.json document.
type Report struct {
	Tool    string   `json:"tool"`
	Version string   `json:"version"`
	Go      string   `json:"go"`
	OS      string   `json:"os"`
	Arch    string   `json:"arch"`
	Quick   bool     `json:"quick"`
	Results []Result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bpbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bpbench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "CI mode: shorter measurements, fewer kinds, skip the experiment regen timing")
	outPath := fs.String("o", "", "write BENCH.json to this path (empty: print to stdout only)")
	comparePath := fs.String("compare", "", "compare results against this previously recorded BENCH.json")
	threshold := fs.Float64("threshold", 0.25, "allowed fractional regression vs the -compare baseline")
	minTime := fs.Duration("mintime", time.Second, "minimum measurement time per benchmark")
	kindsFlag := fs.String("kinds", "", "comma-separated predictor kinds to measure (default: all registry kinds)")
	serveBench := fs.Bool("serve", true, "measure the serve-session HTTP feed path")
	allFeatured := fs.Bool("allfeatured", false, "measure the featured (SFPF+PGU) feed loops for every kind, not just gshare")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering the whole run to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile at the end of the run to this file")
	version := buildinfo.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("bpbench"))
		return nil
	}
	if *quick && *minTime == time.Second {
		*minTime = 200 * time.Millisecond
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bpbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained allocations
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "bpbench:", err)
			}
		}()
	}

	kinds := sim.Kinds()
	if *kindsFlag != "" {
		kinds = nil
		for _, k := range strings.Split(*kindsFlag, ",") {
			kinds = append(kinds, strings.TrimSpace(k))
		}
	} else if *quick {
		kinds = []string{"gshare", "bimodal", "tournament", "perceptron"}
	}

	window, err := suiteWindow()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "bpbench: %d-event suite window, mintime %v\n", len(window), *minTime)

	rep := &Report{
		Tool: "bpbench", Version: buildinfo.Version(),
		Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Quick: *quick,
	}
	add := func(r Result, err error) error {
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, r)
		fmt.Fprintf(out, "  %-40s %14.4g %s\n", r.Name, r.Value, r.Unit)
		return nil
	}

	for _, kind := range kinds {
		spec, err := sim.Parse(kind)
		if err != nil {
			return err
		}
		name := spec.String()
		for _, variant := range []struct {
			suffix   string
			featured bool
			batch    bool
		}{
			{"fast", false, true},
			{"generic", false, false},
			{"fast-featured", true, true},
			{"generic-featured", true, false},
		} {
			if variant.featured && !*allFeatured && kind != "gshare" {
				continue
			}
			r, err := benchFeed(spec, window, *minTime, variant.featured, variant.batch)
			if err != nil {
				return err
			}
			r.Name = "feed/" + name + "/" + variant.suffix
			if err := add(r, nil); err != nil {
				return err
			}
		}
		if err := add(benchAllocs(spec, window)); err != nil {
			return err
		}
	}

	if *serveBench {
		specs := []string{"gshare:12:8"}
		for _, s := range specs {
			spec, err := sim.Parse(s)
			if err != nil {
				return err
			}
			if err := add(benchServe(spec, window, *minTime)); err != nil {
				return err
			}
			if err := add(benchServeMulti(spec, window, *minTime)); err != nil {
				return err
			}
		}
	}

	if !*quick {
		if err := add(benchExperiments()); err != nil {
			return err
		}
	}

	printSpeedup(out, rep.Results)

	if *outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "bpbench: wrote %s\n", *outPath)
	}

	if *comparePath != "" {
		return compare(out, rep, *comparePath, *threshold)
	}
	return nil
}

// suiteWindow builds the measurement event window: the if-converted
// 16-kernel suite's event streams concatenated, truncated to a
// cache-resident window (the shape of a pooled serve batch, which is the
// hot consumer), with Step zeroed so the window can be replayed
// indefinitely — Feed requires non-decreasing steps, and with a zero
// PGUDelay each pending history bit flushes on the following event.
func suiteWindow() ([]trace.Event, error) {
	const windowSize = 8192
	var window []trace.Event
	for _, w := range workload.Suite() {
		cp, _, err := ifconv.Convert(w.Build(), ifconv.Config{})
		if err != nil {
			return nil, fmt.Errorf("converting %s: %w", w.Name, err)
		}
		tr, err := trace.Collect(cp, 3_000_000)
		if err != nil {
			return nil, fmt.Errorf("collecting %s: %w", w.Name, err)
		}
		// An even slice of every kernel keeps the window's branch mix
		// representative of the whole suite.
		n := len(tr.Events)
		if n > windowSize/len(workload.Suite()) {
			n = windowSize / len(workload.Suite())
		}
		window = append(window, tr.Events[:n]...)
		if len(window) >= windowSize {
			break
		}
	}
	for i := range window {
		window[i].Step = 0
	}
	return window, nil
}

func feedConfig(spec sim.Spec, featured bool) (core.EvalConfig, error) {
	p, err := spec.New()
	if err != nil {
		return core.EvalConfig{}, err
	}
	cfg := core.EvalConfig{Predictor: p}
	if featured {
		cfg.UseSFPF = true
		cfg.ResolveDelay = core.DefaultResolveDelay
		cfg.PGU = core.PGUAll
		cfg.PGUDelay = 0 // keep pending bits bounded across window replays
	}
	return cfg, nil
}

// benchFeed measures evaluator feed throughput over repeated replays of
// the window. The run is split into chunks and the best chunk's rate is
// reported: benchmark machines (CI runners especially) suffer transient
// contention, and the peak window estimates the code's real throughput
// far more stably than a contaminated average — which is what a
// regression gate needs.
func benchFeed(spec sim.Spec, window []trace.Event, minTime time.Duration, featured, batch bool) (Result, error) {
	cfg, err := feedConfig(spec, featured)
	if err != nil {
		return Result{}, err
	}
	e := core.NewEvaluator(cfg)
	e.FeedBatch(window) // warm-up: size the pending buffer, fault in tables
	one := func() {
		if batch {
			e.FeedBatch(window)
		} else {
			for j := range window {
				e.Feed(&window[j])
			}
		}
	}
	return bestRate(len(window), minTime, one), nil
}

// bestRate runs op repeatedly for at least minTime total, measuring in
// chunks calibrated to ~1/8 of minTime, and returns the best observed
// chunk rate in events per second.
func bestRate(eventsPerOp int, minTime time.Duration, op func()) Result {
	// Calibrate ops per chunk from a first timed op.
	t0 := time.Now()
	op()
	opTime := time.Since(t0)
	if opTime <= 0 {
		opTime = time.Microsecond
	}
	perChunk := int(minTime / 8 / opTime)
	if perChunk < 1 {
		perChunk = 1
	}
	var best float64
	start := time.Now()
	for time.Since(start) < minTime {
		c0 := time.Now()
		for i := 0; i < perChunk; i++ {
			op()
		}
		if rate := float64(perChunk*eventsPerOp) / time.Since(c0).Seconds(); rate > best {
			best = rate
		}
	}
	return Result{Value: best, Unit: "events/s", HigherBetter: true}
}

// benchAllocs measures steady-state heap allocations per event in
// FeedBatch. The specialized kinds must measure 0.
func benchAllocs(spec sim.Spec, window []trace.Event) (Result, error) {
	cfg, err := feedConfig(spec, true)
	if err != nil {
		return Result{}, err
	}
	e := core.NewEvaluator(cfg)
	e.FeedBatch(window) // warm-up
	const rounds = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		e.FeedBatch(window)
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(rounds*len(window))
	return Result{
		Name: "allocs/feed/" + spec.String(), Value: perEvent,
		Unit: "allocs/event", HigherBetter: false,
	}, nil
}

// benchServe measures end-to-end serve-session feed throughput: binary
// P64T batches posted over real HTTP to an in-process server.
func benchServe(spec sim.Spec, window []trace.Event, minTime time.Duration) (Result, error) {
	srv := serve.MustNew(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(serve.SessionRequest{Spec: spec.String()})
	if err != nil {
		return Result{}, err
	}
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return Result{}, err
	}
	var sess serve.SessionJSON
	err = json.NewDecoder(resp.Body).Decode(&sess)
	resp.Body.Close()
	if err != nil {
		return Result{}, err
	}

	var batch bytes.Buffer
	bt := &trace.Trace{Name: "bench", Events: window}
	if _, err := bt.WriteTo(&batch); err != nil {
		return Result{}, err
	}
	payload := batch.Bytes()
	url := ts.URL + "/v1/sessions/" + sess.ID + "/events"

	var postErr error
	r := bestRate(len(window), minTime, func() {
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			postErr = err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			postErr = fmt.Errorf("serve feed: HTTP %d", resp.StatusCode)
		}
	})
	if postErr != nil {
		return Result{}, postErr
	}
	r.Name = "serve/feed/" + spec.String()
	return r, nil
}

// benchServeMulti drives the HTTP feed path with several concurrent
// sessions, the workload the shard scheduling pass exists for: while one
// batch is being fed, the others' requests queue on the shards, so each
// worker wakeup drains and groups several batches. Unlike the serial
// benchmark's best-chunk rate, the result is the whole-run aggregate
// rate — the number a fleet operator would see.
func benchServeMulti(spec sim.Spec, window []trace.Event, minTime time.Duration) (Result, error) {
	const clients = 8
	srv := serve.MustNew(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()

	var batch bytes.Buffer
	bt := &trace.Trace{Name: "bench", Events: window}
	if _, err := bt.WriteTo(&batch); err != nil {
		return Result{}, err
	}
	payload := batch.Bytes()

	sessBody, err := json.Marshal(serve.SessionRequest{Spec: spec.String()})
	if err != nil {
		return Result{}, err
	}
	urls := make([]string, clients)
	for i := range urls {
		resp, err := client.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(sessBody))
		if err != nil {
			return Result{}, err
		}
		var sess serve.SessionJSON
		err = json.NewDecoder(resp.Body).Decode(&sess)
		resp.Body.Close()
		if err != nil {
			return Result{}, err
		}
		urls[i] = ts.URL + "/v1/sessions/" + sess.ID + "/events"
	}

	post := func(url string) error {
		resp, err := client.Post(url, "application/octet-stream", bytes.NewReader(payload))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("serve feed: HTTP %d", resp.StatusCode)
		}
		return nil
	}
	// Warm up connections and session state outside the timed window.
	for _, url := range urls {
		if err := post(url); err != nil {
			return Result{}, err
		}
	}

	var batches atomic.Int64
	errs := make(chan error, clients)
	start := time.Now()
	deadline := start.Add(minTime)
	var wg sync.WaitGroup
	for _, url := range urls {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := post(url); err != nil {
					errs <- err
					return
				}
				batches.Add(1)
			}
		}(url)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return Result{}, err
	default:
	}
	return Result{
		Name:  "serve/feed/" + spec.String() + "/multi",
		Value: float64(batches.Load()) * float64(len(window)) / elapsed.Seconds(),
		Unit:  "events/s", HigherBetter: true,
	}, nil
}

// benchExperiments times one full regeneration of the E1–E15 experiment
// set — the end-to-end cost a results refresh pays.
func benchExperiments() (Result, error) {
	start := time.Now()
	results, err := harness.RunAll(harness.Config{})
	if err != nil {
		return Result{}, err
	}
	if len(results) == 0 {
		return Result{}, fmt.Errorf("experiment regen produced no results")
	}
	return Result{
		Name: "experiments/all", Value: float64(time.Since(start).Milliseconds()),
		Unit: "ms", HigherBetter: false,
	}, nil
}

// printSpeedup reports the headline fast-vs-generic ratios.
func printSpeedup(out io.Writer, results []Result) {
	byName := make(map[string]float64, len(results))
	for _, r := range results {
		byName[r.Name] = r.Value
	}
	for _, spec := range specsIn(results) {
		fast, okF := byName["feed/"+spec+"/fast"]
		gen, okG := byName["feed/"+spec+"/generic"]
		if okF && okG && gen > 0 {
			fmt.Fprintf(out, "bpbench: %s fast path %.2fx generic\n", spec, fast/gen)
		}
	}
}

func specsIn(results []Result) []string {
	seen := make(map[string]bool)
	var specs []string
	for _, r := range results {
		if !strings.HasPrefix(r.Name, "feed/") {
			continue
		}
		parts := strings.Split(r.Name, "/")
		if len(parts) == 3 && !seen[parts[1]] {
			seen[parts[1]] = true
			specs = append(specs, parts[1])
		}
	}
	sort.Strings(specs)
	return specs
}

// compare gates the fresh results against a recorded baseline: a metric
// may regress by at most the threshold fraction (in its unfavourable
// direction). Metrics present on only one side are reported but never
// fail the run, so grid growth does not invalidate old baselines.
func compare(out io.Writer, rep *Report, path string, threshold float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseline := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	var regressions []string
	compared := 0
	for _, r := range rep.Results {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(out, "bpbench: %s: not in baseline, skipping\n", r.Name)
			continue
		}
		compared++
		var bad bool
		var limit float64
		if r.HigherBetter {
			limit = b.Value * (1 - threshold)
			bad = r.Value < limit
		} else {
			limit = b.Value * (1 + threshold)
			// A zero baseline (allocs/event) tolerates only rounding noise,
			// not a reintroduced per-event allocation.
			if b.Value == 0 {
				limit = 0.01
			}
			bad = r.Value > limit
		}
		if bad {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.4g %s vs baseline %.4g (limit %.4g)", r.Name, r.Value, r.Unit, b.Value, limit))
		}
	}
	if len(regressions) > 0 {
		fmt.Fprintf(out, "bpbench: %d regression(s) vs %s:\n", len(regressions), path)
		for _, s := range regressions {
			fmt.Fprintln(out, "  REGRESSION", s)
		}
		return fmt.Errorf("%d benchmark regression(s) beyond %.0f%% threshold", len(regressions), threshold*100)
	}
	fmt.Fprintf(out, "bpbench: %d metrics within %.0f%% of baseline %s\n", compared, threshold*100, path)
	return nil
}
