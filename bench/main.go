// Command bench is the repository's benchmark. It runs one workload —
// serve_stream, session_churn, regen or sweep — for a timed phase,
// checks that every output is correct, and prints each end-to-end
// metric by name and unit, or with -trace 1 each per-layer metric. The
// last line of standard output is a JSON object:
//
//	{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"op_p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// Run it through bench/run.sh, which builds it and the daemons:
//
//	bash bench/run.sh -workload serve_stream -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -workload regen -seed 1 -seconds 20 -trace 1
//	bash bench/run.sh -workload sweep -seed 1 -seconds 20 -runs 5
//
// The exit code is 0 only when every correctness gate passed.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/stats"
)

// setupRuns is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupRuns = 5

// maxWarmup is the discarded warm-up before the timed phase.
const maxWarmup = 2 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	runs     int
	root     string
	out      string
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs a traced phase and the layer replays and reports per-layer metrics")
	fs.IntVar(&o.runs, "runs", 1, "calibration: run this many times on seeds seed, seed+1, ... and print each metric's spread")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.out, "out", ".bench_build", "build output: daemon binaries in bin/, portfiles in run/, spans in spans/")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, err := workloadByName(o.workload); err != nil {
		return o, err
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 || o.runs < 1 {
		return o, errors.New("need -seconds > 0, -trace 0 or 1, -runs >= 1")
	}
	return o, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome, printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var res *result
	if o.runs > 1 {
		res, err = calibrate(ctx, o, stdout)
	} else {
		res, err = runOnce(ctx, o, o.seed, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
	}
	if res == nil {
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runOnce sets the workload up, runs its warm-up and timed phases (and,
// traced, a traced phase and the layer replays), checks its outputs and
// stops its daemons. It returns nil only when set-up failed; any later
// failure comes back as a result that is not correct, with the error.
func runOnce(ctx context.Context, o options, seed uint64, out io.Writer) (res *result, err error) {
	def, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	env := &env{name: def.name, seed: seed, root: o.root, out: o.out}
	var inst instance
	var in *inputs
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
			inst = nil
		}
		t0 := time.Now()
		if in, err = def.inputs(ctx, seed); err == nil {
			inst, err = def.start(ctx, env, in)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	res = &result{Correct: true, Metrics: map[string]metric{}}
	var errs []error
	fail := func(what string, err error) {
		if err != nil {
			res.Correct = false
			errs = append(errs, fmt.Errorf("%s: %w", what, err))
		}
	}
	defer func() {
		if inst != nil {
			fail("shutdown", inst.close())
		}
		err = errors.Join(errs...)
	}()

	// Peak RSS covers the warm-up and timed phases of the processes that
	// serve the workload: the daemons, or this process for in-process
	// workloads, with the set-ups' garbage returned to the OS first.
	var procs []string
	for _, dm := range inst.daemons() {
		procs = append(procs, dm.procDir())
	}
	if len(procs) == 0 {
		debug.FreeOSMemory()
		procs = []string{"/proc/self"}
	}
	for _, p := range procs {
		if err := resetPeakRSS(p); err != nil {
			fail("reset peak RSS", err)
			return res, nil
		}
	}

	d := time.Duration(o.seconds * float64(time.Second))
	fmt.Fprintf(out, "workload %s  seed %d  timed %v  warm-up %v  trace %d\n", def.name, seed, d, min(maxWarmup, d), o.trace)
	fmt.Fprintf(out, "schedule %s\n", scheduleHash(def, seed, in))
	if _, err := inst.phase(ctx, min(maxWarmup, d), nil); err != nil {
		fail("warm-up", err)
		return res, nil
	}
	timed, err := inst.phase(ctx, d, nil)
	res.Attempted, res.Failed = timed.attempted, timed.failed
	fail("timed phase", err)
	e2e := endToEnd(def, timed, d, setups)
	rss := 0.0
	for _, p := range procs {
		rss = max(rss, peakRSSMB(p))
	}
	e2e["peak_rss_mb"] = metric{rss * 1024 * 1024 / 1e6, "MB"}

	var traced phaseResult
	var tr *tracer
	if o.trace == 1 && res.Correct {
		tr = newTracer()
		traced, err = inst.phase(ctx, d, tr)
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		fail("traced phase", err)
	}
	if res.Correct {
		fail("verify", inst.finish(ctx))
	}
	fail("shutdown", inst.close())
	inst = nil

	if o.trace == 0 {
		res.Metrics = e2e
		printEndToEnd(out, def, timed, d, e2e, setups)
	} else if res.Correct {
		te := endToEnd(def, traced, d, setups)
		for _, name := range []string{"events_per_s", "op_p50_ms"} {
			fmt.Fprintf(out, "tracing overhead %-13s %+.2f%% (traced %.6g, untraced %.6g %s)\n",
				name, 100*(te[name].Value/e2e[name].Value-1), te[name].Value, e2e[name].Value, e2e[name].Unit)
		}
		res.Metrics, err = layerMetrics(ctx, env, in, tr, out)
		fail("layer replays", err)
		printLayers(out, res.Metrics)
		path := filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", def.name, seed))
		if err := tr.write(path); err != nil {
			fail("spans", err)
		} else {
			fmt.Fprintf(out, "spans %d written to %s\n", len(tr.spans), path)
		}
	}
	fmt.Fprintf(out, "error_frac %.6g (%d failed of %d attempted)\n", frac(res.Failed, res.Attempted), res.Failed, res.Attempted)
	if res.Correct {
		fmt.Fprintln(out, "correct: every output matched its reference and the daemons exited cleanly")
	}
	return res, nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// endToEnd computes the end-to-end metrics of a timed phase, all but
// peak_rss_mb. No tail percentile is among them: every workload reports
// every metric, and regen finishes about ten ops a run, too few for any
// percentile above the median to have ten samples beyond it.
func endToEnd(def workloadDef, p phaseResult, d time.Duration, setups []float64) map[string]metric {
	rate := opRate(p.ops)
	if def.windowed {
		rate = windowRate(p.ops, d)
	}
	return map[string]metric{
		"setup_s":      {median(setups), "s"},
		"events_per_s": {rate, "1/s"},
		"op_p50_ms":    {median(durationsMS(p.ops)), "ms"},
	}
}

func printEndToEnd(out io.Writer, def workloadDef, p phaseResult, d time.Duration, m map[string]metric, setups []float64) {
	fmt.Fprintf(out, "setup_s      %12.6g s    median of %d set-ups %v\n", m["setup_s"].Value, len(setups), roundAll(setups))
	opName, how := "full pass", "median over ops"
	if def.windowed {
		opName, how = "POST events request", fmt.Sprintf("median of one-second windows %.4g", windowRates(p.ops, d))
	}
	fmt.Fprintf(out, "events_per_s %12.6g 1/s  %s\n", m["events_per_s"].Value, how)
	fmt.Fprintf(out, "op_p50_ms    %12.6g ms   per %s, n=%d\n", m["op_p50_ms"].Value, opName, len(p.ops))
	if tp := tailPercentile(len(p.ops)); tp > 0 {
		fmt.Fprintf(out, "op_p%g_ms %12.6g ms   highest percentile with 10+ of n=%d samples beyond it (not bounded)\n",
			tp, stats.Percentile(durationsMS(p.ops), tp), len(p.ops))
	} else {
		fmt.Fprintf(out, "no tail percentile: n=%d ops leave fewer than 10 samples beyond p90\n", len(p.ops))
	}
	fmt.Fprintf(out, "peak_rss_mb  %12.6g MB\n", m["peak_rss_mb"].Value)
}

func printLayers(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "%-42s %12.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1e4) / 1e4
	}
	return out
}

// calibrate runs the workload o.runs times on consecutive seeds and
// prints each metric's median, quartiles and spread with two candidate
// bounds: the calibration rule's max(3%, 1.5 × (max−min)/median) capped
// at 10%, and three times the interquartile spread, which a bound must
// cover for the benchmark to resolve a change. The result carries each
// metric's median.
func calibrate(ctx context.Context, o options, out io.Writer) (*result, error) {
	values := map[string][]float64{}
	total := &result{Correct: true, Metrics: map[string]metric{}}
	units := map[string]string{}
	for i := 0; i < o.runs; i++ {
		res, err := runOnce(ctx, o, o.seed+uint64(i), out)
		if res == nil {
			return nil, err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		if err != nil {
			return total, err
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "calibration over %d runs, seeds %d..%d\n", o.runs, o.seed, o.seed+uint64(o.runs)-1)
	fmt.Fprintf(out, "%-42s %12s %12s %12s %8s %8s %8s %8s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med", "rule", "3·iqr")
	for _, name := range names {
		xs := values[name]
		med := median(xs)
		q1, q3 := quartiles(xs)
		rng := (stats.Percentile(xs, 100) - stats.Percentile(xs, 0)) / math.Abs(med)
		bound := math.Min(0.10, math.Max(0.03, 1.5*rng))
		fmt.Fprintf(out, "%-42s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %7.2f%% %7.2f%%\n",
			name, med, q1, q3, 100*spread(xs), 100*rng, 100*bound, 300*spread(xs))
		total.Metrics[name] = metric{med, units[name]}
	}
	return total, nil
}
