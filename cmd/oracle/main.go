// Command oracle runs the full differential-testing matrix from
// internal/oracle: every registered predictor kind against its naive
// reference model, the metamorphic properties (reset-replay, table
// doubling, static interleave-invariance), and the
// cross-implementation equivalences (slice vs. stream replay, Collect
// vs. Stream event production, serialize round-trip, serial vs. parallel
// sweep, batch feed vs. per-event feed) over every built-in workload plus
// synthetic programs.
// It exits nonzero on any divergence, making it a one-command
// correctness gate for refactors of the simulation engine.
//
// Usage:
//
//	oracle [-seed 1] [-events 200000] [-kinds gshare,bimodal] [-workers 0] [-limit 3000000]
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/oracle"
	"repro/internal/prog"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "oracle:", err)
		os.Exit(1)
	}
}

// check is one unit of oracle work for the sweep pool.
type check struct {
	name string
	fn   func(ctx context.Context) error
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("oracle", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "randomized-stream seed")
	events := fs.Int("events", 200_000, "events per randomized predictor stream")
	kindsFlag := fs.String("kinds", "", "comma-separated predictor kinds to check (default all)")
	workers := fs.Int("workers", 0, "parallel check workers (0 = GOMAXPROCS)")
	limit := fs.Uint64("limit", 3_000_000, "emulation step limit per program")
	synth := fs.Int("synth", 4, "number of synthetic fuzz programs in the equivalence matrix")
	serveCheck := fs.Bool("serve", true, "check the serve-session HTTP path against the direct evaluator")
	version := buildinfo.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("oracle"))
		return nil
	}

	kinds := sim.Kinds()
	if *kindsFlag != "" {
		kinds = nil
		known := make(map[string]bool)
		for _, k := range sim.Kinds() {
			known[k] = true
		}
		for _, k := range strings.Split(*kindsFlag, ",") {
			k = strings.TrimSpace(k)
			if !known[k] {
				return fmt.Errorf("unknown predictor kind %q (want %s)", k, strings.Join(sim.Kinds(), ", "))
			}
			kinds = append(kinds, k)
		}
	}

	stream := oracle.Stream{Seed: *seed, Events: *events}
	var checks []check

	// Differential: every kind against its reference, then the
	// reset-replay metamorphic property on the same kind.
	for _, kind := range kinds {
		spec := sim.MustParse(kind)
		checks = append(checks,
			check{name: "ref:" + spec.String(), fn: func(context.Context) error {
				return oracle.CheckSpec(spec, stream)
			}},
			check{name: "reset:" + spec.String(), fn: func(context.Context) error {
				p, err := spec.New()
				if err != nil {
					return err
				}
				return oracle.CheckResetReplay(p, stream)
			}})
	}

	// Layout: every kind against its reference over the adversarial
	// counter-saturation streams — the packed 2-bit table storage must be
	// indistinguishable from the naive byte-per-counter models on the
	// streams built to break it.
	for _, kind := range kinds {
		spec := sim.MustParse(kind)
		checks = append(checks, check{name: "layout:" + spec.String(), fn: func(context.Context) error {
			return oracle.CheckLayout(spec, *seed, *events/4)
		}})
	}

	// Metamorphic: table doubling where the index confinement is
	// expressible, interleave invariance for the stateless kinds.
	for _, kind := range []string{"bimodal", "gshare", "gselect"} {
		spec := sim.MustParse(kind)
		checks = append(checks, check{name: "doubling:" + spec.String(), fn: func(context.Context) error {
			return oracle.CheckTableDoubling(spec, stream)
		}})
	}
	for _, kind := range []string{"taken", "nottaken"} {
		spec := sim.MustParse(kind)
		checks = append(checks, check{name: "interleave:" + spec.String(), fn: func(context.Context) error {
			p, err := spec.New()
			if err != nil {
				return err
			}
			return oracle.CheckInterleaveInvariance(p, stream)
		}})
	}

	// Equivalence matrix: every built-in workload (if-converted, so the
	// SFPF/PGU paths carry real predicate traffic) plus synthetic
	// programs, through all four equivalence pairs and the reference
	// evaluator.
	mkCase := func(name string, p *prog.Program) oracle.Case {
		return oracle.Case{
			Name: name, Prog: p, Limit: *limit,
			Spec: sim.For("gshare", 12, 8),
			Cfg: core.EvalConfig{
				UseSFPF: true, ResolveDelay: core.DefaultResolveDelay,
				PGU: core.PGUAll, PGUDelay: core.DefaultPGUDelay,
				PerBranch: true,
			},
		}
	}
	var cases []oracle.Case
	for _, w := range workload.Suite() {
		cp, _, err := ifconv.Convert(w.Build(), ifconv.Config{})
		if err != nil {
			return fmt.Errorf("converting %s: %w", w.Name, err)
		}
		cases = append(cases, mkCase(w.Name, cp))
	}
	for i := 0; i < *synth; i++ {
		p := workload.Synth(*seed+uint64(i)*977, 48)
		cases = append(cases, mkCase(fmt.Sprintf("synth-%d", i), p))
	}
	for _, c := range cases {
		c := c
		checks = append(checks,
			check{name: "slice-stream:" + c.Name, fn: func(context.Context) error {
				return oracle.CheckReplayEquivalence(c)
			}},
			check{name: "collect-stream:" + c.Name, fn: func(context.Context) error {
				return oracle.CheckCollectStream(c.Prog, c.Limit)
			}},
			check{name: "roundtrip:" + c.Name, fn: func(context.Context) error {
				return oracle.CheckSerializeRoundTrip(c)
			}},
			check{name: "refeval:" + c.Name, fn: func(context.Context) error {
				return oracle.CheckEvaluator(c)
			}},
			check{name: "fastpath:" + c.Name, fn: func(context.Context) error {
				return oracle.CheckBatchEquivalence(c)
			}})
		if *serveCheck {
			checks = append(checks, check{name: "serve:" + c.Name, fn: func(ctx context.Context) error {
				return checkServe(ctx, c)
			}})
		}
	}

	// Batch equivalence for every selected predictor kind: batched
	// feeding must be metrics-identical to per-event feeding, kind by
	// kind, over a real converted workload.
	for _, kind := range kinds {
		spec := sim.MustParse(kind)
		c := cases[0]
		c.Spec = spec
		checks = append(checks, check{name: "fastpath:" + spec.String(), fn: func(context.Context) error {
			return oracle.CheckBatchEquivalence(c)
		}})
	}

	// Snapshot-resume durability for every selected predictor kind: an
	// evaluation interrupted by a P64S snapshot/restore at any cut point
	// must be bit-identical — metrics and final snapshot bytes — to an
	// uninterrupted run over the same converted workload.
	for _, kind := range kinds {
		spec := sim.MustParse(kind)
		c := cases[0]
		c.Spec = spec
		checks = append(checks, check{name: "snapshot:" + spec.String(), fn: func(context.Context) error {
			return oracle.CheckSnapshotResume(c)
		}})
	}

	// The serial-vs-parallel sweep equivalence runs once over the whole
	// case list; it manages its own worker pool.
	checks = append(checks, check{name: "sweep:serial-vs-parallel", fn: func(ctx context.Context) error {
		return oracle.CheckSweepParallel(ctx, cases, *workers)
	}})

	ctx := context.Background()
	errs, err := sim.Map(ctx, checks, *workers, func(ctx context.Context, c check) (error, error) {
		// A divergence is a result to report, not a job failure: let
		// every check run instead of cancelling the sweep.
		return c.fn(ctx), nil
	})
	if err != nil {
		return err
	}
	var rep oracle.Report
	for i, c := range checks {
		rep.Add(c.name, errs[i])
	}
	fmt.Fprint(out, rep.String())
	if !rep.OK() {
		return fmt.Errorf("%d of %d checks diverged", len(rep.Failures()), len(rep.Checks))
	}
	return nil
}

// checkServe replays one case's event stream through an in-process serve
// session over real HTTP — create, two binary batches, delete — and
// requires the returned metrics to be byte-identical (as canonical JSON)
// to feeding the same events through core.Evaluator directly. It is the
// end-to-end oracle for the prediction-as-a-service path: wire encoding,
// handler plumbing, shard scheduling, and snapshotting must all be
// metrics-transparent.
func checkServe(ctx context.Context, c oracle.Case) error {
	tr, err := trace.Collect(c.Prog, c.Limit)
	if err != nil {
		return err
	}

	// Direct path.
	dcfg := c.Cfg
	if dcfg.Predictor, err = c.Spec.New(); err != nil {
		return err
	}
	e := core.NewEvaluator(dcfg)
	for i := range tr.Events {
		e.Feed(&tr.Events[i])
	}
	e.AddInsts(tr.Insts)
	want, err := json.Marshal(serve.MetricsToJSON(e.Metrics()))
	if err != nil {
		return err
	}

	// Serve path: same events, split across two batches.
	srv := serve.MustNew(serve.Config{Shards: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resolve, pguDelay := c.Cfg.ResolveDelay, c.Cfg.PGUDelay
	req := serve.SessionRequest{
		Spec: c.Spec.String(),
		EvalOptions: serve.EvalOptions{
			SFPF: c.Cfg.UseSFPF, FilterTrue: c.Cfg.FilterTrue,
			TrainFiltered: c.Cfg.TrainFiltered, PerBranch: c.Cfg.PerBranch,
			PGU:          c.Cfg.PGU.String(),
			ResolveDelay: &resolve, PGUDelay: &pguDelay,
		},
	}
	var sess serve.SessionJSON
	if err := serveCall(ctx, ts.URL, "POST", "/v1/sessions", "application/json", mustJSON(req), &sess); err != nil {
		return err
	}
	half := len(tr.Events) / 2
	for _, part := range []struct {
		events []trace.Event
		insts  uint64
	}{{tr.Events[:half], 0}, {tr.Events[half:], tr.Insts}} {
		var buf bytes.Buffer
		bt := &trace.Trace{Name: "batch", Insts: part.insts, Events: part.events}
		if _, err := bt.WriteTo(&buf); err != nil {
			return err
		}
		if err := serveCall(ctx, ts.URL, "POST", "/v1/sessions/"+sess.ID+"/events",
			"application/octet-stream", buf.Bytes(), nil); err != nil {
			return err
		}
	}
	var final serve.SessionJSON
	if err := serveCall(ctx, ts.URL, "DELETE", "/v1/sessions/"+sess.ID, "", nil, &final); err != nil {
		return err
	}
	if final.Metrics == nil {
		return fmt.Errorf("serve: no final metrics")
	}
	got, err := json.Marshal(*final.Metrics)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("serve metrics diverge from direct evaluator:\nserve  %s\ndirect %s", got, want)
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// serveCall is a minimal HTTP helper for the serve oracle.
func serveCall(ctx context.Context, base, method, path, contentType string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("serve: %s %s: HTTP %d: %s", method, path, resp.StatusCode, raw)
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}
