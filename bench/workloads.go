package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/oracle"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
)

// nClients is the number of load goroutines and connections, and the
// sweep's worker count: the CPUs of the machine the benchmark was
// calibrated on, so one process never offers more load than it can.
const nClients = 2

// oracleCells is how many sweep grid cells the differential oracle
// re-checks after the timed phase.
const oracleCells = 8

// env is what a workload's set-up needs to know about the run.
type env struct {
	name string // workload name, the prefix of every X-Request-Id
	seed uint64
	root string // repository root; regen reads results/*.csv under it
	out  string // build output: daemons in bin/, portfiles in run/
}

func (e *env) binDir() string { return filepath.Join(e.out, "bin") }
func (e *env) runDir() string { return filepath.Join(e.out, "run") }

// instance is a workload after set-up, ready for timed phases.
type instance interface {
	// phase runs the workload for d. With a tracer, every call the
	// benchmark makes into a layer is a span.
	phase(ctx context.Context, d time.Duration, tr *tracer) (phaseResult, error)
	// finish completes outstanding work and checks every output.
	finish(ctx context.Context) error
	// daemons are the processes the workload started.
	daemons() []*daemon
	// close stops the daemons; an unclean exit is an error.
	close() error
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name string
	// windowed workloads report events_per_s as the median of one-second
	// windows; the others as the median over their (long) ops.
	windowed bool
	configs  []evalSpec
	// minBatch and maxBatch bound the events per posted batch; syn is
	// how many synthetic points join the suite's traces.
	minBatch, maxBatch, syn int
	start                   func(ctx context.Context, env *env, in *inputs) (instance, error)
	// schedule writes the op schedule the seed draws beyond the inputs.
	schedule func(h hash.Hash, seed uint64, in *inputs)
}

var workloads = []workloadDef{
	{name: "serve_stream", windowed: true, configs: streamConfigs, minBatch: 8192, maxBatch: 8192,
		start: startStream, schedule: streamSchedule},
	{name: "session_churn", windowed: true, configs: churnConfigs, minBatch: 256, maxBatch: 2048,
		start: startChurn, schedule: churnSchedule},
	{name: "regen", configs: regenConfigs, minBatch: 8192, maxBatch: 8192,
		start: startRegen, schedule: regenSchedule},
	{name: "sweep", configs: sweepConfigs, minBatch: 8192, maxBatch: 8192, syn: 4,
		start: startSweep, schedule: sweepSchedule},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

func (w workloadDef) inputs(ctx context.Context, seed uint64) (*inputs, error) {
	return newInputs(ctx, seed, w.configs, w.minBatch, w.maxBatch, w.syn)
}

var (
	// streamConfigs is the serving-shaped tight loop: SFPF and PGU off.
	streamConfigs = mustSpecs(serve.EvalOptions{PGU: "off"}, "gshare:12:8")
	// churnConfigs are the session kinds churn draws from, with every
	// mechanism and per-branch statistics on.
	churnConfigs = mustSpecs(serve.EvalOptions{SFPF: true, PGU: "all", PerBranch: true},
		"gshare:14:10", "perceptron:8:24", "tournament:12:8", "agree:12:8")
	// regenConfigs is the harness's default machine, for layer replays.
	regenConfigs = mustSpecs(serve.EvalOptions{SFPF: true, PGU: "all"}, "gshare:12:8")
	// sweepConfigs is every registry kind at its default geometry plus
	// the four global-history kinds at 22 table bits, from L1-resident
	// tables to ones larger than L2.
	sweepConfigs = mustSpecs(serve.EvalOptions{SFPF: true, PGU: "all"}, append(sim.Kinds(),
		"gshare:22:16", "gselect:22:16", "bimodal:22", "tournament:22:16")...)
)

// scheduleHash identifies everything a seed decides about a workload's
// run: the batch pool and the workload's own op schedule.
func scheduleHash(def workloadDef, seed uint64, in *inputs) string {
	h := sha256.New()
	for _, b := range in.pool {
		fmt.Fprintf(h, "%d@%d/%d\n", len(b.events), b.events[0].PC, b.events[0].Step)
	}
	def.schedule(h, seed, in)
	return hex.EncodeToString(h.Sum(nil))
}

// serve_stream: two clients, each with one long-lived session on a
// single bpservd, posting pre-encoded 8192-event batches.

type streamInst struct {
	srv     *daemon
	clients []*streamClient
}

func streamOrder(seed uint64, client, n int) []int {
	return substream(seed, subOrder, client).Perm(n)
}

func streamSchedule(h hash.Hash, seed uint64, in *inputs) {
	for c := 0; c < nClients; c++ {
		fmt.Fprintln(h, streamOrder(seed, c, len(in.pool)))
	}
}

func startStream(ctx context.Context, env *env, in *inputs) (instance, error) {
	srv, err := startDaemon(ctx, env.binDir(), env.runDir(), "bpservd")
	if err != nil {
		return nil, err
	}
	s := &streamInst{srv: srv}
	for i, c := range newClients(srv.base, "bench-"+env.name, nClients) {
		sc := &streamClient{c: c, in: in, id: fmt.Sprintf("stream-%d", i), cfg: in.configs[0],
			order: streamOrder(env.seed, i, len(in.pool))}
		if err := sc.open(ctx); err != nil {
			return nil, errors.Join(err, s.close())
		}
		s.clients = append(s.clients, sc)
	}
	return s, nil
}

func (s *streamInst) phase(ctx context.Context, d time.Duration, tr *tracer) (phaseResult, error) {
	cls := make([]loadClient, len(s.clients))
	for i, sc := range s.clients {
		cls[i] = sc
	}
	return runPhase(ctx, cls, d, tr)
}

// runPhase runs the clients' closed loops for d under one root span.
func runPhase(ctx context.Context, cls []loadClient, d time.Duration, tr *tracer) (phaseResult, error) {
	sp := tr.begin("phase")
	res, err := runClients(ctx, cls, d, sp)
	sp.end(err)
	return res, err
}

func (s *streamInst) finish(ctx context.Context) error {
	for _, sc := range s.clients {
		if err := sc.close(ctx); err != nil {
			return err
		}
		if err := sc.verify(); err != nil {
			return err
		}
	}
	return nil
}

func (s *streamInst) daemons() []*daemon { return []*daemon{s.srv} }
func (s *streamInst) close() error       { return s.srv.stop() }

// session_churn: two clients through bprouter to one bpservd, each
// running session lifetimes back to back.

type churnInst struct {
	srv, rt *daemon
	clients []*churnClient
}

func lifetimes(in *inputs, seed uint64, client int) *lifetimeGen {
	return &lifetimeGen{in: in, r: substream(seed, subLifetimes, client), prefix: fmt.Sprintf("churn-%d", client)}
}

// churnSchedule hashes the first lifetimes of every client.
func churnSchedule(h hash.Hash, seed uint64, in *inputs) {
	for c := 0; c < nClients; c++ {
		g := lifetimes(in, seed, c)
		for i := 0; i < 16; i++ {
			lt, err := g.next()
			if err != nil {
				fmt.Fprintln(h, err)
				return
			}
			lt.describe(h)
		}
	}
}

// startServeTier starts a bpservd behind a bprouter.
func startServeTier(ctx context.Context, env *env) (srv, rt *daemon, err error) {
	if srv, err = startDaemon(ctx, env.binDir(), env.runDir(), "bpservd"); err != nil {
		return nil, nil, err
	}
	if rt, err = startDaemon(ctx, env.binDir(), env.runDir(), "bprouter", "-backends", srv.base); err != nil {
		return nil, nil, errors.Join(err, srv.stop())
	}
	return srv, rt, nil
}

// churnClients builds the lifetime-walking clients for a router.
func churnClients(base, ridPrefix string, in *inputs, seed uint64) []*churnClient {
	var out []*churnClient
	for i, c := range newClients(base, ridPrefix, nClients) {
		out = append(out, &churnClient{c: c, gen: lifetimes(in, seed, i)})
	}
	return out
}

func startChurn(ctx context.Context, env *env, in *inputs) (instance, error) {
	srv, rt, err := startServeTier(ctx, env)
	if err != nil {
		return nil, err
	}
	return &churnInst{srv: srv, rt: rt, clients: churnClients(rt.base, "bench-"+env.name, in, env.seed)}, nil
}

func (s *churnInst) phase(ctx context.Context, d time.Duration, tr *tracer) (phaseResult, error) {
	cls := make([]loadClient, len(s.clients))
	for i, cc := range s.clients {
		cls[i] = cc
	}
	return runPhase(ctx, cls, d, tr)
}

func (s *churnInst) finish(ctx context.Context) error {
	for _, cc := range s.clients {
		if err := cc.drain(ctx); err != nil {
			return err
		}
		for _, lt := range cc.lives {
			if _, err := lt.verify(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *churnInst) daemons() []*daemon { return []*daemon{s.srv, s.rt} }
func (s *churnInst) close() error       { return stopAll(s.srv, s.rt) }

// regen: in-process regeneration of every experiment table, each
// iteration building the suite afresh and running E1–E15 in a
// seed-permuted order.

type regenInst struct {
	in         *inputs
	exps       []harness.Experiment
	golden     map[string]string // results/<table>.csv
	mismatches []string
}

func regenOrder(seed uint64) []harness.Experiment {
	all := harness.All()
	out := make([]harness.Experiment, len(all))
	for i, j := range substream(seed, subRegen, 0).Perm(len(all)) {
		out[i] = all[j]
	}
	return out
}

func regenSchedule(h hash.Hash, seed uint64, _ *inputs) {
	for _, e := range regenOrder(seed) {
		fmt.Fprint(h, e.ID, " ")
	}
}

func startRegen(_ context.Context, env *env, in *inputs) (instance, error) {
	files, err := filepath.Glob(filepath.Join(env.root, "results", "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no results/*.csv under %s", env.root)
	}
	s := &regenInst{in: in, exps: regenOrder(env.seed), golden: map[string]string{}}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		s.golden[filepath.Base(f)] = string(b)
	}
	return s, nil
}

// regenerate builds the suite and runs exps once, timing each stage:
// stage 0 builds the suite, stage i+1 runs exps[i]. It returns every
// table's CSV by its results/ file name.
func regenerate(ctx context.Context, exps []harness.Experiment, parent *span) ([]time.Duration, map[string]string, error) {
	cfg := harness.Config{Limit: traceLimit}
	t0 := time.Now()
	sp := parent.child("harness.NewSuiteContext")
	suite, err := harness.NewSuiteContext(ctx, cfg)
	sp.end(err)
	if err != nil {
		return nil, nil, err
	}
	stages := []time.Duration{time.Since(t0)}
	csv := map[string]string{}
	for _, e := range exps {
		t0 = time.Now()
		sp := parent.child("harness." + e.ID)
		tables, err := e.Run(ctx, suite, cfg)
		sp.end(err)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		stages = append(stages, time.Since(t0))
		r := harness.Result{Experiment: e, Tables: tables}
		for i, t := range tables {
			csv[r.TableName(i)+".csv"] = t.CSV()
		}
	}
	return stages, csv, nil
}

func (s *regenInst) phase(ctx context.Context, d time.Duration, tr *tracer) (phaseResult, error) {
	var res phaseResult
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		sp := tr.begin("regen")
		_, csv, err := regenerate(ctx, s.exps, sp)
		sp.end(err)
		res.attempted += 1 + len(s.exps)
		if err != nil {
			res.failed++
			return res, err
		}
		if len(csv) != len(s.golden) {
			s.mismatches = append(s.mismatches, fmt.Sprintf("%d tables against %d files", len(csv), len(s.golden)))
			res.failed++
		}
		for name, got := range csv {
			if s.golden[name] != got {
				s.mismatches = append(s.mismatches, name)
				res.failed++
			}
		}
		t1 := time.Now()
		res.ops = append(res.ops, op{end: t1.Sub(start), dur: t1.Sub(t0), events: s.in.suiteEvents})
	}
	return res, nil
}

func (s *regenInst) finish(context.Context) error {
	if len(s.mismatches) > 0 {
		return fmt.Errorf("regenerated tables differ from results/: %v", s.mismatches)
	}
	return nil
}

func (s *regenInst) daemons() []*daemon { return nil }
func (s *regenInst) close() error       { return nil }

// sweep: sim.Sweep over every configuration × trace, SFPF and PGU on.

type sweepInst struct {
	in       *inputs
	seed     uint64
	first    []core.Metrics // every pass must reproduce the first
	diverged int
}

func startSweep(_ context.Context, env *env, in *inputs) (instance, error) {
	return &sweepInst{in: in, seed: env.seed}, nil
}

// gridPass runs one sim.Sweep over configs × traces with nClients
// workers, timing every job in its own closure. Results are in
// config-major order.
func gridPass(ctx context.Context, in *inputs, parent *span) ([]core.Metrics, []time.Duration, error) {
	busy := make([]time.Duration, len(in.configs)*len(in.traces))
	jobs := make([]sim.Job[core.Metrics], 0, len(busy))
	for _, c := range in.configs {
		for _, t := range in.traces {
			c, t, slot := c, t, &busy[len(jobs)]
			jobs = append(jobs, func(context.Context) (core.Metrics, error) {
				t0 := time.Now()
				sp := parent.child("sim.job")
				e, err := c.evaluator()
				if err != nil {
					sp.end(err)
					return core.Metrics{}, err
				}
				e.FeedBatch(t.Events)
				e.AddInsts(t.Insts)
				sp.end(nil)
				*slot = time.Since(t0)
				return e.Metrics(), nil
			})
		}
	}
	res, err := sim.Sweep(ctx, jobs, nClients)
	return res, busy, err
}

func (s *sweepInst) phase(ctx context.Context, d time.Duration, tr *tracer) (phaseResult, error) {
	var res phaseResult
	events := traceEvents(s.in.traces) * len(s.in.configs)
	start := time.Now()
	for time.Since(start) < d {
		t0 := time.Now()
		sp := tr.begin("sim.Sweep")
		got, _, err := gridPass(ctx, s.in, sp)
		sp.end(err)
		res.attempted += len(got)
		if err != nil {
			res.failed++
			return res, err
		}
		t1 := time.Now()
		if s.first == nil {
			s.first = got
		} else if !reflect.DeepEqual(got, s.first) {
			s.diverged++
			res.failed++
		}
		res.ops = append(res.ops, op{end: t1.Sub(start), dur: t1.Sub(t0), events: events})
	}
	return res, nil
}

// sweepCells draws the grid cells the oracle re-checks, as
// (config, trace) index pairs.
func sweepCells(seed uint64, in *inputs) [][2]int {
	r := substream(seed, subCells, 0)
	cells := make([][2]int, oracleCells)
	for i := range cells {
		cells[i] = [2]int{r.Intn(len(in.configs)), r.Intn(len(in.traces))}
	}
	return cells
}

func sweepSchedule(h hash.Hash, seed uint64, in *inputs) {
	for _, t := range in.traces {
		fmt.Fprint(h, t.Name, " ")
	}
	fmt.Fprintln(h, sweepCells(seed, in))
}

// finish requires every pass to have equalled the first, then re-checks
// seed-drawn cells: the swept metrics must equal core.Evaluate of the
// same trace, which oracle.CheckEvaluator holds against the naive
// reference evaluator.
func (s *sweepInst) finish(context.Context) error {
	if s.diverged > 0 {
		return fmt.Errorf("%d grid passes differ from the first", s.diverged)
	}
	for _, cell := range sweepCells(s.seed, s.in) {
		c, t := s.in.configs[cell[0]], s.in.traces[cell[1]]
		cfg, err := c.config()
		if err != nil {
			return err
		}
		want := core.Evaluate(t, cfg)
		if got := s.first[cell[0]*len(s.in.traces)+cell[1]]; !reflect.DeepEqual(got, want) {
			return fmt.Errorf("sweep cell %s × %s differs from core.Evaluate", c.spec, t.Name)
		}
		if err := oracle.CheckEvaluator(oracle.Case{
			Name: t.Name, Prog: s.in.conv[cell[1]], Limit: traceLimit, Spec: c.spec, Cfg: cfg,
		}); err != nil {
			return err
		}
	}
	return nil
}

func (s *sweepInst) daemons() []*daemon { return nil }
func (s *sweepInst) close() error       { return nil }

// traceEvents counts the events of a set of traces.
func traceEvents(ts []*trace.Trace) int {
	n := 0
	for _, t := range ts {
		n += len(t.Events)
	}
	return n
}
