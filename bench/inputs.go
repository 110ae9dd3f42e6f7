package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/ifconv"
	"repro/internal/prog"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// traceLimit is the emulation bound the harness collects suite traces
// under; the benchmark's own collections use the same one.
const traceLimit = 3_000_000

// poolEvents is how many events of seed-drawn batches each workload's
// batch pool holds: enough that the stream clients cycle over 64
// distinct 8192-event batches, and that layer replays see a realistic
// mix of trace positions.
const poolEvents = 64 * 8192

// evalSpec is one predictor configuration a workload evaluates.
type evalSpec struct {
	spec sim.Spec
	opts serve.EvalOptions
}

func mustSpecs(opts serve.EvalOptions, texts ...string) []evalSpec {
	out := make([]evalSpec, len(texts))
	for i, t := range texts {
		out[i] = evalSpec{spec: sim.MustParse(t), opts: opts}
	}
	return out
}

func (s evalSpec) config() (core.EvalConfig, error) {
	cfg, err := s.opts.Config()
	if err != nil {
		return cfg, err
	}
	cfg.Predictor, err = s.spec.New()
	return cfg, err
}

func (s evalSpec) evaluator() (*core.Evaluator, error) {
	cfg, err := s.config()
	if err != nil {
		return nil, err
	}
	return core.NewEvaluator(cfg), nil
}

// metricName renders the spec for use inside a metric name, which
// allows no colons: gshare:12:8 -> gshare_12_8.
func (s evalSpec) metricName() string { return strings.ReplaceAll(s.spec.String(), ":", "_") }

// batch is a run of consecutive events of one trace with its P64T
// encoding. Its instruction credit is the step span it covers.
type batch struct {
	events  []trace.Event
	insts   uint64
	payload []byte
}

func newBatch(events []trace.Event) (batch, error) {
	b := batch{events: events, insts: events[len(events)-1].Step - events[0].Step + 1}
	var buf bytes.Buffer
	t := &trace.Trace{Name: "batch", Insts: b.insts, Events: events}
	if _, err := t.WriteTo(&buf); err != nil {
		return batch{}, fmt.Errorf("encode batch: %w", err)
	}
	b.payload = buf.Bytes()
	return b, nil
}

// inputs is everything a workload feeds the system, generated from the
// seed in set-up. Layer replays in a traced run drive each layer with
// the same inputs.
type inputs struct {
	orig, conv []*prog.Program // programs before and after if-conversion
	traces     []*trace.Trace  // traces of conv, in the same order
	configs    []evalSpec      // the predictor configurations evaluated
	// minBatch and maxBatch bound the events per batch the workload's
	// clients post.
	minBatch, maxBatch int
	pool               []batch // seed-drawn batches, poolEvents in all
	suiteEvents        int     // events of every suite trace, before and after conversion
}

// substream derives an independent generator for one consumer of the
// seed (a use, and a client index where each client draws its own), so
// adding draws to one consumer never shifts another's inputs.
func substream(seed uint64, use, index int) *rng.Source {
	return rng.New(rng.New(seed ^ uint64(use<<16|index)*0x9e3779b97f4a7c15).Uint64())
}

// Uses of the seed.
const (
	subPool = iota + 1
	subSyn
	subOrder
	subLifetimes
	subRegen
	subCells
)

// newInputs builds the if-converted suite (harness.NewSuiteContext), adds
// syn seed-drawn synthetic catalog points, and cuts the batch pool.
func newInputs(ctx context.Context, seed uint64, configs []evalSpec, minBatch, maxBatch, syn int) (*inputs, error) {
	suite, err := harness.NewSuiteContext(ctx, harness.Config{Limit: traceLimit})
	if err != nil {
		return nil, err
	}
	in := &inputs{configs: configs, minBatch: minBatch, maxBatch: maxBatch}
	for _, e := range suite.Entries {
		in.orig = append(in.orig, e.Orig)
		in.conv = append(in.conv, e.Conv)
		in.traces = append(in.traces, e.ConvTrace)
		in.suiteEvents += len(e.OrigTrace.Events) + len(e.ConvTrace.Events)
	}
	for _, w := range synPoints(seed, syn) {
		orig := w.Build()
		conv, _, err := ifconv.Convert(orig, ifconv.Config{})
		if err != nil {
			return nil, fmt.Errorf("convert %s: %w", w.Name, err)
		}
		tr, err := trace.Collect(conv, traceLimit)
		if err != nil {
			return nil, fmt.Errorf("collect %s: %w", w.Name, err)
		}
		in.orig, in.conv, in.traces = append(in.orig, orig), append(in.conv, conv), append(in.traces, tr)
	}
	// The pool visits the traces round-robin, so the seed moves offsets
	// and sizes but not the pool's mix of traces, which sets its cost.
	r := substream(seed, subPool, 0)
	for i, n := 0, 0; n < poolEvents; i++ {
		size, t := in.batchSize(r), in.traces[i%len(in.traces)]
		if len(t.Events) < size {
			continue
		}
		b, err := newBatch(cutFrom(r, t, size))
		if err != nil {
			return nil, err
		}
		in.pool = append(in.pool, b)
		n += size
	}
	return in, nil
}

// synPoints draws n synthetic catalog points, one per family (syn:bias,
// syn:lag, ...) in name order, so the seed picks each family's point but
// the mix of families, which sets the points' cost, stays fixed.
func synPoints(seed uint64, n int) []workload.Workload {
	var families [][]workload.Workload
	for _, w := range workload.Synthetics() {
		fam := strings.Join(strings.SplitN(w.Name, ":", 3)[:2], ":")
		if k := len(families); k > 0 && strings.HasPrefix(families[k-1][0].Name, fam+":") {
			families[k-1] = append(families[k-1], w)
		} else {
			families = append(families, []workload.Workload{w})
		}
	}
	r := substream(seed, subSyn, 0)
	var out []workload.Workload
	for _, fam := range families[:min(n, len(families))] {
		out = append(out, fam[r.Intn(len(fam))])
	}
	return out
}

func (in *inputs) batchSize(r *rng.Source) int {
	return in.minBatch + r.Intn(in.maxBatch-in.minBatch+1)
}

// cut returns n consecutive events of a seed-drawn trace at a seed-drawn
// offset, from the traces long enough to hold them. n must not exceed
// longestTrace.
func (in *inputs) cut(r *rng.Source, n int) []trace.Event {
	var fit []*trace.Trace
	for _, t := range in.traces {
		if len(t.Events) >= n {
			fit = append(fit, t)
		}
	}
	return cutFrom(r, fit[r.Intn(len(fit))], n)
}

// cutFrom returns n consecutive events of t at a seed-drawn offset.
func cutFrom(r *rng.Source, t *trace.Trace, n int) []trace.Event {
	off := r.Intn(len(t.Events) - n + 1)
	return t.Events[off : off+n : off+n]
}

// longestTrace is the event count of the longest trace.
func (in *inputs) longestTrace() int {
	n := 0
	for _, t := range in.traces {
		n = max(n, len(t.Events))
	}
	return n
}
