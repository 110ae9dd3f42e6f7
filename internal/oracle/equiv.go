package oracle

import (
	"bytes"
	"context"
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Case is one program × predictor-configuration evaluation used by the
// equivalence checks. Cfg.Predictor is ignored: each side of a check
// constructs a fresh predictor from Spec, so the two paths can never
// share mutable state and agree by accident.
type Case struct {
	Name  string
	Prog  *prog.Program
	Limit uint64
	Spec  sim.Spec
	Cfg   core.EvalConfig
}

// config returns the evaluation config with a freshly built predictor.
func (c Case) config() (core.EvalConfig, error) {
	p, err := c.Spec.New()
	if err != nil {
		return core.EvalConfig{}, err
	}
	cfg := c.Cfg
	cfg.Predictor = p
	return cfg, nil
}

// metricsDiff renders a field-by-field description of how two Metrics
// differ, so a divergence report names the counter instead of dumping
// two structs to eyeball.
func metricsDiff(a, b core.Metrics) string {
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	t := av.Type()
	var out []string
	for i := 0; i < t.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			out = append(out, fmt.Sprintf("%s: %v vs %v", t.Field(i).Name, av.Field(i), bv.Field(i)))
		}
	}
	if len(out) == 0 {
		return "metrics equal"
	}
	return fmt.Sprint(out)
}

// CheckSerializeRoundTrip collects the case's trace, serializes it,
// deserializes it, and requires (a) the deserialized trace to be
// structurally identical and (b) an evaluation replayed over it to
// produce bit-identical metrics.
func CheckSerializeRoundTrip(c Case) error {
	tr, err := trace.Collect(c.Prog, c.Limit)
	if err != nil {
		return fmt.Errorf("oracle: %s: collect: %w", c.Name, err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		return fmt.Errorf("oracle: %s: serialize: %w", c.Name, err)
	}
	back, err := trace.ReadTrace(&buf)
	if err != nil {
		return fmt.Errorf("oracle: %s: deserialize: %w", c.Name, err)
	}
	if !reflect.DeepEqual(tr, back) {
		return fmt.Errorf("oracle: %s: trace did not survive the serialize round trip", c.Name)
	}
	cfgA, err := c.config()
	if err != nil {
		return err
	}
	cfgB, err := c.config()
	if err != nil {
		return err
	}
	before := core.Evaluate(tr, cfgA)
	after := core.Evaluate(back, cfgB)
	if !reflect.DeepEqual(before, after) {
		return fmt.Errorf("oracle: %s: replay after round trip diverges: %s", c.Name, metricsDiff(before, after))
	}
	return nil
}

// CheckBatchEquivalence replays the case's trace through per-event Feed
// calls and through FeedBatch in uneven batch sizes, and requires
// bit-identical Metrics: state carried across batch boundaries (pending
// predicate bits, the choice between the full and the tight loop) must
// not depend on how the stream is cut. Evaluate feeds a whole trace in
// one batch, serving sessions feed client-sized batches and sweeps feed
// fixed-size chunks, and all of them rely on that.
func CheckBatchEquivalence(c Case) error {
	tr, err := trace.Collect(c.Prog, c.Limit)
	if err != nil {
		return fmt.Errorf("oracle: %s: collect: %w", c.Name, err)
	}
	cfgGeneric, err := c.config()
	if err != nil {
		return err
	}
	generic := core.NewEvaluator(cfgGeneric)
	for i := range tr.Events {
		generic.Feed(&tr.Events[i])
	}
	generic.AddInsts(tr.Insts)

	// Uneven batch sizes: a 1-event batch, a huge batch, and odd sizes
	// that leave stragglers, so batch-boundary state carry is exercised.
	for _, size := range []int{1, 7, 1024, 1 << 20} {
		cfgBatch, err := c.config()
		if err != nil {
			return err
		}
		batch := core.NewEvaluator(cfgBatch)
		for i := 0; i < len(tr.Events); i += size {
			end := i + size
			if end > len(tr.Events) {
				end = len(tr.Events)
			}
			batch.FeedBatch(tr.Events[i:end])
		}
		batch.AddInsts(tr.Insts)
		if got, want := batch.Metrics(), generic.Metrics(); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("oracle: %s: batch fast path (size %d) diverges from generic Feed: %s",
				c.Name, size, metricsDiff(got, want))
		}
	}
	return nil
}

// CheckSweepParallel runs the cases' evaluations twice — in a plain
// serial loop and fanned out over sim.Sweep's worker pool — and requires
// the result slices to be identical, which is the determinism guarantee
// (results in job order, independent of scheduling) plus the safety of
// sharing one collected trace's event slice across concurrent evaluations.
func CheckSweepParallel(ctx context.Context, cases []Case, workers int) error {
	traces := make([]*trace.Trace, len(cases))
	for i, c := range cases {
		tr, err := trace.Collect(c.Prog, c.Limit)
		if err != nil {
			return fmt.Errorf("oracle: %s: collect: %w", c.Name, err)
		}
		traces[i] = tr
	}
	eval := func(i int) (core.Metrics, error) {
		cfg, err := cases[i].config()
		if err != nil {
			return core.Metrics{}, err
		}
		return core.Evaluate(traces[i], cfg), nil
	}
	serial := make([]core.Metrics, len(cases))
	for i := range cases {
		m, err := eval(i)
		if err != nil {
			return err
		}
		serial[i] = m
	}
	idx := make([]int, len(cases))
	for i := range idx {
		idx[i] = i
	}
	parallel, err := sim.Map(ctx, idx, workers, func(_ context.Context, i int) (core.Metrics, error) {
		return eval(i)
	})
	if err != nil {
		return fmt.Errorf("oracle: parallel sweep: %w", err)
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			return fmt.Errorf("oracle: %s: serial and parallel sweep diverge: %s",
				cases[i].Name, metricsDiff(serial[i], parallel[i]))
		}
	}
	return nil
}
