package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/charz"
	"repro/internal/ifconv"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/trace"
)

// replayMin is how long each layer replay repeats its work; a replay
// reports the median over its repetitions.
const replayMin = 200 * time.Millisecond

// serveReplay is how long the serve-tier replay offers load.
const serveReplay = 2 * time.Second

// controlEndpoints are the bpservd session endpoints other than the
// batch feed, as labelled in bpservd_request_seconds.
var controlEndpoints = []string{"create_session", "get_snapshot", "restore_session", "get_stats", "delete_session"}

// layers measures one traced run's per-layer metrics.
type layers struct {
	env *env
	in  *inputs
	out io.Writer // check lines
	m   map[string]metric
}

// layerMetrics drives every layer from outside with the workload's own
// inputs, after the timed phases, and returns the per-layer metrics.
// Every workload measures every layer; the harness stages run the suite,
// which every workload's inputs are cut from.
func layerMetrics(ctx context.Context, env *env, in *inputs, tr *tracer, out io.Writer) (map[string]metric, error) {
	sp := tr.begin("layers")
	l := &layers{env: env, in: in, out: out, m: map[string]metric{}}
	err := l.run(ctx, sp)
	sp.end(err)
	return l.m, err
}

func (l *layers) run(ctx context.Context, parent *span) error {
	for _, step := range []func(context.Context, *span) error{
		l.frontEnd, l.decode, l.feed, l.sim, l.harness, l.serve,
	} {
		if err := step(ctx, parent); err != nil {
			return err
		}
	}
	return nil
}

// ns runs pass until replayMin has elapsed (at least once) and records
// as name the median over passes of nanoseconds per unit of work, where
// pass reports the units it did (scaled to report a coarser time unit).
func (l *layers) ns(parent *span, name, unit string, pass func() (float64, error)) error {
	sp := parent.child(name)
	var per []float64
	for start := time.Now(); len(per) == 0 || time.Since(start) < replayMin; {
		t0 := time.Now()
		work, err := pass()
		if err != nil {
			sp.end(err)
			return fmt.Errorf("%s: %w", name, err)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/work)
	}
	sp.end(nil)
	l.m[name] = metric{median(per), unit}
	return nil
}

// frontEnd covers what turns programs into traces: if-conversion, trace
// collection, the timing model and the characterization pass.
func (l *layers) frontEnd(_ context.Context, parent *span) error {
	in := l.in
	if err := l.ns(parent, "ifconv.convert_ms", "ms", func() (float64, error) {
		for _, p := range in.orig {
			if _, _, err := ifconv.Convert(p, ifconv.Config{}); err != nil {
				return 0, err
			}
		}
		return float64(len(in.orig)) * 1e6, nil // ms per program
	}); err != nil {
		return err
	}
	if err := l.ns(parent, "trace.collect_ns_per_inst", "ns/inst", func() (float64, error) {
		insts := 0.0
		for _, p := range in.conv {
			t, err := trace.Collect(p, traceLimit)
			if err != nil {
				return 0, err
			}
			insts += float64(t.Insts)
		}
		return insts, nil
	}); err != nil {
		return err
	}
	if err := l.ns(parent, "pipeline.ns_per_inst", "ns/inst", func() (float64, error) {
		insts := 0.0
		for _, p := range in.conv {
			ecfg, err := in.configs[0].config()
			if err != nil {
				return 0, err
			}
			cfg := pipeline.DefaultConfig(ecfg.Predictor)
			cfg.UseSFPF, cfg.PGU = ecfg.UseSFPF, ecfg.PGU
			st, err := pipeline.Run(p, cfg, traceLimit)
			if err != nil {
				return 0, err
			}
			insts += float64(st.Insts)
		}
		return insts, nil
	}); err != nil {
		return err
	}
	return l.ns(parent, "charz.ns_per_event", "ns/event", func() (float64, error) {
		for _, t := range in.traces {
			if _, err := charz.Characterize(t, charz.Options{}); err != nil {
				return 0, err
			}
		}
		return float64(traceEvents(in.traces)), nil
	})
}

// decode replays the pool's payloads through trace.ReadTraceFrom exactly
// as bpservd's binary batch handler does: a 64 KiB reader and a reused
// event slice.
func (l *layers) decode(_ context.Context, parent *span) error {
	br := bufio.NewReaderSize(nil, 64<<10)
	scratch := make([]trace.Event, 0, l.in.maxBatch)
	return l.ns(parent, "trace.decode_ns_per_event", "ns/event", func() (float64, error) {
		n := 0
		for i := range l.in.pool {
			br.Reset(bytes.NewReader(l.in.pool[i].payload))
			t, err := trace.ReadTraceFrom(br, scratch)
			if err != nil {
				return 0, err
			}
			scratch = t.Events[:0]
			n += len(t.Events)
		}
		return float64(n), nil
	})
}

// feedTraces feeds every trace through a fresh evaluator for c, in order,
// as a session or a sweep job sees a program's events, and returns the
// events fed.
func (l *layers) feedTraces(c evalSpec) (int, error) {
	n := 0
	for _, t := range l.in.traces {
		e, err := c.evaluator()
		if err != nil {
			return 0, err
		}
		e.FeedBatch(t.Events)
		e.AddInsts(t.Insts)
		n += len(t.Events)
	}
	return n, nil
}

// feed times Evaluator.FeedBatch over the traces: for the workload's own
// configurations together, and for each sweep configuration alone.
func (l *layers) feed(_ context.Context, parent *span) error {
	if err := l.ns(parent, "core.feed_ns_per_event", "ns/event", func() (float64, error) {
		total := 0
		for _, c := range l.in.configs {
			n, err := l.feedTraces(c)
			if err != nil {
				return 0, err
			}
			total += n
		}
		return float64(total), nil
	}); err != nil {
		return err
	}
	for _, c := range sweepConfigs {
		if err := l.ns(parent, "core.feed_ns_per_event."+c.metricName(), "ns/event", func() (float64, error) {
			n, err := l.feedTraces(c)
			return float64(n), err
		}); err != nil {
			return err
		}
	}
	return nil
}

// sim runs the configs × traces grid through sim.Sweep, timing every job
// in its own closure: utilization is busy time over wall time × workers.
func (l *layers) sim(ctx context.Context, parent *span) error {
	sp := parent.child("sim.Sweep")
	var util, skew []float64
	for start := time.Now(); len(util) == 0 || time.Since(start) < replayMin; {
		t0 := time.Now()
		_, busy, err := gridPass(ctx, l.in, sp)
		wall := time.Since(t0)
		if err != nil {
			sp.end(err)
			return err
		}
		ms := make([]float64, len(busy))
		sum := 0.0
		for i, b := range busy {
			ms[i] = float64(b) / float64(time.Millisecond)
			sum += ms[i]
		}
		util = append(util, sum/(float64(wall)/float64(time.Millisecond)*nClients))
		skew = append(skew, stats.Percentile(ms, 100)/median(ms))
	}
	sp.end(nil)
	l.m["sim.utilization"] = metric{median(util), "frac"}
	l.m["sim.job_max_over_p50"] = metric{median(skew), "ratio"}
	return nil
}

// harness times one full regeneration stage by stage. The stages sum to
// the regeneration's wall time up to the loop between them.
func (l *layers) harness(ctx context.Context, parent *span) error {
	exps := regenOrder(l.env.seed)
	t0 := time.Now()
	stages, _, err := regenerate(ctx, exps, parent)
	if err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	l.m["harness.suite_s"] = metric{stages[0].Seconds(), "s"}
	sum := stages[0].Seconds()
	for i, e := range exps {
		l.m["harness.exp_s."+e.ID] = metric{stages[i+1].Seconds(), "s"}
		sum += stages[i+1].Seconds()
	}
	fmt.Fprintf(l.out, "check harness stages sum %.4f s against the regeneration's %.4f s wall (%+.2f%%)\n",
		sum, wall, 100*(sum/wall-1))
	return nil
}

// serve replays session_churn's lifetimes, cut from this workload's
// traces with its configurations, through a fresh bprouter and bpservd,
// and reads both daemons' /metrics before and after.
func (l *layers) serve(ctx context.Context, parent *span) (err error) {
	srv, rt, err := startServeTier(ctx, l.env)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stopAll(srv, rt)) }()
	sp := parent.child("serve.replay")
	defer func() { sp.end(err) }()

	var before, after [2]series
	for i, d := range []*daemon{srv, rt} {
		if before[i], err = scrape(ctx, d.base); err != nil {
			return err
		}
	}
	churn := churnClients(rt.base, "bench-"+l.env.name+"-layers", l.in, l.env.seed)
	cls := make([]loadClient, len(churn))
	for i, cc := range churn {
		cls[i] = cc
	}
	res, err := runClients(ctx, cls, serveReplay, sp)
	if err != nil {
		return err
	}
	for i, d := range []*daemon{srv, rt} {
		if after[i], err = scrape(ctx, d.base); err != nil {
			return err
		}
	}
	// The local verification of every lifetime encodes and decodes its
	// state at the snapshot point; those calls are the snap layer.
	var enc, dec, size []float64
	for _, cc := range churn {
		if err := cc.drain(ctx); err != nil {
			return err
		}
		for _, lt := range cc.lives {
			cost, err := lt.verify()
			if err != nil {
				return err
			}
			enc = append(enc, float64(cost.encode.Nanoseconds())/1e3)
			dec = append(dec, float64(cost.decode.Nanoseconds())/1e3)
			size = append(size, float64(cost.bytes))
		}
	}
	l.m["snap.encode_us"] = metric{stats.Mean(enc), "us"}
	l.m["snap.decode_us"] = metric{stats.Mean(dec), "us"}
	l.m["snap.bytes"] = metric{stats.Mean(size), "bytes"}
	if len(res.ops) == 0 {
		return fmt.Errorf("serve replay posted no batches")
	}
	sd, rd := delta{before[0], after[0]}, delta{before[1], after[1]}

	post, _ := sd.histMean("bpservd_request_seconds", `endpoint="post_events"`)
	l.m["serve.post_events_ms"] = metric{post * 1e3, "ms"}
	for _, ep := range controlEndpoints {
		v, _ := sd.histMean("bpservd_request_seconds", fmt.Sprintf("endpoint=%q", ep))
		l.m["serve.control_ms."+ep] = metric{v * 1e3, "ms"}
	}
	l.m["serve.grouped_frac"] = metric{sd.get("bpservd_sched_grouped_batches_total") / sd.get("bpservd_batches_total"), "frac"}
	l.m["serve.batches_per_pass"] = metric{sd.get("bpservd_batches_total") / sd.get("bpservd_sched_passes_total"), "ratio"}

	// The router's own time per proxied request: its request latency
	// minus the upstream attempts it waited on.
	var reqSum, reqCount float64
	for _, ep := range []string{"create_session", "session"} {
		mean, n := rd.histMean("bprouter_request_seconds", fmt.Sprintf("endpoint=%q", ep))
		reqSum += mean * n
		reqCount += n
	}
	self := (reqSum - rd.total("bprouter_upstream_seconds_sum")) / reqCount * 1e3
	l.m["router.self_ms"] = metric{self, "ms"}
	attempts, _ := rd.histMean("bprouter_upstream_attempts", "")
	l.m["router.attempts_per_req"] = metric{attempts, "ratio"}

	client := stats.Mean(durationsMS(res.ops))
	l.m["serve.transport_ms"] = metric{client - self - post*1e3, "ms"}
	perBatch := 0.0
	for _, o := range res.ops {
		perBatch += float64(o.events)
	}
	perBatch /= float64(len(res.ops))
	work := (l.m["trace.decode_ns_per_event"].Value + l.m["core.feed_ns_per_event"].Value) * perBatch / 1e6
	l.m["serve.residual_ms"] = metric{post*1e3 - work, "ms"}
	fmt.Fprintf(l.out, "check decode+feed %.4f ms per %.0f-event batch against serve.post_events_ms %.4f ms\n",
		work, perBatch, post*1e3)
	return nil
}
