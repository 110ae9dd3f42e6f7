// Command bpload is the load generator and smoke checker for bpservd. It
// drives N concurrent sessions with binary event batches from a workload
// trace and reports throughput and batch latency percentiles, optionally
// verifying that the server's metrics are byte-identical to replaying the
// same batches through the evaluator locally. It speaks the API through
// serve.Client, whose *serve.APIError carries each refusal's status and
// code; an error that is not one (the request may never have arrived)
// is what cluster mode redelivers.
//
// Usage:
//
//	bpload -addr 127.0.0.1:8080 -sessions 8 -events 1000000
//	bpload -addr 127.0.0.1:8080 -smoke        # one pass over every endpoint
//
// Cluster mode points bpload at a bprouter front tier instead of a single
// backend: sessions get explicit IDs (so the ring owns their placement),
// every batch carries a sequence number (so a retried batch is
// deduplicated, not double-counted), and transport failures are retried
// rather than fatal. With -kill the run SIGTERMs one backend once the
// fleet is halfway through its batches: of the listed backends, the
// first that holds a session of this run. Combined with -verify this is
// the zero-lost-state check: the dying backend spills its sessions, the
// survivor warm-restores them, and the final metrics must still be
// byte-identical to an uninterrupted local replay.
//
//	bpload -addr 127.0.0.1:9090 -cluster -verify -kill 127.0.0.1:8081=$PID1,127.0.0.1:8082=$PID2
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bpload:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bpload", flag.ContinueOnError)
	addr := fs.String("addr", "", "bpservd address (host:port), required")
	sessions := fs.Int("sessions", 8, "concurrent sessions")
	events := fs.Uint64("events", 1_000_000, "total events to stream across all sessions")
	batch := fs.Int("batch", 4096, "events per batch")
	spec := fs.String("spec", "gshare:14:10", "predictor spec for every session")
	wname := fs.String("w", "scan", "workload supplying the event stream")
	convert := fs.Bool("convert", true, "if-convert the workload before tracing")
	limit := fs.Uint64("limit", 0, "dynamic instruction limit for trace collection (0 = run to completion)")
	sfpf := fs.Bool("sfpf", true, "enable the false-predicate filter")
	pgu := fs.String("pgu", "all", "PGU policy: off | region | branch | all")
	perBranch := fs.Bool("per-branch", false, "collect per-branch statistics in every session (enables /stats introspection and the h2p metric families)")
	verify := fs.Bool("verify", false, "check server metrics byte-identical to a local replay")
	cluster := fs.Bool("cluster", false, "cluster mode: explicit session IDs, per-batch seq numbers, retry on transport failure (for runs behind bprouter)")
	idPrefix := fs.String("id-prefix", "bpload", "session ID prefix in cluster mode")
	keep := fs.Bool("keep", false, "leave sessions resident after the run (final metrics are read, not deleted)")
	ridPrefix := fs.String("rid-prefix", "", "inject an X-Request-Id of <prefix>-s<worker>-q<seq> on every event batch, stable across redeliveries (empty disables)")
	kill := fs.String("kill", "", "backends as addr=pid,...: once the run crosses -kill-after of its batches, SIGTERM the first that holds a session of this run (cluster mode)")
	killAfter := fs.Float64("kill-after", 0.5, "fraction of total batches after which -kill fires")
	smoke := fs.Bool("smoke", false, "run the endpoint smoke sequence instead of a load run")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall deadline")
	jsonOut := fs.Bool("json", false, "print the report as JSON")
	version := buildinfo.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("bpload"))
		return nil
	}
	if *addr == "" {
		return fmt.Errorf("need -addr")
	}
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	c := serve.NewClient("http://"+*addr, &http.Client{})
	opts := serve.EvalOptions{SFPF: *sfpf, PGU: *pgu, PerBranch: *perBranch}
	if *smoke {
		return runSmoke(ctx, c, out, *spec, *wname)
	}

	tr, err := collectTrace(*wname, *convert, *limit)
	if err != nil {
		return err
	}
	if *sessions < 1 || *batch < 1 {
		return fmt.Errorf("need -sessions >= 1 and -batch >= 1")
	}
	targets, err := parseKill(*kill)
	if err != nil {
		return err
	}
	if len(targets) > 0 && !*cluster {
		return fmt.Errorf("-kill requires -cluster (a lone backend cannot lose a member)")
	}
	rep, err := runLoad(ctx, c, tr, loadConfig{
		sessions: *sessions, events: *events, batch: *batch,
		spec: *spec, opts: opts, verify: *verify,
		cluster: *cluster, idPrefix: *idPrefix,
		keep: *keep, ridPrefix: *ridPrefix,
		kill: targets, killAfter: *killAfter,
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Fprintf(out, "sessions        %d\n", rep.Sessions)
	fmt.Fprintf(out, "events          %d\n", rep.Events)
	fmt.Fprintf(out, "batches         %d\n", rep.Batches)
	fmt.Fprintf(out, "retries (429)   %d\n", rep.Retries)
	if rep.Redeliveries > 0 || rep.Killed != 0 {
		fmt.Fprintf(out, "redeliveries    %d\n", rep.Redeliveries)
	}
	if rep.Killed != 0 {
		fmt.Fprintf(out, "killed backend  %s pid %d mid-run\n", rep.KilledAddr, rep.Killed)
	}
	fmt.Fprintf(out, "errors          %d\n", rep.Errors)
	fmt.Fprintf(out, "batch latency   p50 %.3fms  p90 %.3fms  p99 %.3fms\n",
		rep.LatencyP50Ms, rep.LatencyP90Ms, rep.LatencyP99Ms)
	if rep.Verified {
		fmt.Fprintln(out, "verify          server metrics byte-identical to local replay")
	}
	// The aggregate end-to-end rate is the number a serve-tier
	// optimization is judged on, so it is the last line of the run.
	fmt.Fprintf(out, "aggregate       %.3g events/s end-to-end (%d events across %d sessions in %.3fs)\n",
		rep.EventsPerSec, rep.Events, rep.Sessions, rep.ElapsedSec)
	return nil
}

func collectTrace(wname string, convert bool, limit uint64) (*trace.Trace, error) {
	w, err := repro.WorkloadByName(wname)
	if err != nil {
		return nil, err
	}
	p := w.Build()
	if convert {
		if p, _, err = repro.IfConvert(p, repro.IfConvConfig{}); err != nil {
			return nil, err
		}
	}
	return repro.CollectTrace(p, limit)
}

// batcher deterministically slices a trace into fixed-size batches,
// cycling from the start when exhausted. Instruction credit is
// apportioned so a whole cycle credits exactly tr.Insts; the verify
// replay walks the identical sequence.
type batcher struct {
	tr    *trace.Trace
	size  int
	pos   int
	insts uint64 // credited so far in the current cycle
}

func (b *batcher) next() ([]trace.Event, uint64) {
	n := len(b.tr.Events)
	end := b.pos + b.size
	if end > n {
		end = n
	}
	events := b.tr.Events[b.pos:end]
	credit := b.tr.Insts * uint64(end) / uint64(n)
	insts := credit - b.insts
	b.insts = credit
	b.pos = end
	if b.pos == n {
		b.pos, b.insts = 0, 0
	}
	return events, insts
}

type loadConfig struct {
	sessions  int
	events    uint64
	batch     int
	spec      string
	opts      serve.EvalOptions
	verify    bool
	cluster   bool
	idPrefix  string
	keep      bool
	ridPrefix string
	kill      []killTarget
	killAfter float64
}

// killTarget is one -kill entry: a backend's address and its PID.
type killTarget struct {
	addr string
	pid  int
}

// parseKill parses -kill's addr=pid,... list.
func parseKill(s string) ([]killTarget, error) {
	var out []killTarget
	for _, kv := range strings.Split(s, ",") {
		if kv == "" {
			continue
		}
		addr, pid, ok := strings.Cut(kv, "=")
		n, err := strconv.Atoi(pid)
		if !ok || addr == "" || err != nil || n <= 0 {
			return nil, fmt.Errorf("-kill: %q is not addr=pid", kv)
		}
		out = append(out, killTarget{addr: addr, pid: n})
	}
	return out, nil
}

// pickKill returns the index of the first listing that holds a session
// of this run (its ID starts with prefix), or -1 when none does.
func pickKill(listings [][]serve.SessionJSON, prefix string) int {
	for i, l := range listings {
		for _, s := range l {
			if strings.HasPrefix(s.ID, prefix) {
				return i
			}
		}
	}
	return -1
}

// Report is the load run summary (also the -json output shape).
type Report struct {
	Sessions     int     `json:"sessions"`
	Events       uint64  `json:"events"`
	Batches      uint64  `json:"batches"`
	Retries      uint64  `json:"retries_429"`
	Redeliveries uint64  `json:"redeliveries,omitempty"` // transport retries + deduplicated batches (cluster mode)
	Killed       int     `json:"killed_pid,omitempty"`   // backend PID this run SIGTERMed mid-stream
	KilledAddr   string  `json:"killed_addr,omitempty"`  // and its address
	Errors       uint64  `json:"errors"`
	ElapsedSec   float64 `json:"elapsed_sec"`
	EventsPerSec float64 `json:"events_per_sec"`
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	LatencyP90Ms float64 `json:"latency_p90_ms"`
	LatencyP99Ms float64 `json:"latency_p99_ms"`
	Verified     bool    `json:"verified,omitempty"`
}

func runLoad(ctx context.Context, c *serve.Client, tr *trace.Trace, cfg loadConfig) (*Report, error) {
	perSession := cfg.events / uint64(cfg.sessions)
	if perSession == 0 {
		perSession = 1
	}

	// Cluster-mode failure injection: once the fleet has delivered
	// killAfter of its total batches, SIGTERM exactly once the first
	// listed backend that holds a session of this run. The run must ride
	// through it.
	perSessionBatches := (perSession + uint64(cfg.batch) - 1) / uint64(cfg.batch)
	killAt := uint64(float64(perSessionBatches*uint64(cfg.sessions)) * cfg.killAfter)
	var fleetBatches atomic.Uint64
	var killOnce sync.Once
	var killed *killTarget
	maybeKill := func() {
		if len(cfg.kill) == 0 || fleetBatches.Load() < killAt {
			return
		}
		killOnce.Do(func() {
			listings := make([][]serve.SessionJSON, len(cfg.kill))
			for i, t := range cfg.kill {
				listings[i], _ = serve.NewClient("http://"+t.addr, nil).List(ctx)
			}
			if i := pickKill(listings, cfg.idPrefix+"-"); i >= 0 {
				killed = &cfg.kill[i]
				syscall.Kill(killed.pid, syscall.SIGTERM)
			}
		})
	}

	// retriable reports whether cluster mode should redeliver the batch:
	// transport failures (the backend died mid-request) and gateway
	// errors (the router had no healthy owner yet). Seq dedup on the
	// backends makes redelivery safe.
	retriable := func(err error) bool {
		if !cfg.cluster {
			return false
		}
		var ae *serve.APIError
		if !errors.As(err, &ae) {
			return true // transport-level failure
		}
		return ae.Status == http.StatusBadGateway || ae.Status == http.StatusServiceUnavailable
	}

	type workerResult struct {
		sent       uint64
		batches    uint64
		retries    uint64
		redelivery uint64
		latencies  []float64
		final      serve.SessionJSON
		err        error
	}
	results := make([]workerResult, cfg.sessions)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.sessions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[i]
			backoff := func() bool {
				select {
				case <-time.After(5 * time.Millisecond):
					return true
				case <-ctx.Done():
					res.err = ctx.Err()
					return false
				}
			}
			var sess serve.SessionJSON
			req := serve.SessionRequest{Spec: cfg.spec, EvalOptions: cfg.opts}
			if cfg.cluster {
				req.ID = fmt.Sprintf("%s-%d", cfg.idPrefix, i)
			}
			for {
				sess, res.err = c.Create(ctx, req)
				if res.err == nil || !retriable(res.err) {
					break
				}
				res.redelivery++
				if !backoff() {
					return
				}
			}
			if res.err != nil {
				return
			}
			b := &batcher{tr: tr, size: cfg.batch}
			var seq uint64
			for res.sent < perSession {
				events, insts := b.next()
				blob := serve.EncodeBatch(events, insts)
				seq++
				var sendSeq uint64
				if cfg.cluster {
					sendSeq = seq
				}
				// One rid per batch, fixed before the retry loop: every
				// redelivery of this batch carries the same ID.
				var rid string
				if cfg.ridPrefix != "" {
					rid = fmt.Sprintf("%s-s%d-q%d", cfg.ridPrefix, i, seq)
				}
				for {
					t0 := time.Now()
					_, err := c.Feed(ctx, sess.ID, blob, sendSeq, rid)
					if err == nil {
						res.latencies = append(res.latencies, float64(time.Since(t0).Microseconds())/1000)
						break
					}
					var ae *serve.APIError
					if errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests {
						res.retries++
						if !backoff() {
							return
						}
						continue
					}
					if retriable(err) {
						res.redelivery++
						if !backoff() {
							return
						}
						continue
					}
					res.err = err
					return
				}
				res.sent += uint64(len(events))
				res.batches++
				fleetBatches.Add(1)
				maybeKill()
			}
			if !cfg.cluster {
				if cfg.keep {
					res.final, res.err = c.Get(ctx, sess.ID)
				} else {
					res.final, res.err = c.Delete(ctx, sess.ID)
				}
				return
			}
			// Cluster teardown is split so every step is idempotent: read
			// the final metrics with a retriable GET, then delete, where a
			// 404 after a redelivery means the first attempt won.
			for {
				res.final, res.err = c.Get(ctx, sess.ID)
				if res.err == nil || !retriable(res.err) {
					break
				}
				res.redelivery++
				if !backoff() {
					return
				}
			}
			if res.err != nil || cfg.keep {
				return
			}
			deleted := false
			for {
				_, err := c.Delete(ctx, sess.ID)
				var ae *serve.APIError
				if err == nil || (deleted && errors.As(err, &ae) && ae.Status == http.StatusNotFound) {
					return
				}
				if !retriable(err) {
					res.err = err
					return
				}
				deleted = true // the lost attempt may have landed
				res.redelivery++
				if !backoff() {
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{Sessions: cfg.sessions, ElapsedSec: elapsed.Seconds()}
	var lat []float64
	for i := range results {
		res := &results[i]
		if res.err != nil {
			rep.Errors++
			continue
		}
		rep.Events += res.sent
		rep.Batches += res.batches
		rep.Retries += res.retries
		rep.Redeliveries += res.redelivery
		lat = append(lat, res.latencies...)
	}
	if killed != nil {
		rep.Killed, rep.KilledAddr = killed.pid, killed.addr
	}
	if rep.Errors > 0 {
		for i := range results {
			if results[i].err != nil {
				return rep, fmt.Errorf("session worker %d: %w", i, results[i].err)
			}
		}
	}
	rep.EventsPerSec = float64(rep.Events) / elapsed.Seconds()
	rep.LatencyP50Ms = stats.Percentile(lat, 50)
	rep.LatencyP90Ms = stats.Percentile(lat, 90)
	rep.LatencyP99Ms = stats.Percentile(lat, 99)

	if cfg.verify {
		want, err := localReplay(tr, cfg, perSession)
		if err != nil {
			return rep, err
		}
		for i := range results {
			if results[i].final.Metrics == nil {
				return rep, fmt.Errorf("session worker %d: no final metrics", i)
			}
			if err := compareMetrics(*results[i].final.Metrics, want); err != nil {
				return rep, fmt.Errorf("session worker %d: %w", i, err)
			}
		}
		rep.Verified = true
	}
	return rep, nil
}

// localReplay walks the exact batch sequence a load worker sends through
// the evaluator directly; every session sends the same sequence, so one
// replay checks them all.
func localReplay(tr *trace.Trace, cfg loadConfig, perSession uint64) (core.Metrics, error) {
	ecfg, err := cfg.opts.Config()
	if err != nil {
		return core.Metrics{}, err
	}
	if ecfg.Predictor, err = sim.NewPredictor(cfg.spec); err != nil {
		return core.Metrics{}, err
	}
	e := core.NewEvaluator(ecfg)
	b := &batcher{tr: tr, size: cfg.batch}
	var sent uint64
	for sent < perSession {
		events, insts := b.next()
		for i := range events {
			e.Feed(&events[i])
		}
		e.AddInsts(insts)
		sent += uint64(len(events))
	}
	return e.Metrics(), nil
}

// compareMetrics requires the server's metrics to be byte-identical to
// the local ones under the canonical JSON encoding.
func compareMetrics(got serve.MetricsJSON, want core.Metrics) error {
	gotBytes, err := json.Marshal(got)
	if err != nil {
		return err
	}
	wantBytes, err := json.Marshal(serve.MetricsToJSON(want))
	if err != nil {
		return err
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		return fmt.Errorf("metrics diverge from local replay:\nserver %s\nlocal  %s", gotBytes, wantBytes)
	}
	return nil
}

// runSmoke exercises every endpoint once: listings, the full session
// lifecycle over both wire formats with a byte-identical metrics check,
// a sweep, and the /metrics families. Any failure is fatal.
func runSmoke(ctx context.Context, c *serve.Client, out io.Writer, spec, wname string) error {
	step := func(name string, err error) error {
		if err != nil {
			return fmt.Errorf("smoke %s: %w", name, err)
		}
		fmt.Fprintf(out, "ok %s\n", name)
		return nil
	}

	if err := step("healthz", c.Health(ctx)); err != nil {
		return err
	}
	preds, err := c.Predictors(ctx)
	if err == nil && len(preds.Kinds) == 0 {
		err = fmt.Errorf("no predictor kinds listed")
	}
	if err := step("predictors", err); err != nil {
		return err
	}
	_, err = c.Workloads(ctx)
	if err := step("workloads", err); err != nil {
		return err
	}

	tr, err := collectTrace(wname, true, 0)
	if err != nil {
		return err
	}
	opts := serve.EvalOptions{SFPF: true, PGU: "all", PerBranch: true}

	sess, err := c.Create(ctx, serve.SessionRequest{Spec: spec, EvalOptions: opts})
	if err := step("create session", err); err != nil {
		return err
	}

	// JSON batch: the first events, verbatim.
	cut := len(tr.Events) / 4
	jsonBatch := serve.BatchRequest{Events: make([]serve.EventJSON, cut)}
	for i := 0; i < cut; i++ {
		jsonBatch.Events[i] = serve.EventToJSON(&tr.Events[i])
	}
	br, err := c.FeedJSON(ctx, sess.ID, jsonBatch)
	if err == nil && br.Events != cut {
		err = fmt.Errorf("acked %d events, want %d", br.Events, cut)
	}
	if err := step("post JSON batch", err); err != nil {
		return err
	}

	// Binary batch: the rest of the trace plus the instruction credit.
	br, err = c.Feed(ctx, sess.ID, serve.EncodeBatch(tr.Events[cut:], tr.Insts), 0, "")
	if err == nil && br.TotalEvents != uint64(len(tr.Events)) {
		err = fmt.Errorf("session total %d events, want %d", br.TotalEvents, len(tr.Events))
	}
	if err := step("post binary batch", err); err != nil {
		return err
	}

	got, err := c.Get(ctx, sess.ID)
	if err == nil && got.Metrics == nil {
		err = fmt.Errorf("no metrics in session read")
	}
	if err := step("read metrics", err); err != nil {
		return err
	}

	sweep, err := c.Sweep(ctx, serve.SweepRequest{
		Specs: []string{spec, "bimodal:10"}, Workload: wname,
		Convert: true, EvalOptions: opts,
	})
	if err == nil {
		if len(sweep.Rows) != 2 {
			err = fmt.Errorf("sweep returned %d rows, want 2", len(sweep.Rows))
		} else if sweep.Rows[0].Metrics.Branches == 0 {
			err = fmt.Errorf("sweep row has zero branches")
		}
	}
	if err := step("sweep", err); err != nil {
		return err
	}

	// Delete and verify the final metrics byte-identically: the session
	// saw the whole trace once, which is one batch of the whole trace in
	// the load run's replay.
	final, err := c.Delete(ctx, sess.ID)
	if err == nil && final.Metrics == nil {
		err = fmt.Errorf("no final metrics")
	}
	if err == nil {
		var want core.Metrics
		all := loadConfig{spec: spec, opts: opts, batch: len(tr.Events)}
		if want, err = localReplay(tr, all, uint64(len(tr.Events))); err == nil {
			err = compareMetrics(*final.Metrics, want)
		}
	}
	if err := step("delete and verify", err); err != nil {
		return err
	}

	text, err := c.Metrics(ctx)
	for _, family := range []string{
		"bpservd_requests_total",
		"bpservd_request_seconds_bucket",
		"bpservd_events_total",
		"bpservd_sessions_created_total",
		"bpservd_sessions_live",
		"bpservd_queue_depth",
	} {
		if err == nil && !strings.Contains(text, family) {
			err = fmt.Errorf("/metrics missing family %s", family)
		}
	}
	if err := step("metrics families", err); err != nil {
		return err
	}
	fmt.Fprintln(out, "smoke passed")
	return nil
}
