package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testTrace lazily collects one if-converted workload trace shared by
// the package's tests.
var testTrace = sync.OnceValue(func() *trace.Trace {
	p, _, err := ifconv.Convert(workload.ByNameMust("scan").Build(), ifconv.Config{})
	if err != nil {
		panic(err)
	}
	tr, err := trace.Collect(p, 0)
	if err != nil {
		panic(err)
	}
	return tr
})

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	s := MustNew(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts, s
}

func doJSON(t *testing.T, method, url string, body any, wantCode int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: got %d, want %d; body: %s", method, url, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad response JSON %q: %v", method, url, raw, err)
		}
	}
}

func testEvalOptions() EvalOptions {
	return EvalOptions{SFPF: true, PGU: "all", PerBranch: true}
}

func directMetrics(t *testing.T, tr *trace.Trace, spec string, opts EvalOptions, replays int) core.Metrics {
	t.Helper()
	cfg, err := opts.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Predictor, err = sim.MustParse(spec).New(); err != nil {
		t.Fatal(err)
	}
	e := core.NewEvaluator(cfg)
	for r := 0; r < replays; r++ {
		for i := range tr.Events {
			e.Feed(&tr.Events[i])
		}
		e.AddInsts(tr.Insts)
	}
	return e.Metrics()
}

// TestSessionLifecycle walks the full session flow — create, JSON batch,
// binary batch, incremental read, delete — and requires the final
// metrics to be identical to feeding the same events through
// core.Evaluator directly.
func TestSessionLifecycle(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	tr := testTrace()

	var sess SessionJSON
	doJSON(t, "POST", ts.URL+"/v1/sessions",
		SessionRequest{Spec: "gshare:12:8", EvalOptions: testEvalOptions()},
		http.StatusCreated, &sess)
	if sess.ID == "" || sess.Spec != "gshare:12:8" {
		t.Fatalf("bad session: %+v", sess)
	}

	// Replay 1: JSON events in two batches, instruction count on the last.
	half := len(tr.Events) / 2
	batch := func(events []trace.Event, insts uint64) BatchRequest {
		req := BatchRequest{Insts: insts, Events: make([]EventJSON, len(events))}
		for i := range events {
			req.Events[i] = EventToJSON(&events[i])
		}
		return req
	}
	var ack BatchResponse
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/events", batch(tr.Events[:half], 0), http.StatusOK, &ack)
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/events?metrics=1", batch(tr.Events[half:], tr.Insts), http.StatusOK, &ack)
	if ack.TotalEvents != uint64(len(tr.Events)) {
		t.Fatalf("total events %d, want %d", ack.TotalEvents, len(tr.Events))
	}
	if ack.Metrics == nil || ack.Metrics.Branches == 0 {
		t.Fatalf("no incremental metrics in batch ack: %+v", ack)
	}

	// Replay 2: the same events as one binary P64T batch.
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/events", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary batch: %d", resp.StatusCode)
	}

	// Incremental read, then close; both must agree with the direct path.
	var got SessionJSON
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, http.StatusOK, &got)
	if got.Events != 2*uint64(len(tr.Events)) {
		t.Fatalf("session events %d, want %d", got.Events, 2*len(tr.Events))
	}
	var closed SessionJSON
	doJSON(t, "DELETE", ts.URL+"/v1/sessions/"+sess.ID, nil, http.StatusOK, &closed)
	if closed.Metrics == nil {
		t.Fatal("no final metrics")
	}
	want := directMetrics(t, tr, "gshare:12:8", testEvalOptions(), 2)
	gotMetrics, err := closed.Metrics.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, gotMetrics) {
		t.Errorf("served metrics diverge from direct evaluation:\nserved: %+v\ndirect: %+v", gotMetrics, want)
	}
	wantJSON, _ := json.Marshal(MetricsToJSON(want))
	gotJSON, _ := json.Marshal(*closed.Metrics)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("served metrics JSON not byte-identical:\nserved: %s\ndirect: %s", gotJSON, wantJSON)
	}

	// The session is gone now.
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, http.StatusNotFound, nil)
}

// TestErrorEnvelopes checks the consistent JSON error envelope across
// failure classes.
func TestErrorEnvelopes(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxBody: 512})
	check := func(method, url string, body any, wantCode int, wantErrCode string) {
		t.Helper()
		var envelope ErrorBody
		doJSON(t, method, url, body, wantCode, &envelope)
		if envelope.Error.Code != wantErrCode {
			t.Errorf("%s %s: error code %q, want %q (message %q)",
				method, url, envelope.Error.Code, wantErrCode, envelope.Error.Message)
		}
	}
	check("POST", ts.URL+"/v1/sessions", SessionRequest{Spec: "nope"}, http.StatusBadRequest, "bad_spec")
	check("POST", ts.URL+"/v1/sessions", SessionRequest{Spec: "gshare", EvalOptions: EvalOptions{PGU: "everything"}},
		http.StatusBadRequest, "bad_request")
	check("GET", ts.URL+"/v1/sessions/s-missing", nil, http.StatusNotFound, "not_found")
	check("DELETE", ts.URL+"/v1/sessions/s-missing", nil, http.StatusNotFound, "not_found")
	check("POST", ts.URL+"/v1/sessions/s-missing/events", BatchRequest{}, http.StatusNotFound, "not_found")
	check("POST", ts.URL+"/v1/sweep", SweepRequest{}, http.StatusBadRequest, "bad_request")
	check("POST", ts.URL+"/v1/sweep", SweepRequest{Specs: []string{"gshare"}, Workload: "nope"},
		http.StatusBadRequest, "bad_workload")

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d, want 400", resp.StatusCode)
	}

	// Oversized body → 413.
	var sess SessionJSON
	doJSON(t, "POST", ts.URL+"/v1/sessions", SessionRequest{Spec: "gshare"}, http.StatusCreated, &sess)
	big := BatchRequest{Events: make([]EventJSON, 512)}
	for i := range big.Events {
		big.Events[i] = EventJSON{Kind: "branch"}
	}
	check("POST", ts.URL+"/v1/sessions/"+sess.ID+"/events", big, http.StatusRequestEntityTooLarge, "body_too_large")

	// Oversized binary (P64T) bodies → 413 too, on the events and the
	// sweep endpoints alike.
	var bin bytes.Buffer
	if _, err := (&trace.Trace{Name: "big", Events: make([]trace.Event, 100)}).WriteTo(&bin); err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{ts.URL + "/v1/sessions/" + sess.ID + "/events", ts.URL + "/v1/sweep?spec=gshare"} {
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var envelope ErrorBody
		json.NewDecoder(resp.Body).Decode(&envelope)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || envelope.Error.Code != "body_too_large" {
			t.Errorf("POST %s with a %d-byte binary body: %d %q, want 413 body_too_large (message %q)",
				url, bin.Len(), resp.StatusCode, envelope.Error.Code, envelope.Error.Message)
		}
	}

	// Bad event kind.
	check("POST", ts.URL+"/v1/sessions/"+sess.ID+"/events",
		BatchRequest{Events: []EventJSON{{Kind: "jump"}}}, http.StatusBadRequest, "bad_event")
}

// TestSweepEndpoint sweeps a grid over a named workload and over an
// uploaded binary trace, and checks rows come back in spec order with
// metrics identical to running the engine directly.
func TestSweepEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	specs := []string{"bimodal:10", "gshare:10:6", "taken"}

	var resp SweepResponse
	doJSON(t, "POST", ts.URL+"/v1/sweep",
		SweepRequest{Specs: specs, Workload: "scan", Convert: true, EvalOptions: testEvalOptions()},
		http.StatusOK, &resp)
	if len(resp.Rows) != len(specs) {
		t.Fatalf("got %d rows, want %d", len(resp.Rows), len(specs))
	}
	tr := testTrace()
	for i, row := range resp.Rows {
		if row.Spec != sim.MustParse(specs[i]).String() {
			t.Errorf("row %d spec %q, want %q", i, row.Spec, specs[i])
		}
		want := MetricsToJSON(directMetrics(t, tr, specs[i], testEvalOptions(), 1))
		if !reflect.DeepEqual(want, row.Metrics) {
			t.Errorf("row %d (%s) diverges from direct evaluation", i, row.Spec)
		}
	}

	// Binary upload form: specs and options in the query string.
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	url := ts.URL + "/v1/sweep?spec=bimodal:10,gshare:10:6&sfpf=1&pgu=all&per_branch=1"
	httpResp, err := http.Post(url, "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var up SweepResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&up); err != nil || httpResp.StatusCode != http.StatusOK {
		t.Fatalf("binary sweep: status %d err %v", httpResp.StatusCode, err)
	}
	if len(up.Rows) != 2 || up.Events != len(tr.Events) {
		t.Fatalf("binary sweep response: %d rows, %d events", len(up.Rows), up.Events)
	}
	if !reflect.DeepEqual(up.Rows[0].Metrics, MetricsToJSON(directMetrics(t, tr, "bimodal:10", testEvalOptions(), 1))) {
		t.Error("uploaded-trace sweep diverges from direct evaluation")
	}
}

// TestSweepTimeout forces a tiny per-request deadline and expects 504
// with the timeout error code. The fan-out is held until the deadline
// has passed: a fast sweep could otherwise finish inside it and answer
// 200.
func TestSweepTimeout(t *testing.T) {
	ts, s := newTestServer(t, Config{})
	s.sweepHold = func(ctx context.Context) { <-ctx.Done() }
	var envelope ErrorBody
	doJSON(t, "POST", ts.URL+"/v1/sweep",
		SweepRequest{
			Specs:    []string{"gshare:14:12", "gshare:14:10", "gshare:14:8", "gshare:14:6"},
			Workload: "scan", Convert: true, TimeoutMS: 1,
		},
		http.StatusGatewayTimeout, &envelope)
	if envelope.Error.Code != "timeout" {
		t.Errorf("error code %q, want timeout", envelope.Error.Code)
	}
}

// cancelOnStep is a predictor that cancels a context at its first
// step: a sweep cancelled while it is evaluating.
type cancelOnStep struct {
	bpred.Predictor
	cancel context.CancelFunc
}

func (p cancelOnStep) PredictUpdate(pc uint64, taken bool) bool {
	p.cancel()
	return p.Predictor.PredictUpdate(pc, taken)
}

// TestEvaluateCtx: the sweep's chunked evaluation matches core.Evaluate,
// and a context cancelled mid-trace stops it with the context's error
// instead of metrics for the whole trace.
func TestEvaluateCtx(t *testing.T) {
	tr, err := trace.Collect(workload.ByNameMust("scan").Build(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) <= sweepChunk {
		t.Fatalf("scan has %d events, not more than one %d-event chunk", len(tr.Events), sweepChunk)
	}
	cfg := core.EvalConfig{
		Predictor: sim.For("gshare", 12, 8).MustNew(),
		UseSFPF:   true, ResolveDelay: core.DefaultResolveDelay,
		PGU: core.PGUAll, PGUDelay: core.DefaultPGUDelay,
	}
	want := core.Evaluate(tr, cfg)
	got, err := evaluateCtx(context.Background(), tr, cfg)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("chunked evaluation: err %v, metrics %+v; want %+v", err, got, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.Predictor = cancelOnStep{sim.For("gshare", 12, 8).MustNew(), cancel}
	if _, err := evaluateCtx(ctx, tr, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("evaluation cancelled mid-trace returned %v, want context.Canceled", err)
	}
}

// TestSweepSpecLimit rejects oversized grids.
func TestSweepSpecLimit(t *testing.T) {
	ts, _ := newTestServer(t, Config{MaxSweepSpecs: 2})
	var envelope ErrorBody
	doJSON(t, "POST", ts.URL+"/v1/sweep",
		SweepRequest{Specs: []string{"taken", "nottaken", "bimodal"}, Workload: "scan"},
		http.StatusBadRequest, &envelope)
}

// TestRateLimit exhausts a one-token bucket and expects 429.
func TestRateLimit(t *testing.T) {
	ts, _ := newTestServer(t, Config{RatePerSec: 0.001, RateBurst: 1})
	doJSON(t, "GET", ts.URL+"/v1/predictors", nil, http.StatusOK, nil)
	var envelope ErrorBody
	doJSON(t, "GET", ts.URL+"/v1/predictors", nil, http.StatusTooManyRequests, &envelope)
	if envelope.Error.Code != "rate_limited" {
		t.Errorf("error code %q, want rate_limited", envelope.Error.Code)
	}
	// /healthz and /metrics are not rate limited.
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)
}

// TestListingsAndHealth covers the discovery endpoints.
func TestListingsAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	var preds PredictorsResponse
	doJSON(t, "GET", ts.URL+"/v1/predictors", nil, http.StatusOK, &preds)
	if len(preds.Kinds) == 0 || preds.Usage == "" {
		t.Errorf("empty predictor listing: %+v", preds)
	}
	var wls []WorkloadJSON
	doJSON(t, "GET", ts.URL+"/v1/workloads", nil, http.StatusOK, &wls)
	if len(wls) == 0 {
		t.Error("empty workload listing")
	}
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)

	var sess SessionJSON
	doJSON(t, "POST", ts.URL+"/v1/sessions", SessionRequest{Spec: "bimodal"}, http.StatusCreated, &sess)
	var list struct {
		Count    int           `json:"count"`
		Sessions []SessionJSON `json:"sessions"`
	}
	doJSON(t, "GET", ts.URL+"/v1/sessions", nil, http.StatusOK, &list)
	if list.Count != 1 || len(list.Sessions) != 1 || list.Sessions[0].ID != sess.ID {
		t.Errorf("bad session list: %+v", list)
	}
}

// TestMetricsEndpoint checks the Prometheus exposition carries the
// request counters, latency histograms, and session gauges the smoke
// test consumes.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	var sess SessionJSON
	doJSON(t, "POST", ts.URL+"/v1/sessions", SessionRequest{Spec: "gshare"}, http.StatusCreated, &sess)
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID, nil, http.StatusOK, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`bpservd_requests_total{endpoint="create_session",code="201"} 1`,
		`bpservd_request_seconds_bucket{endpoint="get_session",le="+Inf"} 1`,
		`bpservd_request_seconds_count{endpoint="create_session"} 1`,
		"bpservd_sessions_live 1",
		"bpservd_sessions_created_total 1",
		"bpservd_queue_depth 0",
		"bpservd_session_bytes",
		"bpservd_events_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("bad /metrics content type %q", resp.Header.Get("Content-Type"))
	}
}

// TestPprofWired checks the profiling endpoints answer.
func TestPprofWired(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/: %d", resp.StatusCode)
	}
}

// TestRequestLogging checks one structured line per request reaches the
// configured logger.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logWriter := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	ts, _ := newTestServer(t, Config{Logger: log.New(logWriter, "", 0)})
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)
	mu.Lock()
	defer mu.Unlock()
	if !strings.Contains(buf.String(), "endpoint=healthz status=200") {
		t.Errorf("no structured request log line, got %q", buf.String())
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestGracefulDrain floods sessions with concurrent batches while the
// server shuts down; every batch acknowledged to a client must have been
// applied (the events counter agrees exactly), and late batches fail
// with the shutting-down error instead of hanging.
func TestGracefulDrain(t *testing.T) {
	s := MustNew(Config{Shards: 2, QueueDepth: 256})
	ctx := context.Background()
	tr := testTrace()
	events := tr.Events[:200]

	ids := make([]string, 4)
	for i := range ids {
		cfg, _ := testEvalOptions().Config()
		cfg.Predictor = sim.For("gshare", 10, 6).MustNew()
		inf, err := s.mgr.Create(ctx, "", sim.For("gshare", 10, 6), cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = inf.ID
	}

	var accepted atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				batch := append([]trace.Event(nil), events...)
				if _, err := s.mgr.Feed(ctx, id, batch, 0, 0, false); err == nil {
					accepted.Add(uint64(len(events)))
				} else {
					return // ErrClosing or ErrBusy near shutdown
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	s.Close()
	close(stop)
	wg.Wait()

	if got, want := s.tel.events.Value(), accepted.Load(); got != want {
		t.Errorf("drained events %d != acknowledged events %d", got, want)
	}
	if _, err := s.mgr.Feed(ctx, ids[0], nil, 0, 0, false); err == nil {
		t.Error("feed after Close succeeded")
	}
}
