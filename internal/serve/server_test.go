package serve

import (
	"bytes"
	"context"
	"encoding/json"
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

	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/sim"
	"repro/internal/testutil"
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

// doJSON sends body (none if nil, a []byte verbatim as a binary body,
// anything else encoded as JSON), requires wantCode, and decodes the
// JSON reply into out if non-nil.
func doJSON(t *testing.T, method, url string, body any, wantCode int, out any) {
	t.Helper()
	var rd io.Reader
	contentType := "application/json"
	switch b := body.(type) {
	case nil:
	case []byte:
		rd, contentType = bytes.NewReader(b), "application/octet-stream"
	default:
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
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

// TestSessionLifecycle walks the full session flow — create, a replay
// in two batches, a replay in one, incremental read, delete — and
// requires the final metrics to be identical to feeding the same events
// through core.Evaluator directly.
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

	// Replay 1: two batches, instruction count on the last.
	half := len(tr.Events) / 2
	var ack BatchResponse
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/events", EncodeBatch(tr.Events[:half], 0), http.StatusOK, &ack)
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/events?metrics=1", EncodeBatch(tr.Events[half:], tr.Insts), http.StatusOK, &ack)
	if ack.TotalEvents != uint64(len(tr.Events)) {
		t.Fatalf("total events %d, want %d", ack.TotalEvents, len(tr.Events))
	}
	if ack.Metrics == nil || ack.Metrics.Branches == 0 {
		t.Fatalf("no incremental metrics in batch ack: %+v", ack)
	}

	// Replay 2: the same events as one batch.
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/events", EncodeBatch(tr.Events, tr.Insts), http.StatusOK, nil)

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
	check("POST", ts.URL+"/v1/sessions/s-missing/events", EncodeBatch(nil, 0), http.StatusNotFound, "not_found")

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
	events := ts.URL + "/v1/sessions/" + sess.ID + "/events"
	check("POST", events, EncodeBatch(make([]trace.Event, 100), 0), http.StatusRequestEntityTooLarge, "body_too_large")

	// Events enter only as P64T: a JSON batch fails the magic check, and
	// so does a record of an unknown kind.
	check("POST", events, map[string]any{"events": []map[string]any{{"kind": "branch"}}},
		http.StatusBadRequest, "bad_trace")
	check("POST", events, EncodeBatch([]trace.Event{{Kind: 9}}, 0), http.StatusBadRequest, "bad_trace")

	// A binary body holding two traces back to back: the bytes after the
	// first trace's declared events are refused, not silently dropped.
	// The server's default body limit leaves room for both traces.
	ts2, _ := newTestServer(t, Config{})
	var sess2 SessionJSON
	doJSON(t, "POST", ts2.URL+"/v1/sessions", SessionRequest{Spec: "gshare"}, http.StatusCreated, &sess2)
	ten := EncodeBatch(make([]trace.Event, 10), 0)
	check("POST", ts2.URL+"/v1/sessions/"+sess2.ID+"/events", append(ten, ten...), http.StatusBadRequest, "bad_trace")
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

// TestRemovedEndpoints pins the sweep and workload-listing endpoints as
// gone: grids over whole traces run in-process, not in the daemon.
func TestRemovedEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	for _, ep := range []struct{ method, name string }{{"POST", "sweep"}, {"GET", "workloads"}} {
		doJSON(t, ep.method, ts.URL+"/v1/"+ep.name, nil, http.StatusNotFound, nil)
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
	var buf testutil.LogBuffer
	ts, _ := newTestServer(t, Config{Logger: log.New(&buf, "", 0)})
	doJSON(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)
	if !strings.Contains(buf.String(), "endpoint=healthz status=200") {
		t.Errorf("no structured request log line, got %q", buf.String())
	}
}

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

// TestCloseWhileListening: Close may run while the HTTP server still
// listens. It spills the live sessions, and from then on every API
// request and /healthz answers 503 shutting_down, the refusal a router
// retries on the session's next owner.
func TestCloseWhileListening(t *testing.T) {
	ts, s := newTestServer(t, Config{Shards: 2, SpillDir: t.TempDir()})
	doJSON(t, "POST", ts.URL+"/v1/sessions", SessionRequest{ID: "closing", Spec: "gshare:10:6"}, http.StatusCreated, nil)
	batch := EncodeBatch(testTrace().Events[:64], 64)
	doJSON(t, "POST", ts.URL+"/v1/sessions/closing/events?seq=1", batch, http.StatusOK, nil)
	if live := s.Close(); live != 1 {
		t.Fatalf("Close reported %d live sessions, want 1", live)
	}
	if !s.mgr.spill.has("closing") {
		t.Fatal("Close did not spill the live session")
	}
	for _, req := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/v1/sessions/closing/events?seq=2", batch},
		{"POST", "/v1/sessions", SessionRequest{ID: "late", Spec: "gshare:10:6"}},
		{"GET", "/v1/sessions/closing", nil},
		{"GET", "/healthz", nil},
	} {
		var env ErrorBody
		doJSON(t, req.method, ts.URL+req.path, req.body, http.StatusServiceUnavailable, &env)
		if env.Error.Code != "shutting_down" {
			t.Errorf("%s %s after Close: code %q, want shutting_down", req.method, req.path, env.Error.Code)
		}
	}
}
