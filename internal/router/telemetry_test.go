package router

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

// TestScrapeLint drives traffic through the router, then requires the
// full /metrics page to pass the strict exposition lint and carry the
// per-endpoint latency histograms and upstream families.
func TestScrapeLint(t *testing.T) {
	c := newCluster(t, 2, "")
	createSession(t, c.front.URL, "lint-1")
	doJSON(t, "GET", c.front.URL+"/v1/sessions/lint-1", nil, http.StatusOK, nil)

	resp, err := http.Get(c.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseText(bytes.NewReader(page))
	if err != nil {
		t.Fatalf("router scrape fails lint: %v\n%s", err, page)
	}
	byName := map[string]telemetry.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f, ok := byName["bprouter_request_seconds"]; !ok {
		t.Error("no per-endpoint latency histogram")
	} else if s := f.Sample("bprouter_request_seconds_count", map[string]string{"endpoint": "session"}); s == nil || s.Value < 1 {
		t.Errorf("request_seconds_count{session} = %+v, want >= 1", s)
	}
	if f, ok := byName["bprouter_requests_total"]; !ok {
		t.Error("no request counter family")
	} else if s := f.Sample("bprouter_requests_total", map[string]string{"endpoint": "create_session", "code": "201"}); s == nil || s.Value != 1 {
		t.Errorf("requests{create_session,201} = %+v, want 1", s)
	}
	if f, ok := byName["bprouter_upstream_seconds"]; !ok {
		t.Error("no upstream latency family")
	} else if len(f.Samples) == 0 {
		t.Error("upstream latency family empty")
	}
	if f, ok := byName["bprouter_upstream_attempts"]; !ok {
		t.Error("no upstream attempts family")
	} else if s := f.Sample("bprouter_upstream_attempts_count", nil); s == nil || s.Value < 2 {
		t.Errorf("upstream_attempts_count = %+v, want >= 2", s)
	}
	if f, ok := byName["bprouter_backend_healthy"]; !ok || len(f.Samples) != 2 {
		t.Errorf("backend_healthy: %+v", f)
	}
	if f, ok := byName["build_info"]; !ok || len(f.Samples) != 1 {
		t.Errorf("build_info: %+v", f)
	}
}

// TestRequestIDAcrossTiers checks a client-supplied request ID survives
// the router hop into the backend's logs, and that the router both logs
// it and echoes it on the response.
func TestRequestIDAcrossTiers(t *testing.T) {
	var backendLog testutil.LogBuffer
	s := serve.MustNew(serve.Config{Shards: 1, Logger: log.New(&backendLog, "", 0)})
	bts := httptest.NewServer(s.Handler())
	defer func() { bts.Close(); s.Close() }()

	var routerLog testutil.LogBuffer
	rt, err := New(Config{Backends: []string{bts.URL}, HealthEvery: time.Hour, Logger: log.New(&routerLog, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer func() { front.Close(); rt.Close() }()

	req, _ := http.NewRequest("GET", front.URL+"/v1/sessions/ghost", nil)
	req.Header.Set(telemetry.RequestIDHeader, "xtier-rid-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Values(telemetry.RequestIDHeader); len(got) != 1 || got[0] != "xtier-rid-7" {
		t.Errorf("response rid header %v, want exactly one xtier-rid-7", got)
	}
	if !strings.Contains(string(body), `"request_id":"xtier-rid-7"`) {
		t.Errorf("backend error envelope through router misses request_id: %s", body)
	}
	for name, buf := range map[string]*testutil.LogBuffer{"router": &routerLog, "backend": &backendLog} {
		if !strings.Contains(buf.String(), "rid=xtier-rid-7") {
			t.Errorf("%s log misses rid: %s", name, buf.String())
		}
	}
}

// TestRouterErrorCarriesRequestID: the router's own error envelopes
// carry the request's correlation ID, as the backends' envelopes do.
// With the only backend down, a request answers 503 no_backend quoting
// the X-Request-Id it was sent with.
func TestRouterErrorCarriesRequestID(t *testing.T) {
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close() // its address now refuses connections
	rt, err := New(Config{Backends: []string{down.URL}, HealthEvery: time.Hour, Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer func() { front.Close(); rt.Close() }()

	_, err = serve.NewClient(front.URL, nil).Feed(context.Background(), "ghost", serve.EncodeBatch(nil, 0), 0, "down-rid-3")
	var ae *serve.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err %v, want an *APIError", err)
	}
	if ae.Status != http.StatusServiceUnavailable || ae.Code != "no_backend" {
		t.Fatalf("status %d, code %q; want 503 no_backend", ae.Status, ae.Code)
	}
	if ae.RequestID != "down-rid-3" {
		t.Errorf("no_backend envelope request_id %q, want down-rid-3", ae.RequestID)
	}
}

// TestUpstreamSeriesPerBackend: each backend's upstream latency handle
// is resolved when the router is built, so the first scrape of a fresh
// router, before any traffic, already carries one series per backend.
func TestUpstreamSeriesPerBackend(t *testing.T) {
	c := newCluster(t, 2, "")
	resp, err := http.Get(c.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var upstream telemetry.Family
	for _, f := range fams {
		if f.Name == "bprouter_upstream_seconds" {
			upstream = f
		}
	}
	for _, b := range c.backends {
		if s := upstream.Sample("bprouter_upstream_seconds_count", map[string]string{"backend": b.URL}); s == nil || s.Value != 0 {
			t.Errorf("upstream_seconds_count{backend=%s} = %+v, want a 0 series", b.URL, s)
		}
	}
}

// newLoggedRouter fronts one in-process backend with a router built
// from cfg, logging into the returned buffer.
func newLoggedRouter(t *testing.T, cfg Config) (front string, logBuf *testutil.LogBuffer) {
	t.Helper()
	s := serve.MustNew(serve.Config{Shards: 1})
	bts := httptest.NewServer(s.Handler())
	logBuf = new(testutil.LogBuffer)
	cfg.Backends = []string{bts.URL}
	cfg.HealthEvery = time.Hour
	cfg.Logger = log.New(logBuf, "", 0)
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		fts.Close()
		rt.Close()
		bts.Close()
		s.Close()
	})
	return fts.URL, logBuf
}

// TestRouterBodyTooLarge: a body over the router's MaxBody answers 413
// body_too_large, quoting the request's X-Request-Id.
func TestRouterBodyTooLarge(t *testing.T) {
	front, _ := newLoggedRouter(t, Config{MaxBody: 64})
	blob := serve.EncodeBatch(testTrace().Events[:16], 16)
	_, err := serve.NewClient(front, nil).Feed(context.Background(), "big", blob, 0, "big-rid-9")
	var ae *serve.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("err %v, want an *APIError", err)
	}
	if ae.Status != http.StatusRequestEntityTooLarge || ae.Code != "body_too_large" || ae.Message != "request body exceeds 64 bytes" {
		t.Errorf("got %d %q %q; want 413 body_too_large", ae.Status, ae.Code, ae.Message)
	}
	if ae.RequestID != "big-rid-9" {
		t.Errorf("request_id %q, want big-rid-9", ae.RequestID)
	}
}

// TestRouterSlowRequestLog: a router request over SlowRequest writes
// the structured slow_request line.
func TestRouterSlowRequestLog(t *testing.T) {
	front, logBuf := newLoggedRouter(t, Config{SlowRequest: time.Nanosecond})
	doJSON(t, "GET", front+"/healthz", nil, http.StatusOK, nil)
	if !strings.Contains(logBuf.String(), "slow_request service=bprouter endpoint=healthz") {
		t.Errorf("no slow_request line: %s", logBuf.String())
	}
}

// TestRouterIDFormats pins the two ID kinds the router mints: session
// IDs r%06x-%08x and request IDs bprouter-%06x-%08x.
func TestRouterIDFormats(t *testing.T) {
	front, _ := newLoggedRouter(t, Config{})
	var sess serve.SessionJSON
	doJSON(t, "POST", front+"/v1/sessions", serve.SessionRequest{Spec: "gshare:12:8"}, http.StatusCreated, &sess)
	if re := regexp.MustCompile(`^r[0-9a-f]{6,}-[0-9a-f]{8}$`); !re.MatchString(sess.ID) {
		t.Errorf("router session ID %q does not match %s", sess.ID, re)
	}
	resp, err := http.Get(front + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rid := resp.Header.Get(telemetry.RequestIDHeader)
	if re := regexp.MustCompile(`^bprouter-[0-9a-f]{6,}-[0-9a-f]{8}$`); !re.MatchString(rid) {
		t.Errorf("router request ID %q does not match %s", rid, re)
	}
}
