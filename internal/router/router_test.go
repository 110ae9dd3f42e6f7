package router

import (
	"bytes"
	"encoding/json"
	"fmt"
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

	"repro/internal/ifconv"
	"repro/internal/serve"
	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/internal/workload"
)

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

// cluster is a router fronting n in-process bpservd backends that share
// one spill directory.
type cluster struct {
	rt       *Router
	front    *httptest.Server
	backends []*httptest.Server
	serves   []*serve.Server
}

func newCluster(t *testing.T, n int, spill string) *cluster {
	t.Helper()
	c := &cluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := serve.MustNew(serve.Config{Shards: 2, SpillDir: spill})
		ts := httptest.NewServer(s.Handler())
		c.serves = append(c.serves, s)
		c.backends = append(c.backends, ts)
		urls[i] = ts.URL
	}
	rt, err := New(Config{Backends: urls, HealthEvery: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.rt = rt
	c.front = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		c.front.Close()
		rt.Close()
		for i := range c.backends {
			c.backends[i].Close()
			c.serves[i].Close()
		}
	})
	return c
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
			t.Fatalf("bad response JSON %q: %v", raw, err)
		}
	}
}

func createSession(t *testing.T, base, id string) serve.SessionJSON {
	t.Helper()
	var sess serve.SessionJSON
	doJSON(t, "POST", base+"/v1/sessions",
		serve.SessionRequest{ID: id, Spec: "gshare:12:8", EvalOptions: serve.EvalOptions{SFPF: true, PGU: "all"}},
		http.StatusCreated, &sess)
	return sess
}

func feedBatch(t *testing.T, base, id string, events []trace.Event, seq uint64) serve.BatchResponse {
	t.Helper()
	var resp serve.BatchResponse
	doJSON(t, "POST", fmt.Sprintf("%s/v1/sessions/%s/events?seq=%d", base, id, seq),
		serve.EncodeBatch(events, 0), http.StatusOK, &resp)
	return resp
}

// TestRingDeterminismAndSpread: the ring must give every ID a stable
// owner and spread IDs across all backends.
func TestRingDeterminismAndSpread(t *testing.T) {
	c := newCluster(t, 3, "")
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("spread-%d", i)
		b1 := c.rt.pick(id, (*Backend).up)
		b2 := c.rt.pick(id, (*Backend).up)
		if b1 != b2 {
			t.Fatalf("pick not deterministic for %s", id)
		}
		counts[b1.URL]++
	}
	if len(counts) != 3 {
		t.Fatalf("300 ids landed on %d of 3 backends: %v", len(counts), counts)
	}
	for url, n := range counts {
		if n < 30 {
			t.Fatalf("backend %s got only %d/300 ids: %v", url, n, counts)
		}
	}
}

// TestSessionAffinity: all traffic for one session lands on its ring
// owner, and the router-generated ID is returned to the client.
func TestSessionAffinity(t *testing.T) {
	c := newCluster(t, 2, "")
	sess := createSession(t, c.front.URL, "")
	if sess.ID == "" {
		t.Fatal("router did not assign an id")
	}
	events := testTrace().Events[:200]
	feedBatch(t, c.front.URL, sess.ID, events, 1)
	feedBatch(t, c.front.URL, sess.ID, events, 2)

	// The session exists on exactly the owner backend.
	owner := c.rt.pick(sess.ID, (*Backend).up)
	found := 0
	for i, ts := range c.backends {
		var got serve.SessionJSON
		req, _ := http.NewRequest("GET", ts.URL+"/v1/sessions/"+sess.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			found++
			if ts.URL != owner.URL {
				t.Fatalf("session on backend %d, ring owner is %s", i, owner.URL)
			}
			json.NewDecoder(resp.Body).Decode(&got)
			if got.Events != 400 || got.LastSeq != 2 {
				t.Fatalf("owner state: %+v", got)
			}
		}
		resp.Body.Close()
	}
	if found != 1 {
		t.Fatalf("session resident on %d backends, want 1", found)
	}

	// Merged listing sees it once.
	var list struct {
		Count int `json:"count"`
	}
	doJSON(t, "GET", c.front.URL+"/v1/sessions", nil, http.StatusOK, &list)
	if list.Count != 1 {
		t.Fatalf("merged list count %d, want 1", list.Count)
	}
}

// TestFailoverWithSharedSpill kills a backend mid-stream and verifies
// zero lost state: the dead backend's SIGTERM-equivalent close spills
// its sessions, the router retries onto the survivor, the survivor
// warm-restores from the shared spill dir, and seq dedup absorbs the
// retried batch. Final metrics must equal an uninterrupted direct run.
func TestFailoverWithSharedSpill(t *testing.T) {
	spill := t.TempDir()
	c := newCluster(t, 2, spill)
	sess := createSession(t, c.front.URL, "failover-1")
	events := testTrace().Events[:300]

	feedBatch(t, c.front.URL, sess.ID, events[:100], 1)

	// Stop the health loop (Close stops only that), so the retried
	// batch, not a health check that happens to run first, finds the
	// owner dead.
	c.rt.Close()
	// Kill the owner: close its HTTP listener (transport errors for the
	// router) and drain the serve layer (spills live sessions to disk).
	owner := c.rt.pick(sess.ID, (*Backend).up)
	for i, ts := range c.backends {
		if ts.URL == owner.URL {
			c.backends[i].Close()
			c.serves[i].Close()
		}
	}

	// The retried batch (same seq) plus the rest flow through the
	// router's transport-failure retry to the survivor, which restores
	// the session from the shared spill directory.
	resp := feedBatch(t, c.front.URL, sess.ID, events[:100], 1)
	if !resp.Duplicate {
		t.Fatalf("retried batch not deduplicated: %+v", resp)
	}
	feedBatch(t, c.front.URL, sess.ID, events[100:200], 2)
	feedBatch(t, c.front.URL, sess.ID, events[200:], 3)

	var got serve.SessionJSON
	doJSON(t, "GET", c.front.URL+"/v1/sessions/"+sess.ID, nil, http.StatusOK, &got)
	if got.Events != uint64(len(events)) || got.LastSeq != 3 {
		t.Fatalf("post-failover session: events=%d lastSeq=%d, want %d/3", got.Events, got.LastSeq, len(events))
	}
	if c.rt.mt.retries.Value() == 0 {
		t.Fatal("failover did not exercise the retry path")
	}
}

// TestDrainMigratesSessions: draining a backend moves its sessions to
// the other backend with identical state, via snapshot/restore.
func TestDrainMigratesSessions(t *testing.T) {
	c := newCluster(t, 2, "")
	events := testTrace().Events[:250]

	// Create sessions until both backends hold at least one.
	perBackend := map[string][]string{}
	for i := 0; len(perBackend) < 2 || i < 6; i++ {
		id := fmt.Sprintf("drain-%d", i)
		createSession(t, c.front.URL, id)
		feedBatch(t, c.front.URL, id, events, 1)
		owner := c.rt.pick(id, (*Backend).up)
		perBackend[owner.URL] = append(perBackend[owner.URL], id)
		if i > 64 {
			t.Fatal("ring never placed sessions on both backends")
		}
	}
	victim := c.rt.Backends()[0]
	movedIDs := perBackend[victim.URL]

	before := map[string]serve.SessionJSON{}
	for _, id := range movedIDs {
		var s serve.SessionJSON
		doJSON(t, "GET", c.front.URL+"/v1/sessions/"+id, nil, http.StatusOK, &s)
		before[id] = s
	}

	var res struct {
		Migrated int `json:"migrated"`
		Failed   int `json:"failed"`
	}
	doJSON(t, "POST", c.front.URL+"/admin/drain?backend="+victim.URL, nil, http.StatusOK, &res)
	if res.Failed != 0 || res.Migrated != len(movedIDs) {
		t.Fatalf("drain: %+v, want migrated=%d failed=0", res, len(movedIDs))
	}

	// The drained backend is empty; sessions live on with state intact.
	var list struct {
		Count int `json:"count"`
	}
	doJSON(t, "GET", victim.URL+"/v1/sessions", nil, http.StatusOK, &list)
	if list.Count != 0 {
		t.Fatalf("drained backend still holds %d sessions", list.Count)
	}
	for _, id := range movedIDs {
		var after serve.SessionJSON
		doJSON(t, "GET", c.front.URL+"/v1/sessions/"+id, nil, http.StatusOK, &after)
		b := before[id]
		if after.Events != b.Events || after.LastSeq != b.LastSeq ||
			!reflect.DeepEqual(after.Metrics, b.Metrics) {
			t.Fatalf("session %s changed across migration:\nbefore %+v\nafter  %+v", id, b, after)
		}
		// A new batch still lands (on the surviving backend).
		feedBatch(t, c.front.URL, id, events, 2)
	}
}

// TestDrainCountsFailedDelete: a victim that refuses the final DELETE
// (429, as a backend with a full shard queue does) still holds each
// session after its restore on the new owner, so the drain must report
// every one as failed, and log it, rather than as migrated.
func TestDrainCountsFailedDelete(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		s := serve.MustNew(serve.Config{Shards: 2})
		h := s.Handler()
		if i == 0 {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodDelete {
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusTooManyRequests)
					io.WriteString(w, `{"error":{"code":"busy","message":"shard queue full"}}`)
					return
				}
				inner.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() { ts.Close(); s.Close() })
		urls = append(urls, ts.URL)
	}
	var logBuf testutil.LogBuffer
	rt, err := New(Config{Backends: urls, HealthEvery: time.Hour, Logger: log.New(&logBuf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })

	victim := rt.Backends()[0]
	var held []string
	for i := 0; len(held) < 3; i++ {
		id := fmt.Sprintf("stuck-%d", i)
		createSession(t, front.URL, id)
		if rt.pick(id, (*Backend).up) == victim {
			held = append(held, id)
		}
		if i > 64 {
			t.Fatal("ring never placed three sessions on the victim")
		}
	}

	var res struct {
		Migrated int `json:"migrated"`
		Failed   int `json:"failed"`
	}
	doJSON(t, "POST", front.URL+"/admin/drain?backend="+victim.URL, nil, http.StatusOK, &res)
	if res.Migrated != 0 || res.Failed != len(held) {
		t.Fatalf("drain: %+v, want migrated=0 failed=%d", res, len(held))
	}
	var list struct {
		Count int `json:"count"`
	}
	doJSON(t, "GET", victim.URL+"/v1/sessions", nil, http.StatusOK, &list)
	if list.Count != len(held) {
		t.Fatalf("victim holds %d sessions after the refused deletes, want %d", list.Count, len(held))
	}
	for _, id := range held {
		if !strings.Contains(logBuf.String(), "migrate "+id+" off "+victim.URL) {
			t.Errorf("no failure logged for %s:\n%s", id, logBuf.String())
		}
	}
}

// TestRemovedEndpoints: the backends' removed sweep and workload-listing
// endpoints answer 404 through the router too.
func TestRemovedEndpoints(t *testing.T) {
	c := newCluster(t, 2, "")
	for _, ep := range []struct{ method, name string }{{"POST", "sweep"}, {"GET", "workloads"}} {
		doJSON(t, ep.method, c.front.URL+"/v1/"+ep.name, nil, http.StatusNotFound, nil)
	}
}

// TestRouterMetricsAndHealth: /metrics exposes the per-backend health
// gauge; /healthz degrades when the whole fleet is down.
func TestRouterMetricsAndHealth(t *testing.T) {
	c := newCluster(t, 2, "")
	resp, err := http.Get(c.front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, want := range []string{
		"bprouter_backend_healthy{backend=\"" + c.backends[0].URL + "\"} 1",
		"bprouter_backend_healthy{backend=\"" + c.backends[1].URL + "\"} 1",
		"bprouter_proxied_total",
		"bprouter_retries_total",
		"bprouter_migrations_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}

	doJSON(t, "GET", c.front.URL+"/healthz", nil, http.StatusOK, nil)
	// Stop the health loop so it can't re-mark the fleet healthy under us;
	// the handler keeps serving after Close.
	c.rt.Close()
	for _, b := range c.rt.Backends() {
		b.healthy.Store(false)
	}
	doJSON(t, "GET", c.front.URL+"/healthz", nil, http.StatusServiceUnavailable, nil)
}

// TestNoBackends: construction must fail with no fleet.
func TestNoBackends(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty fleet")
	}
}

// TestShutdownRefusalRetries: a backend's 503 shutting_down refusal
// sends the request to the session's next owner and takes the backend
// out of the ring, while any other 503 reaches the client unchanged.
func TestShutdownRefusalRetries(t *testing.T) {
	var refuseCode atomic.Value
	refuseCode.Store("shutting_down")
	var refused, served atomic.Int64
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		refused.Add(1)
		serve.WriteError(w, http.StatusServiceUnavailable, refuseCode.Load().(string), "refused")
	}))
	defer refusing.Close()
	serving := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			return
		}
		served.Add(1)
		io.Copy(io.Discard, r.Body)
		serve.WriteJSON(w, http.StatusOK, serve.BatchResponse{Events: 1})
	}))
	defer serving.Close()
	rt, err := New(Config{Backends: []string{refusing.URL, serving.URL}, HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	id := ""
	for i := 0; id == ""; i++ {
		if cand := fmt.Sprintf("refuse-%d", i); rt.pick(cand, (*Backend).up).URL == refusing.URL {
			id = cand
		}
	}
	url := front.URL + "/v1/sessions/" + id + "/events?seq=1"
	blob := serve.EncodeBatch(testTrace().Events[:8], 8)

	var resp serve.BatchResponse
	doJSON(t, "POST", url, blob, http.StatusOK, &resp)
	if refused.Load() != 1 || served.Load() != 1 || resp.Events != 1 {
		t.Fatalf("refused %d, served %d, reply %+v; want the refusal retried once", refused.Load(), served.Load(), resp)
	}
	if rt.backends[0].Healthy() || rt.mt.retries.Value() != 1 {
		t.Fatalf("healthy=%v retries=%v after a shutdown refusal", rt.backends[0].Healthy(), rt.mt.retries.Value())
	}

	rt.backends[0].healthy.Store(true)
	refuseCode.Store("capacity")
	var env serve.ErrorBody
	doJSON(t, "POST", url, blob, http.StatusServiceUnavailable, &env)
	if env.Error.Code != "capacity" || env.Error.Message != "refused" || served.Load() != 1 {
		t.Fatalf("a capacity refusal came back as %+v after %d serves; want it relayed", env.Error, served.Load())
	}
}
