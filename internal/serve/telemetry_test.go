package serve

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// handStatsBatch is a hand-computed trace against the static
// always-taken predictor: every not-taken execution mispredicts.
//
//	PC 0x100: 5 runs, 2 taken -> 3 mispredicts
//	PC 0x200: 4 runs, 1 taken -> 3 mispredicts (ties 0x100; higher PC ranks second)
//	PC 0x300: 3 runs, 3 taken -> 0 mispredicts
//
// Totals: 12 branches, 6 mispredicts, accuracy 0.5.
func handStatsBatch() BatchRequest {
	taken := map[uint64][]bool{
		0x100: {true, false, false, true, false},
		0x200: {false, true, false, false},
		0x300: {true, true, true},
	}
	var req BatchRequest
	step := uint64(0)
	for _, pc := range []uint64{0x100, 0x200, 0x300} {
		for _, tk := range taken[pc] {
			step++
			req.Events = append(req.Events, EventJSON{Kind: "branch", Step: step, PC: pc, Taken: tk})
		}
	}
	req.Insts = step
	return req
}

// TestStatsEndpoint verifies the top-K mispredicted ranking against the
// hand-computed trace above.
func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{})

	var sess SessionJSON
	doJSON(t, "POST", ts.URL+"/v1/sessions",
		SessionRequest{Spec: "taken", EvalOptions: EvalOptions{PerBranch: true}},
		http.StatusCreated, &sess)
	var ack BatchResponse
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/events", handStatsBatch(), http.StatusOK, &ack)

	var st SessionStatsJSON
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID+"/stats?k=2", nil, http.StatusOK, &st)
	if st.ID != sess.ID || !st.PerBranch {
		t.Fatalf("bad report header: %+v", st)
	}
	if st.Events != 12 || st.Branches != 12 || st.StaticBranches != 3 || st.Mispredicts != 6 {
		t.Fatalf("totals: %+v", st)
	}
	if st.Accuracy != 0.5 {
		t.Errorf("accuracy %f, want 0.5", st.Accuracy)
	}
	if len(st.Top) != 2 {
		t.Fatalf("top has %d entries, want 2 (k=2)", len(st.Top))
	}
	want := []BranchRankJSON{
		{PC: "0x100", Count: 5, Taken: 2, Mispredicts: 3, MispredictRate: 0.6},
		{PC: "0x200", Count: 4, Taken: 1, Mispredicts: 3, MispredictRate: 0.75},
	}
	for i, w := range want {
		if st.Top[i] != w {
			t.Errorf("top[%d] = %+v, want %+v", i, st.Top[i], w)
		}
	}

	// The full ranking includes the perfectly predicted branch too.
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID+"/stats", nil, http.StatusOK, &st)
	if len(st.Top) != 3 || st.Top[2].PC != "0x300" || st.Top[2].Mispredicts != 0 {
		t.Errorf("full ranking tail: %+v", st.Top)
	}

	// Bad k is a 400; unknown session a 404.
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+sess.ID+"/stats?k=0", nil, http.StatusBadRequest, nil)
	doJSON(t, "GET", ts.URL+"/v1/sessions/nope/stats", nil, http.StatusNotFound, nil)

	// A session without per-branch collection reports empty, not an error.
	var plain SessionJSON
	doJSON(t, "POST", ts.URL+"/v1/sessions",
		SessionRequest{Spec: "taken"}, http.StatusCreated, &plain)
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+plain.ID+"/events", handStatsBatch(), http.StatusOK, &ack)
	var empty SessionStatsJSON
	doJSON(t, "GET", ts.URL+"/v1/sessions/"+plain.ID+"/stats", nil, http.StatusOK, &empty)
	if empty.PerBranch || empty.StaticBranches != 0 || len(empty.Top) != 0 {
		t.Errorf("per_branch-less report not empty: %+v", empty)
	}
}

// TestScrapeLintAndH2P drives real traffic, then requires the full
// /metrics page to pass the strict exposition lint and the aggregate
// H2P families to agree with the hand-computed ranking. The scrape must
// sweep each of the two shards once, so both H2P families come from one
// ranking and name the same PCs.
func TestScrapeLintAndH2P(t *testing.T) {
	ts, s := newTestServer(t, Config{Shards: 2})

	var sess SessionJSON
	doJSON(t, "POST", ts.URL+"/v1/sessions",
		SessionRequest{Spec: "taken", EvalOptions: EvalOptions{PerBranch: true}},
		http.StatusCreated, &sess)
	var ack BatchResponse
	doJSON(t, "POST", ts.URL+"/v1/sessions/"+sess.ID+"/events", handStatsBatch(), http.StatusOK, &ack)
	doJSON(t, "GET", ts.URL+"/v1/sessions/nope", nil, http.StatusNotFound, nil) // a 404 series too

	ops := s.tel.opsExecuted.Value()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.tel.opsExecuted.Value() - ops; got != 2 {
		t.Errorf("one scrape ran %d shard ops, want 2 (one H2P sweep per shard)", got)
	}
	fams, err := telemetry.ParseText(bytes.NewReader(page))
	if err != nil {
		t.Fatalf("scrape fails lint: %v\n%s", err, page)
	}
	byName := map[string]telemetry.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	var pcs [2][]string
	for i, name := range []string{"bpservd_h2p_events", "bpservd_h2p_mispredicts"} {
		for _, sm := range byName[name].Samples {
			pcs[i] = append(pcs[i], sm.Label("pc"))
		}
	}
	if !reflect.DeepEqual(pcs[0], pcs[1]) {
		t.Errorf("h2p families name different PCs: events %v, mispredicts %v", pcs[0], pcs[1])
	}

	if f, ok := byName["bpservd_h2p_mispredicts"]; !ok {
		t.Error("no bpservd_h2p_mispredicts family")
	} else {
		if s := f.Sample("bpservd_h2p_mispredicts", map[string]string{"pc": "0x100"}); s == nil || s.Value != 3 {
			t.Errorf("h2p_mispredicts{pc=0x100} = %+v, want 3", s)
		}
		if len(f.Samples) != 3 {
			t.Errorf("h2p_mispredicts has %d series, want 3", len(f.Samples))
		}
	}
	if f, ok := byName["bpservd_h2p_events"]; !ok {
		t.Error("no bpservd_h2p_events family")
	} else if s := f.Sample("bpservd_h2p_events", map[string]string{"pc": "0x200"}); s == nil || s.Value != 4 {
		t.Errorf("h2p_events{pc=0x200} = %+v, want 4", s)
	}

	if f, ok := byName["build_info"]; !ok || len(f.Samples) != 1 || f.Samples[0].Value != 1 {
		t.Errorf("build_info missing or malformed: %+v", f)
	} else if f.Samples[0].Label("version") == "" || f.Samples[0].Label("hash") == "" {
		t.Errorf("build_info labels: %+v", f.Samples[0].Labels)
	}

	reqs, ok := byName["bpservd_requests_total"]
	if !ok {
		t.Fatal("no bpservd_requests_total family")
	}
	if s := reqs.Sample("bpservd_requests_total", map[string]string{"endpoint": "get_session", "code": "404"}); s == nil || s.Value != 1 {
		t.Errorf("requests{get_session,404} = %+v, want 1", s)
	}
	if f, ok := byName["bpservd_request_seconds"]; !ok {
		t.Error("no per-endpoint latency histogram")
	} else if s := f.Sample("bpservd_request_seconds_count", map[string]string{"endpoint": "post_events"}); s == nil || s.Value != 1 {
		t.Errorf("request_seconds_count{post_events} = %+v, want 1", s)
	}
}

// TestRequestIDPropagation checks the correlation-ID contract: a valid
// client ID is kept (response header, error envelope, log line), an
// invalid one is replaced by a minted ID.
func TestRequestIDPropagation(t *testing.T) {
	var buf bytes.Buffer
	ts, _ := newTestServer(t, Config{Logger: log.New(&buf, "", 0)})

	req, _ := http.NewRequest("GET", ts.URL+"/v1/sessions/ghost", nil)
	req.Header.Set(telemetry.RequestIDHeader, "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(telemetry.RequestIDHeader); got != "trace-me-42" {
		t.Errorf("response rid %q, want trace-me-42", got)
	}
	if !strings.Contains(string(body), `"request_id":"trace-me-42"`) {
		t.Errorf("error envelope misses request_id: %s", body)
	}
	if !strings.Contains(buf.String(), "rid=trace-me-42") {
		t.Errorf("log line misses rid: %s", buf.String())
	}

	// An out-of-charset ID is not trusted into logs; a minted one
	// replaces it.
	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(telemetry.RequestIDHeader, "bad id, spaces not allowed!")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	got := resp.Header.Get(telemetry.RequestIDHeader)
	if !regexp.MustCompile(`^bpservd-[0-9a-f]{6,}-[0-9a-f]{8}$`).MatchString(got) {
		t.Errorf("invalid client rid not replaced by a minted bpservd ID: %q", got)
	}
}

// TestSlowRequestLog checks the tracer emits the structured slow line
// once a request crosses the threshold.
func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	now := time.Unix(100, 0)
	clock := func() time.Time {
		now = now.Add(50 * time.Millisecond) // each Now() call advances: every request looks slow
		return now
	}
	ts, _ := newTestServer(t, Config{Logger: log.New(&buf, "", 0), SlowRequest: 10 * time.Millisecond, Now: clock})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if !strings.Contains(buf.String(), "slow_request service=bpservd endpoint=healthz") {
		t.Errorf("no slow_request line: %s", buf.String())
	}
}
