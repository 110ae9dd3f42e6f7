package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/trace"
)

func doJSON(t *testing.T, method, url string, body any, wantCode int) {
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
}

func batch(outcomes map[uint32][]bool, order []uint32) []byte {
	var events []trace.Event
	for _, pc := range order {
		for _, tk := range outcomes[pc] {
			events = append(events, trace.Event{Kind: trace.KindBranch, Step: uint64(len(events) + 1), PC: pc, Flags: trace.FlagTaken.If(tk)})
		}
	}
	return serve.EncodeBatch(events, uint64(len(events)))
}

// TestOnceAgainstFleet stands up a real two-backend cluster behind a
// router, seeds each backend with a hand-computed per-branch session
// against the always-taken predictor, and checks the -once frame: all
// targets up, one row per tier, and the fleet H2P table merged across
// backends in mispredicts-descending order.
//
//	backend A: 0x100 {t,f,f,t,f} -> 3 misp / 5 ev;  0x300 {t,t,t} -> 0 / 3
//	backend B: 0x100 {f,f}       -> 2 misp / 2 ev;  0x200 {f,t,f,f} -> 3 / 4
//	fleet:     0x100 5/7 (71.4%), 0x200 3/4 (75.0%), 0x300 0/3
func TestOnceAgainstFleet(t *testing.T) {
	var backends []*httptest.Server
	for i := 0; i < 2; i++ {
		s := serve.MustNew(serve.Config{Shards: 1})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		backends = append(backends, ts)
	}
	rt, err := router.New(router.Config{
		Backends:    []string{backends[0].URL, backends[1].URL},
		HealthEvery: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })

	seed := []struct {
		base     string
		id       string
		outcomes map[uint32][]bool
		order    []uint32
	}{
		{backends[0].URL, "h2p-a", map[uint32][]bool{
			0x100: {true, false, false, true, false},
			0x300: {true, true, true},
		}, []uint32{0x100, 0x300}},
		{backends[1].URL, "h2p-b", map[uint32][]bool{
			0x100: {false, false},
			0x200: {false, true, false, false},
		}, []uint32{0x100, 0x200}},
	}
	for _, sd := range seed {
		doJSON(t, "POST", sd.base+"/v1/sessions",
			serve.SessionRequest{ID: sd.id, Spec: "taken", EvalOptions: serve.EvalOptions{PerBranch: true}},
			http.StatusCreated)
		if _, err := serve.NewClient(sd.base, nil).Feed(context.Background(), sd.id, batch(sd.outcomes, sd.order), 0, ""); err != nil {
			t.Fatal(err)
		}
	}
	// Give the router some traffic so its latency histogram has data.
	doJSON(t, "GET", front.URL+"/v1/sessions", nil, http.StatusOK)

	var out bytes.Buffer
	targets := strings.Join([]string{front.URL, backends[0].URL, backends[1].URL}, ",")
	if err := run(context.Background(), []string{"-targets", targets, "-once", "-k", "2"}, &out); err != nil {
		t.Fatalf("run -once: %v\n%s", err, out.String())
	}
	frame := out.String()

	if !strings.Contains(frame, "3/3 targets up") {
		t.Errorf("frame misses up count:\n%s", frame)
	}
	for _, svc := range []string{"bprouter", "bpservd"} {
		if !strings.Contains(frame, svc) {
			t.Errorf("frame misses a %s row:\n%s", svc, frame)
		}
	}
	// k=2 keeps 0x100 and 0x200, in that order, with merged tallies.
	for _, re := range []string{
		`0x100\s+5\s+7\s+71\.4%`,
		`0x200\s+3\s+4\s+75\.0%`,
	} {
		if !regexp.MustCompile(re).MatchString(frame) {
			t.Errorf("frame misses H2P row %q:\n%s", re, frame)
		}
	}
	if strings.Contains(frame, "0x300") {
		t.Errorf("k=2 frame should not list 0x300:\n%s", frame)
	}
	if i100, i200 := strings.Index(frame, "0x100"), strings.Index(frame, "0x200"); i100 > i200 {
		t.Errorf("H2P rows out of order (0x100 at %d, 0x200 at %d):\n%s", i100, i200, frame)
	}
	// Both tiers served real requests, so no latency column stays empty.
	if strings.Contains(frame, "DOWN") {
		t.Errorf("healthy fleet rendered a DOWN row:\n%s", frame)
	}
}

// TestOnceDownTarget: a dead target renders a DOWN row and makes -once
// exit nonzero, so the frame doubles as a fleet health check.
func TestOnceDownTarget(t *testing.T) {
	s := serve.MustNew(serve.Config{Shards: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	var out bytes.Buffer
	err := run(context.Background(), []string{"-targets", ts.URL + "," + deadURL, "-once"}, &out)
	if err == nil {
		t.Fatalf("-once with a dead target returned nil:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "1/2 targets failing") {
		t.Errorf("error %q, want 1/2 targets failing", err)
	}
	if !strings.Contains(out.String(), "DOWN") {
		t.Errorf("frame misses DOWN row:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "1/2 targets up") {
		t.Errorf("frame misses up count:\n%s", out.String())
	}
}

// TestOnceLintFailure: a target serving a malformed exposition page is
// treated as down, not rendered.
func TestOnceLintFailure(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "bpservd_events_total 1")
		fmt.Fprintln(w, "bpservd_events_total 2") // duplicate series, no HELP/TYPE
	}))
	t.Cleanup(bad.Close)

	var out bytes.Buffer
	err := run(context.Background(), []string{"-targets", bad.URL, "-once"}, &out)
	if err == nil || !strings.Contains(err.Error(), "lint") {
		t.Fatalf("lint failure not surfaced: err=%v\n%s", err, out.String())
	}
}

func TestParseTargets(t *testing.T) {
	got, err := parseTargets(" 127.0.0.1:9090, http://h:1/ ,https://x/metrics")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"http://127.0.0.1:9090/metrics",
		"http://h:1/metrics",
		"https://x/metrics",
	}
	for i, w := range want {
		if got[i].url != w {
			t.Errorf("target[%d] url %q, want %q", i, got[i].url, w)
		}
	}
	if _, err := parseTargets(" , "); err == nil {
		t.Error("empty target list accepted")
	}
}

// TestWindow: deltas between polls, falling back to cumulative on a
// counter reset or bucket-grid mismatch.
func TestWindow(t *testing.T) {
	les := []float64{0.001, 0.01}
	cur := []uint64{5, 9}
	if got := window(les, cur, les, []uint64{2, 3}); got[0] != 3 || got[1] != 6 {
		t.Errorf("window delta = %v, want [3 6]", got)
	}
	// Reset: previous counts exceed current -> cumulative view.
	if got := window(les, cur, les, []uint64{7, 8}); got[0] != 5 || got[1] != 9 {
		t.Errorf("window after reset = %v, want cur", got)
	}
	// Grid mismatch -> cumulative view.
	if got := window(les, cur, []float64{0.001, 0.02}, []uint64{1, 1}); got[0] != 5 || got[1] != 9 {
		t.Errorf("window with grid mismatch = %v, want cur", got)
	}
}
