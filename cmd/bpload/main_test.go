package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
)

func startServer(t *testing.T) string {
	t.Helper()
	s := serve.MustNew(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return strings.TrimPrefix(ts.URL, "http://")
}

func TestSmokeSequence(t *testing.T) {
	addr := startServer(t)
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-addr", addr, "-smoke", "-spec", "gshare:12:8", "-w", "scan",
	}, &sb)
	if err != nil {
		t.Fatalf("smoke failed: %v\n%s", err, sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"ok healthz", "ok create session", "ok post JSON batch",
		"ok post binary batch", "ok read metrics", "ok sweep",
		"ok delete and verify", "ok metrics families", "smoke passed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("smoke output missing %q:\n%s", want, out)
		}
	}
}

func TestLoadRunVerified(t *testing.T) {
	addr := startServer(t)
	var sb strings.Builder
	err := run(context.Background(), []string{
		"-addr", addr, "-sessions", "3", "-events", "30000", "-batch", "512",
		"-spec", "gshare:12:8", "-w", "scan",
		"-verify", "-json",
	}, &sb)
	if err != nil {
		t.Fatalf("load failed: %v\n%s", err, sb.String())
	}
	var rep Report
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, sb.String())
	}
	if rep.Errors != 0 {
		t.Errorf("errors = %d, want 0", rep.Errors)
	}
	if !rep.Verified {
		t.Error("metrics not verified")
	}
	if rep.Events < 30000 {
		t.Errorf("events = %d, want >= 30000", rep.Events)
	}
	if rep.EventsPerSec <= 0 || rep.LatencyP99Ms < rep.LatencyP50Ms {
		t.Errorf("implausible report: %+v", rep)
	}
}

// TestClusterRunVerified drives bpload's cluster mode through a real
// bprouter fronting two backends: explicit session IDs, per-batch seq
// numbers, and the byte-identical verify must all survive the ring
// spreading sessions across the fleet.
func TestClusterRunVerified(t *testing.T) {
	spill := t.TempDir()
	var urls []string
	for i := 0; i < 2; i++ {
		s := serve.MustNew(serve.Config{Shards: 2, SpillDir: spill})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Close()
		})
		urls = append(urls, ts.URL)
	}
	rt, err := router.New(router.Config{Backends: urls, HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	var sb strings.Builder
	err = run(context.Background(), []string{
		"-addr", strings.TrimPrefix(front.URL, "http://"),
		"-cluster", "-id-prefix", "cl",
		"-sessions", "4", "-events", "40000", "-batch", "512",
		"-spec", "gshare:12:8", "-w", "scan",
		"-verify", "-json",
	}, &sb)
	if err != nil {
		t.Fatalf("cluster load failed: %v\n%s", err, sb.String())
	}
	var rep Report
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("bad -json output: %v\n%s", err, sb.String())
	}
	if rep.Errors != 0 || !rep.Verified {
		t.Errorf("cluster run: errors=%d verified=%v, want 0/true", rep.Errors, rep.Verified)
	}
}

func TestBatcherCycles(t *testing.T) {
	tr, err := collectTrace("scan", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := &batcher{tr: tr, size: 100}
	var events, insts uint64
	for events < uint64(len(tr.Events)) {
		ev, in := b.next()
		events += uint64(len(ev))
		insts += in
	}
	if events != uint64(len(tr.Events)) {
		t.Errorf("one cycle yielded %d events, want %d", events, len(tr.Events))
	}
	if insts != tr.Insts {
		t.Errorf("one cycle credited %d insts, want %d", insts, tr.Insts)
	}
	if b.pos != 0 {
		t.Errorf("batcher did not wrap: pos = %d", b.pos)
	}
}

// TestPickKill: the kill goes to the first listed backend holding a
// session of this run; another run's sessions and empty or failed
// listings do not count.
func TestPickKill(t *testing.T) {
	sessions := func(ids ...string) []serve.SessionJSON {
		var out []serve.SessionJSON
		for _, id := range ids {
			out = append(out, serve.SessionJSON{ID: id})
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		listings [][]serve.SessionJSON
		want     int
	}{
		{"all on the second", [][]serve.SessionJSON{nil, sessions("bpload-0", "bpload-1")}, 1},
		{"both hold some", [][]serve.SessionJSON{sessions("bpload-3"), sessions("bpload-0")}, 0},
		{"first holds another run's", [][]serve.SessionJSON{sessions("other-0", "bpload"), sessions("bpload-2")}, 1},
		{"none", [][]serve.SessionJSON{sessions("other-1"), nil}, -1},
		{"no backends", nil, -1},
	} {
		if got := pickKill(tc.listings, "bpload-"); got != tc.want {
			t.Errorf("%s: pickKill = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestParseKill(t *testing.T) {
	got, err := parseKill("127.0.0.1:8081=12,127.0.0.1:8082=34")
	want := []killTarget{{"127.0.0.1:8081", 12}, {"127.0.0.1:8082", 34}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("parseKill = %v, %v; want %v", got, err, want)
	}
	if got, err := parseKill(""); err != nil || len(got) != 0 {
		t.Errorf("empty -kill = %v, %v", got, err)
	}
	for _, bad := range []string{"127.0.0.1:8081", "=12", "a=0", "a=x", "a=1,b"} {
		if _, err := parseKill(bad); err == nil {
			t.Errorf("parseKill(%q) succeeded", bad)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var sb strings.Builder
	if err := run(context.Background(), []string{"-version"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "bpload ") {
		t.Errorf("version output %q", sb.String())
	}
}

func TestBadArgs(t *testing.T) {
	var sb strings.Builder
	for _, args := range [][]string{
		{}, // missing -addr
		{"-addr", "127.0.0.1:1", "-w", "nope"},
		{"-addr", "127.0.0.1:1", "-sessions", "0"},
		{"-nonexistent-flag"},
		{"-addr", "127.0.0.1:1", "-kill", "127.0.0.1:2=3"}, // -kill without -cluster
		{"-addr", "127.0.0.1:1", "-cluster", "-kill", "pid-only"},
	} {
		if err := run(context.Background(), args, &sb); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
