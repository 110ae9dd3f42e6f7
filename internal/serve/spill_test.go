package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// spillServer builds a server with a per-test spill directory and tight
// capacity so eviction is easy to force.
func spillServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.SpillDir = t.TempDir()
	s := MustNew(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

func feedAll(t *testing.T, s *Server, id string, tr *trace.Trace, seq uint64) {
	t.Helper()
	batch := append([]trace.Event(nil), tr.Events...)
	if _, err := s.mgr.Feed(context.Background(), id, batch, tr.Insts, seq, false); err != nil {
		t.Fatal(err)
	}
}

// TestEvictToDiskAndWarmRestore forces an LRU eviction with a spill
// directory configured, then touches the evicted session again: it must
// come back from disk with metrics identical to a never-evicted run.
func TestEvictToDiskAndWarmRestore(t *testing.T) {
	s := spillServer(t, Config{
		Shards: 1, MaxSessions: 1,
		MinEvictIdle: time.Nanosecond,
		SessionTTL:   time.Hour,
	})
	ctx := context.Background()
	tr := testTrace()

	first := mgrSession(t, s, "gshare:12:8")
	feedAll(t, s, first, tr, 0)
	time.Sleep(time.Millisecond) // put first past MinEvictIdle

	// Creating a second session in a 1-session table evicts the first —
	// with a spill dir, that spills it instead of dropping it.
	second := mgrSession(t, s, "bimodal:10")
	if s.tel.sessSpilled.Value() == 0 {
		t.Fatal("eviction did not spill")
	}
	if f, b := s.mgr.spill.stats(); f == 0 || b == 0 {
		t.Fatal("spill accounting shows no file")
	}

	// Touching the evicted session warm-restores it (and evicts the
	// other one in turn).
	time.Sleep(time.Millisecond)
	inf, err := s.mgr.Metrics(ctx, first)
	if err != nil {
		t.Fatalf("evicted session did not restore: %v", err)
	}
	if s.tel.warmRestores.Value() == 0 {
		t.Fatal("restore not counted")
	}
	want := directMetrics(t, tr, "gshare:12:8", testEvalOptions(), 1)
	if !reflect.DeepEqual(inf.Metrics, want) {
		t.Fatalf("restored metrics diverge:\ngot  %+v\nwant %+v", inf.Metrics, want)
	}

	// The restored session keeps accumulating correctly.
	time.Sleep(time.Millisecond)
	feedAll(t, s, first, tr, 0)
	inf, err = s.mgr.Metrics(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	want2 := directMetrics(t, tr, "gshare:12:8", testEvalOptions(), 2)
	if !reflect.DeepEqual(inf.Metrics, want2) {
		t.Fatalf("metrics diverge after post-restore feed:\ngot  %+v\nwant %+v", inf.Metrics, want2)
	}
	_ = second
}

// TestCloseSpillsLiveSessions: SIGTERM-style shutdown must leave every
// live session on disk, and a second server sharing the directory must
// pick it up — the zero-lost-state half of a backend failover.
func TestCloseSpillsLiveSessions(t *testing.T) {
	dir := t.TempDir()
	s1 := MustNew(Config{Shards: 2, SpillDir: dir})
	tr := testTrace()
	id := mgrSession(t, s1, "perceptron")
	feedAll(t, s1, id, tr, 1)
	s1.Close()

	s2 := MustNew(Config{Shards: 2, SpillDir: dir})
	defer s2.Close()
	inf, err := s2.mgr.Metrics(context.Background(), id)
	if err != nil {
		t.Fatalf("session did not survive shutdown: %v", err)
	}
	want := directMetrics(t, tr, "perceptron", testEvalOptions(), 1)
	if !reflect.DeepEqual(inf.Metrics, want) {
		t.Fatalf("metrics diverge across shutdown:\ngot  %+v\nwant %+v", inf.Metrics, want)
	}
	if inf.LastSeq != 1 {
		t.Fatalf("lastSeq lost across shutdown: %d", inf.LastSeq)
	}
}

// TestSeqDedup: retried batches (same seq) must ack without re-applying;
// a gap must be refused.
func TestSeqDedup(t *testing.T) {
	s := MustNew(Config{Shards: 1})
	defer s.Close()
	ctx := context.Background()
	tr := testTrace()
	id := mgrSession(t, s, "gshare:12:8")

	batch := append([]trace.Event(nil), tr.Events...)
	res, err := s.mgr.Feed(ctx, id, batch, tr.Insts, 1, false)
	if err != nil || res.Duplicate {
		t.Fatalf("first seq=1: res=%+v err=%v", res, err)
	}
	// Retry of seq 1: acknowledged, not applied.
	res, err = s.mgr.Feed(ctx, id, batch, tr.Insts, 1, false)
	if err != nil || !res.Duplicate {
		t.Fatalf("retry seq=1: res=%+v err=%v", res, err)
	}
	// Gap: seq 3 after 1.
	if _, err = s.mgr.Feed(ctx, id, batch, tr.Insts, 3, false); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("seq gap: got %v", err)
	}
	// In-order continues.
	if _, err = s.mgr.Feed(ctx, id, batch, tr.Insts, 2, false); err != nil {
		t.Fatal(err)
	}
	inf, err := s.mgr.Metrics(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	want := directMetrics(t, tr, "gshare:12:8", testEvalOptions(), 2)
	if !reflect.DeepEqual(inf.Metrics, want) {
		t.Fatalf("dedup changed the stream:\ngot  %+v\nwant %+v", inf.Metrics, want)
	}
}

// TestExplicitIDs: client-supplied IDs round-trip, collide with 409
// semantics (ErrExists), and reject unsafe charsets.
func TestExplicitIDs(t *testing.T) {
	s := spillServer(t, Config{Shards: 1})
	ctx := context.Background()
	cfg, err := testEvalOptions().Config()
	if err != nil {
		t.Fatal(err)
	}
	sp := sim.MustParse("gshare:12:8")
	mk := func(id string) error {
		c := cfg
		if c.Predictor, err = sp.New(); err != nil {
			t.Fatal(err)
		}
		_, err := s.mgr.Create(ctx, id, sp, c)
		return err
	}
	if err := mk("client-id_1"); err != nil {
		t.Fatal(err)
	}
	if err := mk("client-id_1"); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate id: got %v", err)
	}
	for _, bad := range []string{"a/b", "a.b", "x*", string(make([]byte, 65))} {
		if err := mk(bad); !errors.Is(err, ErrBadID) {
			t.Fatalf("id %q: got %v, want ErrBadID", bad, err)
		}
	}
}

// TestSnapshotRestoreEndpoints drives the migration path over HTTP: GET
// a session's snapshot, restore it into a second server under the same
// ID, and require identical metrics — then check the error paths
// (restore over an existing session, corrupt body, ID mismatch).
func TestSnapshotRestoreEndpoints(t *testing.T) {
	tsA, sA := newTestServer(t, Config{Shards: 1})
	tsB, _ := newTestServer(t, Config{Shards: 1})
	tr := testTrace()

	var sess SessionJSON
	doJSON(t, "POST", tsA.URL+"/v1/sessions",
		SessionRequest{ID: "mig-1", Spec: "agree:10:8", EvalOptions: testEvalOptions()},
		http.StatusCreated, &sess)
	if sess.ID != "mig-1" {
		t.Fatalf("explicit id not honored: %q", sess.ID)
	}
	feedAll(t, sA, "mig-1", tr, 1)

	resp, err := http.Get(tsA.URL + "/v1/sessions/mig-1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: %d: %s", resp.StatusCode, blob)
	}

	post := func(url string, body []byte) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, raw
	}

	resp2, raw := post(tsB.URL+"/v1/sessions/mig-1/restore", blob)
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("restore: %d: %s", resp2.StatusCode, raw)
	}
	var a, b SessionJSON
	doJSON(t, "GET", tsA.URL+"/v1/sessions/mig-1", nil, http.StatusOK, &a)
	doJSON(t, "GET", tsB.URL+"/v1/sessions/mig-1", nil, http.StatusOK, &b)
	if !reflect.DeepEqual(a.Metrics, b.Metrics) || b.LastSeq != 1 || b.Events != a.Events {
		t.Fatalf("migrated session differs:\nA %+v\nB %+v", a, b)
	}

	// Restore over an existing session: 409.
	if resp3, _ := post(tsB.URL+"/v1/sessions/mig-1/restore", blob); resp3.StatusCode != http.StatusConflict {
		t.Fatalf("restore over existing: %d", resp3.StatusCode)
	}
	// ID mismatch between URL and snapshot: 400.
	if resp4, _ := post(tsB.URL+"/v1/sessions/other-id/restore", blob); resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("restore id mismatch: %d", resp4.StatusCode)
	}
	// Corrupt snapshot: 400, counted as a restore failure.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xFF
	if resp5, _ := post(tsB.URL+"/v1/sessions/mig-2/restore", bad); resp5.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt restore: %d", resp5.StatusCode)
	}
}

// TestConcurrentEvictRestore hammers a spill-enabled server from many
// goroutines with a session table far too small for the session count,
// so every feed round races evictions-to-disk against warm restores on
// other shard-queue entries. Run under -race; correctness check: every
// TestCreateRestoreConflictAndCapacity: create and restore share one
// install path, so both endpoints answer 409 for a taken ID and 503
// (capacity) when the table is full of live sessions.
func TestCreateRestoreConflictAndCapacity(t *testing.T) {
	ts, _ := newTestServer(t, Config{Shards: 1, MaxSessions: 1, MinEvictIdle: time.Hour})
	create := func(id string, want int) {
		t.Helper()
		doJSON(t, "POST", ts.URL+"/v1/sessions",
			SessionRequest{ID: id, Spec: "gshare:10:6", EvalOptions: testEvalOptions()}, want, nil)
	}
	restore := func(id string, blob []byte, want int) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/restore", "application/octet-stream", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("restore %s: %d (%s), want %d", id, resp.StatusCode, raw, want)
		}
	}
	create("held", http.StatusCreated)
	resp, err := http.Get(ts.URL + "/v1/sessions/held/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	create("held", http.StatusConflict)
	restore("held", blob, http.StatusConflict)
	create("extra", http.StatusServiceUnavailable)
	create("", http.StatusServiceUnavailable)

	// A snapshot of a session under another ID, restored into the full
	// table: capacity, not a conflict.
	other, _ := newTestServer(t, Config{Shards: 1})
	doJSON(t, "POST", other.URL+"/v1/sessions",
		SessionRequest{ID: "moved", Spec: "gshare:10:6", EvalOptions: testEvalOptions()}, http.StatusCreated, nil)
	resp, err = http.Get(other.URL + "/v1/sessions/moved/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	moved, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	restore("moved", moved, http.StatusServiceUnavailable)
}

// session ends with exactly the events it was fed.
func TestConcurrentEvictRestore(t *testing.T) {
	s := spillServer(t, Config{
		Shards: 2, MaxSessions: 2, QueueDepth: 256,
		MinEvictIdle: time.Nanosecond, SessionTTL: time.Hour,
	})
	ctx := context.Background()
	tr := testTrace()
	events := tr.Events
	if len(events) > 200 {
		events = events[:200]
	}

	const sessions = 8
	const rounds = 12
	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = fmt.Sprintf("hammer-%d", i)
		cfg, err := testEvalOptions().Config()
		if err != nil {
			t.Fatal(err)
		}
		sp := sim.MustParse("gshare:10:6")
		if cfg.Predictor, err = sp.New(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.mgr.Create(ctx, ids[i], sp, cfg); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				batch := append([]trace.Event(nil), events...)
				for {
					_, err := s.mgr.Feed(ctx, id, batch, 0, uint64(r+1), false)
					if errors.Is(err, ErrBusy) || errors.Is(err, ErrFull) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						errs <- fmt.Errorf("%s round %d: %w", id, r, err)
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if s.tel.sessSpilled.Value() == 0 || s.tel.warmRestores.Value() == 0 {
		t.Fatalf("hammer exercised no spill traffic: spilled=%d restored=%d",
			s.tel.sessSpilled.Value(), s.tel.warmRestores.Value())
	}
	if s.tel.restoreFailures.Value() != 0 || s.tel.spillErrors.Value() != 0 {
		t.Fatalf("spill errors: restoreFailures=%d spillErrors=%d",
			s.tel.restoreFailures.Value(), s.tel.spillErrors.Value())
	}
	want := uint64(len(events) * rounds)
	for _, id := range ids {
		inf, err := s.mgr.Metrics(ctx, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if inf.Events != want || inf.LastSeq != rounds {
			t.Fatalf("%s: events=%d lastSeq=%d, want events=%d lastSeq=%d",
				id, inf.Events, inf.LastSeq, want, rounds)
		}
	}
}
