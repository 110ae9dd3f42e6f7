package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// mgrSession creates a session directly on the manager for white-box
// tests, bypassing the HTTP layer.
func mgrSession(t *testing.T, s *Server, spec string) string {
	t.Helper()
	cfg, err := testEvalOptions().Config()
	if err != nil {
		t.Fatal(err)
	}
	sp := sim.MustParse(spec)
	if cfg.Predictor, err = sp.New(); err != nil {
		t.Fatal(err)
	}
	inf, err := s.mgr.Create(context.Background(), "", sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inf.ID
}

// TestConcurrentSessions hammers the manager from many goroutines —
// several clients with private sessions, several sharing one session,
// and pollers reading metrics and listings throughout — and checks under
// -race that nothing is lost: private sessions end byte-identical to a
// direct replay, and the shared session accounts for every event fed.
func TestConcurrentSessions(t *testing.T) {
	s := MustNew(Config{Shards: 4, QueueDepth: 1024})
	defer s.Close()
	ctx := context.Background()
	tr := testTrace()
	events := tr.Events
	if len(events) > 400 {
		events = events[:400]
	}

	const (
		private = 6
		sharers = 4
		rounds  = 25
	)
	sharedID := mgrSession(t, s, "gshare:12:8")
	privateIDs := make([]string, private)
	for i := range privateIDs {
		privateIDs[i] = mgrSession(t, s, "gshare:12:8")
	}

	feed := func(id string) error {
		batch := append([]trace.Event(nil), events...)
		for {
			_, err := s.mgr.Feed(ctx, id, batch, tr.Insts, 0, false)
			if errors.Is(err, ErrBusy) {
				time.Sleep(time.Millisecond)
				continue
			}
			return err
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, private+sharers)
	for _, id := range privateIDs {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := feed(id); err != nil {
					errs <- fmt.Errorf("private feed: %w", err)
					return
				}
			}
		}()
	}
	for i := 0; i < sharers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := feed(sharedID); err != nil {
					errs <- fmt.Errorf("shared feed: %w", err)
					return
				}
			}
		}()
	}
	// Pollers race reads against the feeders.
	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for i := 0; i < 3; i++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.mgr.Metrics(ctx, sharedID)
				s.mgr.List(ctx)
			}
		}()
	}
	wg.Wait()
	close(stop)
	pollers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := directMetrics(t, &trace.Trace{Events: events, Insts: tr.Insts}, "gshare:12:8", testEvalOptions(), rounds)
	for _, id := range privateIDs {
		inf, err := s.mgr.Metrics(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(inf.Metrics, want) {
			t.Fatalf("private session %s metrics diverge from direct replay", id)
		}
	}
	inf, err := s.mgr.Metrics(ctx, sharedID)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := uint64(sharers * rounds * len(events))
	if inf.Events != wantEvents {
		t.Errorf("shared session events = %d, want %d", inf.Events, wantEvents)
	}
	var branches uint64
	for i := range events {
		if events[i].Kind == trace.KindBranch {
			branches++
		}
	}
	if got, want := inf.Metrics.Branches, branches*sharers*rounds; got != want {
		t.Errorf("shared session branches = %d, want %d (events lost)", got, want)
	}
	if inf.Metrics.Insts != tr.Insts*sharers*rounds {
		t.Errorf("shared session insts = %d, want %d", inf.Metrics.Insts, tr.Insts*sharers*rounds)
	}
}

// TestEvictionUnderLoad fills a one-shard table and checks both halves of
// the eviction contract: while every resident session is live, creation
// fails with ErrFull rather than evicting anyone; once a session has been
// idle past MinEvictIdle it is evicted to make room, and the session that
// was being actively fed the whole time keeps metrics identical to a
// direct replay — no metrics are lost for live sessions.
func TestEvictionUnderLoad(t *testing.T) {
	s := MustNew(Config{
		Shards:       1,
		MaxSessions:  2,
		SessionTTL:   time.Hour,
		MinEvictIdle: 50 * time.Millisecond,
	})
	defer s.Close()
	ctx := context.Background()
	tr := testTrace()
	events := tr.Events[:100]

	live := mgrSession(t, s, "gshare:12:8")
	idle := mgrSession(t, s, "bimodal:10")

	// Both sessions were just used: the table is full of live sessions,
	// so creating a third must fail instead of evicting one.
	cfg, _ := testEvalOptions().Config()
	cfg.Predictor = sim.MustParse("bimodal:10").MustNew()
	if _, err := s.mgr.Create(ctx, "", sim.MustParse("bimodal:10"), cfg); !errors.Is(err, ErrFull) {
		t.Fatalf("create over live sessions: err = %v, want ErrFull", err)
	}

	// Keep the live session hot until the idle one ages past MinEvictIdle.
	rounds := 0
	deadline := time.Now().Add(120 * time.Millisecond)
	for time.Now().Before(deadline) {
		batch := append([]trace.Event(nil), events...)
		if _, err := s.mgr.Feed(ctx, live, batch, tr.Insts, 0, false); err != nil {
			t.Fatal(err)
		}
		rounds++
		time.Sleep(2 * time.Millisecond)
	}

	// Now creation evicts the idle session — and only it.
	cfg2, _ := testEvalOptions().Config()
	cfg2.Predictor = sim.MustParse("bimodal:10").MustNew()
	if _, err := s.mgr.Create(ctx, "", sim.MustParse("bimodal:10"), cfg2); err != nil {
		t.Fatalf("create after idle aging: %v", err)
	}
	if _, err := s.mgr.Metrics(ctx, idle); !errors.Is(err, ErrNotFound) {
		t.Errorf("idle session: err = %v, want ErrNotFound (should be evicted)", err)
	}
	if got := s.tel.sessEvicted.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}

	inf, err := s.mgr.Metrics(ctx, live)
	if err != nil {
		t.Fatalf("live session lost to eviction: %v", err)
	}
	want := directMetrics(t, &trace.Trace{Events: events, Insts: tr.Insts}, "gshare:12:8", testEvalOptions(), rounds)
	if !reflect.DeepEqual(inf.Metrics, want) {
		t.Error("live session metrics diverge from direct replay after eviction pressure")
	}
}

// TestTTLExpiry checks the background sweeper drops idle sessions.
func TestTTLExpiry(t *testing.T) {
	s := MustNew(Config{Shards: 1, SessionTTL: 20 * time.Millisecond})
	defer s.Close()
	ctx := context.Background()
	id := mgrSession(t, s, "gshare:10:6")

	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := s.mgr.Metrics(ctx, id)
		if errors.Is(err, ErrNotFound) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("session never expired")
		}
		// Metrics touches the session, so back off past the TTL.
		time.Sleep(50 * time.Millisecond)
	}
	if got := s.tel.sessExpired.Value(); got != 1 {
		t.Errorf("expirations = %d, want 1", got)
	}
	if got := s.mgr.Live(); got != 0 {
		t.Errorf("live after expiry = %d, want 0", got)
	}
}

// TestFeedBackpressure wedges the single shard worker and checks that a
// full op queue rejects batches with ErrBusy instead of blocking, then
// drains cleanly once the worker resumes.
func TestFeedBackpressure(t *testing.T) {
	s := MustNew(Config{Shards: 1, QueueDepth: 1})
	defer s.Close()
	ctx := context.Background()
	id := mgrSession(t, s, "gshare:10:6")
	sh := s.mgr.shards[0]

	gate := make(chan struct{})
	if err := s.mgr.enqueue(ctx, sh, func() { <-gate }, true); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick the gate op up, then fill the queue.
	for len(sh.ops) != 0 {
		time.Sleep(time.Millisecond)
	}
	if err := s.mgr.enqueue(ctx, sh, func() {}, true); err != nil {
		t.Fatal(err)
	}

	if _, err := s.mgr.Feed(ctx, id, nil, 0, 0, false); !errors.Is(err, ErrBusy) {
		t.Fatalf("feed into full queue: err = %v, want ErrBusy", err)
	}
	if got := s.mgr.QueueDepth(); got != 1 {
		t.Errorf("queue depth = %d, want 1", got)
	}

	close(gate)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := s.mgr.Feed(ctx, id, nil, 0, 0, false); err == nil {
			break
		} else if !errors.Is(err, ErrBusy) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBlockingOpsHonorContext checks that queue-blocked non-batch ops
// respect context cancellation instead of hanging.
func TestBlockingOpsHonorContext(t *testing.T) {
	s := MustNew(Config{Shards: 1, QueueDepth: 1})
	defer s.Close()
	id := mgrSession(t, s, "gshare:10:6")
	sh := s.mgr.shards[0]

	gate := make(chan struct{})
	defer close(gate)
	if err := s.mgr.enqueue(context.Background(), sh, func() { <-gate }, true); err != nil {
		t.Fatal(err)
	}
	for len(sh.ops) != 0 {
		time.Sleep(time.Millisecond)
	}
	if err := s.mgr.enqueue(context.Background(), sh, func() {}, true); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := s.mgr.Metrics(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("blocked op: err = %v, want DeadlineExceeded", err)
	}
}

func TestSpecBytes(t *testing.T) {
	small := specBytes(sim.MustParse("bimodal:10"))
	big := specBytes(sim.MustParse("bimodal:16"))
	if small <= 1024 || big <= small {
		t.Errorf("specBytes not monotone in table size: bimodal:10=%d bimodal:16=%d", small, big)
	}
}

func TestNewIDUnique(t *testing.T) {
	s := MustNew(Config{Shards: 1})
	defer s.Close()
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := s.mgr.newID()
		if seen[id] {
			t.Fatalf("duplicate session id %q", id)
		}
		seen[id] = true
	}
}

// TestQueuedBatchesApplyInArrivalOrder holds the shard worker at a
// barrier while seq'd batches for two sessions queue up behind it in a
// known order, then releases it: in-order seqs apply, a re-sent seq is
// acked as a duplicate without being re-fed, a skipped seq answers
// ErrSeqGap and leaves the session where it was, and both sessions end
// identical to a direct replay of the batches they applied.
func TestQueuedBatchesApplyInArrivalOrder(t *testing.T) {
	s := MustNew(Config{Shards: 1, QueueDepth: 64})
	defer s.Close()
	ctx := context.Background()
	batch := testTrace().Events
	if len(batch) > 300 {
		batch = batch[:300]
	}
	n := uint64(len(batch))

	idA := mgrSession(t, s, "gshare:12:8")
	idB := mgrSession(t, s, "bimodal:12")
	sh := s.mgr.shardFor(idA) // one shard, so idB lives here too

	release := make(chan struct{})
	blocked := make(chan struct{})
	if err := s.mgr.enqueue(ctx, sh, func() { close(blocked); <-release }, true); err != nil {
		t.Fatal(err)
	}
	<-blocked

	feeds := []struct {
		id   string
		seq  uint64
		want func(feedOutcome) error
	}{
		{idA, 1, wantApplied(1 * n)},
		{idB, 1, wantApplied(1 * n)},
		{idA, 2, wantApplied(2 * n)},
		{idA, 2, func(r feedOutcome) error { // a retry of an applied batch
			if r.err != nil || !r.res.Duplicate || r.res.TotalEvents != 2*n {
				return fmt.Errorf("re-sent seq: %+v, %v; want a duplicate ack at %d events", r.res, r.err, 2*n)
			}
			return nil
		}},
		{idB, 3, func(r feedOutcome) error { // seq 2 never arrived
			if !errors.Is(r.err, ErrSeqGap) {
				return fmt.Errorf("skipped seq: err = %v, want ErrSeqGap", r.err)
			}
			return nil
		}},
		{idA, 3, wantApplied(3 * n)},
		{idB, 2, wantApplied(2 * n)},
	}
	results := make([]chan feedOutcome, len(feeds))
	for i, f := range feeds {
		results[i] = make(chan feedOutcome, 1)
		go func() {
			res, err := s.mgr.Feed(ctx, f.id, append([]trace.Event(nil), batch...), 0, f.seq, false)
			results[i] <- feedOutcome{res, err}
		}()
		// Enqueue one at a time, so queue order is the table's order.
		deadline := time.Now().Add(5 * time.Second)
		for s.mgr.QueueDepth() < i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("feed %d never queued behind the barrier", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	for i, f := range feeds {
		if err := f.want(<-results[i]); err != nil {
			t.Errorf("feed %d (seq %d): %v", i, f.seq, err)
		}
	}

	for _, c := range []struct {
		id    string
		spec  string
		feeds int
	}{{idA, "gshare:12:8", 3}, {idB, "bimodal:12", 2}} {
		info, err := s.mgr.Metrics(ctx, c.id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Events != uint64(c.feeds)*n || info.Batches != uint64(c.feeds) || info.LastSeq != uint64(c.feeds) {
			t.Errorf("%s: %d events, %d batches, last seq %d; want %d, %d, %d",
				c.spec, info.Events, info.Batches, info.LastSeq, uint64(c.feeds)*n, c.feeds, c.feeds)
		}
		want := directMetrics(t, &trace.Trace{Events: batch}, c.spec, testEvalOptions(), c.feeds)
		if !reflect.DeepEqual(info.Metrics, want) {
			t.Errorf("%s: queued-feed metrics diverge from direct replay", c.spec)
		}
	}
}

// feedOutcome is what one sessionManager.Feed call returned.
type feedOutcome struct {
	res FeedResult
	err error
}

// wantApplied checks a feed outcome is a fresh (not duplicate) ack that
// brings the session to total events.
func wantApplied(total uint64) func(feedOutcome) error {
	return func(r feedOutcome) error {
		if r.err != nil || r.res.Duplicate || r.res.TotalEvents != total {
			return fmt.Errorf("got %+v, %v; want an applied batch at %d events", r.res, r.err, total)
		}
		return nil
	}
}

// TestFeedSessionAllocs is the serve path's allocation gate: feeding 8
// consecutive batches into one session — lookup, seq walk, feed,
// accounting, sizing — allocates nothing once the session is warm. It
// runs on the shard goroutine, which owns the session table.
func TestFeedSessionAllocs(t *testing.T) {
	batch := testTrace().Events
	if len(batch) > 1024 {
		batch = batch[:1024]
	}
	for name, opts := range map[string]EvalOptions{
		"serving":    {},
		"per-branch": {SFPF: true, PerBranch: true},
	} {
		t.Run(name, func(t *testing.T) {
			s := MustNew(Config{Shards: 1})
			defer s.Close()
			ctx := context.Background()
			cfg, err := opts.Config()
			if err != nil {
				t.Fatal(err)
			}
			spec := sim.MustParse("gshare:12:8")
			cfg.Predictor = spec.MustNew()
			inf, err := s.mgr.Create(ctx, "", spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sh := s.mgr.shardFor(inf.ID)
			allocs := make(chan float64, 1)
			err = s.mgr.enqueue(ctx, sh, func() {
				allocs <- testing.AllocsPerRun(20, func() {
					for range 8 {
						if _, err := sh.feed(inf.ID, batch, 1, 0, false); err != nil {
							panic(err)
						}
					}
				})
			}, true)
			if err != nil {
				t.Fatal(err)
			}
			if avg := <-allocs; avg != 0 {
				t.Errorf("sh.feed allocates %.1f times per 8 batches; want 0", avg)
			}
		})
	}
}
