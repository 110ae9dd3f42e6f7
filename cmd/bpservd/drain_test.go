package main

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/trace"
)

// drainBatch is a synthetic P64T batch of n branch events.
func drainBatch(n int) []byte {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{Kind: trace.KindBranch, PC: uint32(i % 13), Step: uint64(4 * i)}
		if i%3 != 0 {
			events[i].Flags = trace.FlagTaken
		}
	}
	return serve.EncodeBatch(events, uint64(4*n))
}

// TestShutdownSpillsBeforeListenerCloses holds a SIGTERMed bpservd just
// after its listener has closed, behind a router, with a second bpservd
// on the same spill directory. A batch for one of the dying backend's
// sessions fails there at the transport level, and the router retries
// it on the survivor. The survivor must find the session in the spill
// directory and apply the batch exactly once. If the dying backend only
// spills after its listener has closed, the survivor answers 404
// not_found instead.
func TestShutdownSpillsBeforeListenerCloses(t *testing.T) {
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	shutdownHold = func() { once.Do(func() { close(held); <-release }) }
	t.Cleanup(func() { shutdownHold = func() {} })

	spill := t.TempDir()
	addr1, stop1, _ := startDaemon(t, "-spill", spill)
	addr2, stop2, _ := startDaemon(t, "-spill", spill)
	defer stop2()
	rt, err := router.New(router.Config{Backends: []string{"http://" + addr1, "http://" + addr2}, HealthEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	ctx := context.Background()
	c := serve.NewClient(front.URL, nil)
	batch := drainBatch(512)
	for i := 0; i < 16; i++ {
		id := fmt.Sprintf("drain-%d", i)
		if _, err := c.Create(ctx, serve.SessionRequest{ID: id, Spec: "gshare:12:8"}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Feed(ctx, id, batch, 1, ""); err != nil {
			t.Fatal(err)
		}
	}
	onB1, err := serve.NewClient("http://"+addr1, nil).List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(onB1) == 0 {
		t.Fatal("no session hashed to the first backend")
	}
	victim := onB1[0].ID

	stopped := make(chan error, 1)
	go func() { stopped <- stop1() }()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the first backend never reached the shutdown window")
	}
	_, feedErr := c.Feed(ctx, victim, batch, 2, "drain-window")
	close(release)
	if err := <-stopped; err != nil {
		t.Fatalf("unclean shutdown: %v", err)
	}
	if feedErr != nil {
		var ae *serve.APIError
		if errors.As(feedErr, &ae) {
			t.Fatalf("batch 2 of %s in the shutdown window: HTTP %d %s: %s", victim, ae.Status, ae.Code, ae.Message)
		}
		t.Fatalf("batch 2 of %s in the shutdown window: %v", victim, feedErr)
	}
	got, err := c.Get(ctx, victim)
	if err != nil {
		t.Fatal(err)
	}
	if got.Batches != 2 || got.LastSeq != 2 || got.Events != 1024 {
		t.Fatalf("%s after failover: batches=%d last_seq=%d events=%d, want 2/2/1024", victim, got.Batches, got.LastSeq, got.Events)
	}
}
