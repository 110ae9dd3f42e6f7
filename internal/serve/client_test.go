package serve

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"
)

// TestClientEndpoints calls every Client method against a live server:
// the session lifecycle in two batches with a redelivered batch, a
// snapshot restored after the delete, the listings and the metrics
// page.
func TestClientEndpoints(t *testing.T) {
	ts, _ := newTestServer(t, Config{Shards: 2})
	c := NewClient(ts.URL+"/", ts.Client()) // a trailing slash is trimmed
	ctx := context.Background()
	tr := testTrace()
	half := len(tr.Events) / 2

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if preds, err := c.Predictors(ctx); err != nil || len(preds.Kinds) == 0 {
		t.Fatalf("predictors: %+v, %v", preds, err)
	}
	sess, err := c.Create(ctx, SessionRequest{ID: "cl-1", Spec: "gshare:12:8", EvalOptions: testEvalOptions()})
	if err != nil || sess.ID != "cl-1" {
		t.Fatalf("create: %+v, %v", sess, err)
	}
	if br, err := c.Feed(ctx, sess.ID, EncodeBatch(tr.Events[:half], 0), 1, ""); err != nil || br.Events != half {
		t.Fatalf("first feed: %+v, %v", br, err)
	}
	blob := EncodeBatch(tr.Events[half:], tr.Insts)
	for _, wantDup := range []bool{false, true} { // the second post is a redelivery
		br, err := c.Feed(ctx, sess.ID, blob, 2, "cl-rid")
		if err != nil || br.Duplicate != wantDup || br.TotalEvents != uint64(len(tr.Events)) {
			t.Fatalf("second feed (redelivery %v): %+v, %v", wantDup, br, err)
		}
	}
	got, err := c.Get(ctx, sess.ID)
	if err != nil || got.Metrics == nil || got.LastSeq != 2 {
		t.Fatalf("get: %+v, %v", got, err)
	}
	if list, err := c.List(ctx); err != nil || len(list) != 1 || list[0].ID != sess.ID {
		t.Fatalf("list: %+v, %v", list, err)
	}

	snapBlob, err := c.Snapshot(ctx, sess.ID)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Delete(ctx, sess.ID)
	if err != nil || final.Metrics == nil || final.Metrics.Branches != got.Metrics.Branches {
		t.Fatalf("delete: %+v, %v", final, err)
	}
	restored, err := c.Restore(ctx, sess.ID, snapBlob)
	if err != nil || restored.Events != uint64(len(tr.Events)) {
		t.Fatalf("restore: %+v, %v", restored, err)
	}
	want := directMetrics(t, tr, "gshare:12:8", testEvalOptions(), 1)
	if again, err := c.Get(ctx, sess.ID); err != nil || again.Metrics.Mispredicts != want.Mispredicts {
		t.Fatalf("restored session: %+v, %v; want %d mispredicts", again.Metrics, err, want.Mispredicts)
	}

	page, err := c.Metrics(ctx)
	if err != nil || !strings.Contains(page, "bpservd_events_total") {
		t.Fatalf("metrics page: %v\n%s", err, page)
	}
}

// TestClientAPIError: a refusal decodes into *APIError with the reply's
// status, code and echoed request ID; a reply without an envelope keeps
// its text; a transport failure is not an *APIError, which is what lets
// a caller tell a refusal from a request that may never have arrived.
func TestClientAPIError(t *testing.T) {
	ts, _ := newTestServer(t, Config{Shards: 1, MaxBody: 1 << 10})
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	if _, err := c.Create(ctx, SessionRequest{ID: "small", Spec: "bimodal:10"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		id, rid string
		events  int
		status  int
		code    string
	}{
		{"ghost", "rid-404", 1, http.StatusNotFound, "not_found"},
		{"small", "rid-413", 1000, http.StatusRequestEntityTooLarge, "body_too_large"},
	} {
		_, err := c.Feed(ctx, tc.id, EncodeBatch(testTrace().Events[:tc.events], 0), 0, tc.rid)
		var ae *APIError
		if !errors.As(err, &ae) {
			t.Fatalf("%s: err %v, want an *APIError", tc.code, err)
		}
		if ae.Status != tc.status || ae.Code != tc.code || ae.RequestID != tc.rid || ae.Message == "" {
			t.Errorf("got %+v, want status %d code %s request ID %s", *ae, tc.status, tc.code, tc.rid)
		}
		if !strings.Contains(ae.Error(), tc.code) {
			t.Errorf("error text %q does not name %s", ae.Error(), tc.code)
		}
	}

	// The mux's plain-text 404 for an unknown path has no envelope.
	err := NewClient(ts.URL+"/nowhere", nil).Health(ctx)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Code != "" || ae.Message != "404 page not found" {
		t.Fatalf("plain-text 404: %v", err)
	}

	ts.Close()
	if err := c.Health(ctx); err == nil || errors.As(err, &ae) {
		t.Fatalf("closed server: err %v, want a transport error that is not an *APIError", err)
	}
}
