package telemetry

import (
	"bytes"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"
)

// newTestEdge builds an Edge logging into buf with a 16-byte body cap,
// on a clock that advances step per call (so every request takes step).
func newTestEdge(buf *bytes.Buffer, slow, step time.Duration) (*Edge, *Registry) {
	reg := NewRegistry()
	now := time.Unix(100, 0)
	clock := func() time.Time {
		now = now.Add(step)
		return now
	}
	return NewEdge("svc", reg, log.New(buf, "", 0), slow, 16, clock), reg
}

func newRequest(t *testing.T) *http.Request {
	t.Helper()
	return httptest.NewRequest(http.MethodGet, "http://example/x", nil)
}

// idFormat matches a minted ID: the prefix, then %06x-%08x.
func idFormat(prefix string) *regexp.Regexp {
	return regexp.MustCompile("^" + regexp.QuoteMeta(prefix) + "[0-9a-f]{6,}-[0-9a-f]{8}$")
}

func TestIDsFormat(t *testing.T) {
	ids := NewIDs("p")
	re := idFormat("p")
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := ids.Next()
		if !re.MatchString(id) {
			t.Fatalf("ID %q does not match %s", id, re)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
	}
}

// TestTracer checks request-ID minting: minted IDs are valid,
// distinct, and carry the service prefix.
func TestTracer(t *testing.T) {
	var buf bytes.Buffer
	e, _ := newTestEdge(&buf, 0, 0)
	id := e.ids.Next()
	if !ValidRequestID(id) {
		t.Errorf("minted ID %q is not valid", id)
	}
	if id2 := e.ids.Next(); id2 == id {
		t.Error("two minted IDs collide")
	}
	if re := idFormat("svc-"); !re.MatchString(id) {
		t.Errorf("minted ID %q does not match %s", id, re)
	}
}

func TestValidRequestID(t *testing.T) {
	for _, ok := range []string{"a", "req-1.2_3", strings.Repeat("x", 128)} {
		if !ValidRequestID(ok) {
			t.Errorf("ValidRequestID(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "has space", "semi;colon", "newline\n", strings.Repeat("x", 129), `quo"te`} {
		if ValidRequestID(bad) {
			t.Errorf("ValidRequestID(%q) = true", bad)
		}
	}
}

func TestEnsureRequestID(t *testing.T) {
	var buf bytes.Buffer
	e, _ := newTestEdge(&buf, 0, 0)
	r := newRequest(t)
	id := e.ensureRequestID(r)
	if r.Header.Get(RequestIDHeader) != id {
		t.Error("minted ID not set on request")
	}
	if got := e.ensureRequestID(r); got != id {
		t.Error("second Ensure re-minted")
	}
	r2 := newRequest(t)
	r2.Header.Set(RequestIDHeader, "bad id!")
	if got := e.ensureRequestID(r2); got == "bad id!" {
		t.Error("invalid client ID was trusted")
	}
	r3 := newRequest(t)
	r3.Header.Set(RequestIDHeader, "client-supplied-1")
	if got := e.ensureRequestID(r3); got != "client-supplied-1" {
		t.Errorf("valid client ID replaced by %q", got)
	}
}

// TestEdgeWrap drives one wrapped endpoint: the request ID is echoed
// before the handler runs, the body is capped, status and size reach
// the access line and the counters, and only a request at or over the
// threshold gets a slow_request line.
func TestEdgeWrap(t *testing.T) {
	var buf bytes.Buffer
	e, reg := newTestEdge(&buf, 10*time.Millisecond, 5*time.Millisecond)
	h := e.Wrap("feed", func(w http.ResponseWriter, r *http.Request) {
		if w.Header().Get(RequestIDHeader) != "rid-1" {
			t.Errorf("request ID not echoed before the handler ran")
		}
		_, err := io.ReadAll(r.Body)
		var maxErr *http.MaxBytesError
		if !errors.As(err, &maxErr) || maxErr.Limit != 16 {
			t.Errorf("body read err %v, want a 16-byte MaxBytesError", err)
		}
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		w.Write([]byte("abc"))
	})
	r := httptest.NewRequest(http.MethodPost, "http://example/feed", strings.NewReader(strings.Repeat("x", 17)))
	r.Header.Set(RequestIDHeader, "rid-1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if got := rec.Header().Get(RequestIDHeader); got != "rid-1" {
		t.Errorf("response rid %q", got)
	}
	want := "method=POST path=/feed endpoint=feed status=413 dur_us=5000 bytes=3 rid=rid-1\n"
	if buf.String() != want {
		t.Errorf("log %q, want %q (and no slow_request line under the threshold)", buf.String(), want)
	}
	if got := e.requests.With("feed", "413").Value(); got != 1 {
		t.Errorf("requests{feed,413} = %d, want 1", got)
	}

	buf.Reset()
	slow, _ := newTestEdge(&buf, 10*time.Millisecond, 50*time.Millisecond)
	slow.Wrap("sweep", func(http.ResponseWriter, *http.Request) {}).ServeHTTP(httptest.NewRecorder(), newRequest(t))
	if s := buf.String(); !strings.HasPrefix(s, "slow_request service=svc endpoint=sweep rid=svc-") ||
		!strings.Contains(s, "status=200 dur_ms=50.0\n") {
		t.Errorf("slow log line missing fields: %q", s)
	}
	if fams, err := ParseText(bytes.NewReader(renderPage(reg))); err != nil || len(fams) != 2 {
		t.Errorf("edge families: %d, lint %v", len(fams), err)
	}
}

func renderPage(reg *Registry) []byte {
	var b bytes.Buffer
	reg.Render(&b)
	return b.Bytes()
}

// TestRequestAccountingAllocFree is the middleware's zero-alloc gate:
// with an endpoint's handles resolved when its route is wrapped, the
// steady-state per-request accounting must not allocate.
func TestRequestAccountingAllocFree(t *testing.T) {
	e, _ := newTestEdge(new(bytes.Buffer), 0, 0)
	st := e.endpoint("bench")
	st.observe(200, 0) // warm the status-code handle cache
	allocs := testing.AllocsPerRun(1000, func() {
		st.observe(200, 137*time.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("request accounting allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkRequestAccounting measures the middleware's per-request
// metric cost.
func BenchmarkRequestAccounting(b *testing.B) {
	e, _ := newTestEdge(new(bytes.Buffer), 0, 0)
	st := e.endpoint("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.observe(200, 137*time.Microsecond)
	}
}
