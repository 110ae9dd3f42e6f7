package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the spans of a traced run in memory until the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check per
// layer call.
type tracer struct {
	t0    time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	spans []spanRecord
}

// spanRecord is one span as written to the JSONL file. Times are
// nanoseconds since the tracer was created.
type spanRecord struct {
	Name      string `json:"name"`
	ID        uint64 `json:"id"`
	Parent    uint64 `json:"parent,omitempty"`
	StartNS   int64  `json:"start_ns"`
	EndNS     int64  `json:"end_ns"`
	RequestID string `json:"request_id,omitempty"`
	Failed    bool   `json:"failed,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; end closes and records it.
type span struct {
	t   *tracer
	rec spanRecord
}

// begin opens a root span, named after the work it wraps.
func (t *tracer) begin(name string) *span {
	if t == nil {
		return nil
	}
	return t.open(name, 0)
}

// child opens a span caused by s, named after the layer call it wraps; a
// nil span has nil children.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return s.t.open(name, s.rec.ID)
}

func (t *tracer) open(name string, parent uint64) *span {
	return &span{t: t, rec: spanRecord{
		Name: name, ID: t.next.Add(1), Parent: parent,
		StartNS: time.Since(t.t0).Nanoseconds(),
	}}
}

// withRequestID tags an HTTP span with the X-Request-Id it carried.
func (s *span) withRequestID(rid string) *span {
	if s != nil {
		s.rec.RequestID = rid
	}
	return s
}

// end records the span; err marks it failed.
func (s *span) end(err error) {
	if s == nil {
		return
	}
	s.rec.EndNS = time.Since(s.t.t0).Nanoseconds()
	s.rec.Failed = err != nil
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// write stores the spans as JSONL, one span per line in end order.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
