package trace

import (
	"bufio"
	"bytes"
	"testing"
)

// BenchmarkDecode8K decodes one serving-sized batch (8192 events, the
// bpservd default) through the pooled-scratch path, tracking the decode
// cost the HTTP feed handler pays per request.
func BenchmarkDecode8K(b *testing.B) {
	var evs []Event
	for i := 0; i < 8192; i++ {
		evs = append(evs, Event{Kind: KindBranch, PC: uint64(i % 512), Taken: i%3 == 0})
	}
	var buf bytes.Buffer
	tr := &Trace{Name: "bench", Events: evs}
	tr.WriteTo(&buf)
	payload := buf.Bytes()
	scratch := make([]Event, 0, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr2, err := ReadTraceFrom(bufio.NewReader(bytes.NewReader(payload)), scratch)
		if err != nil {
			b.Fatal(err)
		}
		scratch = tr2.Events[:0]
	}
	b.SetBytes(int64(len(payload)))
}
