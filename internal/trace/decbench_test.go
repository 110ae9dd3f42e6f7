package trace

import (
	"bufio"
	"bytes"
	"testing"
)

// BenchmarkDecode8K decodes one serving-sized batch (8192 events, the
// bpservd default) the way the HTTP feed handler does: through one
// reused 64 KiB bufio.Reader (the handler's pooled reader, Reset onto
// each body) into a reused event scratch slice.
func BenchmarkDecode8K(b *testing.B) {
	evs := make([]Event, 8192)
	for i := range evs {
		evs[i] = Event{Kind: KindBranch, PC: uint32(i % 512), Flags: FlagTaken.If(i%3 == 0)}
	}
	var buf bytes.Buffer
	tr := &Trace{Name: "bench", Events: evs}
	tr.WriteTo(&buf)
	payload := buf.Bytes()
	body := bytes.NewReader(payload)
	br := bufio.NewReaderSize(nil, 64<<10)
	scratch := make([]Event, 0, 8192)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.Reset(payload)
		br.Reset(body)
		tr2, err := ReadTraceFrom(br, scratch)
		if err != nil {
			b.Fatal(err)
		}
		scratch = tr2.Events[:0]
	}
}
