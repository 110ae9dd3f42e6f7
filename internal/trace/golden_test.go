package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/ifconv"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestP64TGolden pins the P64T wire format: the if-converted scan trace
// must serialize to the same bytes it always has, and reading those
// bytes back and writing them again must reproduce them exactly.
func TestP64TGolden(t *testing.T) {
	const (
		wantEvents = 39124
		wantBytes  = 939044
		wantSHA    = "90f9a6e81683219925be61593a2512419e929b324b11ba05a6d8fe09fe32d7e7"
	)
	cp, _, err := ifconv.Convert(workload.ByNameMust("scan").Build(), ifconv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(cp, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if len(tr.Events) != wantEvents || buf.Len() != wantBytes || hex.EncodeToString(sum[:]) != wantSHA {
		t.Fatalf("scan trace serialized to %d events, %d bytes, sha256 %x; want %d, %d, %s",
			len(tr.Events), buf.Len(), sum, wantEvents, wantBytes, wantSHA)
	}
	back, err := trace.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if _, err := back.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("read-then-write changed the serialized bytes")
	}
}
