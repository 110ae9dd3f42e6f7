package trace

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"
)

func testEvents(n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		if i%3 == 2 {
			evs[i] = Event{Kind: KindPredDef, Step: uint64(i), PC: uint64(i % 17), Executed: true, Value: i%2 == 0}
		} else {
			evs[i] = Event{Kind: KindBranch, Step: uint64(i), PC: uint64(i % 31), Taken: i%2 == 1, GuardDist: uint64(i % 7)}
		}
	}
	return evs
}

// TestNextBatchDrainsTrace checks that NextBatch views concatenate to
// exactly the trace's event sequence, respect the max, and interoperate
// with per-event Next calls on the same cursor.
func TestNextBatchDrainsTrace(t *testing.T) {
	tr := &Trace{Name: "t", Events: testEvents(100)}
	r := tr.Replay().(BatchReader)

	// Mixed consumption: a few Next calls, then batches of awkward size.
	var got []Event
	var ev Event
	for i := 0; i < 3 && r.Next(&ev); i++ {
		got = append(got, ev)
	}
	for {
		b := r.NextBatch(7)
		if len(b) == 0 {
			break
		}
		if len(b) > 7 {
			t.Fatalf("NextBatch(7) returned %d events", len(b))
		}
		got = append(got, b...)
	}
	if !reflect.DeepEqual(got, tr.Events) {
		t.Fatal("mixed Next/NextBatch consumption did not reproduce the event sequence")
	}
	if b := r.NextBatch(7); len(b) != 0 {
		t.Fatalf("drained reader returned a %d-event batch", len(b))
	}
	if r.Err() != nil {
		t.Fatalf("slice reader reported error: %v", r.Err())
	}
}

// TestNextBatchIsView checks the zero-copy contract: the returned batch
// aliases the trace's event storage.
func TestNextBatchIsView(t *testing.T) {
	tr := &Trace{Name: "t", Events: testEvents(10)}
	r := tr.Replay().(BatchReader)
	b := r.NextBatch(4)
	if len(b) != 4 {
		t.Fatalf("got %d events, want 4", len(b))
	}
	if &b[0] != &tr.Events[0] {
		t.Error("NextBatch copied events instead of returning a view")
	}
}

// TestReadTraceInto checks scratch-buffer decoding through ReadTraceFrom:
// the result matches ReadTrace, a sufficient scratch's backing array is
// reused, and decoding into a recycled buffer allocates no new event
// storage.
func TestReadTraceInto(t *testing.T) {
	tr := &Trace{
		Name: "serialize-into", Events: testEvents(257),
		Insts: 4096, Nullified: 12, Branches: 171, RegionBranches: 3, PredDefs: 86,
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	plain, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]Event, 0, 512)
	into, err := ReadTraceFrom(bufio.NewReader(bytes.NewReader(raw)), scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, into) {
		t.Fatal("ReadTraceFrom decoded a different trace than ReadTrace")
	}
	if &into.Events[0] != &scratch[:1][0] {
		t.Error("sufficient scratch capacity was not reused")
	}

	// Recycling the (possibly grown) slice must keep the same storage.
	again, err := ReadTraceFrom(bufio.NewReader(bytes.NewReader(raw)), into.Events[:0])
	if err != nil {
		t.Fatal(err)
	}
	if &again.Events[0] != &into.Events[0] {
		t.Error("recycled buffer was reallocated on second decode")
	}
	if !reflect.DeepEqual(again.Events, plain.Events) {
		t.Fatal("second decode into recycled buffer diverged")
	}
}
