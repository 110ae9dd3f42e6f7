// External test package: workload (imported for real programs) now
// resolves synthetic charz workloads, and charz consumes this package —
// an in-package test would close an import cycle.
package trace_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/ifconv"
	"repro/internal/trace"
	"repro/internal/workload"
)

func TestTraceRoundTrip(t *testing.T) {
	p := workload.ByNameMust("scan").Build()
	cp, _, err := ifconv.Convert(p, ifconv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(cp, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := trace.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.Insts != tr.Insts || back.Nullified != tr.Nullified ||
		back.Branches != tr.Branches || back.RegionBranches != tr.RegionBranches ||
		back.PredDefs != tr.PredDefs {
		t.Fatalf("header mismatch: %+v vs %+v", back, tr)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(back.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if back.Events[i] != tr.Events[i] {
			t.Fatalf("event %d differs:\n got %+v\nwant %+v", i, back.Events[i], tr.Events[i])
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := trace.ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := trace.ReadTrace(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated valid prefix.
	p := workload.ByNameMust("stream").Build()
	tr, err := trace.Collect(p, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := trace.ReadTrace(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

// TestReadTraceTruncationSweep serializes a small trace and feeds the
// deserializer every strict prefix: each one must produce an error, never
// a silently short trace.
func TestReadTraceTruncationSweep(t *testing.T) {
	p := workload.ByNameMust("scan").Build()
	cp, _, err := ifconv.Convert(p, ifconv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(cp, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the sweep cheap: a handful of events is enough to cover the
	// magic, version, name, header and record regions byte by byte.
	tr.Events = tr.Events[:8]
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if got, err := trace.ReadTrace(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted: %+v", n, len(full), got)
		}
	}
	if _, err := trace.ReadTrace(bytes.NewReader(full)); err != nil {
		t.Fatalf("full serialization rejected: %v", err)
	}
}

// corruptHeader builds serialized-trace bytes with a chosen version and
// declared event count and no event payload at all.
func corruptHeader(version uint32, count uint64) []byte {
	var buf bytes.Buffer
	buf.Write([]byte("P64T"))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], version)
	buf.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], 0) // empty name
	buf.Write(u32[:])
	var u64 [8]byte
	for i := 0; i < 5; i++ { // insts .. preddefs
		binary.LittleEndian.PutUint64(u64[:], 1)
		buf.Write(u64[:])
	}
	binary.LittleEndian.PutUint64(u64[:], count)
	buf.Write(u64[:])
	return buf.Bytes()
}

func TestReadTraceRejectsBadVersion(t *testing.T) {
	if _, err := trace.ReadTrace(bytes.NewReader(corruptHeader(trace.VersionForTest+1, 0))); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestReadTraceRejectsImplausibleCount(t *testing.T) {
	if _, err := trace.ReadTrace(bytes.NewReader(corruptHeader(trace.VersionForTest, 1<<40))); err == nil {
		t.Fatal("implausible event count accepted")
	}
}

// TestReadTraceLargeCountNoData declares a huge (but plausible) event
// count with zero payload bytes: the reader must fail on the first
// missing record instead of allocating the declared count up front.
func TestReadTraceLargeCountNoData(t *testing.T) {
	if _, err := trace.ReadTrace(bytes.NewReader(corruptHeader(trace.VersionForTest, 1<<31))); err == nil {
		t.Fatal("eventless trace with huge declared count accepted")
	}
}

func TestReadTraceRejectsHugeNameLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte("P64T"))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], trace.VersionForTest)
	buf.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], 1<<24) // name length over the cap
	buf.Write(u32[:])
	if _, err := trace.ReadTrace(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("oversized name length accepted")
	}
}

// testEvents returns n synthetic events mixing branches and defines.
func testEvents(n int) []trace.Event {
	evs := make([]trace.Event, n)
	for i := range evs {
		if i%3 == 2 {
			evs[i] = trace.Event{Kind: trace.KindPredDef, Step: uint64(i), PC: uint32(i % 17), Flags: trace.FlagExecuted | trace.FlagValue.If(i%2 == 0)}
		} else {
			evs[i] = trace.Event{Kind: trace.KindBranch, Step: uint64(i), PC: uint32(i % 31), Flags: trace.FlagTaken.If(i%2 == 1), GuardDist: uint64(i % 7)}
		}
	}
	return evs
}

// TestReadTraceFromReusesScratch checks scratch-buffer decoding through
// ReadTraceFrom: the result matches ReadTrace, a sufficient scratch's
// backing array is reused, and decoding into a recycled buffer allocates
// no new event storage.
func TestReadTraceFromReusesScratch(t *testing.T) {
	tr := &trace.Trace{
		Name: "serialize-into", Events: testEvents(257),
		Insts: 4096, Nullified: 12, Branches: 171, RegionBranches: 3, PredDefs: 86,
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	plain, err := trace.ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]trace.Event, 0, 512)
	into, err := trace.ReadTraceFrom(bufio.NewReader(bytes.NewReader(raw)), scratch)
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
	again, err := trace.ReadTraceFrom(bufio.NewReader(bytes.NewReader(raw)), into.Events[:0])
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

// TestEventLayout pins Event to the P64T record: 24 bytes, with each
// field at its record offset, so a decode can read records straight into
// an event slice.
func TestEventLayout(t *testing.T) {
	var ev trace.Event
	if got := unsafe.Sizeof(ev); got != 24 {
		t.Errorf("sizeof(Event) = %d, want 24", got)
	}
	for _, c := range []struct {
		field     string
		got, want uintptr
	}{
		{"Kind", unsafe.Offsetof(ev.Kind), 0},
		{"Flags", unsafe.Offsetof(ev.Flags), 1},
		{"Guard", unsafe.Offsetof(ev.Guard), 2},
		{"PC", unsafe.Offsetof(ev.PC), 4},
		{"Step", unsafe.Offsetof(ev.Step), 8},
		{"GuardDist", unsafe.Offsetof(ev.GuardDist), 16},
	} {
		if c.got != c.want {
			t.Errorf("offset of %s = %d, want %d", c.field, c.got, c.want)
		}
	}
}

// recordOffset is the byte offset of event i's record in a serialized
// trace named name.
func recordOffset(name string, i int) int {
	return 4 + 4 + 4 + len(name) + 6*8 + i*24
}

// TestReadTraceIgnoresPad: a record whose pad byte is nonzero decodes to
// exactly the event of the same record with pad zero. reflect.DeepEqual
// compares the blank pad field, so a decode that left the wire byte in
// place would fail here.
func TestReadTraceIgnoresPad(t *testing.T) {
	tr := &trace.Trace{Name: "pad", Events: testEvents(5)}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean, err := trace.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	dirty := bytes.Clone(buf.Bytes())
	for i := range tr.Events {
		dirty[recordOffset(tr.Name, i)+3] = 0xA5
	}
	got, err := trace.ReadTrace(bytes.NewReader(dirty))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, clean) {
		t.Fatalf("nonzero pad changed the decode:\n got %+v\nwant %+v", got.Events, clean.Events)
	}
}

// TestReadTraceChunkBoundary decodes a trace whose event count crosses
// the decode's growth chunk, both fresh and into a scratch slice too
// small for it.
func TestReadTraceChunkBoundary(t *testing.T) {
	tr := &trace.Trace{Name: "chunks", Events: testEvents(trace.DecodeChunkForTest + 3)}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatal("fresh decode across the chunk boundary diverged")
	}
	into, err := trace.ReadTraceFrom(bufio.NewReader(bytes.NewReader(buf.Bytes())), make([]trace.Event, 0, 100))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(into.Events, tr.Events) {
		t.Fatal("scratch decode across the chunk boundary diverged")
	}
	// Truncated inside the second chunk: an error naming a record there.
	if _, err := trace.ReadTrace(bytes.NewReader(buf.Bytes()[:buf.Len()-30])); err == nil {
		t.Fatal("trace truncated in its second chunk accepted")
	}
}

// TestReadTraceRejectsUnknownKind: a record whose kind is neither a
// branch nor a predicate define fails the decode, naming the record, in
// the first chunk and past the chunk boundary alike.
func TestReadTraceRejectsUnknownKind(t *testing.T) {
	for _, at := range []int{0, 5, trace.DecodeChunkForTest + 1} {
		for _, kind := range []trace.Kind{2, 9, 255} {
			evs := testEvents(trace.DecodeChunkForTest + 3)
			evs[at].Kind = kind
			var buf bytes.Buffer
			if _, err := (&trace.Trace{Name: "kinds", Events: evs}).WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			_, err := trace.ReadTrace(&buf)
			want := fmt.Sprintf("trace: event %d: unknown kind %d", at, kind)
			if err == nil || err.Error() != want {
				t.Errorf("kind %d at event %d: err %v, want %q", kind, at, err, want)
			}
		}
	}
}

// TestReadTraceHostileCountBoundedAlloc declares 2^31 events but sends
// ten: the decode must fail having allocated at most one growth chunk of
// events (plus the reader and header), not the declared count.
func TestReadTraceHostileCountBoundedAlloc(t *testing.T) {
	body := corruptHeader(trace.VersionForTest, 1<<31)
	var rec bytes.Buffer
	if _, err := (&trace.Trace{Events: testEvents(10)}).WriteTo(&rec); err != nil {
		t.Fatal(err)
	}
	body = append(body, rec.Bytes()[recordOffset("", 0):]...)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := trace.ReadTrace(bytes.NewReader(body))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("short body under a hostile count accepted")
	}
	const slack = 16 << 10 // bufio reader, trace header, error text
	limit := uint64(trace.DecodeChunkForTest*unsafe.Sizeof(trace.Event{})) + slack
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("hostile header allocated %d bytes before failing; want at most %d", got, limit)
	}
}
