package oracle

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/ifconv"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FuzzPredictorVsReference lets the fuzzer pick the predictor kind, the
// stream seed and the stream length, and requires the registry predictor
// and its naive reference to agree on every prediction. The kinds run at
// their default (registry-normalized) parameters so a fuzz iteration can
// never allocate a pathological table.
func FuzzPredictorVsReference(f *testing.F) {
	kinds := sim.Kinds()
	for i := range kinds {
		f.Add(uint64(i)+1, uint8(i), uint16(512))
	}
	f.Fuzz(func(t *testing.T, seed uint64, kindIdx uint8, events uint16) {
		kind := kinds[int(kindIdx)%len(kinds)]
		s := Stream{Seed: seed, Events: int(events%2048) + 16}
		if err := CheckSpec(sim.MustParse(kind), s); err != nil {
			t.Fatalf("kind %s, seed %d: %v", kind, seed, err)
		}
	})
}

// FuzzTraceRoundTrip feeds arbitrary bytes to the trace deserializer.
// Whatever it accepts must survive a serialize→deserialize round trip
// unchanged; everything else must fail with an error, never a panic or a
// silently short trace.
func FuzzTraceRoundTrip(f *testing.F) {
	// Seed with a real serialized trace so the fuzzer starts inside the
	// valid format, plus the degenerate prefixes.
	p, _, err := ifconv.Convert(workload.ByNameMust("scan").Build(), ifconv.Config{})
	if err != nil {
		f.Fatal(err)
	}
	tr, err := trace.Collect(p, 3_000_000)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	// A short trace whose first record has a nonzero pad byte: the
	// decode must clear it, or the round trip (which writes pad 0)
	// compares unequal.
	short := &trace.Trace{Name: tr.Name, Events: tr.Events[:4]}
	var sbuf bytes.Buffer
	if _, err := short.WriteTo(&sbuf); err != nil {
		f.Fatal(err)
	}
	padded := sbuf.Bytes()
	padded[4+4+4+len(short.Name)+6*8+3] = 0xFF
	f.Add(padded)
	f.Add([]byte("P64T"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		back, err := trace.ReadTrace(&out)
		if err != nil {
			t.Fatalf("serialized form of accepted trace rejected: %v", err)
		}
		if !reflect.DeepEqual(got, back) {
			t.Fatalf("round trip changed the trace:\n got %+v\nback %+v", got, back)
		}
	})
}
