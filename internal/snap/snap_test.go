package snap

import (
	"bytes"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// testTrace collects one if-converted workload trace (real predicate
// traffic for the SFPF and PGU paths), memoized across tests.
var testTraceMemo *trace.Trace

func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	if testTraceMemo != nil {
		return testTraceMemo
	}
	p := workload.ByNameMust("scan").Build()
	cp, _, err := ifconv.Convert(p, ifconv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(cp, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) < 100 {
		t.Fatalf("trace too short: %d events", len(tr.Events))
	}
	testTraceMemo = tr
	return tr
}

func fullCfg(p bpred.Predictor) core.EvalConfig {
	return core.EvalConfig{
		Predictor: p,
		UseSFPF:   true, FilterTrue: true,
		ResolveDelay: core.DefaultResolveDelay,
		PGU:          core.PGUAll, PGUDelay: core.DefaultPGUDelay,
		PerBranch: true,
	}
}

// TestResumeByteIdenticalAllKinds is the package's core guarantee: for
// every registry kind, snapshotting mid-stream and restoring into fresh
// objects finishes the trace with metrics and final state identical to
// an uninterrupted run.
func TestResumeByteIdenticalAllKinds(t *testing.T) {
	tr := testTrace(t)
	for _, kind := range sim.Kinds() {
		t.Run(kind, func(t *testing.T) {
			spec := sim.MustParse(kind)
			cut := len(tr.Events) * 2 / 5

			// Uninterrupted run.
			full := core.NewEvaluator(fullCfg(spec.MustNew()))
			for i := range tr.Events {
				full.Feed(&tr.Events[i])
			}
			full.AddInsts(tr.Insts)

			// Interrupted run: feed the prefix, snapshot, restore, finish.
			head := core.NewEvaluator(fullCfg(spec.MustNew()))
			for i := 0; i < cut; i++ {
				head.Feed(&tr.Events[i])
			}
			meta := Meta{SessionID: "s-test", Events: uint64(cut), Batches: 1, LastSeq: 7}
			blob, err := Encode(spec, head, meta)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			if res.Meta != meta {
				t.Fatalf("meta round-trip: got %+v want %+v", res.Meta, meta)
			}
			if res.Spec.String() != spec.String() {
				t.Fatalf("spec round-trip: got %s want %s", res.Spec, spec)
			}
			for i := cut; i < len(tr.Events); i++ {
				res.Eval.Feed(&tr.Events[i])
			}
			res.Eval.AddInsts(tr.Insts)

			if !reflect.DeepEqual(res.Eval.Metrics(), full.Metrics()) {
				t.Fatalf("metrics diverge after resume:\nresumed %+v\nfull    %+v",
					res.Eval.Metrics(), full.Metrics())
			}
			// Stronger than metrics: the final snapshots must be
			// byte-identical, i.e. every table, history, and queue agrees.
			endMeta := Meta{SessionID: "s-test", Events: uint64(len(tr.Events)), Batches: 2, LastSeq: 9}
			a, err := Encode(spec, res.Eval, endMeta)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Encode(spec, full, endMeta)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatal("final snapshots differ between resumed and uninterrupted runs")
			}
		})
	}
}

// TestEncodeDecodeIdentity checks the canonical-encoding property the
// fuzz target also leans on: Encode(Decode(b)) == b for valid snapshots.
func TestEncodeDecodeIdentity(t *testing.T) {
	tr := testTrace(t)
	spec := sim.MustParse("perceptron")
	e := core.NewEvaluator(fullCfg(spec.MustNew()))
	for i := range tr.Events {
		e.Feed(&tr.Events[i])
	}
	blob, err := Encode(spec, e, Meta{SessionID: "id-1", Events: 3, Batches: 2, LastSeq: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Encode(res.Spec, res.Eval, res.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatal("Encode(Decode(blob)) differs from blob")
	}
}

func validSnapshot(t *testing.T) []byte {
	t.Helper()
	tr := testTrace(t)
	spec := sim.MustParse("gshare:10:8")
	e := core.NewEvaluator(fullCfg(spec.MustNew()))
	for i := 0; i < len(tr.Events)/2; i++ {
		e.Feed(&tr.Events[i])
	}
	blob, err := Encode(spec, e, Meta{SessionID: "sx", Events: 10, Batches: 2})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// refix recomputes the trailing checksum after a deliberate patch, so a
// test can reach validation paths beyond the CRC.
func refix(data []byte) []byte {
	body := data[:len(data)-4]
	return wire.AppendU32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

func TestDecodeRejectsTruncation(t *testing.T) {
	blob := validSnapshot(t)
	for n := 0; n < len(blob); n += 7 {
		if _, err := Decode(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	blob := validSnapshot(t)
	for i := 0; i < len(blob); i += 3 {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("byte %d flipped but snapshot decoded", i)
		}
	}
}

func TestDecodeVersionMismatch(t *testing.T) {
	blob := validSnapshot(t)
	bad := append([]byte(nil), blob...)
	bad[4] = 2 // version u32 little-endian low byte
	if _, err := Decode(refix(bad)); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
}

func TestDecodeKeyMismatch(t *testing.T) {
	blob := validSnapshot(t)
	// The key is a hex string; find and flip one of its characters by
	// patching through a re-encode of a snapshot with modified config:
	// simplest is to locate the key bytes via a decode of the valid blob.
	res, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.Index(blob, []byte(res.Key))
	if idx < 0 {
		t.Fatal("key not found in encoding")
	}
	bad := append([]byte(nil), blob...)
	if bad[idx] == 'f' {
		bad[idx] = '0'
	} else {
		bad[idx] = 'f'
	}
	if _, err := Decode(refix(bad)); !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("patched key: got %v, want ErrKeyMismatch", err)
	}
}

func TestDecodeRejectsReservedFlags(t *testing.T) {
	blob := validSnapshot(t)
	res, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	// The flags byte directly follows the length-prefixed spec string.
	idx := 8 + 4 + len(res.Spec.String())
	bad := append([]byte(nil), blob...)
	bad[idx] |= 0x80
	if _, err := Decode(refix(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reserved flag bit: got %v, want ErrCorrupt", err)
	}
	bad = append([]byte(nil), blob...)
	bad[idx+1] = 9 // PGU policy out of range
	if _, err := Decode(refix(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad PGU policy: got %v, want ErrCorrupt", err)
	}
}

// TestDecodeRejectsNonCanonicalSpec hand-builds a snapshot whose spec
// string omits the default parameters; the decoder must refuse it even
// though it parses, keeping the encoding bijective.
func TestDecodeRejectsNonCanonicalSpec(t *testing.T) {
	spec := sim.MustParse("bimodal:4")
	e := core.NewEvaluator(core.EvalConfig{Predictor: spec.MustNew()})
	cfg := e.Config()

	buf := []byte{'P', '6', '4', 'S'}
	buf = wire.AppendU32(buf, Version)
	buf = wire.AppendString(buf, "bimodal") // parses, but not canonical
	buf = wire.AppendU8(buf, 0)
	buf = wire.AppendU8(buf, 0)
	buf = wire.AppendU64(buf, cfg.ResolveDelay)
	buf = wire.AppendU64(buf, cfg.PGUDelay)
	buf = wire.AppendString(buf, "")
	buf = wire.AppendU64(buf, 0)
	buf = wire.AppendU64(buf, 0)
	buf = wire.AppendU64(buf, 0)
	buf = wire.AppendString(buf, Key(spec, cfg))
	buf = wire.AppendSized(buf, e.Predictor().(bpred.Stater).AppendState)
	buf = wire.AppendSized(buf, e.AppendState)
	buf = wire.AppendU32(buf, crc32.ChecksumIEEE(buf))
	if _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-canonical spec: got %v, want ErrCorrupt", err)
	}
}

// nonStater is a Predictor outside the registry, to exercise Encode's
// unsupported-predictor error.
type nonStater struct{}

func (nonStater) Name() string                    { return "custom" }
func (nonStater) Predict(uint64) bool             { return false }
func (nonStater) PredictUpdate(uint64, bool) bool { return false }
func (nonStater) Reset()                          {}

func TestEncodeErrors(t *testing.T) {
	e := core.NewEvaluator(core.EvalConfig{Predictor: nonStater{}})
	if _, err := Encode(sim.MustParse("gshare"), e, Meta{}); err == nil {
		t.Fatal("non-Stater predictor encoded")
	}
	e2 := core.NewEvaluator(core.EvalConfig{Predictor: sim.MustParse("gshare").MustNew()})
	if _, err := Encode(sim.Spec{Kind: "nope"}, e2, Meta{}); err == nil {
		t.Fatal("unknown spec encoded")
	}
}

// TestKeySeparatesConfigs: distinct configurations must have distinct
// keys, identical ones identical keys.
func TestKeySeparatesConfigs(t *testing.T) {
	spec := sim.MustParse("gshare")
	base := core.EvalConfig{UseSFPF: true, ResolveDelay: 6, PGU: core.PGUAll, PGUDelay: 2}
	if Key(spec, base) != Key(spec, base) {
		t.Fatal("key not deterministic")
	}
	variants := []core.EvalConfig{
		{ResolveDelay: 6, PGU: core.PGUAll, PGUDelay: 2},
		{UseSFPF: true, ResolveDelay: 7, PGU: core.PGUAll, PGUDelay: 2},
		{UseSFPF: true, ResolveDelay: 6, PGU: core.PGUOff, PGUDelay: 2},
		{UseSFPF: true, ResolveDelay: 6, PGU: core.PGUAll, PGUDelay: 3},
		{UseSFPF: true, FilterTrue: true, ResolveDelay: 6, PGU: core.PGUAll, PGUDelay: 2},
	}
	seen := map[string]bool{Key(spec, base): true}
	for i, v := range variants {
		k := Key(spec, v)
		if seen[k] {
			t.Fatalf("variant %d collides", i)
		}
		seen[k] = true
	}
	if seen[Key(sim.MustParse("gshare:13:8"), base)] {
		t.Fatal("different spec collides")
	}
}

// BenchmarkEncode snapshots a session of the kind bench's session_churn
// workload runs (gshare:14:10 with SFPF, PGU and per-branch stats) after
// a whole trace, the state a spill or a migration encodes.
func BenchmarkEncode(b *testing.B) {
	tr := testTrace(b)
	spec := sim.MustParse("gshare:14:10")
	e := core.NewEvaluator(fullCfg(spec.MustNew()))
	e.FeedBatch(tr.Events)
	meta := Meta{SessionID: "s-bench", Events: uint64(len(tr.Events)), Batches: 1, LastSeq: 1}
	blob, err := Encode(spec, e, meta)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(spec, e, meta); err != nil {
			b.Fatal(err)
		}
	}
}
