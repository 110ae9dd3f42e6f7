// External test package: workload (imported for real programs) now
// resolves synthetic charz workloads, and charz consumes this package —
// an in-package test would close an import cycle.
package trace_test

import (
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/prog"
	"repro/internal/trace"
	"repro/internal/workload"
)

// countdown builds a program whose while loop runs iters times: each
// iteration and the final failing test contribute one compare and one
// conditional branch, so the trace holds exactly 2*(iters+1) events.
func countdown(name string, iters int64) *prog.Program {
	b := prog.NewBuilder(name)
	b.Movi(1, iters)
	b.While(prog.RI(isa.CmpGT, 1, 0), func() {
		b.Subi(1, 1, 1)
	})
	b.Halt(0)
	return b.MustProgram()
}

// TestStreamMatchesCollect replays every workload both ways — streamed
// straight off the emulator and via the materialized trace — and
// requires identical event streams and counts, and an exact-size event
// slice. Besides the suite it covers a program with no events and
// programs whose event counts sit on and around Collect's staging-chunk
// boundary.
func TestStreamMatchesCollect(t *testing.T) {
	type tc struct {
		name  string
		p     *prog.Program
		nEvts int // expected event count; -1 when not pinned
	}
	var cases []tc
	for _, w := range workload.Suite() {
		cases = append(cases, tc{w.Name, w.Build(), -1})
	}
	halt := prog.NewBuilder("no-events")
	halt.Halt(0)
	cases = append(cases, tc{"no-events", halt.MustProgram(), 0})
	chunk := trace.CollectChunkForTest
	for _, n := range []int{chunk - 2, chunk, chunk + 2, 2*chunk + 2} {
		name := fmt.Sprintf("events-%d", n)
		cases = append(cases, tc{name, countdown(name, int64(n/2-1)), n})
	}

	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			tr, err := trace.Collect(c.p, 3_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if len(tr.Events) != cap(tr.Events) {
				t.Errorf("Events len %d, cap %d: not exact-size", len(tr.Events), cap(tr.Events))
			}
			if c.nEvts >= 0 && len(tr.Events) != c.nEvts {
				t.Fatalf("collected %d events, want %d", len(tr.Events), c.nEvts)
			}
			r := trace.Stream(c.p, 3_000_000).Replay()
			var ev trace.Event
			i := 0
			for r.Next(&ev) {
				if i >= len(tr.Events) {
					t.Fatalf("stream produced extra event %d: %+v", i, ev)
				}
				if ev != tr.Events[i] {
					t.Fatalf("event %d differs:\nstream:  %+v\ncollect: %+v", i, ev, tr.Events[i])
				}
				i++
			}
			if err := r.Err(); err != nil {
				t.Fatal(err)
			}
			if i != len(tr.Events) {
				t.Fatalf("stream stopped after %d of %d events", i, len(tr.Events))
			}
			if got, want := r.Counts(), tr.Counts(); got != want {
				t.Errorf("counts differ: stream %+v, collect %+v", got, want)
			}
		})
	}
}

// TestStreamReplaysAreIndependent drains two readers from one Source
// interleaved; each must see the full stream.
func TestStreamReplaysAreIndependent(t *testing.T) {
	p := workload.ByNameMust("scan").Build()
	src := trace.Stream(p, 0)
	a, b := src.Replay(), src.Replay()
	var ea, eb trace.Event
	na, nb := 0, 0
	for {
		oka := a.Next(&ea)
		okb := b.Next(&eb)
		if oka != okb {
			t.Fatalf("readers diverged after %d/%d events", na, nb)
		}
		if !oka {
			break
		}
		if ea != eb {
			t.Fatalf("event %d differs between replays", na)
		}
		na++
		nb++
	}
	if na == 0 {
		t.Fatal("empty stream")
	}
}

// TestStreamLimit surfaces the emulator step limit as a reader error.
func TestStreamLimit(t *testing.T) {
	p := workload.ByNameMust("scan").Build()
	r := trace.Stream(p, 10).Replay()
	var ev trace.Event
	for r.Next(&ev) {
	}
	if r.Err() == nil {
		t.Fatal("limit not reported")
	}
}

// TestTraceReplayCursor checks the slice-backed reader against direct
// slice iteration.
func TestTraceReplayCursor(t *testing.T) {
	p := workload.ByNameMust("bsearch").Build()
	tr, err := trace.Collect(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := tr.Replay()
	var ev trace.Event
	for i := 0; r.Next(&ev); i++ {
		if ev != tr.Events[i] {
			t.Fatalf("replay event %d differs", i)
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if r.Counts() != tr.Counts() {
		t.Errorf("counts differ")
	}
}

// TestStreamErrorIsSticky: once the emulator reader hits its step limit,
// further Next calls keep returning false and Err keeps returning the
// same error — a consumer that polls after failure can never see a
// phantom recovery or a silently short replay.
func TestStreamErrorIsSticky(t *testing.T) {
	p := workload.ByNameMust("scan").Build()
	r := trace.Stream(p, 10).Replay()
	var ev trace.Event
	for r.Next(&ev) {
	}
	first := r.Err()
	if first == nil {
		t.Fatal("limit not reported")
	}
	for i := 0; i < 3; i++ {
		if r.Next(&ev) {
			t.Fatal("Next succeeded after a terminal error")
		}
		if got := r.Err(); got != first {
			t.Fatalf("error changed across polls: %v then %v", first, got)
		}
	}
}

// TestStreamLimitNotSilentlyShort: a limited stream must not masquerade
// as a complete one. The events it did produce match the full trace's
// prefix, and the failure is visible in Err — so any consumer that
// checks Err (as core.EvaluateStream does) cannot mistake the truncation
// for a short program.
func TestStreamLimitNotSilentlyShort(t *testing.T) {
	p := workload.ByNameMust("scan").Build()
	full, err := trace.Collect(p, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	r := trace.Stream(workload.ByNameMust("scan").Build(), 1000).Replay()
	var ev trace.Event
	n := 0
	for r.Next(&ev) {
		if ev != full.Events[n] {
			t.Fatalf("limited stream event %d diverges from full trace", n)
		}
		n++
	}
	if r.Err() == nil && n != len(full.Events) {
		t.Fatalf("stream stopped at %d of %d events with nil Err", n, len(full.Events))
	}
}
