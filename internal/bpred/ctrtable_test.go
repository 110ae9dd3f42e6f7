package bpred

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/wire"
)

// TestCtrTableFreshSnapshot pins the initial state behind the stored
// encoding: a fresh table is all-zero words for the usual init and
// snapshots as one 0x01 byte per counter; agree's init-2 table
// snapshots as 0x02 bytes.
func TestCtrTableFreshSnapshot(t *testing.T) {
	for _, bits := range []int{0, 4, 5, 6, 10} {
		tb := newCtrTable(bits, counterInit)
		for i, w := range tb.words {
			if w != 0 {
				t.Fatalf("bits %d: fresh word %d is %#x, want 0", bits, i, w)
			}
		}
		if got, want := tb.appendState(nil), bytes.Repeat([]byte{1}, 1<<bits); !bytes.Equal(got, want) {
			t.Errorf("bits %d: fresh snapshot %x, want all 01", bits, got)
		}
		tb = newCtrTable(bits, 2)
		if got, want := tb.appendState(nil), bytes.Repeat([]byte{2}, 1<<bits); !bytes.Equal(got, want) {
			t.Errorf("bits %d: fresh init-2 snapshot %x, want all 02", bits, got)
		}
	}
	a := NewAgree(6, 4)
	if got, want := a.table.appendState(nil), bytes.Repeat([]byte{2}, 1<<6); !bytes.Equal(got, want) {
		t.Errorf("fresh agree table %x, want all 02", got)
	}
}

// TestCtrTableTransitions checks every (counter, outcome) pair through
// the stored domain: set a counter, step it with predictUpdate, read it
// back with get. The step must predict taken exactly for counters 2 and
// 3 and move the counter one step toward the outcome, saturating at 0
// and 3, without touching its neighbours in the word.
func TestCtrTableTransitions(t *testing.T) {
	const i = 37 // second word, away from its edges
	for c := uint64(0); c < 4; c++ {
		for _, taken := range []bool{false, true} {
			tb := newCtrTable(6, counterInit)
			for j := uint64(0); j <= tb.mask; j++ {
				tb.set(j, j%4)
			}
			tb.set(i, c)
			if got := tb.get(i); got != c {
				t.Fatalf("set %d, get %d", c, got)
			}
			want := c
			switch {
			case taken && c < 3:
				want++
			case !taken && c > 0:
				want--
			}
			if pred := tb.predictUpdate(i, b2u(taken)); pred != (c >= 2) {
				t.Errorf("counter %d predicted %v", c, pred)
			}
			if got := tb.get(i); got != want {
				t.Errorf("counter %d, taken %v: next %d, want %d", c, taken, got, want)
			}
			for j := uint64(0); j <= tb.mask; j++ {
				if j != i && tb.get(j) != j%4 {
					t.Fatalf("counter %d, taken %v: neighbour %d changed to %d", c, taken, j, tb.get(j))
				}
			}
		}
	}
}

// TestCtrTableLoadState round-trips every counter value through the
// canonical bytes and refuses a byte outside 0..3.
func TestCtrTableLoadState(t *testing.T) {
	src := newCtrTable(5, counterInit)
	for j := uint64(0); j <= src.mask; j++ {
		src.set(j, (j*7)%4)
	}
	blob := src.appendState(nil)
	dst := newCtrTable(5, counterInit)
	if err := dst.loadState(wire.NewCursor(blob)); err != nil {
		t.Fatalf("loadState: %v", err)
	}
	if !slices.Equal(dst.words, src.words) {
		t.Fatal("loaded table differs from its source")
	}
	for _, bad := range []byte{4, 0xff} {
		corrupt := bytes.Clone(blob)
		corrupt[9] = bad
		if err := dst.loadState(wire.NewCursor(corrupt)); err == nil {
			t.Errorf("counter byte %#x accepted", bad)
		}
	}
}
