package bpred

import (
	"fmt"
	"slices"

	"repro/internal/wire"
)

// ctrTable is a table of 2-bit saturating counters packed 32 to a uint64
// word. The byte-per-counter layout it replaces spent 6 of every 8 bits
// on padding and a hard-to-predict branch per train step (the saturation
// test follows the very branch outcome being simulated, so the host CPU
// mispredicts it at the simulated predictor's misprediction rate); the
// packed layout cuts the table footprint 4x — a 2^20-counter table drops
// from 1 MiB to 256 KiB, and the common 2^12 tables fit in four cache
// lines per kilobyte of counters — and updates counters with branch-free
// arithmetic, so the update pipeline never stalls on the simulated
// outcome stream.
//
// Layout: counter i lives in words[i>>5] at bit offset (i&31)*2, low bit
// first, stored XOR counterInit: the all-zero word is 32 weakly
// not-taken counters, so a table fresh from make is already in its
// initial state and construction writes nothing. The XOR flips only the
// low bit, so the stored high bit is still the prediction (taken reads
// it unchanged) and the update is the same shift into a constant
// (ctrNext) as in the plain domain. The canonical snapshot encoding
// stays one byte per counter holding the plain value (get and set undo
// and redo the XOR at the appendState/loadState boundary), so P64S
// snapshots, evict-to-disk, and cluster failover see byte-identical
// state across both layout changes.
type ctrTable struct {
	words []uint64
	mask  uint64 // counter-index mask: count-1 (count = 1<<bits)
	fill  uint64 // stored word of a fresh table: 0 unless init != counterInit
}

// ctrPerWord counters fit one packed word.
const ctrPerWord = 32

// newCtrTable returns a table of 1<<bits counters all set to init. For
// the usual init, counterInit, the zeroed allocation is the whole job;
// any other init (agree's weak agreement) costs one fill pass.
func newCtrTable(bits int, init uint64) ctrTable {
	n := uint64(1) << bits
	t := ctrTable{
		words: make([]uint64, (n+ctrPerWord-1)/ctrPerWord),
		mask:  n - 1,
		// Replicate the stored 2-bit init value across all 32 lanes.
		fill: (init ^ counterInit) * 0x5555555555555555,
	}
	if t.fill != 0 {
		t.clear()
	}
	return t
}

// clear restores every counter to the initial value.
func (t *ctrTable) clear() {
	for i := range t.words {
		t.words[i] = t.fill
	}
}

// size returns the number of counters.
func (t *ctrTable) size() int { return int(t.mask + 1) }

// get returns counter i (0..3).
func (t *ctrTable) get(i uint64) uint64 {
	return t.words[i/ctrPerWord]>>((i%ctrPerWord)*2)&3 ^ counterInit
}

// set stores c (0..3) into counter i.
func (t *ctrTable) set(i, c uint64) {
	sh := (i % ctrPerWord) * 2
	w := &t.words[i/ctrPerWord]
	*w = *w&^(3<<sh) | (c^counterInit)<<sh
}

// taken reports whether counter i predicts taken (value >= 2, i.e. the
// counter's high bit, which the stored XOR leaves as it is).
func (t *ctrTable) taken(i uint64) bool {
	return t.words[i/ctrPerWord&uint64(len(t.words)-1)]>>(i%ctrPerWord*2)&2 != 0
}

// ctrNext is the whole saturating-update transition function as one
// constant over stored values: entry (s<<1 | taken), 2 bits each, holds
// the next stored value. In counter values (c = s^counterInit) it
// encodes 0,1 -> 0; 0 or 1,up -> +1; 2 or 3,down -> -1; 3,up -> 3 —
// i.e. step toward taken, sticking at the rails. Stored 0,1,2,3 are
// counters 1,0,3,2.
const ctrNext = 1<<0 | 3<<2 | 1<<4 | 0<<6 | 3<<8 | 2<<10 | 0<<12 | 2<<14

// predictUpdate reads counter i's prediction and saturating-updates it
// toward the outcome (up is the outcome bit, b2u(taken)) in one
// read-modify-write. The next value is a shift into ctrNext rather than
// compare-and-branch arithmetic: the saturation test follows the very
// outcome being simulated, so a branchy update would stall the host
// pipeline at the simulated predictor's misprediction rate. The store
// xors the changed bits back into the word, avoiding a clear-then-or
// pair. Taking the outcome pre-converted keeps the method inside the
// compiler's inline budget — callers fold the same bit into their
// history shift — so the per-event path has no call.
func (t *ctrTable) predictUpdate(i, up uint64) bool {
	// len(words) is always a power of two (or 1), so the mask is exact;
	// spelling the index as &(len-1) lets the compiler drop the bounds
	// check from the per-event path.
	w := &t.words[i/ctrPerWord&uint64(len(t.words)-1)]
	sh := i % ctrPerWord * 2
	word := *w
	s := word >> sh & 3 // stored value; its high bit is the counter's
	ns := uint64(ctrNext) >> (s<<2 | up<<1) & 3
	*w = word ^ (s^ns)<<sh
	return s&2 != 0
}

// update trains counter i toward taken.
func (t *ctrTable) update(i uint64, taken bool) { t.predictUpdate(i, b2u(taken)) }

// appendState appends the canonical snapshot encoding: one byte per
// counter, in index order — identical to the retired byte-per-counter
// layout's in-memory dump, so snapshot bytes survived the packing.
func (t *ctrTable) appendState(buf []byte) []byte {
	buf = slices.Grow(buf, int(t.mask+1))
	for i := uint64(0); i <= t.mask; i++ {
		buf = append(buf, byte(t.get(i)))
	}
	return buf
}

// loadState reads the canonical byte-per-counter encoding back into the
// packed words, validating the 2-bit range so a corrupt snapshot cannot
// smuggle in out-of-range counter values.
func (t *ctrTable) loadState(c *wire.Cursor) error {
	p := c.Take(t.size())
	if p == nil {
		return c.Err()
	}
	for i, b := range p {
		if b > 3 {
			return c.Fail(fmt.Errorf("bpred: counter %d out of range (%d)", i, b))
		}
		t.set(uint64(i), uint64(b))
	}
	return nil
}
