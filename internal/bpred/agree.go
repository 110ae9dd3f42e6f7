package bpred

import "fmt"

// agreeWays is the associativity of the bias table. The original design
// keeps the bias bit in the BTB, and BTBs of the era were 4-way
// set-associative; four ways also means a program whose static branches
// fit the table (2^tableBits entries) never evicts a bias, matching the
// idealised unaliased model on every paper workload.
const agreeWays = 4

// biasEntry is one way of the bias table: the full PC as the tag plus the
// branch's first-outcome bias bit.
type biasEntry struct {
	tag   uint64
	valid bool
	bias  bool
}

// Agree is an agree predictor (Sprangle et al., ISCA 1997), a design of
// the paper's era built to tolerate table aliasing: each branch records a
// bias on first encounter, and the shared counter table — indexed with
// pc XOR global history — learns whether the current instance *agrees*
// with that bias. Two aliased branches that both usually agree reinforce
// rather than fight each other.
//
// The bias bit lives in a fixed-size BTB-style structure: 2^tableBits
// entries organised as 4-way sets with full-PC tags and round-robin
// replacement. A branch whose entry was displaced falls back to the
// default not-taken bias until its next outcome re-allocates it, exactly
// as BTB displacement behaves in hardware — and unlike an unbounded map,
// the footprint cannot grow without bound on adversarial PC streams fed
// to long-lived serving sessions.
type Agree struct {
	tableBits int
	histBits  int
	table     ctrTable    // taken == "agrees with bias"
	bias      []biasEntry // set-associative: sets of agreeWays entries
	rr        []uint8     // per-set round-robin replacement cursor
	setMask   uint64
	hist      uint64
}

// NewAgree returns an agree predictor with 2^tableBits agree counters,
// 2^tableBits BTB-resident bias bits, and histBits of global history.
func NewAgree(tableBits, histBits int) *Agree {
	sets := uint64(1)
	if tableBits > 2 {
		sets = 1 << (tableBits - 2)
	}
	return &Agree{
		tableBits: tableBits,
		histBits:  histBits,
		// Counters initialise to weak agreement so an unbiased start
		// predicts the bias.
		table:   newCtrTable(tableBits, 2),
		bias:    make([]biasEntry, sets*agreeWays),
		rr:      make([]uint8, sets),
		setMask: sets - 1,
	}
}

// Name implements Predictor.
func (a *Agree) Name() string { return fmt.Sprintf("agree-%d.%d", a.tableBits, a.histBits) }

func (a *Agree) index(pc uint64) uint64 {
	h := a.hist & ((1 << a.histBits) - 1)
	return (pc ^ h) & a.table.mask
}

// biasSet returns the first entry index of pc's bias set.
func (a *Agree) biasSet(pc uint64) uint64 { return (pc & a.setMask) * agreeWays }

// lookupBias returns the recorded bias for pc, or the default not-taken
// bias if no way of pc's set holds it.
func (a *Agree) lookupBias(pc uint64) bool {
	s := a.biasSet(pc)
	for w := uint64(0); w < agreeWays; w++ {
		if e := &a.bias[s+w]; e.valid && e.tag == pc {
			return e.bias
		}
	}
	return false
}

// allocBias returns pc's recorded bias, allocating an entry with the
// current outcome as the bias on a miss (first free way, else round-robin
// replacement) — the BTB-allocation analogue of the original "first
// encounter fixes the bias".
func (a *Agree) allocBias(pc uint64, taken bool) bool {
	s := a.biasSet(pc)
	for w := uint64(0); w < agreeWays; w++ {
		e := &a.bias[s+w]
		if e.valid && e.tag == pc {
			return e.bias
		}
		if !e.valid {
			*e = biasEntry{tag: pc, valid: true, bias: taken}
			return taken
		}
	}
	set := pc & a.setMask
	w := uint64(a.rr[set])
	a.rr[set] = uint8((w + 1) % agreeWays)
	a.bias[s+w] = biasEntry{tag: pc, valid: true, bias: taken}
	return taken
}

// Predict implements Predictor.
func (a *Agree) Predict(pc uint64) bool {
	bias := a.lookupBias(pc) // default bias: not-taken until first outcome
	agree := a.table.taken(a.index(pc))
	return bias == agree
}

// PredictUpdate implements Predictor.
func (a *Agree) PredictUpdate(pc uint64, taken bool) bool {
	i := a.index(pc)
	agree := a.table.taken(i)
	pred := a.lookupBias(pc) == agree
	bias := a.allocBias(pc, taken)
	a.table.update(i, taken == bias)
	a.hist = a.hist<<1 | b2u(taken)
	return pred
}

// ObserveBit implements HistoryObserver.
func (a *Agree) ObserveBit(bit bool) {
	a.hist <<= 1
	if bit {
		a.hist |= 1
	}
}

// Reset implements Predictor.
func (a *Agree) Reset() {
	a.table.clear()
	clear(a.bias)
	clear(a.rr)
	a.hist = 0
}

var (
	_ Predictor       = (*Agree)(nil)
	_ HistoryObserver = (*Agree)(nil)
)
