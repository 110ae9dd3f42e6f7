package bpred

import (
	"fmt"
	"math/bits"
)

// Perceptron is a perceptron branch predictor (Jiménez & Lin, HPCA 2001 —
// exactly contemporary with the paper). Each branch hashes to a weight
// vector; the prediction is the sign of the dot product of the weights
// with the global history (bits as ±1). It learns *which* history bits
// matter, which makes it an interesting partner for the predicate global
// update mechanism: inserted predicate outcomes that correlate get large
// weights, and ones that don't are weighted out instead of wasting
// history capacity.
//
// The weight matrix is one flat array rather than a slice of per-entry
// slices: the dot product — the predictor's dominant cost — walks a
// contiguous row with no pointer chase, and rows are padded to a
// power-of-two stride so the row base address is a shift of the entry
// index and no row straddles more cache lines than its weights need.
type Perceptron struct {
	entryBits   int
	histBits    int
	strideShift uint   // log2 of the padded row stride
	idxMask     uint64 // entry-index mask: 1<<entryBits - 1
	weights     []int8 // [entry*stride ... ]: bias weight, histBits weights, zero pad
	hist        uint64
	theta       int32 // training threshold, 1.93*h + 14 per the paper
}

// NewPerceptron returns a perceptron predictor with 2^entryBits weight
// vectors over histBits of global history.
func NewPerceptron(entryBits, histBits int) *Perceptron {
	// Smallest power-of-two stride holding the 1+histBits row:
	// bits.Len(h) == ceil(log2(h+1)) for the h >= 0 we accept.
	strideShift := uint(bits.Len(uint(histBits)))
	return &Perceptron{
		entryBits:   entryBits,
		histBits:    histBits,
		strideShift: strideShift,
		idxMask:     1<<entryBits - 1,
		weights:     make([]int8, (uint64(1)<<entryBits)<<strideShift),
		theta:       int32(1.93*float64(histBits) + 14),
	}
}

// Name implements Predictor.
func (p *Perceptron) Name() string {
	return fmt.Sprintf("perceptron-%d.%d", p.entryBits, p.histBits)
}

func (p *Perceptron) index(pc uint64) uint64 { return pc & p.idxMask }

// row returns entry e's weight vector: the bias weight then one weight
// per history bit (the padding tail is excluded).
func (p *Perceptron) row(e uint64) []int8 {
	base := e << p.strideShift
	return p.weights[base : base+uint64(p.histBits)+1 : base+uint64(p.histBits)+1]
}

// dot computes the perceptron sum over one weight row under the current
// history. The sign select is branch-free: neg is 0 for a set history
// bit (add the weight) and -1 for a clear one ((w ^ -1) - (-1) == -w),
// so the walk is pure sequential loads and ALU ops with no
// data-dependent branch for the host CPU to mispredict.
func (p *Perceptron) dot(w []int8) int32 {
	y := int32(w[0])
	h := p.hist
	for _, wi := range w[1:] {
		neg := int32(h&1) - 1
		y += (int32(wi) ^ neg) - neg
		h >>= 1
	}
	return y
}

// output computes the perceptron sum for pc under the current history.
func (p *Perceptron) output(pc uint64) int32 { return p.dot(p.row(p.index(pc))) }

// Predict implements Predictor.
func (p *Perceptron) Predict(pc uint64) bool { return p.output(pc) >= 0 }

func saturate(w int8, up bool) int8 {
	if up {
		if w < 127 {
			return w + 1
		}
		return w
	}
	if w > -127 {
		return w - 1
	}
	return w
}

// train nudges every weight in w toward agreement with taken.
func (p *Perceptron) train(w []int8, taken bool) {
	w[0] = saturate(w[0], taken)
	h := p.hist
	for i := 1; i < len(w); i++ {
		w[i] = saturate(w[i], h&1 == 1 == taken)
		h >>= 1
	}
}

// PredictUpdate implements Predictor. The perceptron sum — a walk over
// every history bit's weight — is by far the predictor's dominant cost;
// the step computes it once, over the row resolved once, and both the
// prediction and the training decision read it.
func (p *Perceptron) PredictUpdate(pc uint64, taken bool) bool {
	w := p.row(p.index(pc))
	y := p.dot(w)
	pred := y >= 0
	mag := y
	if mag < 0 {
		mag = -mag
	}
	if pred != taken || mag <= p.theta {
		p.train(w, taken)
	}
	p.ObserveBit(taken)
	return pred
}

// ObserveBit implements HistoryObserver.
func (p *Perceptron) ObserveBit(bit bool) {
	p.hist <<= 1
	if bit {
		p.hist |= 1
	}
	p.hist &= (1 << p.histBits) - 1
}

// Reset implements Predictor.
func (p *Perceptron) Reset() {
	clear(p.weights)
	p.hist = 0
}

var (
	_ Predictor       = (*Perceptron)(nil)
	_ HistoryObserver = (*Perceptron)(nil)
)
