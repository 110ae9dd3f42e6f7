// Package probe infers a branch predictor's structural parameters —
// effective history length, table size, and counter hysteresis — from
// its behaviour alone, through the public Predictor interface, and
// checks them against what the predictor's registry spec claims.
//
// It is a second-opinion oracle: the behavioural oracle
// (internal/oracle) proves an implementation matches a reference model,
// but if both share a bug — a history mask one bit short, a table a
// power of two small — their agreement proves nothing. The probes here
// are derived from the structure the spec claims, the way black-box
// dissections of commercial cores recover predictor geometry from
// microbenchmarks:
//
//   - effective history length via lag-k copy streams (period
//     detection): blocks of k fresh random outcomes followed by their
//     exact repeat — predictable on the repeat half only if the
//     history reaches k bits back, so the largest passing k is the
//     history length;
//   - table size via aliasing ramps: plant a marker in one table entry,
//     then look for the power-of-two pc stride at which a read lands on
//     the marker again — the wrap point is the table size;
//   - counter width via hysteresis: saturate an entry, then count the
//     opposing updates needed to flip its prediction.
//
// Probes train through PredictUpdate and read through Predict, the
// state-free peek, so scans cost nothing. All probe inputs are
// deterministic (seeded), so a verdict is reproducible in CI.
package probe

import (
	"fmt"
	"strings"

	"repro/internal/bpred"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Result holds the structural parameters inferred from behaviour.
type Result struct {
	// Spec is the normalized claimed spec the probes were derived from.
	Spec sim.Spec
	// Trainable is false for static predictors (outcomes never change
	// predictions).
	Trainable bool
	// HasHistory is true when the predictor learns an alternating
	// sequence at one pc — impossible for a pure per-pc counter.
	HasHistory bool
	// HistoryBits is the largest lag k at which the predictor beats
	// chance on a lag-k copy stream: the effective history length.
	// 0 for static and per-pc-counter predictors.
	HistoryBits int
	// TableBits is the log2 size of the kind's pc-sensitive table,
	// recovered from the aliasing ramp: counter table for the global
	// kinds, history table for local/tournament, weight rows for
	// perceptron, and the history length itself for gag (whose only
	// table is history-indexed). 0 for static predictors.
	TableBits int
	// Hysteresis is the number of opposing updates that flip a
	// saturated entry: 2 for 2-bit counters, 0 for static predictors,
	// and -1 when the entry would not flip within the probe's cap
	// (wide state, e.g. perceptron weights).
	Hysteresis int
}

// String renders the result compactly.
func (r Result) String() string {
	return fmt.Sprintf("trainable=%v history=%v histbits=%d tablebits=%d hysteresis=%d",
		r.Trainable, r.HasHistory, r.HistoryBits, r.TableBits, r.Hysteresis)
}

// Expect is what a spec's parameters imply the probes should infer.
type Expect struct {
	Trainable   bool
	HasHistory  bool
	HistoryBits int
	TableBits   int
	// Hysteresis is the exact expected flip count; WideHysteresis
	// instead requires "3 or more, or never" (perceptron weights).
	Hysteresis     int
	WideHysteresis bool
}

// Expected derives the expectation from a registry spec's parameters.
func Expected(spec sim.Spec) (Expect, error) {
	ns, err := spec.Normalized()
	if err != nil {
		return Expect{}, err
	}
	switch ns.Kind {
	case "taken", "nottaken":
		return Expect{}, nil
	case "bimodal":
		return Expect{Trainable: true, TableBits: ns.TableBits, Hysteresis: 2}, nil
	case "gshare", "agree":
		return Expect{Trainable: true, HasHistory: true,
			HistoryBits: min(ns.HistBits, ns.TableBits), TableBits: ns.TableBits, Hysteresis: 2}, nil
	case "gselect":
		return Expect{Trainable: true, HasHistory: true,
			HistoryBits: min(ns.HistBits, ns.TableBits), TableBits: ns.TableBits, Hysteresis: 2}, nil
	case "gag":
		return Expect{Trainable: true, HasHistory: true,
			HistoryBits: ns.HistBits, TableBits: ns.HistBits, Hysteresis: 2}, nil
	case "local":
		// Effective history is bounded by both the per-branch history
		// length and the pattern table it indexes; the pc-sensitive
		// table is the history table.
		return Expect{Trainable: true, HasHistory: true,
			HistoryBits: min(ns.HistBits, ns.PatBits), TableBits: ns.TableBits, Hysteresis: 2}, nil
	case "tournament":
		// Components: gshare(bits, hist) and local(bits-2, 10, bits-2);
		// the chooser tracks whichever reaches further, and the
		// pc-sensitive ramp hits the smaller local history table first.
		g := min(ns.HistBits, ns.TableBits)
		l := min(10, ns.TableBits-2)
		return Expect{Trainable: true, HasHistory: true,
			HistoryBits: max(g, l), TableBits: ns.TableBits - 2, Hysteresis: 2}, nil
	case "perceptron":
		return Expect{Trainable: true, HasHistory: true,
			HistoryBits: ns.HistBits, TableBits: ns.TableBits, WideHysteresis: true}, nil
	}
	return Expect{}, fmt.Errorf("probe: no expectation for kind %q", ns.Kind)
}

// Probe builds fresh predictors from the spec and infers their
// structural parameters black-box.
func Probe(spec sim.Spec) (Result, error) {
	ns, err := spec.Normalized()
	if err != nil {
		return Result{}, err
	}
	return ProbeWith(ns, func() bpred.Predictor { return ns.MustNew() })
}

// ProbeWith probes predictors built by mk, interpreting their behaviour
// against the claimed spec (which shapes probe lengths and the aliasing
// drives). Sensitivity tests hand it a deliberately divergent factory;
// the result then disagrees with Expected(spec).
func ProbeWith(spec sim.Spec, mk func() bpred.Predictor) (Result, error) {
	ns, err := spec.Normalized()
	if err != nil {
		return Result{}, err
	}
	r := Result{Spec: ns}
	r.Trainable = trainable(mk)
	if !r.Trainable {
		return r, nil
	}
	r.HasHistory = learnsAlternating(mk)

	exp, err := Expected(ns)
	if err != nil {
		return Result{}, err
	}
	if r.HasHistory {
		// Search up to a few bits past the claim so an oversized
		// history is flagged, not clipped to the claim.
		r.HistoryBits = historyBits(mk, exp.HistoryBits, ns.Kind == "perceptron")
	}

	// The aliasing drives and hysteresis flushes walk the history
	// register back to zero, so they must use the history length the
	// probe MEASURED, not the claim: against a divergent implementation
	// a claimed-length drive would land writes on the marker entry and
	// turn a parameter mismatch into a dead probe.
	switch ns.Kind {
	case "bimodal":
		r.TableBits, err = rampPCTable(mk)
	case "gshare", "agree":
		r.TableBits, err = rampGlobalXOR(mk, r.HistoryBits, 0)
	case "gselect":
		r.TableBits, err = rampGlobalXOR(mk, r.HistoryBits, r.HistoryBits)
	case "gag":
		r.TableBits = r.HistoryBits
	case "local", "tournament":
		r.TableBits, err = rampLocal(mk)
	case "perceptron":
		r.TableBits, err = rampPerceptron(mk, exp.TableBits)
	default:
		err = fmt.Errorf("probe: no table probe for kind %q", ns.Kind)
	}
	if err != nil {
		return Result{}, err
	}

	r.Hysteresis = hysteresis(mk, r.HistoryBits)
	return r, nil
}

// Verify probes the spec's own predictors and returns an error
// describing every inferred parameter that contradicts the spec.
func Verify(spec sim.Spec) error {
	res, err := Probe(spec)
	if err != nil {
		return err
	}
	exp, err := Expected(res.Spec)
	if err != nil {
		return err
	}
	return Compare(res, exp)
}

// Compare checks an inferred result against an expectation.
func Compare(r Result, exp Expect) error {
	var bad []string
	mism := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if r.Trainable != exp.Trainable {
		mism("trainable=%v want %v", r.Trainable, exp.Trainable)
	}
	if r.Trainable == exp.Trainable && r.HasHistory != exp.HasHistory {
		mism("history=%v want %v", r.HasHistory, exp.HasHistory)
	}
	if r.HistoryBits != exp.HistoryBits {
		mism("history bits %d want %d", r.HistoryBits, exp.HistoryBits)
	}
	if r.TableBits != exp.TableBits {
		mism("table bits %d want %d", r.TableBits, exp.TableBits)
	}
	if exp.WideHysteresis {
		if r.Hysteresis != -1 && r.Hysteresis < 3 {
			mism("hysteresis %d want wide (>=3 or none)", r.Hysteresis)
		}
	} else if r.Hysteresis != exp.Hysteresis {
		mism("hysteresis %d want %d", r.Hysteresis, exp.Hysteresis)
	}
	if len(bad) > 0 {
		return fmt.Errorf("probe: %s: inferred structure contradicts spec: %s", r.Spec, strings.Join(bad, "; "))
	}
	return nil
}

// --- Individual probes ---------------------------------------------------

// updN feeds n identical outcomes at one pc.
func updN(p bpred.Predictor, pc uint64, taken bool, n int) {
	for i := 0; i < n; i++ {
		p.PredictUpdate(pc, taken)
	}
}

// trainable checks that sustained outcomes move predictions both ways:
// a taken-saturated predictor predicts taken, a not-taken-saturated one
// predicts not taken. Static predictors fail one direction. 64 updates
// saturate every registry kind from any history state.
func trainable(mk func() bpred.Predictor) bool {
	p := mk()
	updN(p, 0, true, 64)
	if !p.Predict(0) {
		return false
	}
	p = mk()
	updN(p, 0, false, 64)
	return !p.Predict(0)
}

// learnsAlternating feeds a strict T,NT,T,NT... sequence at one pc and
// measures predict-before-update accuracy over the second half. Any
// predictor with outcome history learns it (accuracy near 1); a per-pc
// counter scheme oscillates (accuracy near 0).
func learnsAlternating(mk func() bpred.Predictor) bool {
	const n = 4096
	p := mk()
	correct := 0
	for i := 0; i < n; i++ {
		taken := i%2 == 0
		if p.PredictUpdate(0, taken) == taken && i >= n/2 {
			correct++
		}
	}
	return float64(correct)/(n/2) >= 0.9
}

// historyBits finds the effective history length: the largest k for
// which the predictor beats chance on the lag-k copy stream at a
// single pc. The passing set is a prefix of k, making binary search
// valid. n sizes the stream so a table-indexed predictor of the
// claimed depth sees every history context often enough; perceptrons
// need only a single weight, not context coverage.
func historyBits(mk func() bpred.Predictor, claimed int, perceptron bool) int {
	n := 48 << uint(claimed)
	if perceptron {
		n = 1 << 15
	}
	if n < 1<<14 {
		n = 1 << 14
	}
	if n > 1<<19 {
		n = 1 << 19
	}
	pass := func(k int) bool { return lagAccuracy(mk(), k, n) >= 0.7 }
	best := 0
	lo, hi := 1, min(claimed+4, 32)
	for lo <= hi {
		mid := (lo + hi) / 2
		if pass(mid) {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}

// lagAccuracy measures whether the predictor exploits a lag-k copy.
// The stream is blocks of 2k outcomes: k fresh random bits, then their
// exact repeat, so on a repeat position y[t] = y[t-k]. A history
// window shorter than k spans every pattern bit except the one the
// outcome is (the bit exactly k back), so it carries no information;
// and because each block draws a fresh pattern, there is no regime for
// table entries to lock onto across blocks — persistent processes
// would leak through quasi-stationary context fingerprints. A window
// of depth >= k sees a globally consistent "outcome = oldest bit"
// mapping and learns it. Accuracy is predict-before-update on repeat
// positions in the second half; the random halves hold it near 0.9
// (not 1.0) for passing table predictors and 0.5 for failing ones.
func lagAccuracy(p bpred.Predictor, k, n int) float64 {
	r := rng.New(0xc0ffee + uint64(k))
	pat := make([]bool, k)
	correct, measured := 0, 0
	for t := 0; t < n; t++ {
		pos := t % (2 * k)
		if pos == 0 {
			for i := range pat {
				pat[i] = r.Bool()
			}
		}
		y := pat[pos%k]
		pred := p.PredictUpdate(0, y)
		if pos >= k && t >= n/2 {
			measured++
			if pred == y {
				correct++
			}
		}
	}
	if measured == 0 {
		return 0
	}
	return float64(correct) / float64(measured)
}

// maxRamp bounds every aliasing ramp scan; no registry parameter
// exceeds it.
const maxRamp = 27

// rampPCTable finds a pc-indexed counter table's size: saturate pc 0
// taken, saturate pc 2^k not-taken, and see whether pc 0's prediction
// flipped — it does exactly when 2^k wraps to index 0.
func rampPCTable(mk func() bpred.Predictor) (int, error) {
	for k := 1; k <= maxRamp; k++ {
		p := mk()
		updN(p, 0, true, 4)
		updN(p, 1<<uint(k), false, 4)
		if !p.Predict(0) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("probe: no pc-table aliasing up to 2^%d", maxRamp)
}

// rampGlobalXOR finds the counter-table size of the global-history
// kinds (gshare, agree; gselect with pcShift = histBits). All updates
// sit at pc 0 with the history driven back to zero after each write, so
// the touched table entries are known exactly:
//
//	prime:  one not-taken at pc 0 — history stays 0, entry 0 dips (and
//	        for agree, pins pc 0's bias to not-taken);
//	rounds: a taken marker at (pc=0, h=0) writes entry 0; then histBits
//	        not-taken updates walk the one-hot entries 2^j and return
//	        the history register to 0.
//
// After three rounds entry 0 is saturated against the background and
// every other touched entry agrees with it being the odd one out, so a
// state-free Predict at pc 2^k (history 0) sees the marker exactly when
// 2^k wraps to entry 0: the first flipped k is the table size. For
// gselect the pc is shifted left of the history, so the wrap appears at
// k = tableBits - histBits and the table size is k + pcShift.
//
// The drive length equals the MEASURED effective history bits, which
// walks the register back to an index-0-preserving state even when the
// spec's nominal history is wider than the table (the fold drops the
// upper bits) or when the implementation diverges from its claim.
func rampGlobalXOR(mk func() bpred.Predictor, histBits, pcShift int) (int, error) {
	for k := 1; k <= maxRamp; k++ {
		p := mk()
		p.PredictUpdate(0, false)
		for round := 0; round < 3; round++ {
			p.PredictUpdate(0, true)
			updN(p, 0, false, histBits)
		}
		if p.Predict(1 << uint(k)) {
			// Equality is the folded shape (nominal history wider than
			// the table, effective history = table bits); only a wrap
			// strictly inside the driven one-hot range is anomalous.
			if k+pcShift < histBits {
				return 0, fmt.Errorf("probe: global table wraps at 2^%d, below the %d-bit history (history longer than table?)", k+pcShift, histBits)
			}
			return k + pcShift, nil
		}
	}
	return 0, fmt.Errorf("probe: no global-table aliasing up to 2^%d", maxRamp)
}

// rampLocal finds the per-branch history table's size for local (and
// tournament, whose local component has the smaller pc-reach): train
// pc 0 not-taken (its history entry stays zero, the zero pattern goes
// not-taken), then train pc 2^k taken. Without aliasing pc 0 still
// reads the zero history and a not-taken pattern; with aliasing the
// shared history entry is all-ones and saturated taken. Tournament's
// pc-indexed chooser entry for pc 0 is untouched and its initial state
// selects the local component, so the flip shows through.
func rampLocal(mk func() bpred.Predictor) (int, error) {
	for k := 1; k <= maxRamp; k++ {
		p := mk()
		updN(p, 0, false, 32)
		updN(p, 1<<uint(k), true, 32)
		if p.Predict(0) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("probe: no local-history-table aliasing up to 2^%d", maxRamp)
}

// rampPerceptron finds the weight-row count behaviourally: with 2^b
// distinct pcs, each pinned to a constant (seeded) outcome and visited
// in random order, per-row bias weights make accuracy near 1 while rows
// stay distinct; one bit past the row count, half the rows hold two pcs
// with conflicting outcomes and accuracy drops toward 0.75. The largest
// passing b is the row count. Random visit order keeps the global
// history uninformative, so the bias weight is the only signal.
func rampPerceptron(mk func() bpred.Predictor, claimed int) (int, error) {
	pass := func(b int) bool {
		p := mk()
		size := 1 << uint(b)
		r := rng.New(0xfeed + uint64(b))
		outcome := make([]bool, size)
		for i := range outcome {
			outcome[i] = r.Bool()
		}
		n := 64 * size
		if n < 1<<13 {
			n = 1 << 13
		}
		correct, measured := 0, 0
		for t := 0; t < n; t++ {
			pc := uint64(r.Intn(size))
			pred := p.PredictUpdate(pc, outcome[pc])
			if t >= n/2 {
				measured++
				if pred == outcome[pc] {
					correct++
				}
			}
		}
		return float64(correct)/float64(measured) >= 0.85
	}
	best := 0
	lo, hi := 1, min(claimed+3, 16)
	for lo <= hi {
		mid := (lo + hi) / 2
		if pass(mid) {
			best = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("probe: perceptron rows indistinguishable even at 2 rows")
	}
	return best, nil
}

// hysteresis counts the opposing updates that flip a saturated entry —
// the counter width. The probed entry is the one pc 0 reaches with
// all-zero history: a not-taken warmup holds every history register at
// zero for free (shifting in zeros), while saturating the entry
// not-taken. Each round plants one taken update there, then flushes
// the history back to zero with flushLen not-taken updates whose
// writes land on one-hot — different — entries, and reads the entry
// back with a state-free Predict. A 2-bit counter crosses to taken on
// round 2; agree's agreement counter likewise (the warmup pinned the
// bias not-taken and saturated agreement). Perceptron weights sit far
// below threshold after warmup and the flush re-trains them downward
// near the flip point, so they flip late or never (-1, wide).
func hysteresis(mk func() bpred.Predictor, flushLen int) int {
	const flipCap = 8
	p := mk()
	updN(p, 0, false, 64)
	for round := 1; round <= flipCap; round++ {
		p.PredictUpdate(0, true)
		updN(p, 0, false, flushLen)
		if p.Predict(0) {
			return round
		}
	}
	return -1
}
