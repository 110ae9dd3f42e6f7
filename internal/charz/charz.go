// Package charz characterizes branch predictability and generates
// synthetic workloads that hit requested points in that characterization
// space.
//
// The characterization pass (Characterize) computes, per static branch
// and aggregated over a whole trace, the metrics the workload-
// characterization literature uses to explain predictor behaviour:
//
//   - taken rate and outcome entropy H(Y) — how biased the branch is;
//   - history-conditioned entropy H(Y | local history of depth d) at
//     several depths — how much of the remaining uncertainty a
//     pattern-table predictor of that depth could remove;
//   - global-history-conditioned entropy — the same question for
//     cross-branch (global) correlation;
//   - linear separability — the online accuracy of a small perceptron
//     probe over local history, the ceiling a perceptron-style predictor
//     could reach.
//
// The generator half (Point, Build) inverts those metrics: a Point names
// a parametric outcome process (biased coin, periodic pattern, noisy
// lag-k copy, cross-branch correlation) whose characterization is known
// in closed form, and builds a real branching program around it, so the
// synthetic family plugs into everything that consumes workloads —
// sweeps, the experiment harness, the serving daemon, and the oracle.
package charz

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// DefaultDepths are the local-history depths Characterize conditions on
// when Options.Depths is nil.
var DefaultDepths = []int{1, 2, 4, 8}

// DefaultGlobalDepth is the global-history depth used when
// Options.GlobalDepth is 0.
const DefaultGlobalDepth = 8

// Separability-probe geometry: a perceptron over the last probeHistBits
// local outcomes, with the threshold from Jiménez & Lin sized for that
// history length.
const (
	probeHistBits = 16
	// probeTheta is floor(1.93*probeHistBits + 14), the training
	// threshold from Jiménez & Lin for this history length.
	probeTheta int32 = 44
)

// Options configures a characterization pass.
type Options struct {
	// Depths are the local-history depths to condition outcome entropy
	// on; nil means DefaultDepths. Each must be in [1, 32].
	Depths []int
	// GlobalDepth is the global-history depth for cross-branch
	// conditioning; 0 means DefaultGlobalDepth, negative disables it.
	GlobalDepth int
}

func (o Options) withDefaults() Options {
	if o.Depths == nil {
		o.Depths = DefaultDepths
	}
	if o.GlobalDepth == 0 {
		o.GlobalDepth = DefaultGlobalDepth
	}
	return o
}

// BranchMetrics are the predictability metrics of one static branch.
type BranchMetrics struct {
	PC    uint64
	Count uint64 // dynamic occurrences
	Taken uint64 // taken occurrences

	// TakenRate is Taken/Count.
	TakenRate float64
	// Entropy is the outcome entropy H(Y) in bits: 0 for a
	// single-outcome branch, 1 for an unbiased one.
	Entropy float64
	// CondEntropy[i] is H(Y | last Depths[i] own outcomes): the entropy
	// left after a local-history predictor of that depth. Events before
	// the history fills are skipped; a branch with no conditioned
	// samples at a depth reports 0.
	CondEntropy []float64
	// GlobalCondEntropy is H(Y | last GlobalDepth outcomes of all
	// branches) — low values flag cross-branch correlation that local
	// history cannot see.
	GlobalCondEntropy float64
	// Separability is the online accuracy of a perceptron probe over
	// the branch's local history: near 1 means the outcome is a
	// linearly separable (perceptron-friendly) function of history.
	Separability float64
}

// Report is the characterization of a whole trace: per-branch metrics
// plus count-weighted aggregates.
type Report struct {
	Name        string
	Events      uint64 // branch events characterized
	Depths      []int
	GlobalDepth int

	// Branches holds per-branch metrics sorted by PC.
	Branches []BranchMetrics

	// Count-weighted aggregates over all branches.
	TakenRate         float64
	Entropy           float64
	CondEntropy       []float64
	GlobalCondEntropy float64
	Separability      float64
}

// CondAt returns the aggregate conditioned entropy at depth d, or H(Y)
// when d is not one of the report's depths.
func (r *Report) CondAt(d int) float64 {
	for i, dd := range r.Depths {
		if dd == d {
			return r.CondEntropy[i]
		}
	}
	return r.Entropy
}

// ctxCounts accumulates outcome counts per history context.
type ctxCounts map[uint64][2]uint64

func (c ctxCounts) add(key uint64, taken bool) {
	v := c[key]
	if taken {
		v[1]++
	} else {
		v[0]++
	}
	c[key] = v
}

// entropy returns the conditional entropy H(Y | ctx) of the accumulated
// counts, 0 when no samples were conditioned.
func (c ctxCounts) entropy() float64 {
	var total uint64
	for _, v := range c {
		total += v[0] + v[1]
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, v := range c {
		n := v[0] + v[1]
		h += float64(n) / float64(total) * H2(float64(v[1])/float64(n))
	}
	return h
}

// H2 is the binary entropy function in bits; 0 at and outside the
// endpoints, so single-outcome branches report zero entropy.
func H2(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log2(p) - (1-p)*math.Log2(1-p)
}

// sepProbe is the online perceptron separability probe: one weight per
// local-history bit plus a bias, trained with the standard rule
// (mispredict, or below-threshold magnitude).
type sepProbe struct {
	w       [probeHistBits + 1]int32
	correct uint64
}

func (s *sepProbe) observe(hist uint64, taken bool) {
	y := s.w[0]
	for i := 0; i < probeHistBits; i++ {
		if hist>>uint(i)&1 == 1 {
			y += s.w[i+1]
		} else {
			y -= s.w[i+1]
		}
	}
	pred := y >= 0
	if pred == taken {
		s.correct++
	}
	if pred != taken || abs32(y) <= probeTheta {
		t := int32(-1)
		if taken {
			t = 1
		}
		s.w[0] += t
		for i := 0; i < probeHistBits; i++ {
			if hist>>uint(i)&1 == 1 {
				s.w[i+1] += t
			} else {
				s.w[i+1] -= t
			}
		}
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// branchState is the per-branch accumulator of one pass.
type branchState struct {
	pc    uint64
	n     uint64
	taken uint64
	hist  uint64 // local outcome history, newest bit 0
	cond  []ctxCounts
	gcond ctxCounts
	probe sepProbe
}

// Characterize runs one pass over the trace's branch events and
// returns the per-branch and aggregate predictability metrics.
// Predicate-define events are ignored. All metrics are finite for every
// input, including empty traces and one-event branches.
func Characterize(tr *trace.Trace, opt Options) (*Report, error) {
	opt = opt.withDefaults()
	for _, d := range opt.Depths {
		if d < 1 || d > 32 {
			return nil, fmt.Errorf("charz: depth %d out of range [1,32]", d)
		}
	}
	if opt.GlobalDepth > 32 {
		return nil, fmt.Errorf("charz: global depth %d out of range", opt.GlobalDepth)
	}

	states := make(map[uint64]*branchState)
	var ghist uint64
	var gseen uint64
	var events uint64

	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Kind != trace.KindBranch {
			continue
		}
		pc, taken := uint64(ev.PC), ev.Taken()
		st := states[pc]
		if st == nil {
			st = &branchState{pc: pc, cond: make([]ctxCounts, len(opt.Depths))}
			for i := range st.cond {
				st.cond[i] = make(ctxCounts)
			}
			if opt.GlobalDepth > 0 {
				st.gcond = make(ctxCounts)
			}
			states[pc] = st
		}

		st.probe.observe(st.hist, taken)
		for i, d := range opt.Depths {
			// st.n counts prior occurrences here: condition only once
			// the branch's own history is d deep.
			if st.n >= uint64(d) {
				st.cond[i].add(st.hist&mask(d), taken)
			}
		}
		if opt.GlobalDepth > 0 && gseen >= uint64(opt.GlobalDepth) {
			st.gcond.add(ghist&mask(opt.GlobalDepth), taken)
		}

		st.n++
		if taken {
			st.taken++
		}
		st.hist = st.hist<<1 | b2u(taken)
		ghist = ghist<<1 | b2u(taken)
		gseen++
		events++
	}
	rep := &Report{
		Name:        tr.Name,
		Events:      events,
		Depths:      append([]int(nil), opt.Depths...),
		GlobalDepth: opt.GlobalDepth,
		CondEntropy: make([]float64, len(opt.Depths)),
	}
	for _, st := range states {
		bm := BranchMetrics{
			PC:           st.pc,
			Count:        st.n,
			Taken:        st.taken,
			TakenRate:    float64(st.taken) / float64(st.n),
			CondEntropy:  make([]float64, len(opt.Depths)),
			Separability: float64(st.probe.correct) / float64(st.n),
		}
		bm.Entropy = H2(bm.TakenRate)
		for i := range opt.Depths {
			bm.CondEntropy[i] = st.cond[i].entropy()
		}
		if st.gcond != nil {
			bm.GlobalCondEntropy = st.gcond.entropy()
		}
		rep.Branches = append(rep.Branches, bm)
	}
	sort.Slice(rep.Branches, func(i, j int) bool { return rep.Branches[i].PC < rep.Branches[j].PC })

	if events > 0 {
		for _, bm := range rep.Branches {
			w := float64(bm.Count) / float64(events)
			rep.TakenRate += w * bm.TakenRate
			rep.Entropy += w * bm.Entropy
			for i := range rep.CondEntropy {
				rep.CondEntropy[i] += w * bm.CondEntropy[i]
			}
			rep.GlobalCondEntropy += w * bm.GlobalCondEntropy
			rep.Separability += w * bm.Separability
		}
	}
	return rep, nil
}

func mask(bits int) uint64 {
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(bits) - 1
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
