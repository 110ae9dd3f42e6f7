package core

import (
	"sort"

	"repro/internal/bpred"
	"repro/internal/trace"
)

// DefaultResolveDelay is the default number of dynamic instructions a
// predicate define needs before its value is visible to the fetch stage
// (compare execute latency plus fetch-to-execute pipeline distance on the
// modelled machine).
const DefaultResolveDelay = 6

// DefaultPGUDelay is the default number of dynamic instructions before a
// resolved predicate outcome reaches the global history register.
const DefaultPGUDelay = 2

// EvalConfig configures a trace-driven predictor evaluation.
type EvalConfig struct {
	// Predictor is the baseline predictor. It must be freshly
	// constructed or explicitly Reset: the evaluator trains it from the
	// state it is given.
	Predictor bpred.Predictor

	// UseSFPF enables the squash false path filter.
	UseSFPF bool
	// FilterTrue additionally filters branches whose guard is known true
	// and implies taken (predicted taken with certainty). The paper's
	// filter handles only the false case; this is the E9 ablation.
	FilterTrue bool
	// TrainFiltered makes filtered branches still train the predictor and
	// its history. The default (false) removes them from the predictor's
	// view entirely, avoiding table pollution.
	TrainFiltered bool
	// ResolveDelay is the minimum define-to-branch distance (in dynamic
	// instructions) for the filter to know the guard at fetch.
	ResolveDelay uint64

	// PGU selects the predicate global update policy.
	PGU PGUPolicy
	// PGUDelay is the distance (in dynamic instructions) between a
	// predicate define and its bit entering the history.
	PGUDelay uint64

	// PerBranch additionally collects per-static-branch statistics in
	// Metrics.ByPC (costs one map update per branch event).
	PerBranch bool
}

// BranchStats aggregates the behaviour of one static branch.
type BranchStats struct {
	PC          uint64
	Count       uint64
	Taken       uint64
	Mispredicts uint64
	Filtered    uint64
	Region      bool
}

// MispredictRate returns this branch's misprediction rate over its
// unfiltered executions.
func (b *BranchStats) MispredictRate() float64 {
	unfiltered := b.Count - b.Filtered
	if unfiltered == 0 {
		return 0
	}
	return float64(b.Mispredicts) / float64(unfiltered)
}

// Metrics summarises one evaluation.
type Metrics struct {
	Insts       uint64
	Branches    uint64 // conditional branches seen
	Mispredicts uint64

	RegionBranches    uint64
	RegionMispredicts uint64

	Filtered     uint64 // branches handled by the SFPF (known-false guard)
	FilteredTrue uint64 // branches handled by the FilterTrue extension
	FilterErrors uint64 // must be zero: sanity check of the 100% claim
	PredDefs     uint64
	InsertedBits uint64 // history bits inserted by PGU

	// ByPC holds per-static-branch statistics when EvalConfig.PerBranch
	// was set; nil otherwise.
	ByPC map[uint64]*BranchStats
}

// TopMispredicted returns up to n branches ordered by misprediction count
// (requires PerBranch collection).
func (m *Metrics) TopMispredicted(n int) []*BranchStats {
	out := make([]*BranchStats, 0, len(m.ByPC))
	for _, b := range m.ByPC {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mispredicts != out[j].Mispredicts {
			return out[i].Mispredicts > out[j].Mispredicts
		}
		return out[i].PC < out[j].PC
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// BranchReport is the hard-to-predict-branch (H2P) summary over the
// per-branch statistics: totals across every static branch plus the
// top-K ranking by misprediction count. It requires PerBranch
// collection; without it the report is empty.
type BranchReport struct {
	// StaticBranches counts distinct branch PCs with statistics.
	StaticBranches int
	// Events counts the branch executions those statistics cover.
	Events uint64
	// Mispredicts counts mispredictions across all of them.
	Mispredicts uint64
	// Top holds the hardest branches, most mispredicted first (ties
	// break toward the lower PC, matching TopMispredicted). The entries
	// are value copies — safe to hold after the evaluator moves on.
	Top []BranchStats
}

// Accuracy returns the fraction of covered branch executions that were
// predicted correctly (filtered branches count as correct, consistent
// with Metrics.MispredictRate).
func (r BranchReport) Accuracy() float64 {
	if r.Events == 0 {
		return 0
	}
	return 1 - float64(r.Mispredicts)/float64(r.Events)
}

// BranchReport builds the H2P report with up to k ranked branches.
func (m *Metrics) BranchReport(k int) BranchReport {
	rep := BranchReport{StaticBranches: len(m.ByPC)}
	for _, b := range m.ByPC {
		rep.Events += b.Count
		rep.Mispredicts += b.Mispredicts
	}
	top := m.TopMispredicted(k)
	rep.Top = make([]BranchStats, len(top))
	for i, b := range top {
		rep.Top[i] = *b
	}
	return rep
}

// MispredictRate returns mispredictions per predicted branch. Filtered
// branches count as predicted (they are fetched branches the front end had
// to handle, and the filter always predicts them correctly).
func (m Metrics) MispredictRate() float64 {
	if m.Branches == 0 {
		return 0
	}
	return float64(m.Mispredicts) / float64(m.Branches)
}

// RegionMispredictRate returns the misprediction rate over region-based
// branches only.
func (m Metrics) RegionMispredictRate() float64 {
	if m.RegionBranches == 0 {
		return 0
	}
	return float64(m.RegionMispredicts) / float64(m.RegionBranches)
}

// MPKI returns mispredictions per thousand instructions.
func (m Metrics) MPKI() float64 {
	if m.Insts == 0 {
		return 0
	}
	return 1000 * float64(m.Mispredicts) / float64(m.Insts)
}

// FilterCoverage returns the fraction of conditional branches the filter
// handled.
func (m Metrics) FilterCoverage() float64 {
	if m.Branches == 0 {
		return 0
	}
	return float64(m.Filtered+m.FilteredTrue) / float64(m.Branches)
}

type pendingBit struct {
	applyAt uint64
	bit     bool
}

// Evaluate replays a trace through the configured predictor and
// mechanisms and returns the resulting metrics: one Evaluator fed the
// whole event slice in one FeedBatch. cfg.Predictor must be freshly
// constructed or explicitly Reset, as for NewEvaluator.
func Evaluate(tr *trace.Trace, cfg EvalConfig) Metrics {
	e := NewEvaluator(cfg)
	e.FeedBatch(tr.Events)
	e.m.Insts = tr.Insts
	return e.m
}

// Evaluator is the incremental form of the trace-driven evaluator: events
// are fed in batches and the metrics so far can be read between feeds.
// Evaluate is one batch over a whole trace; long-lived consumers — the
// serving daemon's sessions, which receive a branch stream in client-sized
// batches over an arbitrary lifetime — feed events as they arrive.
//
// An Evaluator is not safe for concurrent use; the owner serialises Feed
// and MetricsSnapshot calls.
type Evaluator struct {
	cfg     EvalConfig
	p       bpred.Predictor
	obs     bpred.HistoryObserver
	pgu     PGUPolicy // cfg.PGU, or PGUOff when p has no open history
	pending []pendingBit
	m       Metrics
}

// NewEvaluator prepares incremental evaluation with exactly the
// semantics of Evaluate over the same event order. cfg.Predictor must be
// freshly constructed or explicitly Reset; the evaluator takes it as it
// is, so a predictor already trained by another run carries that
// training into this one.
func NewEvaluator(cfg EvalConfig) *Evaluator {
	p := cfg.Predictor
	e := &Evaluator{cfg: cfg, p: p}
	// PGU needs a history to insert into: on a predictor without one
	// (bimodal, local) the mechanism is a no-op, as it would be in
	// hardware.
	if e.obs, _ = p.(bpred.HistoryObserver); e.obs != nil {
		e.pgu = cfg.PGU
	}
	return e
}

// flush applies pending predicate-history bits whose delay has elapsed.
//
// Drained entries are compacted away rather than re-sliced off the front:
// a long-lived evaluator (a serving session fed a PGU-heavy stream for
// days) must not march its pending slice through an ever-growing backing
// array. A full drain resets length in place; a partial drain where the
// drained prefix dominates copies the survivors to the front; only a
// small drain off a large remainder advances the slice, and the next
// dominating drain pulls it back.
func (e *Evaluator) flush(now uint64) {
	i := 0
	for ; i < len(e.pending) && e.pending[i].applyAt <= now; i++ {
		if e.obs != nil {
			e.obs.ObserveBit(e.pending[i].bit)
			e.m.InsertedBits++
		}
	}
	if i == 0 {
		return
	}
	rem := len(e.pending) - i
	switch {
	case rem == 0:
		e.pending = e.pending[:0]
	case i >= rem:
		copy(e.pending, e.pending[i:])
		e.pending = e.pending[:rem]
	default:
		e.pending = e.pending[i:]
	}
}

// AddInsts credits n dynamic instructions to the metrics. Batch-streaming
// clients report instruction counts per batch; Evaluate sets the total
// from the trace.
func (e *Evaluator) AddInsts(n uint64) { e.m.Insts += n }

// Metrics returns the metrics accumulated so far. The ByPC map is the
// evaluator's own: callers that keep feeding must use MetricsSnapshot
// instead.
func (e *Evaluator) Metrics() Metrics { return e.m }

// MetricsSnapshot returns an independent copy of the metrics accumulated
// so far, safe to hold while the evaluator keeps feeding. It clones only
// the metrics — the full durable-state snapshot (predictor tables,
// histories, the pending predicate-bit queue) is internal/snap's job.
func (e *Evaluator) MetricsSnapshot() Metrics { return e.m.Clone() }

// Config returns the evaluation configuration, with the Predictor field
// cleared: the predictor itself stays owned by the evaluator. Snapshot
// writers persist this alongside the predictor spec so a restore can
// rebuild an identically configured evaluator.
func (e *Evaluator) Config() EvalConfig {
	cfg := e.cfg
	cfg.Predictor = nil
	return cfg
}

// Predictor returns the evaluator's predictor. Callers must not train or
// reset it behind the evaluator's back; the accessor exists so snapshot
// writers (internal/snap) can serialize its state.
func (e *Evaluator) Predictor() bpred.Predictor { return e.p }

// Clone returns a deep copy of m (the ByPC per-branch map is copied).
func (m Metrics) Clone() Metrics {
	out := m
	if m.ByPC != nil {
		out.ByPC = make(map[uint64]*BranchStats, len(m.ByPC))
		for pc, bs := range m.ByPC {
			c := *bs
			out.ByPC[pc] = &c
		}
	}
	return out
}
