// Package harness defines the reproduction experiments E1–E15: for every
// table and figure reconstructed from the paper (see DESIGN.md), one
// experiment that regenerates it from this repository's workloads,
// if-converter, predictors and timing model.
//
// Experiments run on the unified simulation engine in internal/sim: all
// predictor construction goes through the sim registry, and every
// predictor × workload grid fans out over sim.Sweep's worker pool while
// keeping deterministic, suite-ordered results.
package harness

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	// Limit bounds emulation steps per program run (default 3,000,000).
	Limit uint64
	// Quick trims parameter sweeps for fast test runs; results keep the
	// same shape with fewer points.
	Quick bool
}

func (c Config) withDefaults() Config {
	if c.Limit == 0 {
		c.Limit = 3_000_000
	}
	return c
}

// Default machine/predictor parameters shared by the experiments.
const (
	defTableBits = 12
	defHistBits  = 8
	defResolve   = core.DefaultResolveDelay
	defPGUDelay  = core.DefaultPGUDelay
)

// defSpec is the default global predictor every experiment keys on.
var defSpec = sim.Spec{Kind: "gshare", TableBits: defTableBits, HistBits: defHistBits}

// newGshare builds the default global predictor through the registry.
func newGshare() bpred.Predictor { return defSpec.MustNew() }

// Entry is one workload prepared for experimentation: the original
// branching program, its if-converted form, the conversion report, and
// traces of both. Derived artifacts that only some experiments need —
// the profile-guided conversion and the unscheduled-compare conversion —
// are built on first use and memoized by the suite, so experiments share
// one copy instead of re-materializing them per evaluation. Every trace
// and profile of an entry derives from its suite's one recording of that
// program.
//
// NewSuiteContext fills every field of the fixed suite's entries. An
// entry outside it (a synthetic workload an experiment names) fills Orig
// and OrigTrace; its conversions are built, in the suite's memo and not
// in these fields, only when a variant asks for them.
type Entry struct {
	Name      string
	Orig      *prog.Program
	Conv      *prog.Program
	Report    *ifconv.Report
	OrigTrace *trace.Trace
	ConvTrace *trace.Trace

	// suite memoizes every artifact derived from the entry.
	suite *Suite
}

// Profiled returns the workload's profile-guided if-conversion (the
// paper's compiler mode): converted program, conversion report, and the
// trace of the converted program. It is computed on first use and cached
// for the suite's lifetime, so E2c, E11, and any future experiment share
// one profile+convert+trace instead of redoing it per experiment.
func (e *Entry) Profiled() (*prog.Program, *ifconv.Report, *trace.Trace, error) {
	p, rep, err := e.suite.program(e, TraceProfiled)
	if err != nil {
		return nil, nil, nil, err
	}
	tr, err := e.suite.trace(recKey{entry: e, trace: TraceProfiled, limit: e.suite.cfg.Limit})
	if err != nil {
		return nil, nil, nil, err
	}
	return p, rep, tr, nil
}

// label names one of the entry's programs in error messages.
func (e *Entry) label(k TraceKind) string {
	switch k {
	case TraceOrig:
		return e.Name
	case TraceConv:
		return e.Name + " (converted)"
	}
	return e.Name + " (" + k.String() + ")"
}

// Suite is the prepared workload set shared by all experiments. Every
// artifact derived from a workload lives in one of its memos, made at
// most once per suite and shared by every experiment run on it.
type Suite struct {
	Entries []*Entry
	cfg     Config

	// extra holds entries built on demand, by requested name, for
	// workloads outside the fixed suite — the synthetic charz family an
	// experiment can name without changing suite membership (which the
	// golden CSVs of the suite-wide experiments pin down).
	extra memo[string, *Entry]
	// progs holds each entry's if-conversions.
	progs memo[progKey, conversion]
	// recs holds each program's one recorded execution: the harness's
	// only emulator runs. Traces, profiles and timing cells all derive
	// from a recording, which is read-only and so shared, concurrently
	// if need be.
	recs memo[recKey, *record.Recording]
	// traces holds the trace derived from each recording.
	traces memo[recKey, *trace.Trace]
	// cells holds evaluated grid points by resolved configuration, so
	// experiments sharing a suite compute each distinct point once.
	cells memo[pointKey, Cell]
}

// progKey names one program of an entry.
type progKey struct {
	entry *Entry
	trace TraceKind
}

// recKey names one recorded execution: which program of which entry,
// under which step limit.
type recKey struct {
	entry *Entry
	trace TraceKind
	limit uint64
}

// conversion is one if-converted program and its report.
type conversion struct {
	prog *prog.Program
	rep  *ifconv.Report
}

// NewSuite builds, converts, and traces every workload; it is the
// expensive shared setup, done once per harness invocation.
func NewSuite(cfg Config) (*Suite, error) {
	return NewSuiteContext(context.Background(), cfg)
}

// NewSuiteContext is NewSuite bounded by a context. Workloads are built
// and converted on the engine's worker pool, then every program of the
// suite, original and converted, is recorded and traced as a job of its
// own; the resulting entry order is the deterministic workload order
// regardless of scheduling.
func NewSuiteContext(ctx context.Context, cfg Config) (*Suite, error) {
	s := &Suite{cfg: cfg.withDefaults()}
	entries, err := sim.Map(ctx, workload.Suite(), 0,
		func(_ context.Context, w workload.Workload) (*Entry, error) {
			e := s.newEntry(w)
			var err error
			e.Conv, e.Report, err = s.program(e, TraceConv)
			return e, err
		})
	if err != nil {
		return nil, err
	}
	keys := make([]recKey, 0, 2*len(entries))
	for _, e := range entries {
		keys = append(keys,
			recKey{entry: e, trace: TraceOrig, limit: s.cfg.Limit},
			recKey{entry: e, trace: TraceConv, limit: s.cfg.Limit})
	}
	traces, err := sim.Map(ctx, keys, 0, func(_ context.Context, k recKey) (*trace.Trace, error) {
		return s.trace(k)
	})
	if err != nil {
		return nil, err
	}
	for i, e := range entries {
		e.OrigTrace, e.ConvTrace = traces[2*i], traces[2*i+1]
	}
	s.Entries = entries
	return s, nil
}

// newEntry starts an entry for w: its original program, bound to s.
func (s *Suite) newEntry(w workload.Workload) *Entry {
	return &Entry{Name: w.Name, Orig: w.Build(), suite: s}
}

// extraEntries resolves workload names outside the fixed suite — the
// synthetic charz family — to prepared entries, in the order given.
// Names not prepared yet are built concurrently on the engine's worker
// pool and memoized for the suite's lifetime, failures included; a name
// no workload answers to fails the call before anything is built or
// memoized. An extra entry records and traces only its original program
// up front.
func (s *Suite) extraEntries(ctx context.Context, names []string) ([]*Entry, error) {
	type named struct {
		name string // the name requested, which keys the memo
		w    workload.Workload
	}
	ws := make([]named, len(names))
	for i, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			return nil, fmt.Errorf("harness: resolving workload %q: %w", n, err)
		}
		ws[i] = named{n, w}
	}
	return sim.Map(ctx, ws, 0, func(_ context.Context, nw named) (*Entry, error) {
		return s.extra.get(nw.name, func() (*Entry, error) {
			e := s.newEntry(nw.w)
			var err error
			if e.OrigTrace, err = s.trace(recKey{entry: e, trace: TraceOrig, limit: s.cfg.Limit}); err != nil {
				return nil, err
			}
			return e, nil
		})
	})
}

// program returns the entry's program of kind k. The conversions are
// built on first request: the greedy one, the profile-guided one (which
// profiles the original program's recording) and the one without
// compare scheduling. Each program is resolved (see prog.Resolve) by its
// one recording before any view shares it.
func (s *Suite) program(e *Entry, k TraceKind) (*prog.Program, *ifconv.Report, error) {
	if k == TraceOrig {
		return e.Orig, nil, nil
	}
	c, err := s.progs.get(progKey{e, k}, func() (conversion, error) {
		var cfg ifconv.Config
		verb := "converting"
		switch k {
		case TraceConv:
		case TraceProfiled:
			x, err := s.recording(recKey{entry: e, trace: TraceOrig, limit: s.cfg.Limit})
			if err != nil {
				return conversion{}, err
			}
			if cfg.Profile, err = profile.FromRecording(x, newGshare()); err != nil {
				return conversion{}, fmt.Errorf("harness: profiling %s: %w", e.Name, err)
			}
			verb = "profile-converting"
		case TraceUnscheduled:
			cfg.NoCompareScheduling = true
			verb = "unscheduled-converting"
		default:
			return conversion{}, fmt.Errorf("unknown trace kind %d", int(k))
		}
		p, rep, err := ifconv.Convert(e.Orig, cfg)
		if err != nil {
			return conversion{}, fmt.Errorf("harness: %s %s: %w", verb, e.Name, err)
		}
		return conversion{p, rep}, nil
	})
	return c.prog, c.rep, err
}

// recording returns the recorded execution k names, recording it on
// first request. It holds the harness's only emulator run.
func (s *Suite) recording(k recKey) (*record.Recording, error) {
	return s.recs.get(k, func() (*record.Recording, error) {
		p, _, err := s.program(k.entry, k.trace)
		if err != nil {
			return nil, err
		}
		x, err := record.Program(p, k.limit)
		if err != nil {
			return nil, fmt.Errorf("harness: recording %s: %w", k.entry.label(k.trace), err)
		}
		return x, nil
	})
}

// trace returns the trace derived from k's recording.
func (s *Suite) trace(k recKey) (*trace.Trace, error) {
	return s.traces.get(k, func() (*trace.Trace, error) {
		x, err := s.recording(k)
		if err != nil {
			return nil, err
		}
		tr, err := trace.FromRecording(x)
		if err != nil {
			return nil, fmt.Errorf("harness: tracing %s: %w", k.entry.label(k.trace), err)
		}
		return tr, nil
	})
}

var experiments []Experiment

func registerExperiment(e Experiment) { experiments = append(experiments, e) }

// All returns every experiment in natural ID order (E1, E2, ... E14 —
// numeric, not lexical, so E9 precedes E10). Ranges in Select and the
// -list output follow this order.
func All() []Experiment {
	out := append([]Experiment(nil), experiments...)
	sort.Slice(out, func(i, j int) bool { return idOrd(out[i].ID) < idOrd(out[j].ID) })
	return out
}

// idOrd maps "E<n>" to n for natural ordering; non-conforming IDs sort
// last in lexical order among themselves (the registry has none today).
func idOrd(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "E"))
	if err != nil {
		return 1 << 30
	}
	return n
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// Select resolves an experiment-selection expression: a comma-separated
// list of experiment IDs ("E2,E5"), numeric ranges ("E3-E6"), and table
// names ("E2a" selects E2 — the letter suffix cmd/experiments appends to
// multi-table CSV files). The empty expression selects every experiment.
// Unknown IDs fail up front, before any suite is built.
func Select(expr string) ([]Experiment, error) {
	if strings.TrimSpace(expr) == "" {
		return All(), nil
	}
	var out []Experiment
	seen := make(map[string]bool)
	add := func(e Experiment) {
		if !seen[e.ID] {
			seen[e.ID] = true
			out = append(out, e)
		}
	}
	for _, tok := range strings.Split(expr, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if e, err := ByID(tok); err == nil {
			add(e)
			continue
		}
		// Table name: an ID plus the letter suffix of a multi-table
		// experiment's CSV file ("E2a" -> E2). The letter must index one
		// of the experiment's tables, so "E2d" and "E5z" stay unknown.
		if n := len(tok); n > 1 && tok[n-1] >= 'a' && tok[n-1] <= 'z' {
			e, err := ByID(tok[:n-1])
			if i := int(tok[n-1] - 'a'); err == nil && len(e.Tables) > 1 && i < len(e.Tables) {
				add(e)
				continue
			}
		}
		// Range: "E3-E6" in registry (sorted-ID) order, inclusive.
		if lo, hi, ok := strings.Cut(tok, "-"); ok {
			elo, errLo := ByID(strings.TrimSpace(lo))
			ehi, errHi := ByID(strings.TrimSpace(hi))
			if errLo == nil && errHi == nil {
				in := false
				for _, e := range All() {
					if e.ID == elo.ID {
						in = true
					}
					if in {
						add(e)
					}
					if e.ID == ehi.ID {
						if !in {
							return nil, fmt.Errorf("harness: empty range %q (bounds out of order)", tok)
						}
						in = false
					}
				}
				if in {
					return nil, fmt.Errorf("harness: empty range %q (bounds out of order)", tok)
				}
				continue
			}
		}
		return nil, fmt.Errorf("harness: unknown experiment %q in %q (run -list for IDs)", tok, expr)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("harness: selection %q names no experiments", expr)
	}
	return out, nil
}

// Result pairs an experiment with the tables one run of it produced.
type Result struct {
	Experiment Experiment
	Tables     []*stats.Table
}

// TableName returns the base name of the i-th table's CSV file: the
// experiment ID, with a letter suffix when the experiment emits several
// tables ("E2" -> E2a, E2b, ...). cmd/experiments and the golden tests
// name tables through this one function.
func (r Result) TableName(i int) string {
	if len(r.Tables) <= 1 {
		return r.Experiment.ID
	}
	return r.Experiment.ID + string(rune('a'+i))
}

// RunAll builds the suite once and runs every experiment.
func RunAll(cfg Config) ([]Result, error) {
	return RunSelected(context.Background(), cfg, All())
}

// RunSelected builds the suite once and runs the given experiments in
// order.
func RunSelected(ctx context.Context, cfg Config, exps []Experiment) ([]Result, error) {
	cfg = cfg.withDefaults()
	s, err := NewSuiteContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, e := range exps {
		tables, err := e.Run(ctx, s, cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", e.ID, err)
		}
		out = append(out, Result{Experiment: e, Tables: tables})
	}
	return out, nil
}
