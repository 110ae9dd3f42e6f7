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
	"sync"
	"time"

	"repro/internal/bpred"
	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/ifconv"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/results"
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
// are built lazily and memoized, so experiments share one copy instead
// of re-materializing traces per evaluation. Every trace and profile of
// an entry derives from its suite's one recording of that program.
//
// NewSuiteContext fills every field of the fixed suite's entries. An
// entry outside it (a synthetic workload a spec names) fills Orig and
// OrigTrace; its conversion and converted trace are built only when a
// variant asks for them.
type Entry struct {
	Name      string
	Orig      *prog.Program
	Conv      *prog.Program
	Report    *ifconv.Report
	OrigTrace *trace.Trace
	ConvTrace *trace.Trace

	// suite holds the recording memo every derived artifact reads, and
	// limit its emulation bound.
	suite *Suite
	limit uint64

	convOnce sync.Once
	convErr  error

	profiledOnce sync.Once
	profiledProg *prog.Program
	profiledRep  *ifconv.Report
	profiledErr  error

	unschedOnce sync.Once
	unschedProg *prog.Program
	unschedErr  error
}

// converted returns the greedy if-conversion (Conv and Report), made on
// first use.
func (e *Entry) converted() (*prog.Program, error) {
	e.convOnce.Do(func() {
		var err error
		if e.Conv, e.Report, err = ifconv.Convert(e.Orig, ifconv.Config{}); err != nil {
			e.convErr = fmt.Errorf("harness: converting %s: %w", e.Name, err)
		}
	})
	return e.Conv, e.convErr
}

// profiled returns the profile-guided conversion, profiling the
// original program's recording on first use.
func (e *Entry) profiled() (*prog.Program, *ifconv.Report, error) {
	e.profiledOnce.Do(func() {
		me, err := e.suite.exec(execKey{entry: e, trace: TraceOrig, limit: e.limit})
		if err != nil {
			e.profiledErr = err
			return
		}
		prof, err := profile.FromRecording(me.x, newGshare())
		if err != nil {
			e.profiledErr = fmt.Errorf("harness: profiling %s: %w", e.Name, err)
			return
		}
		e.profiledProg, e.profiledRep, err = ifconv.Convert(e.Orig, ifconv.Config{Profile: prof})
		if err != nil {
			e.profiledErr = fmt.Errorf("harness: profile-converting %s: %w", e.Name, err)
		}
	})
	return e.profiledProg, e.profiledRep, e.profiledErr
}

// unscheduled returns greedy conversion without compare scheduling,
// made on first use.
func (e *Entry) unscheduled() (*prog.Program, error) {
	e.unschedOnce.Do(func() {
		var err error
		if e.unschedProg, _, err = ifconv.Convert(e.Orig, ifconv.Config{NoCompareScheduling: true}); err != nil {
			e.unschedErr = fmt.Errorf("harness: unscheduled-converting %s: %w", e.Name, err)
		}
	})
	return e.unschedProg, e.unschedErr
}

// Profiled returns the workload's profile-guided if-conversion (the
// paper's compiler mode): converted program, conversion report, and the
// trace of the converted program. It is computed on first use and cached
// for the suite's lifetime, so E2c, E11, and any future experiment share
// one profile+convert+trace instead of redoing it per experiment.
func (e *Entry) Profiled() (*prog.Program, *ifconv.Report, *trace.Trace, error) {
	p, rep, err := e.profiled()
	if err != nil {
		return nil, nil, nil, err
	}
	tr, err := e.suite.trace(execKey{entry: e, trace: TraceProfiled, limit: e.limit})
	if err != nil {
		return nil, nil, nil, err
	}
	return p, rep, tr, nil
}

// Unscheduled returns the trace of greedy if-conversion without compare
// scheduling (the E10 ablation), memoized like Profiled.
func (e *Entry) Unscheduled() (*trace.Trace, error) {
	return e.suite.trace(execKey{entry: e, trace: TraceUnscheduled, limit: e.limit})
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

// Suite is the prepared workload set shared by all experiments.
type Suite struct {
	Entries []*Entry
	cfg     Config

	mu sync.Mutex // guards extra, cells and execs
	// extra memoizes entries materialized on demand for workloads
	// outside the fixed suite — the synthetic charz family a spec can
	// name without changing suite membership (which the golden CSVs of
	// the suite-wide experiments pin down).
	extra map[string]*lazyEntry
	// cells memoizes evaluated grid points by resolved configuration,
	// so experiments sharing a suite compute each distinct point once.
	cells map[pointKey]*memoCell
	// execs memoizes each program's one recorded execution and the
	// views derived from it: its trace, and the timing model's replay.
	execs map[execKey]*memoExec
}

// lazyEntry is one on-demand entry, built at most once.
type lazyEntry struct {
	name string // the name it was requested (and is memoized) under
	w    workload.Workload
	once sync.Once
	e    *Entry
	err  error
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
			if _, err := e.converted(); err != nil {
				return nil, err
			}
			return e, nil
		})
	if err != nil {
		return nil, err
	}
	keys := make([]execKey, 0, 2*len(entries))
	for _, e := range entries {
		keys = append(keys,
			execKey{entry: e, trace: TraceOrig, limit: e.limit},
			execKey{entry: e, trace: TraceConv, limit: e.limit})
	}
	traces, err := sim.Map(ctx, keys, 0, func(_ context.Context, k execKey) (*trace.Trace, error) {
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
	return &Entry{Name: w.Name, Orig: w.Build(), suite: s, limit: s.cfg.Limit}
}

// extraEntries resolves workload names outside the fixed suite — the
// synthetic charz family — to prepared entries, in the order given.
// Names not prepared yet are built concurrently on the engine's worker
// pool and memoized for the suite's lifetime; a name no workload
// answers to fails the call before anything is built or memoized. An
// extra entry records and traces only its original program up front.
func (s *Suite) extraEntries(ctx context.Context, names []string) ([]*Entry, error) {
	slots := make([]*lazyEntry, len(names))
	s.mu.Lock()
	for i, n := range names {
		if le, ok := s.extra[n]; ok {
			slots[i] = le
			continue
		}
		w, err := workload.ByName(n)
		if err != nil {
			s.mu.Unlock()
			return nil, fmt.Errorf("harness: resolving workload %q: %w", n, err)
		}
		slots[i] = &lazyEntry{name: n, w: w}
	}
	if s.extra == nil {
		s.extra = make(map[string]*lazyEntry)
	}
	for i, n := range names {
		s.extra[n] = slots[i]
	}
	s.mu.Unlock()

	return sim.Map(ctx, slots, 0, func(_ context.Context, le *lazyEntry) (*Entry, error) {
		le.once.Do(func() {
			e := s.newEntry(le.w)
			if e.OrigTrace, le.err = s.trace(execKey{entry: e, trace: TraceOrig, limit: e.limit}); le.err == nil {
				le.e = e
			}
		})
		if le.err != nil {
			// Forget the failed build so a later call retries it.
			s.mu.Lock()
			if s.extra[le.name] == le {
				delete(s.extra, le.name)
			}
			s.mu.Unlock()
		}
		return le.e, le.err
	})
}

// Experiment regenerates one reconstructed table/figure.
type Experiment struct {
	ID    string
	Title string
	// Paper describes the paper analogue this experiment reconstructs.
	Paper string
	// Expect states the shape the result should show if the reproduction
	// holds.
	Expect string
	// Spec is the experiment's declarative definition when it runs on
	// the generic engine (see spec.go); nil for a hand-written Run (the
	// escape hatch for experiments that do not fit a grid).
	Spec *Spec
	Run  func(ctx context.Context, s *Suite, cfg Config) ([]*stats.Table, error)
}

// ConfigHash identifies what this experiment would compute under cfg:
// the experiment, the run bounds, and — for spec-driven experiments —
// the active variant grid and workload selection. Two runs with equal
// hashes answered the same question; the results store keys records on
// it so `bpstats` can tell a regression from a reconfiguration.
func (e Experiment) ConfigHash(cfg Config) string {
	cfg = cfg.withDefaults()
	doc := struct {
		ID        string
		Limit     uint64
		Quick     bool
		Custom    bool      `json:",omitempty"`
		Workloads []string  `json:",omitempty"`
		Variants  []Variant `json:",omitempty"`
	}{ID: e.ID, Limit: cfg.Limit, Quick: cfg.Quick}
	if e.Spec == nil {
		doc.Custom = true
	} else {
		doc.Workloads = e.Spec.Workloads
		doc.Variants = e.Spec.ActiveVariants(cfg)
	}
	return buildinfo.Hash(doc)
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
		// experiment's CSV file ("E2a" -> E2).
		if n := len(tok); n > 1 && tok[n-1] >= 'a' && tok[n-1] <= 'z' {
			if e, err := ByID(tok[:n-1]); err == nil {
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

// Result pairs an experiment with its output tables and the wall time
// the run took (the results store records it).
type Result struct {
	Experiment Experiment
	Tables     []*stats.Table
	Wall       time.Duration
}

// TableName returns the base name of the i-th table's CSV file: the
// experiment ID, with a letter suffix when the experiment emits several
// tables ("E2" -> E2a, E2b, ...). cmd/experiments, the golden test, and
// the results store all name tables through this one function.
func (r Result) TableName(i int) string {
	if len(r.Tables) <= 1 {
		return r.Experiment.ID
	}
	return r.Experiment.ID + string(rune('a'+i))
}

// Record converts the result into a results-store record for the given
// run. The config hash ties the record to the exact grid that produced
// it, so `bpstats diff` can refuse to compare unlike configurations.
func (r Result) Record(runID string, at time.Time, cfg Config) results.Record {
	cfg = cfg.withDefaults()
	rec := results.Record{
		RunID:      runID,
		Time:       at.UTC().Format(time.RFC3339),
		Version:    buildinfo.Version(),
		Experiment: r.Experiment.ID,
		ConfigHash: r.Experiment.ConfigHash(cfg),
		Quick:      cfg.Quick,
		Limit:      cfg.Limit,
		WallMS:     float64(r.Wall) / float64(time.Millisecond),
	}
	for i, t := range r.Tables {
		rec.Tables = append(rec.Tables, results.Table{
			Name:    r.TableName(i),
			Title:   t.Title,
			Columns: t.Columns,
			Rows:    t.Rows,
		})
	}
	return rec
}

// RunAll builds the suite once and runs every experiment.
func RunAll(cfg Config) ([]Result, error) {
	return RunAllContext(context.Background(), cfg)
}

// RunAllContext is RunAll bounded by a context: cancellation (e.g. a
// CLI -timeout) aborts the in-flight experiment's sweep and returns the
// context error.
func RunAllContext(ctx context.Context, cfg Config) ([]Result, error) {
	return RunSelected(ctx, cfg, All())
}

// RunSelected builds the suite once and runs the given experiments in
// order, timing each.
func RunSelected(ctx context.Context, cfg Config, exps []Experiment) ([]Result, error) {
	cfg = cfg.withDefaults()
	s, err := NewSuiteContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, e := range exps {
		start := time.Now()
		tables, err := e.Run(ctx, s, cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", e.ID, err)
		}
		out = append(out, Result{Experiment: e, Tables: tables, Wall: time.Since(start)})
	}
	return out, nil
}
