// spec.go — the declarative experiment engine. An experiment used to be
// an opaque Run closure with its own hand-rolled grid loops; it is now a
// Spec: a configuration grid (variants × workloads) plus table
// definitions built from a small set of row-shaping combinators
// (per-workload rows, per-group sweep rows, summary rows, paired
// orig-vs-converted columns). One engine executes every Spec on the
// sim sweep pool and renders the same stats.Tables the hand-coded
// bodies produced, byte for byte — which is what lets the golden CSV
// test gate the refactor, and what makes a Spec the unit a results
// store can record and a remote executor can run.
package harness

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/record"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TraceKind selects which prepared artifact of an Entry a variant
// evaluates: metrics variants pick a trace, pipeline variants the
// corresponding program.
type TraceKind int

const (
	// TraceConv is the greedily if-converted workload (the default).
	TraceConv TraceKind = iota
	// TraceOrig is the original branching workload.
	TraceOrig
	// TraceProfiled is the profile-guided conversion (memoized per entry).
	TraceProfiled
	// TraceUnscheduled is greedy conversion without compare scheduling
	// (memoized per entry).
	TraceUnscheduled
)

func (k TraceKind) String() string {
	switch k {
	case TraceConv:
		return "conv"
	case TraceOrig:
		return "orig"
	case TraceProfiled:
		return "profiled"
	case TraceUnscheduled:
		return "unscheduled"
	}
	return fmt.Sprintf("trace(%d)", int(k))
}

// Variant is one point of an experiment's configuration grid: a
// predictor spec plus evaluator (or timing-model) options, applied to
// one artifact of every selected workload. Its Key names the point for
// table columns; a "group/sub" key places the variant in a sweep group
// for per-group row shapes.
type Variant struct {
	// Key is unique within the Spec. Everything before the first '/'
	// is the variant's sweep group.
	Key string
	// Trace selects the workload artifact evaluated.
	Trace TraceKind
	// Pred is the predictor; the zero value means the default gshare 12/8.
	Pred sim.Spec

	// Evaluator options (core.EvalConfig / pipeline.Config fields).
	UseSFPF      bool
	FilterTrue   bool
	ResolveDelay uint64
	PGU          core.PGUPolicy
	PGUDelay     uint64

	// Pipeline evaluates on the timing model instead of the trace
	// evaluator; the remaining fields configure that machine.
	Pipeline   bool
	IssueWidth int
	RASDepth   int
	NoRAS      bool

	// FullOnly drops the variant from quick runs (sweep trimming).
	FullOnly bool
}

// group returns the variant's sweep group: the key up to the first '/'.
func (v Variant) group() string {
	for i := 0; i < len(v.Key); i++ {
		if v.Key[i] == '/' {
			return v.Key[:i]
		}
	}
	return v.Key
}

// joinKey forms a full variant key from a group and a sub-key; either
// part may be empty.
func joinKey(group, sub string) string {
	switch {
	case group == "":
		return sub
	case sub == "":
		return group
	}
	return group + "/" + sub
}

// Cell is one evaluated grid point: the metrics (or timing stats) of one
// variant on one workload.
type Cell struct {
	Entry   *Entry
	Variant Variant
	// M holds the trace-evaluator metrics of a non-pipeline variant.
	M core.Metrics
	// P holds the timing-model stats of a pipeline variant.
	P pipeline.Stats
}

// Shape selects a table's row combinator.
type Shape int

const (
	// RowsPerEntry emits one row per selected workload, in suite order.
	RowsPerEntry Shape = iota
	// RowsPerGroup emits one row per variant sweep group, in the order
	// listed by TableSpec.Groups.
	RowsPerGroup
)

// Row is the view a column's Value function gets of the cells backing
// one output row.
type Row struct {
	// Entry is the row's workload on per-entry rows; nil on group and
	// summary rows.
	Entry *Entry
	// Group is the row's sweep group on per-group rows; "" otherwise.
	Group string

	grid     *grid
	included []*Entry // entries aggregated by Cells on group/summary rows
}

// Cell returns the row's single cell for a (sub-)key: the variant's cell
// for this row's workload on per-entry rows, or — when the experiment
// selects exactly one workload — for that workload on per-group rows.
func (r Row) Cell(sub string) Cell {
	if r.Entry != nil {
		return r.grid.cell(r.Entry, sub)
	}
	if len(r.included) != 1 {
		panic(fmt.Sprintf("harness: Row.Cell(%q) on an aggregate row over %d workloads", sub, len(r.included)))
	}
	return r.grid.cell(r.included[0], joinKey(r.Group, sub))
}

// Cells returns the cells for a (sub-)key across the row's workloads, in
// suite order. On a summary row the entries are the table's included
// (non-skipped) rows, so summary statistics match what the table shows.
func (r Row) Cells(sub string) []Cell {
	if r.Entry != nil {
		return []Cell{r.grid.cell(r.Entry, sub)}
	}
	out := make([]Cell, len(r.included))
	for i, e := range r.included {
		out[i] = r.grid.cell(e, joinKey(r.Group, sub))
	}
	return out
}

// Over maps the row's cells for a (sub-)key through f, in suite order —
// the input of the stats.Geomean/stats.Mean aggregations sweep tables
// are made of.
func (r Row) Over(sub string, f func(Cell) float64) []float64 {
	cells := r.Cells(sub)
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i] = f(c)
	}
	return out
}

// rate is the common Over projection.
func rate(c Cell) float64 { return c.M.MispredictRate() }

// Col derives one output column from a row view.
type Col struct {
	Name  string
	Value func(Row) string
}

// workloadCol is the leading per-entry column every workload table has.
func workloadCol() Col {
	return Col{"workload", func(r Row) string { return r.Entry.Name }}
}

// groupCol is the leading per-group column of a sweep table.
func groupCol(name string) Col {
	return Col{name, func(r Row) string { return r.Group }}
}

// staticNote wraps a fixed footnote.
func staticNote(s string) func([]Row) string {
	return func([]Row) string { return s }
}

// TableSpec declares one output table of a Spec.
type TableSpec struct {
	Title string
	Shape Shape
	// Groups lists (and orders) the sweep groups of a RowsPerGroup
	// table; groups whose variants are all trimmed from the run are
	// dropped.
	Groups []string
	// Cols derive the data rows.
	Cols []Col
	// Summary, when non-empty, appends one aggregate row (geomean and
	// friends) computed over the included data rows; missing trailing
	// columns render empty.
	Summary []Col
	// Skip drops a per-entry row (and excludes it from Summary and
	// Notes).
	Skip func(Row) bool
	// Notes render footnotes from the included data rows.
	Notes []func([]Row) string
	// FullOnly drops the whole table from quick runs.
	FullOnly bool
}

// Spec is a declarative experiment: a variant × workload grid plus the
// tables shaped from its cells. Experiment() adapts it to the registry;
// the engine in run executes it.
type Spec struct {
	ID     string
	Title  string
	Paper  string
	Expect string
	// Workloads selects a subset of the suite by name; nil means all.
	Workloads []string
	Variants  []Variant
	// Prepare, when set, runs once per selected workload on the sweep
	// pool after the grid is evaluated and before any table is shaped:
	// per-workload work the columns share (E15's characterization).
	Prepare func(*Entry) error
	Tables  []TableSpec
}

// Experiment adapts the Spec to the experiment registry; the returned
// Experiment runs on the generic engine.
func (sp Spec) Experiment() Experiment {
	s := sp
	return Experiment{
		ID:     s.ID,
		Title:  s.Title,
		Paper:  s.Paper,
		Expect: s.Expect,
		Spec:   &s,
	}
}

// ActiveVariants returns the variants a run with this config evaluates
// (quick runs drop FullOnly variants). The active set is part of the
// run's identity: it feeds Experiment.ConfigHash.
func (sp *Spec) ActiveVariants(cfg Config) []Variant {
	var out []Variant
	for _, v := range sp.Variants {
		if cfg.Quick && v.FullOnly {
			continue
		}
		out = append(out, v)
	}
	return out
}

// grid holds the evaluated cells of one Spec run.
type grid struct {
	spec    *Spec
	entries []*Entry
	cells   map[gridKey]Cell
}

type gridKey struct {
	entry string
	key   string
}

func (g *grid) cell(e *Entry, key string) Cell {
	c, ok := g.cells[gridKey{e.Name, key}]
	if !ok {
		panic(fmt.Sprintf("harness: %s: no cell for workload %q, variant %q (column references a variant the spec does not declare, or one trimmed from this run)", g.spec.ID, e.Name, key))
	}
	return c
}

// run is the engine: evaluate the grid on the sweep pool, then shape
// tables sequentially (deterministic row order regardless of worker
// scheduling).
func (sp *Spec) run(ctx context.Context, s *Suite, cfg Config) ([]*stats.Table, error) {
	entries, err := sp.selectEntries(ctx, s)
	if err != nil {
		return nil, err
	}
	variants := sp.ActiveVariants(cfg)
	seen := make(map[string]bool, len(variants))
	for _, v := range variants {
		if seen[v.Key] {
			return nil, fmt.Errorf("harness: %s: duplicate variant key %q", sp.ID, v.Key)
		}
		seen[v.Key] = true
	}

	type job struct {
		e *Entry
		v Variant
	}
	jobs := make([]job, 0, len(entries)*len(variants))
	for _, e := range entries {
		for _, v := range variants {
			jobs = append(jobs, job{e, v})
		}
	}
	cells, err := sim.Map(ctx, jobs, 0, func(_ context.Context, j job) (Cell, error) {
		return s.cell(j.e, j.v, cfg.Limit)
	})
	if err != nil {
		return nil, err
	}

	if sp.Prepare != nil {
		if _, err := sim.Map(ctx, entries, 0, func(_ context.Context, e *Entry) (struct{}, error) {
			return struct{}{}, sp.Prepare(e)
		}); err != nil {
			return nil, err
		}
	}

	g := &grid{spec: sp, entries: entries, cells: make(map[gridKey]Cell, len(cells))}
	for _, c := range cells {
		g.cells[gridKey{c.Entry.Name, c.Variant.Key}] = c
	}

	activeGroups := make(map[string]bool, len(variants))
	for _, v := range variants {
		activeGroups[v.group()] = true
	}

	var tables []*stats.Table
	for i := range sp.Tables {
		ts := &sp.Tables[i]
		if ts.FullOnly && cfg.Quick {
			continue
		}
		t, err := ts.build(g, activeGroups)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: table %q: %w", sp.ID, ts.Title, err)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// selectEntries filters the suite to the spec's workloads, keeping suite
// order; names outside the fixed suite — the synthetic charz family —
// follow in spec-listed order.
func (sp *Spec) selectEntries(ctx context.Context, s *Suite) ([]*Entry, error) {
	if len(sp.Workloads) == 0 {
		return s.Entries, nil
	}
	want := make(map[string]bool, len(sp.Workloads))
	for _, n := range sp.Workloads {
		want[n] = true
	}
	var out []*Entry
	for _, e := range s.Entries {
		if want[e.Name] {
			out = append(out, e)
			delete(want, e.Name)
		}
	}
	var extra []string
	for _, n := range sp.Workloads {
		if want[n] {
			extra = append(extra, n)
			delete(want, n)
		}
	}
	if len(extra) == 0 {
		return out, nil
	}
	more, err := s.extraEntries(ctx, extra)
	if err != nil {
		return nil, err
	}
	return append(out, more...), nil
}

// build shapes one table from the grid.
func (ts *TableSpec) build(g *grid, activeGroups map[string]bool) (*stats.Table, error) {
	t := stats.NewTable(ts.Title, colNames(ts.Cols)...)

	var rows []Row
	switch ts.Shape {
	case RowsPerEntry:
		for _, e := range g.entries {
			r := Row{Entry: e, grid: g}
			if ts.Skip != nil && ts.Skip(r) {
				continue
			}
			rows = append(rows, r)
		}
	case RowsPerGroup:
		if len(ts.Groups) == 0 {
			return nil, fmt.Errorf("per-group table lists no groups")
		}
		for _, grp := range ts.Groups {
			if !activeGroups[grp] {
				continue // trimmed from this run
			}
			rows = append(rows, Row{Group: grp, grid: g, included: g.entries})
		}
	default:
		return nil, fmt.Errorf("unknown shape %d", ts.Shape)
	}

	for _, r := range rows {
		cells := make([]string, len(ts.Cols))
		for i, c := range ts.Cols {
			cells[i] = c.Value(r)
		}
		t.AddRow(cells...)
	}

	if len(ts.Summary) > 0 {
		included := make([]*Entry, 0, len(rows))
		for _, r := range rows {
			if r.Entry != nil {
				included = append(included, r.Entry)
			}
		}
		sr := Row{grid: g, included: included}
		cells := make([]string, len(ts.Summary))
		for i, c := range ts.Summary {
			cells[i] = c.Value(sr)
		}
		t.AddRow(cells...)
	}

	for _, note := range ts.Notes {
		t.Notes = append(t.Notes, note(rows))
	}
	return t, nil
}

func colNames(cols []Col) []string {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

// pointKey identifies a grid point by its resolved configuration — what
// evalCell computes — rather than by the variant naming it. Zero values
// resolve the way the evaluators resolve them (the default predictor,
// pipeline.Config.WithDefaults), so variants that spell one point
// differently, in one experiment or several, share it.
type pointKey struct {
	entry *Entry
	trace TraceKind
	pred  sim.Spec
	// timing selects the timing model, configured by pipe and bounded
	// by limit; otherwise the trace evaluator runs with eval.
	timing bool
	eval   core.EvalConfig
	pipe   pipeline.Config
	limit  uint64
}

func resolvePoint(e *Entry, v Variant, limit uint64) pointKey {
	k := pointKey{entry: e, trace: v.Trace, pred: v.Pred, timing: v.Pipeline}
	if k.pred.Kind == "" {
		k.pred = defSpec
	}
	if v.Pipeline {
		k.pipe = pipeline.Config{
			UseSFPF:    v.UseSFPF,
			FilterTrue: v.FilterTrue,
			PGU:        v.PGU,
			IssueWidth: v.IssueWidth,
			RASDepth:   v.RASDepth,
			NoRAS:      v.NoRAS,
		}.WithDefaults()
		k.limit = limit
	} else {
		k.eval = core.EvalConfig{
			UseSFPF:      v.UseSFPF,
			FilterTrue:   v.FilterTrue,
			ResolveDelay: v.ResolveDelay,
			PGU:          v.PGU,
			PGUDelay:     v.PGUDelay,
		}
	}
	return k
}

// memoCell is one memoized grid point, evaluated at most once.
type memoCell struct {
	once sync.Once
	c    Cell // Entry and Variant are filled in per request
	err  error
}

// cell returns variant v's cell on workload e. The point is evaluated on
// its first request and reused by every later one, from this experiment
// or any other on the suite; concurrent requests wait for the first.
func (s *Suite) cell(e *Entry, v Variant, limit uint64) (Cell, error) {
	k := resolvePoint(e, v, limit)
	s.mu.Lock()
	mc, ok := s.cells[k]
	if !ok {
		if s.cells == nil {
			s.cells = make(map[pointKey]*memoCell)
		}
		mc = new(memoCell)
		s.cells[k] = mc
	}
	s.mu.Unlock()
	mc.once.Do(func() { mc.c, mc.err = s.evalCell(k) })
	if mc.err != nil {
		return Cell{}, fmt.Errorf("variant %q on %s: %w", v.Key, e.Name, mc.err)
	}
	c := mc.c
	c.Entry, c.Variant = e, v
	return c, nil
}

// execKey identifies one recorded program execution: which program of
// which entry, under which step limit.
type execKey struct {
	entry *Entry
	trace TraceKind
	limit uint64
}

// memoExec is one memoized recording, made at most once, and the views
// derived from it, each made at most once on first request.
type memoExec struct {
	once sync.Once
	x    *record.Recording
	err  error

	traceOnce sync.Once
	tr        *trace.Trace
	trErr     error

	timingOnce sync.Once
	timing     *pipeline.Exec
}

// exec returns the recorded execution k names, recording it on first
// request. It is the harness's only emulator run: every trace, profile
// and timing cell of the program derives from this one recording, which
// is read-only and so shared, concurrently if need be.
func (s *Suite) exec(k execKey) (*memoExec, error) {
	s.mu.Lock()
	me, ok := s.execs[k]
	if !ok {
		if s.execs == nil {
			s.execs = make(map[execKey]*memoExec)
		}
		me = new(memoExec)
		s.execs[k] = me
	}
	s.mu.Unlock()
	me.once.Do(func() {
		prg, err := programFor(k.entry, k.trace)
		if err != nil {
			me.err = err
			return
		}
		if me.x, err = record.Program(prg, k.limit); err != nil {
			me.err = fmt.Errorf("harness: recording %s: %w", k.entry.label(k.trace), err)
		}
	})
	return me, me.err
}

// trace returns the trace derived from k's recording, memoized with it.
func (s *Suite) trace(k execKey) (*trace.Trace, error) {
	me, err := s.exec(k)
	if err != nil {
		return nil, err
	}
	me.traceOnce.Do(func() {
		if me.tr, err = trace.FromRecording(me.x); err != nil {
			me.trErr = fmt.Errorf("harness: tracing %s: %w", k.entry.label(k.trace), err)
		}
	})
	return me.tr, me.trErr
}

// timing returns k's recording prepared for timing replays, memoized
// with it.
func (s *Suite) timing(k execKey) (*pipeline.Exec, error) {
	me, err := s.exec(k)
	if err != nil {
		return nil, err
	}
	me.timingOnce.Do(func() { me.timing = pipeline.NewExec(me.x) })
	return me.timing, nil
}

// evalCell evaluates one resolved grid point: a fresh predictor from its
// spec, run over the selected artifact of the workload. Timing points
// replay the program's memoized recording; trace points evaluate the
// trace derived from it at the suite's step limit.
func (s *Suite) evalCell(k pointKey) (Cell, error) {
	p, err := k.pred.New()
	if err != nil {
		return Cell{}, err
	}

	if k.timing {
		x, err := s.timing(execKey{entry: k.entry, trace: k.trace, limit: k.limit})
		if err != nil {
			return Cell{}, err
		}
		pc := k.pipe
		pc.Predictor = p
		st, err := x.Run(pc)
		return Cell{P: st}, err
	}

	tr, err := s.trace(execKey{entry: k.entry, trace: k.trace, limit: k.entry.limit})
	if err != nil {
		return Cell{}, err
	}
	ec := k.eval
	ec.Predictor = p
	return Cell{M: core.Evaluate(tr, ec)}, nil
}

// programFor resolves a TraceKind to the entry's program, building the
// memoized conversions on first use. Each program is resolved (see
// prog.Resolve) by its one recording before any view shares it.
func programFor(e *Entry, k TraceKind) (*prog.Program, error) {
	switch k {
	case TraceConv:
		return e.converted()
	case TraceOrig:
		return e.Orig, nil
	case TraceProfiled:
		p, _, err := e.profiled()
		return p, err
	case TraceUnscheduled:
		return e.unscheduled()
	}
	return nil, fmt.Errorf("unknown trace kind %d", int(k))
}
