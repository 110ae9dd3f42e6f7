// Package repro is the public API of this reproduction of
// "Incorporating Predicate Information into Branch Predictors"
// (Simon, Calder, Ferrante — HPCA-9, 2003).
//
// It re-exports the full stack: the P64 predicated ISA and its assembler,
// the program builder, the functional emulator, the if-conversion
// (hyperblock) compiler pass, the branch predictor library, the paper's
// two mechanisms — the squash false path filter (SFPF) and the predicate
// global update (PGU) predictor — the trace-driven evaluator, the
// cycle-level pipeline model, the workload suite, and the experiment
// harness that regenerates every reconstructed table and figure.
//
// Quick start:
//
//	p := repro.MustWorkload("scan").Build()          // branching code
//	cp, rep, _ := repro.IfConvert(p, repro.IfConvConfig{})
//	tr, _ := repro.CollectTrace(cp, 0)
//	m := repro.Evaluate(tr, repro.EvalConfig{
//	        Predictor:    repro.NewGShare(12, 8),
//	        UseSFPF:      true,
//	        ResolveDelay: repro.DefaultResolveDelay,
//	        PGU:          repro.PGUAll,
//	        PGUDelay:     repro.DefaultPGUDelay,
//	})
//	fmt.Printf("misprediction rate %.2f%%\n", 100*m.MispredictRate())
package repro

import (
	"repro/internal/asm"
	"repro/internal/bpred"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/harness"
	"repro/internal/ifconv"
	"repro/internal/lang"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core program and ISA types.
type (
	// Program is a P64 program: instructions, labels, initial data.
	Program = prog.Program
	// Builder constructs programs, with structured If/IfElse/While helpers.
	Builder = prog.Builder
	// Cond is a compare condition for the structured builder helpers.
	Cond = prog.Cond
	// Machine is the P64 architectural emulator.
	Machine = emu.Machine
	// RunResult summarises a completed emulation.
	RunResult = emu.Result
)

// Compiler types.
type (
	// IfConvConfig controls hyperblock formation.
	IfConvConfig = ifconv.Config
	// IfConvReport describes what the if-converter did.
	IfConvReport = ifconv.Report
	// Profile is an execution profile for profile-guided if-conversion.
	Profile = profile.Profile
)

// Predictor and mechanism types.
type (
	// Predictor is a branch direction predictor.
	Predictor = bpred.Predictor
	// HistoryObserver is a predictor with an open global history (the PGU
	// insertion point).
	HistoryObserver = bpred.HistoryObserver
	// SFPF is the squash false path filter.
	SFPF = core.SFPF
	// PGUPolicy selects which predicate defines update the history.
	PGUPolicy = core.PGUPolicy
	// EvalConfig configures trace-driven evaluation.
	EvalConfig = core.EvalConfig
	// Evaluator is the incremental trace-driven evaluator: feed events
	// one at a time (Feed) or in batches (FeedBatch) and read metrics
	// between feeds.
	Evaluator = core.Evaluator
	// Metrics is the result of a trace-driven evaluation.
	Metrics = core.Metrics
	// Trace is an event stream captured from an emulated run.
	Trace = trace.Trace
	// TraceEvent is one branch or predicate-define event.
	TraceEvent = trace.Event
)

// Pipeline types.
type (
	// PipelineConfig parameterises the in-order timing model.
	PipelineConfig = pipeline.Config
	// PipelineStats is a timing run result.
	PipelineStats = pipeline.Stats
)

// Workload and harness types.
type (
	// Workload is a named deterministic benchmark.
	Workload = workload.Workload
	// Experiment regenerates one reconstructed paper table/figure.
	Experiment = harness.Experiment
	// ExperimentConfig controls experiment runs.
	ExperimentConfig = harness.Config
	// ExperimentResult pairs an experiment with its tables.
	ExperimentResult = harness.Result
	// Suite is the prepared workload set experiments share.
	Suite = harness.Suite
	// Table is a renderable result table (text, markdown, CSV).
	Table = stats.Table
)

// PGU insertion policies.
const (
	PGUOff          = core.PGUOff
	PGURegionGuards = core.PGURegionGuards
	PGUBranchGuards = core.PGUBranchGuards
	PGUAll          = core.PGUAll
)

// Default mechanism timing parameters.
const (
	DefaultResolveDelay = core.DefaultResolveDelay
	DefaultPGUDelay     = core.DefaultPGUDelay
)

// NewBuilder returns a program builder.
func NewBuilder(name string) *Builder { return prog.NewBuilder(name) }

// NewMachine builds an emulator for a program.
func NewMachine(p *Program) (*Machine, error) { return emu.New(p) }

// Run executes a program to completion on the functional emulator.
func Run(p *Program, limit uint64) (RunResult, error) { return emu.RunProgram(p, limit) }

// IfConvert applies hyperblock if-conversion to a program.
func IfConvert(p *Program, cfg IfConvConfig) (*Program, *IfConvReport, error) {
	return ifconv.Convert(p, cfg)
}

// CompilePCL compiles PCL source (a small C-like language; see
// internal/lang for the grammar) into a P64 program — the front half of
// the toolchain whose back half is IfConvert.
func CompilePCL(name, src string) (*Program, error) { return lang.Compile(name, src) }

// CollectProfile gathers an execution profile for profile-guided
// if-conversion (set it as IfConvConfig.Profile). A nil predictor
// defaults to gshare 12/8.
func CollectProfile(p *Program, pred Predictor, limit uint64) (*Profile, error) {
	return profile.Collect(p, pred, limit)
}

// CollectTrace runs a program and captures its branch/predicate-define
// event stream. A limit of 0 applies no step bound.
func CollectTrace(p *Program, limit uint64) (*Trace, error) {
	return trace.Collect(p, limit)
}

// Evaluate replays a trace through a predictor with the configured paper
// mechanisms.
func Evaluate(tr *Trace, cfg EvalConfig) Metrics { return core.Evaluate(tr, cfg) }

// NewEvaluator returns an incremental evaluator for streaming consumers
// (see Evaluator).
func NewEvaluator(cfg EvalConfig) *Evaluator { return core.NewEvaluator(cfg) }

// ParsePGUPolicy reads the textual PGU policy spelling ("off", "region",
// "branch", "all") shared by the CLIs and the serving API.
func ParsePGUPolicy(s string) (PGUPolicy, error) { return core.ParsePGUPolicy(s) }

// NewSFPF returns a squash false path filter in its reset state.
func NewSFPF() *SFPF { return core.NewSFPF() }

// RunPipeline executes a program on the in-order timing model.
func RunPipeline(p *Program, cfg PipelineConfig, limit uint64) (PipelineStats, error) {
	return pipeline.Run(p, cfg, limit)
}

// DefaultPipelineConfig returns the experiment machine model with the
// given predictor.
func DefaultPipelineConfig(pred Predictor) PipelineConfig {
	return pipeline.DefaultConfig(pred)
}

// Predictor constructors.
var (
	// NewStatic returns an always-taken or always-not-taken predictor.
	NewStatic = bpred.NewStatic
	// NewBimodal returns a pc-indexed 2-bit-counter predictor.
	NewBimodal = bpred.NewBimodal
	// NewGShare returns a global-history XOR predictor.
	NewGShare = bpred.NewGShare
	// NewGSelect returns a concatenated pc/history predictor.
	NewGSelect = bpred.NewGSelect
	// NewGAg returns a purely history-indexed predictor.
	NewGAg = bpred.NewGAg
	// NewLocal returns a PAg two-level local predictor.
	NewLocal = bpred.NewLocal
	// NewTournament returns a McFarling combining predictor.
	NewTournament = bpred.NewTournament
	// NewAgree returns a bias/agreement predictor (aliasing-tolerant).
	NewAgree = bpred.NewAgree
	// NewPerceptron returns a perceptron predictor (Jiménez & Lin 2001).
	NewPerceptron = bpred.NewPerceptron
)

// NewPredictor builds a predictor from a registry spec string such as
// "gshare", "gshare:14:10" or "perceptron:8:24". Omitted parameters take
// per-kind defaults; see PredictorUsage for the full syntax.
func NewPredictor(spec string) (Predictor, error) { return sim.NewPredictor(spec) }

// PredictorKinds lists the predictor kinds the registry knows, sorted.
func PredictorKinds() []string { return sim.Kinds() }

// PredictorUsage returns a one-line-per-kind summary of the predictor
// spec syntax accepted by NewPredictor.
func PredictorUsage() string { return sim.Usage() }

// Workloads returns the benchmark suite.
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks up one workload.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// MustWorkload is WorkloadByName but panics on unknown names.
func MustWorkload(name string) Workload { return workload.ByNameMust(name) }

// Synth generates a seeded random structured program (useful for fuzzing
// and property tests against the if-converter).
func Synth(seed uint64, statements int) *Program { return workload.Synth(seed, statements) }

// Assemble parses P64 assembly text.
func Assemble(name, src string) (*Program, error) { return asm.Parse(name, src) }

// Disassemble renders a program as parseable assembly text.
func Disassemble(p *Program) string { return asm.Format(p) }

// Experiments lists the reconstruction experiments (E1–E15).
func Experiments() []Experiment { return harness.All() }

// ExperimentByID looks one up (e.g. "E3").
func ExperimentByID(id string) (Experiment, error) { return harness.ByID(id) }

// NewSuite prepares the workload set shared by experiments.
func NewSuite(cfg ExperimentConfig) (*Suite, error) { return harness.NewSuite(cfg) }

// RunExperiments runs every experiment and returns their tables.
func RunExperiments(cfg ExperimentConfig) ([]ExperimentResult, error) {
	return harness.RunAll(cfg)
}
