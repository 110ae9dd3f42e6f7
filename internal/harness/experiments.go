// experiments.go — the 14 reconstructed tables/figures, declared as
// data for the generic engine in spec.go. Each experiment is data: a
// variant grid (predictor spec × trace × evaluator or timing-model
// options), the workloads it runs on, and the tables shaped from the
// grid's cells. Adding a predictor kind or a sweep point to an
// experiment means editing its grid, not a loop body; the golden CSV
// test pins every rendered byte.
package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	registerExperiment(e1())
	registerExperiment(e2())
	registerExperiment(e3())
	registerExperiment(e4())
	registerExperiment(e5())
	registerExperiment(e6())
	registerExperiment(e7())
	registerExperiment(e8())
	registerExperiment(e9())
	registerExperiment(e10())
	registerExperiment(e11())
	registerExperiment(e12())
	registerExperiment(e13())
	registerExperiment(e14())
}

// lit is a summary-row cell with a fixed value.
func lit(s string) Col {
	return Col{Value: func(Row) string { return s }}
}

// geoRateCol renders the geomean misprediction rate of one variant
// (sub-)key over the row's workloads.
func geoRateCol(name, sub string) Col {
	return Col{name, func(r Row) string {
		return stats.Pct(stats.Geomean(r.Over(sub, rate)))
	}}
}

// geoCyclesCol renders the geomean speedup of variant sub over variant
// "orig" (cycles ratio per workload, then geomean), in the given format.
func geoCyclesCol(name, sub, format string) Col {
	return Col{name, func(r Row) string {
		o, c := r.Cells("orig"), r.Cells(sub)
		sp := make([]float64, len(o))
		for i := range o {
			sp[i] = float64(o[i].P.Cycles) / float64(c[i].P.Cycles)
		}
		return fmt.Sprintf(format, stats.Geomean(sp))
	}}
}

// E1 — benchmark characterisation (paper Table 1 analogue). A pure
// trace-characterisation table: no variants, every column derives from
// the prepared workload itself.
func e1() Experiment {
	return Experiment{
		ID:    "E1",
		Title: "Benchmark characterisation under if-conversion",
		Paper: "Table 1: benchmark suite, dynamic branches, branches removed by predication, region-based branches",
		Expect: "if-conversion removes a large fraction of dynamic conditional branches; " +
			"a visible fraction of the remaining branches are region-based; " +
			"nullified instructions appear as the predication cost",
		Tables: []TableSpec{{
			Title: "E1: workload characterisation (orig -> if-converted)",
			Shape: RowsPerEntry,
			Cols: []Col{
				workloadCol(),
				{"static insts", func(r Row) string {
					return fmt.Sprintf("%d -> %d", len(r.Entry.Orig.Insts), len(r.Entry.Conv.Insts))
				}},
				{"dyn insts", func(r Row) string {
					return fmt.Sprintf("%d -> %d", r.Entry.OrigTrace.Insts, r.Entry.ConvTrace.Insts)
				}},
				{"dyn cond branches", func(r Row) string {
					return fmt.Sprintf("%d -> %d", r.Entry.OrigTrace.Branches, r.Entry.ConvTrace.Branches)
				}},
				{"branches removed", func(r Row) string {
					ot, ct := r.Entry.OrigTrace, r.Entry.ConvTrace
					return stats.Pct(1 - float64(ct.Branches)/float64(ot.Branches))
				}},
				{"region br (dyn)", func(r Row) string {
					ct := r.Entry.ConvTrace
					regionPct := 0.0
					if ct.Branches > 0 {
						regionPct = float64(ct.RegionBranches) / float64(ct.Branches)
					}
					return stats.Pct(regionPct)
				}},
				{"nullified", func(r Row) string {
					ct := r.Entry.ConvTrace
					return stats.Pct(float64(ct.Nullified) / float64(ct.Insts))
				}},
			},
			Notes: []func([]Row) string{func(rows []Row) string {
				var remTotal, brTotal float64
				for _, r := range rows {
					ot, ct := r.Entry.OrigTrace, r.Entry.ConvTrace
					remTotal += float64(ot.Branches) - float64(ct.Branches)
					brTotal += float64(ot.Branches)
				}
				return fmt.Sprintf("suite-wide, %s of dynamic conditional branches are removed by if-conversion",
					stats.Pct(remTotal/brTotal))
			}},
		}},
	}
}

// e2Preds is the E2b predictor sweep; quick runs keep only the default
// gshare (the paper's main configuration).
var e2Preds = []sim.Spec{
	sim.For("bimodal", defTableBits),
	defSpec,
	sim.For("local", 8, 10, defTableBits),
	sim.For("tournament", defTableBits, defHistBits),
	sim.For("agree", defTableBits, defHistBits),
}

// E2 — the effect of predication on the remaining branches.
func e2() Experiment {
	variants := []Variant{
		{Key: "orig", Trace: TraceOrig},
		{Key: "conv"},
		// E2c: the paper's profile-guided compiler. Full runs only.
		{Key: "prof", Trace: TraceProfiled, FullOnly: true},
	}
	var groups []string
	for _, sp := range e2Preds {
		name := sp.MustNew().Name()
		groups = append(groups, name)
		full := sp != defSpec
		variants = append(variants,
			Variant{Key: name + "/orig", Trace: TraceOrig, Pred: sp, FullOnly: full},
			Variant{Key: name + "/conv", Pred: sp, FullOnly: full})
	}
	skipUnconverted := func(r Row) bool {
		// Nothing converted: no remaining-branch story to tell.
		_, rep, _, err := r.Entry.Profiled()
		return err == nil && len(rep.Regions) == 0
	}
	return Experiment{
		ID:    "E2",
		Title: "Misprediction rate of remaining branches: original vs if-converted code",
		Paper: "figure: predication's effect on the predictability of remaining branches, across predictor types",
		Expect: "the misprediction *rate* of the remaining branches rises after if-conversion " +
			"(easy branches were removed and correlation bits vanished from the history), " +
			"even though the total misprediction count drops",
		Variants: variants,
		Tables: []TableSpec{
			{
				Title: "E2a: per-workload misprediction rate with gshare (orig -> converted)",
				Shape: RowsPerEntry,
				Cols: []Col{
					workloadCol(),
					{"rate orig", func(r Row) string { return stats.Pct(r.Cell("orig").M.MispredictRate()) }},
					{"rate conv", func(r Row) string { return stats.Pct(r.Cell("conv").M.MispredictRate()) }},
					{"misses orig", func(r Row) string { return stats.N(r.Cell("orig").M.Mispredicts) }},
					{"misses conv", func(r Row) string { return stats.N(r.Cell("conv").M.Mispredicts) }},
				},
			},
			{
				Title:  "E2b: geomean misprediction rate across the suite, per predictor",
				Shape:  RowsPerGroup,
				Groups: groups,
				Cols: []Col{
					groupCol("predictor"),
					geoRateCol("rate orig", "orig"),
					geoRateCol("rate conv", "conv"),
					{"delta", func(r Row) string {
						go_ := stats.Geomean(r.Over("orig", rate))
						gc := stats.Geomean(r.Over("conv", rate))
						return stats.Ratio(gc, go_)
					}},
				},
			},
			{
				Title:    "E2c: remaining-branch rate under profile-guided conversion (gshare 12/8)",
				Shape:    RowsPerEntry,
				FullOnly: true,
				Skip:     skipUnconverted,
				Cols: []Col{
					workloadCol(),
					{"rate orig", func(r Row) string { return stats.Pct(r.Cell("orig").M.MispredictRate()) }},
					{"rate conv", func(r Row) string { return stats.Pct(r.Cell("prof").M.MispredictRate()) }},
					{"delta", func(r Row) string {
						return stats.Ratio(r.Cell("prof").M.MispredictRate(), r.Cell("orig").M.MispredictRate())
					}},
				},
				Summary: []Col{
					lit("geomean"),
					geoRateCol("", "orig"),
					geoRateCol("", "prof"),
					{Value: func(r Row) string {
						return stats.Ratio(stats.Geomean(r.Over("prof", rate)), stats.Geomean(r.Over("orig", rate)))
					}},
				},
			},
		},
	}
}

// E3 — the squash false path filter.
func e3() Experiment {
	variants := []Variant{
		{Key: "base"},
		{Key: "sfpf", UseSFPF: true, ResolveDelay: defResolve},
	}
	var groups []string
	for _, bits := range []int{4, 6, 8, 10, 12, 14} {
		label := stats.N(bits)
		groups = append(groups, label)
		full := bits != 6 && bits != 12
		pred := sim.For("gshare", bits, defHistBits)
		variants = append(variants,
			Variant{Key: label + "/base", Pred: pred, FullOnly: full},
			Variant{Key: label + "/sfpf", Pred: pred, UseSFPF: true, ResolveDelay: defResolve, FullOnly: full})
	}
	return Experiment{
		ID:    "E3",
		Title: "Squash false path filter on predicated code",
		Paper: "figure: fraction of branches filtered and misprediction rate with/without the SFPF, across predictor sizes",
		Expect: "the filter covers a visible fraction of region-based branches with zero errors; " +
			"misprediction rate drops, more at small table sizes where pollution hurts most",
		Variants: variants,
		Tables: []TableSpec{
			{
				Title: "E3a: per-workload SFPF effect (gshare 12-bit, resolve delay 6)",
				Shape: RowsPerEntry,
				Cols: []Col{
					workloadCol(),
					{"cond branches", func(r Row) string { return stats.N(r.Cell("sfpf").M.Branches) }},
					{"region br", func(r Row) string { return stats.N(r.Cell("sfpf").M.RegionBranches) }},
					{"filtered", func(r Row) string { return stats.N(r.Cell("sfpf").M.Filtered) }},
					{"coverage", func(r Row) string { return stats.Pct(r.Cell("sfpf").M.FilterCoverage()) }},
					{"rate base", func(r Row) string { return stats.Pct(r.Cell("base").M.MispredictRate()) }},
					{"rate sfpf", func(r Row) string { return stats.Pct(r.Cell("sfpf").M.MispredictRate()) }},
					{"filter errors", func(r Row) string { return stats.N(r.Cell("sfpf").M.FilterErrors) }},
				},
				Notes: []func([]Row) string{func(rows []Row) string {
					var errs uint64
					for _, r := range rows {
						errs += r.Cell("sfpf").M.FilterErrors
					}
					return fmt.Sprintf("total filter errors across the suite: %d (must be 0 — the 100%% accuracy claim)", errs)
				}},
			},
			{
				Title:  "E3b: geomean misprediction rate vs gshare size, with and without SFPF",
				Shape:  RowsPerGroup,
				Groups: groups,
				Cols: []Col{
					groupCol("table bits"),
					geoRateCol("rate base", "base"),
					geoRateCol("rate sfpf", "sfpf"),
					{"improvement", func(r Row) string {
						return stats.Ratio(stats.Geomean(r.Over("base", rate)), stats.Geomean(r.Over("sfpf", rate)))
					}},
				},
			},
		},
	}
}

// E4 — the predicate global update predictor.
func e4() Experiment {
	variants := []Variant{
		{Key: "base"},
		{Key: "pgu", PGU: core.PGUAll, PGUDelay: defPGUDelay},
	}
	var groups []string
	for _, h := range []int{2, 4, 6, 8, 10, 12} {
		label := stats.N(h)
		groups = append(groups, label)
		full := h != 4 && h != 8
		pred := sim.For("gshare", defTableBits, h)
		variants = append(variants,
			Variant{Key: label + "/base", Pred: pred, FullOnly: full},
			Variant{Key: label + "/pgu", Pred: pred, PGU: core.PGUAll, PGUDelay: defPGUDelay, FullOnly: full})
	}
	return Experiment{
		ID:    "E4",
		Title: "Predicate global update (PGU) vs plain global history",
		Paper: "figure: misprediction rate of gshare vs PGU-gshare across history lengths",
		Expect: "inserting predicate-define outcomes into the history recovers the correlation " +
			"if-conversion removed; the gap is largest on correlation-heavy workloads (corr, fsm) " +
			"and neutral on uncorrelated ones",
		Variants: variants,
		Tables: []TableSpec{
			{
				Title: "E4a: per-workload misprediction rate (gshare 12/8)",
				Shape: RowsPerEntry,
				Cols: []Col{
					workloadCol(),
					{"rate base", func(r Row) string { return stats.Pct(r.Cell("base").M.MispredictRate()) }},
					{"rate pgu-all", func(r Row) string { return stats.Pct(r.Cell("pgu").M.MispredictRate()) }},
					{"inserted bits", func(r Row) string { return stats.N(r.Cell("pgu").M.InsertedBits) }},
					{"improvement", func(r Row) string {
						return stats.Ratio(r.Cell("base").M.MispredictRate(), r.Cell("pgu").M.MispredictRate())
					}},
				},
			},
			{
				Title:  "E4b: geomean misprediction rate vs history length (12-bit table)",
				Shape:  RowsPerGroup,
				Groups: groups,
				Cols: []Col{
					groupCol("history bits"),
					geoRateCol("rate base", "base"),
					geoRateCol("rate pgu-all", "pgu"),
					{"improvement", func(r Row) string {
						return stats.Ratio(stats.Geomean(r.Over("base", rate)), stats.Geomean(r.Over("pgu", rate)))
					}},
				},
			},
		},
	}
}

// E5 — both mechanisms combined.
func e5() Experiment {
	rateCol := func(name, sub string) Col {
		return Col{name, func(r Row) string { return stats.Pct(r.Cell(sub).M.MispredictRate()) }}
	}
	return Experiment{
		ID:    "E5",
		Title: "SFPF and PGU combined",
		Paper: "figure: misprediction rate for baseline, +SFPF, +PGU, +both",
		Expect: "the mechanisms are complementary (one removes false-path branches, the other " +
			"restores correlation); combined is at least as good as the better individual one on most workloads",
		Variants: []Variant{
			{Key: "base"},
			{Key: "sfpf", UseSFPF: true, ResolveDelay: defResolve},
			{Key: "pgu", PGU: core.PGUAll, PGUDelay: defPGUDelay},
			{Key: "both", UseSFPF: true, ResolveDelay: defResolve, PGU: core.PGUAll, PGUDelay: defPGUDelay},
		},
		Tables: []TableSpec{{
			Title: "E5: misprediction rate on predicated code (gshare 12/8)",
			Shape: RowsPerEntry,
			Cols: []Col{
				workloadCol(),
				rateCol("base", "base"),
				rateCol("+sfpf", "sfpf"),
				rateCol("+pgu", "pgu"),
				rateCol("+both", "both"),
				{"MPKI base", func(r Row) string { return stats.F2(r.Cell("base").M.MPKI()) }},
				{"MPKI both", func(r Row) string { return stats.F2(r.Cell("both").M.MPKI()) }},
			},
			Summary: []Col{
				lit("geomean"),
				geoRateCol("", "base"),
				geoRateCol("", "sfpf"),
				geoRateCol("", "pgu"),
				geoRateCol("", "both"),
			},
		}},
	}
}

// E6 — end-to-end performance on the timing model.
func e6() Experiment {
	speedupCol := func(name, sub string) Col {
		return Col{name, func(r Row) string {
			return stats.Ratio(float64(r.Cell("orig").P.Cycles), float64(r.Cell(sub).P.Cycles))
		}}
	}
	return Experiment{
		ID:    "E6",
		Title: "Pipeline performance: branching vs predicated vs predicated+mechanisms",
		Paper: "figure: speedup of predicated code with the proposed predictors over branching code",
		Expect: "predication wins on hard-to-predict workloads and costs a little on predictable ones; " +
			"SFPF and PGU recover most of the predictor-induced losses and extend the wins",
		Variants: []Variant{
			{Key: "orig", Trace: TraceOrig, Pipeline: true},
			{Key: "conv", Pipeline: true},
			{Key: "sfpf", Pipeline: true, UseSFPF: true},
			{Key: "pgu", Pipeline: true, PGU: core.PGUAll},
			{Key: "both", Pipeline: true, UseSFPF: true, PGU: core.PGUAll},
		},
		Tables: []TableSpec{{
			Title: "E6: cycles and speedup over branching code (gshare 12/8, 10-cycle penalty)",
			Shape: RowsPerEntry,
			Cols: []Col{
				workloadCol(),
				{"cycles orig", func(r Row) string { return stats.N(r.Cell("orig").P.Cycles) }},
				{"IPC orig", func(r Row) string { return stats.F2(r.Cell("orig").P.IPC()) }},
				speedupCol("speedup conv", "conv"),
				speedupCol("conv+sfpf", "sfpf"),
				speedupCol("conv+pgu", "pgu"),
				speedupCol("conv+both", "both"),
			},
			Summary: []Col{
				lit("geomean"),
				lit(""),
				lit(""),
				geoCyclesCol("", "conv", "%.2fx"),
				geoCyclesCol("", "sfpf", "%.2fx"),
				geoCyclesCol("", "pgu", "%.2fx"),
				geoCyclesCol("", "both", "%.2fx"),
			},
		}},
	}
}

// E7 — sensitivity to the predicate resolve delay.
func e7() Experiment {
	var variants []Variant
	var groups []string
	for _, d := range []uint64{0, 2, 4, 6, 8, 12, 16, 24} {
		label := stats.N(d)
		groups = append(groups, label)
		variants = append(variants, Variant{
			Key: label, UseSFPF: true, ResolveDelay: d,
			FullOnly: d != 0 && d != 6 && d != 16,
		})
	}
	return Experiment{
		ID:    "E7",
		Title: "SFPF coverage vs predicate resolve delay",
		Paper: "sensitivity analysis: how deep pipelines (late predicate resolution) erode the filter",
		Expect: "filter coverage falls monotonically as the resolve delay grows; misprediction rate " +
			"degrades back toward the unfiltered baseline",
		Variants: variants,
		Tables: []TableSpec{{
			Title:  "E7: geomean SFPF coverage and misprediction rate vs resolve delay (gshare 12/8)",
			Shape:  RowsPerGroup,
			Groups: groups,
			Cols: []Col{
				groupCol("resolve delay"),
				{"coverage", func(r Row) string {
					return stats.Pct(stats.Mean(r.Over("", func(c Cell) float64 { return c.M.FilterCoverage() })))
				}},
				{"rate", func(r Row) string { return stats.Pct(stats.Geomean(r.Over("", rate))) }},
			},
		}},
	}
}

// E8 — PGU insertion-policy ablation.
func e8() Experiment {
	var variants []Variant
	var groups []string
	for _, pol := range []core.PGUPolicy{core.PGUOff, core.PGURegionGuards, core.PGUBranchGuards, core.PGUAll} {
		label := pol.String()
		groups = append(groups, label)
		variants = append(variants, Variant{Key: label, PGU: pol, PGUDelay: defPGUDelay})
	}
	return Experiment{
		ID:    "E8",
		Title: "PGU insertion policy ablation",
		Paper: "design-space discussion: which predicate defines should update the history",
		Expect: "more insertion gives more correlation but consumes history capacity; " +
			"region/branch-guard policies spend fewer bits for most of the benefit",
		Variants: variants,
		Tables: []TableSpec{{
			Title:  "E8: geomean misprediction rate per insertion policy (gshare 12/8)",
			Shape:  RowsPerGroup,
			Groups: groups,
			Cols: []Col{
				groupCol("policy"),
				{"rate", func(r Row) string { return stats.Pct(stats.Geomean(r.Over("", rate))) }},
				{"inserted bits (suite)", func(r Row) string {
					var bits uint64
					for _, c := range r.Cells("") {
						bits += c.M.InsertedBits
					}
					return stats.N(bits)
				}},
			},
		}},
	}
}

// E9 — filtering known-true guards as well (extension).
func e9() Experiment {
	return Experiment{
		ID:    "E9",
		Title: "Filtering known-true guards (extension beyond the paper)",
		Paper: "the abstract claims only the known-false case; this quantifies the symmetric case",
		Expect: "guard-implies-taken branches with resolved true guards are also 100% predictable; " +
			"coverage roughly doubles on predicated code with near-50% path predicates",
		Variants: []Variant{
			{Key: "false-only", UseSFPF: true, ResolveDelay: defResolve},
			{Key: "both", UseSFPF: true, FilterTrue: true, ResolveDelay: defResolve},
		},
		Tables: []TableSpec{{
			Title: "E9: SFPF false-only vs both directions (gshare 12/8, resolve delay 6)",
			Shape: RowsPerEntry,
			Cols: []Col{
				workloadCol(),
				{"coverage false-only", func(r Row) string { return stats.Pct(r.Cell("false-only").M.FilterCoverage()) }},
				{"coverage both", func(r Row) string { return stats.Pct(r.Cell("both").M.FilterCoverage()) }},
				{"rate false-only", func(r Row) string { return stats.Pct(r.Cell("false-only").M.MispredictRate()) }},
				{"rate both", func(r Row) string { return stats.Pct(r.Cell("both").M.MispredictRate()) }},
				{"errors", func(r Row) string { return stats.N(r.Cell("both").M.FilterErrors) }},
			},
			Notes: []func([]Row) string{func(rows []Row) string {
				var errs uint64
				for _, r := range rows {
					errs += r.Cell("both").M.FilterErrors
				}
				return fmt.Sprintf("total filter errors: %d (must be 0)", errs)
			}},
		}},
	}
}

// E10 — compare scheduling ablation.
func e10() Experiment {
	return Experiment{
		ID:    "E10",
		Title: "Compare scheduling ablation (what feeds the filter)",
		Paper: "methodology dependency: the paper's compiler schedules compares early; this quantifies how much the SFPF relies on that",
		Expect: "without compare scheduling, guard defines sit next to their branches, guards rarely " +
			"resolve before fetch, and filter coverage collapses",
		Variants: []Variant{
			{Key: "sched", UseSFPF: true, ResolveDelay: defResolve},
			{Key: "unsched", Trace: TraceUnscheduled, UseSFPF: true, ResolveDelay: defResolve},
		},
		Tables: []TableSpec{{
			Title: "E10: SFPF coverage with and without compare scheduling (gshare 12/8, resolve delay 6)",
			Shape: RowsPerEntry,
			Cols: []Col{
				workloadCol(),
				{"coverage scheduled", func(r Row) string { return stats.Pct(r.Cell("sched").M.FilterCoverage()) }},
				{"coverage unscheduled", func(r Row) string { return stats.Pct(r.Cell("unsched").M.FilterCoverage()) }},
			},
		}},
	}
}

// E11 — profile-guided hyperblock selection.
func e11() Experiment {
	return Experiment{
		ID:    "E11",
		Title: "Profile-guided vs greedy if-conversion",
		Paper: "methodology: the paper's IMPACT binaries used profile-driven hyperblock selection; this reproduces that selection and its effect",
		Expect: "profile-guided selection skips regions whose nullification cost exceeds their " +
			"misprediction savings, eliminating the pathological predication losses greedy " +
			"conversion shows, at the price of converting less",
		Variants: []Variant{
			{Key: "orig", Trace: TraceOrig, Pipeline: true},
			{Key: "greedy", Pipeline: true},
			{Key: "prof", Trace: TraceProfiled, Pipeline: true},
		},
		Tables: []TableSpec{{
			Title: "E11: speedup over branching code, greedy vs profile-guided conversion (gshare 12/8)",
			Shape: RowsPerEntry,
			Cols: []Col{
				workloadCol(),
				{"greedy regions", func(r Row) string { return stats.N(len(r.Entry.Report.Regions)) }},
				{"profiled regions", func(r Row) string {
					_, rep, _, _ := r.Entry.Profiled() // already materialized by the prof cells
					return stats.N(len(rep.Regions))
				}},
				{"speedup greedy", func(r Row) string {
					return stats.Ratio(float64(r.Cell("orig").P.Cycles), float64(r.Cell("greedy").P.Cycles))
				}},
				{"speedup profiled", func(r Row) string {
					return stats.Ratio(float64(r.Cell("orig").P.Cycles), float64(r.Cell("prof").P.Cycles))
				}},
			},
			Summary: []Col{
				lit("geomean"),
				lit(""),
				lit(""),
				geoCyclesCol("", "greedy", "%.2fx"),
				geoCyclesCol("", "prof", "%.2fx"),
			},
		}},
	}
}

// E12 — issue-width sensitivity.
func e12() Experiment {
	var variants []Variant
	var groups []string
	for _, w := range []int{1, 2, 4, 8} {
		label := stats.N(w)
		groups = append(groups, label)
		full := w != 1 && w != 4
		variants = append(variants,
			Variant{Key: label + "/orig", Trace: TraceOrig, Pipeline: true, IssueWidth: w, FullOnly: full},
			Variant{Key: label + "/conv", Pipeline: true, IssueWidth: w, FullOnly: full},
			Variant{Key: label + "/both", Pipeline: true, IssueWidth: w, UseSFPF: true, PGU: core.PGUAll, FullOnly: full})
	}
	return Experiment{
		ID:    "E12",
		Title: "Predication trade-off vs issue width",
		Paper: "context: the paper targets wide EPIC machines; width amortises nullified slots while misprediction penalties stay flat",
		Expect: "the geomean speedup of predicated code (and of predicated+mechanisms) over branching " +
			"code grows with issue width",
		Variants: variants,
		Tables: []TableSpec{{
			Title:  "E12: geomean speedup over branching code vs issue width (gshare 12/8)",
			Shape:  RowsPerGroup,
			Groups: groups,
			Cols: []Col{
				groupCol("issue width"),
				{"IPC orig (geomean)", func(r Row) string {
					return stats.F2(stats.Geomean(r.Over("orig", func(c Cell) float64 { return c.P.IPC() })))
				}},
				geoCyclesCol("speedup conv", "conv", "%.3fx"),
				geoCyclesCol("speedup conv+both", "both", "%.3fx"),
			},
		}},
	}
}

// E13 — PGU across predictor architectures.
func e13() Experiment {
	var variants []Variant
	var groups []string
	for _, sp := range []sim.Spec{
		sim.For("gshare", 12, 8),
		sim.For("agree", 12, 8),
		sim.For("perceptron", 8, 24),
	} {
		name := sp.MustNew().Name()
		groups = append(groups, name)
		variants = append(variants,
			Variant{Key: name + "/base", Pred: sp},
			Variant{Key: name + "/pgu", Pred: sp, PGU: core.PGUAll, PGUDelay: defPGUDelay})
	}
	return Experiment{
		ID:    "E13",
		Title: "PGU across predictor architectures (counters vs agree vs perceptron)",
		Paper: "extension: the paper used counter-based global predictors; this asks whether the mechanism generalises",
		Expect: "every global-history architecture benefits on correlated workloads, and none regresses " +
			"materially on the rest: the mechanism is predictor-agnostic, needing only an open history",
		Variants: variants,
		Tables: []TableSpec{{
			Title:  "E13: geomean misprediction rate on predicated code, base vs PGU-all",
			Shape:  RowsPerGroup,
			Groups: groups,
			Cols: []Col{
				groupCol("predictor"),
				geoRateCol("rate base", "base"),
				geoRateCol("rate pgu-all", "pgu"),
				{"improvement", func(r Row) string {
					return stats.Ratio(stats.Geomean(r.Over("base", rate)), stats.Geomean(r.Over("pgu", rate)))
				}},
				{"worst per-workload ratio", func(r Row) string {
					base, pgu := r.Cells("base"), r.Cells("pgu")
					worst := 0.0
					for i := range base {
						// ratio > 1 means PGU hurt this workload; tiny
						// baselines are excluded as noise.
						if base[i].M.Mispredicts >= 50 {
							if ratio := float64(pgu[i].M.Mispredicts) / float64(base[i].M.Mispredicts); ratio > worst {
								worst = ratio
							}
						}
					}
					return stats.F2(worst)
				}},
			},
			Notes: []func([]Row) string{
				staticNote("worst per-workload ratio: pgu/base misprediction counts; > 1 means insertion hurt that workload"),
			},
		}},
	}
}

// E14 — return-address stack depth on the recursive workload.
func e14() Experiment {
	variants := []Variant{{Key: "0 (off)", Trace: TraceOrig, Pipeline: true, NoRAS: true}}
	groups := []string{"0 (off)"}
	for _, d := range []int{1, 2, 4, 8, 16} {
		label := stats.N(d)
		groups = append(groups, label)
		variants = append(variants, Variant{
			Key: label, Trace: TraceOrig, Pipeline: true, RASDepth: d,
			FullOnly: d != 2 && d != 8,
		})
	}
	return Experiment{
		ID:    "E14",
		Title: "Return-address stack depth on recursive code",
		Paper: "front-end context: the paper assumes targets are handled; this quantifies the indirect-branch side on the one recursive workload",
		Expect: "misses fall monotonically with stack depth and reach zero once the depth covers the " +
			"recursion; cycles follow",
		Workloads: []string{"queens"},
		Variants:  variants,
		Tables: []TableSpec{{
			Title:  "E14: RAS depth vs return mispredictions on queens (gshare 12/8)",
			Shape:  RowsPerGroup,
			Groups: groups,
			Cols: []Col{
				groupCol("ras depth"),
				{"indirect branches", func(r Row) string { return stats.N(r.Cell("").P.IndirectBranches) }},
				{"misses", func(r Row) string { return stats.N(r.Cell("").P.RASMisses) }},
				{"cycles", func(r Row) string { return stats.N(r.Cell("").P.Cycles) }},
				{"IPC", func(r Row) string { return stats.F2(r.Cell("").P.IPC()) }},
			},
		}},
	}
}
