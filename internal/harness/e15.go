// e15.go — E15: predictor accuracy across the synthetic
// characterization grid. The charz generator (internal/charz) dials
// per-branch predictability metrics — bias, periodicity, history
// correlation depth, cross-branch correlation, noise — and this
// experiment sweeps every registry predictor kind at its default size
// over that grid, putting the measured characterization (taken rate,
// entropy, conditioned entropies, separability) side by side with each
// predictor's misprediction rate. The grid workloads live outside the
// fixed suite (the golden CSVs of E1–E14 pin its membership); the
// harness materializes them by name on demand.
package harness

import (
	"fmt"

	"repro/internal/charz"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	registerExperiment(e15())
}

// e15Reports holds E15's characterization of each grid point by name. A
// catalog point's trace is a function of its name alone (a step limit
// can fail the run, never change it), so the reports are shared by every
// suite in the process.
var e15Reports memo[string, *charz.Report]

// e15 sweeps kind × synthetic-point with every kind at registry
// defaults, on the original (branching) programs.
func e15() Experiment {
	kinds := sim.Kinds()
	variants := make([]Variant, len(kinds))
	for i, k := range kinds {
		variants[i] = Variant{Key: k, Trace: TraceOrig, Pred: sim.Spec{Kind: k}}
	}

	// One characterization pass per grid point, computed on the sweep
	// pool by Prepare and shared by the metric columns.
	characterize := func(e *Entry) (*charz.Report, error) {
		return e15Reports.get(e.Name, func() (*charz.Report, error) {
			rp, err := charz.Characterize(e.OrigTrace, charz.Options{})
			if err != nil {
				return nil, fmt.Errorf("harness: E15: characterizing %s: %w", e.Name, err)
			}
			return rp, nil
		})
	}
	prepare := func(e *Entry) error {
		_, err := characterize(e)
		return err
	}
	rep := func(r Row) *charz.Report {
		rp, _ := characterize(r.Entry) // a failure already failed the run in Prepare
		return rp
	}

	cols := []Col{
		workloadCol(),
		{"taken", func(r Row) string { return stats.Pct(rep(r).TakenRate) }},
		{"H(Y)", func(r Row) string { return stats.F3(rep(r).Entropy) }},
		{"H(Y|h8)", func(r Row) string { return stats.F3(rep(r).CondAt(8)) }},
		{"H(Y|g8)", func(r Row) string { return stats.F3(rep(r).GlobalCondEntropy) }},
		{"sep", func(r Row) string { return stats.F3(rep(r).Separability) }},
	}
	summary := []Col{lit("geomean"), lit(""), lit(""), lit(""), lit(""), lit("")}
	for _, k := range kinds {
		k := k
		cols = append(cols, Col{k, func(r Row) string { return stats.Pct(rate(r.Cell(k))) }})
		summary = append(summary, geoRateCol("", k))
	}

	return Experiment{
		ID:    "E15",
		Title: "Predictor accuracy across the synthetic characterization grid",
		Paper: "extension: the workload-characterization literature (PAPERS.md) parameterizes branch predictability; " +
			"this sweeps every predictor kind over a generated grid of characterization-space points",
		Expect: "each family is won by the structure that matches it: bias needs only counters, periodic and " +
			"lag-k need history depth covering the period or lag, xcorr needs global history; rates track " +
			"the conditioned-entropy columns",
		Workloads: charz.CatalogNames(),
		Variants:  variants,
		Prepare:   prepare,
		Tables: []TableSpec{{
			Title:   "E15: misprediction rate by predictor kind (registry defaults) across synthetic points",
			Shape:   RowsPerEntry,
			Cols:    cols,
			Summary: summary,
			Notes: []func([]Row) string{
				staticNote("characterization metrics are measured on the original trace; H(Y|h8)/H(Y|g8) are outcome entropy conditioned on 8 bits of local/global history"),
			},
		}},
	}
}
