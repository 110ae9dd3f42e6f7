// Command bpsweep sweeps branch predictor configurations over a workload's
// trace and prints a table of misprediction rates, with and without the
// paper's mechanisms. The grid runs on the engine's parallel sweep pool;
// rows print in grid order regardless of scheduling.
//
// Usage:
//
//	bpsweep -w bsearch -convert
//	bpsweep -w scan -convert -sizes 8,10,12 -hists 4,8,12
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/buildinfo"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bpsweep:", err)
		os.Exit(1)
	}
}

func parseInts(spec string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad list element %q", f)
		}
		if v < 1 || v > 28 {
			return nil, fmt.Errorf("size %d out of range [1,28]", v)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bpsweep", flag.ContinueOnError)
	wname := fs.String("w", "", "built-in workload name")
	convert := fs.Bool("convert", false, "if-convert before tracing")
	sizes := fs.String("sizes", "8,10,12,14", "gshare table bits to sweep")
	hists := fs.String("hists", "8", "history lengths to sweep")
	limit := fs.Uint64("limit", 10_000_000, "dynamic instruction limit")
	workers := fs.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 0, "abort the sweep after this duration (0 = none)")
	version := buildinfo.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("bpsweep"))
		return nil
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *wname == "" {
		return fmt.Errorf("need -w workload")
	}
	w, err := repro.WorkloadByName(*wname)
	if err != nil {
		return err
	}
	p := w.Build()
	if *convert {
		cp, _, err := repro.IfConvert(p, repro.IfConvConfig{})
		if err != nil {
			return err
		}
		p = cp
	}
	tr, err := repro.CollectTrace(p, *limit)
	if err != nil {
		return err
	}
	tb, err := parseInts(*sizes)
	if err != nil {
		return err
	}
	hb, err := parseInts(*hists)
	if err != nil {
		return err
	}

	var specs []sim.Spec
	for _, t := range tb {
		for _, h := range hb {
			specs = append(specs, sim.For("gshare", t, h))
		}
	}
	type row struct {
		name               string
		base, sf, pg, both repro.Metrics
	}
	// The trace is shared read-only: every evaluation reads its event
	// slice with a fresh predictor, so grid points are independent jobs.
	rows, err := sim.Map(ctx, specs, *workers, func(_ context.Context, sp sim.Spec) (row, error) {
		mk := func() repro.Predictor { return sp.MustNew() }
		return row{
			name: mk().Name(),
			base: repro.Evaluate(tr, repro.EvalConfig{Predictor: mk()}),
			sf: repro.Evaluate(tr, repro.EvalConfig{
				Predictor: mk(), UseSFPF: true, ResolveDelay: repro.DefaultResolveDelay,
			}),
			pg: repro.Evaluate(tr, repro.EvalConfig{
				Predictor: mk(), PGU: repro.PGUAll, PGUDelay: repro.DefaultPGUDelay,
			}),
			both: repro.Evaluate(tr, repro.EvalConfig{
				Predictor: mk(), UseSFPF: true, ResolveDelay: repro.DefaultResolveDelay,
				PGU: repro.PGUAll, PGUDelay: repro.DefaultPGUDelay,
			}),
		}, nil
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "workload %s: %d insts, %d cond branches (%d region-based), %d predicate defines\n\n",
		p.Name, tr.Insts, tr.Branches, tr.RegionBranches, tr.PredDefs)
	fmt.Fprintf(out, "%-16s %10s %10s %10s %10s %10s\n",
		"predictor", "base", "+sfpf", "+pgu", "+both", "coverage")
	for _, r := range rows {
		fmt.Fprintf(out, "%-16s %9.2f%% %9.2f%% %9.2f%% %9.2f%% %9.1f%%\n",
			r.name,
			100*r.base.MispredictRate(), 100*r.sf.MispredictRate(),
			100*r.pg.MispredictRate(), 100*r.both.MispredictRate(),
			100*r.both.FilterCoverage())
	}
	return nil
}
