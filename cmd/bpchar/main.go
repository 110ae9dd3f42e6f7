// Command bpchar is the workload-characterization toolbox built on
// internal/charz: it measures per-branch predictability metrics for any
// workload or serialized trace, generates parameterized synthetic
// traces at a chosen (or solved) point in characterization space, and
// probes predictor implementations black-box to verify their claimed
// parameters.
//
// Usage:
//
//	bpchar characterize [-w name | -trace file] [-limit N] [-gdepth D] [-branches]
//	bpchar generate     [-point syn:... | -rate R -cond H -depth D] [-n N] [-seed S] [-o file]
//	bpchar generate     -list
//	bpchar probe        [-spec kind:params | -all]
//
// characterize accepts any registered workload name, a synthetic point
// name (syn:...), or a serialized trace file, and prints aggregate and
// per-branch entropy/separability metrics. generate resolves a point —
// given literally via -point or solved from a (-rate, -cond, -depth)
// target — and reports its canonical name, optionally writing the
// collected trace to -o. probe infers a predictor's structure (history
// depth, table size, hysteresis) through the public Predict and
// PredictUpdate interface only and checks it against the spec; -all
// verifies every registry kind and exits nonzero on any mismatch, which
// is the CI gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/buildinfo"
	"repro/internal/charz"
	"repro/internal/charz/probe"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// errGate marks a verification failure: reported, then exit 1.
type errGate struct{ msg string }

func (e errGate) Error() string { return e.msg }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bpchar:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: bpchar <characterize|generate|probe> [flags]; see -h")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "characterize":
		return runCharacterize(rest, out)
	case "generate":
		return runGenerate(rest, out)
	case "probe":
		return runProbe(rest, out)
	case "-version", "--version":
		fmt.Fprintln(out, buildinfo.String("bpchar"))
		return nil
	default:
		return fmt.Errorf("unknown command %q (want characterize, generate, or probe)", cmd)
	}
}

// parseDepths turns "1,2,4,8" into a depth slice; empty means defaults.
func parseDepths(expr string) ([]int, error) {
	if expr == "" {
		return nil, nil
	}
	var ds []int
	for _, f := range strings.Split(expr, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad depth %q in -depths", f)
		}
		ds = append(ds, d)
	}
	return ds, nil
}

func runCharacterize(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bpchar characterize", flag.ContinueOnError)
	wname := fs.String("w", "", "workload name (registry or syn:... point)")
	tracePath := fs.String("trace", "", "serialized trace file instead of a workload")
	limit := fs.Uint64("limit", 3_000_000, "emulator step limit")
	depthsExpr := fs.String("depths", "", "local-history depths, comma-separated (default 1,2,4,8)")
	gdepth := fs.Int("gdepth", 0, "global-history depth (0 = default, negative disables)")
	branches := fs.Bool("branches", false, "print the per-branch table too")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*wname == "") == (*tracePath == "") {
		return fmt.Errorf("exactly one of -w or -trace is required")
	}
	depths, err := parseDepths(*depthsExpr)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if tr, err = trace.ReadTrace(f); err != nil {
			return err
		}
	} else {
		w, err := workload.ByName(*wname)
		if err != nil {
			return err
		}
		if tr, err = trace.Collect(w.Build(), *limit); err != nil {
			return err
		}
		// The report names the workload as the user spelled it, not by
		// its canonical program name.
		tr.Name = *wname
	}
	rep, err := charz.Characterize(tr, charz.Options{Depths: depths, GlobalDepth: *gdepth})
	if err != nil {
		return err
	}
	printReport(out, rep, *branches)
	return nil
}

func printReport(out io.Writer, rep *charz.Report, branches bool) {
	fmt.Fprintf(out, "%s: %d branch events, %d static branches\n", rep.Name, rep.Events, len(rep.Branches))
	cols := []string{"branch", "count", "taken", "H(Y)"}
	for _, d := range rep.Depths {
		cols = append(cols, fmt.Sprintf("H(Y|h%d)", d))
	}
	if rep.GlobalDepth > 0 {
		cols = append(cols, fmt.Sprintf("H(Y|g%d)", rep.GlobalDepth))
	}
	cols = append(cols, "sep")
	t := stats.NewTable("characterization of "+rep.Name, cols...)
	row := func(label string, count uint64, rate, ent float64, cond []float64, global, sep float64) {
		cells := []string{label, stats.N(count), stats.Pct(rate), stats.F3(ent)}
		for _, c := range cond {
			cells = append(cells, stats.F3(c))
		}
		if rep.GlobalDepth > 0 {
			cells = append(cells, stats.F3(global))
		}
		cells = append(cells, stats.F3(sep))
		t.AddRow(cells...)
	}
	if branches {
		for _, b := range rep.Branches {
			row(fmt.Sprintf("0x%x", b.PC), b.Count, b.TakenRate, b.Entropy,
				b.CondEntropy, b.GlobalCondEntropy, b.Separability)
		}
	}
	row("aggregate", rep.Events, rep.TakenRate, rep.Entropy,
		rep.CondEntropy, rep.GlobalCondEntropy, rep.Separability)
	fmt.Fprint(out, t.String())
}

func runGenerate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bpchar generate", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the catalog of synthetic points and exit")
	point := fs.String("point", "", "synthetic point name (syn:family:...)")
	rate := fs.Float64("rate", 0, "target taken rate for Solve (0 = 0.5)")
	cond := fs.Float64("cond", -1, "target H(Y|history) for Solve (negative = no structure)")
	depth := fs.Int("depth", 0, "history depth at which the structure appears (default 4)")
	n := fs.Int("n", 0, "events per branch site (0 = default)")
	seed := fs.Uint64("seed", 0, "generator seed (0 = default)")
	outPath := fs.String("o", "", "write the collected serialized trace here")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, p := range charz.Catalog() {
			fmt.Fprintf(out, "%-28s %s\n", p.Name(), p.Description())
		}
		return nil
	}
	var pt charz.Point
	var err error
	if *point != "" {
		pt, err = charz.ParsePoint(*point)
	} else {
		pt, err = charz.Solve(charz.Target{
			TakenRate: *rate, CondEntropy: *cond, Depth: *depth, N: *n, Seed: *seed,
		})
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "point: %s\n%s\n", pt.Name(), pt.Description())
	tr, err := trace.Collect(pt.Build(), 0)
	if err != nil {
		return err
	}
	rep, err := charz.Characterize(tr, charz.Options{})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "events: %d  taken: %s  H(Y): %s  H(Y|h%d): %s  sep: %s\n",
		rep.Events, stats.Pct(rep.TakenRate), stats.F3(rep.Entropy),
		rep.Depths[len(rep.Depths)-1], stats.F3(rep.CondEntropy[len(rep.CondEntropy)-1]),
		stats.F3(rep.Separability))
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if _, err := tr.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *outPath)
	}
	return nil
}

func runProbe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bpchar probe", flag.ContinueOnError)
	specText := fs.String("spec", "", "predictor spec to probe (e.g. gshare:12:8)")
	all := fs.Bool("all", false, "probe every registry kind at its defaults")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*specText == "") == !*all {
		return fmt.Errorf("exactly one of -spec or -all is required")
	}
	var specs []sim.Spec
	if *all {
		for _, k := range sim.Kinds() {
			specs = append(specs, sim.Spec{Kind: k})
		}
	} else {
		spec, err := sim.Parse(*specText)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	var failed []string
	for _, spec := range specs {
		r, err := probe.Probe(spec)
		if err != nil {
			return err
		}
		exp, err := probe.Expected(spec)
		if err != nil {
			return err
		}
		verdict := "ok"
		if err := probe.Compare(r, exp); err != nil {
			verdict = err.Error()
			failed = append(failed, r.Spec.String())
		}
		fmt.Fprintf(out, "%-18s %s  [%s]\n", r.Spec, r, verdict)
	}
	if len(failed) > 0 {
		return errGate{fmt.Sprintf("probe mismatch for %s", strings.Join(failed, ", "))}
	}
	return nil
}
