// Command tracer captures branch/predicate-define traces to files and
// inspects them, decoupling (slow) emulation from (fast) predictor sweeps.
//
// Usage:
//
//	tracer -w scan -convert -o scan.trc      # capture
//	tracer -stats scan.trc                   # inspect
//	tracer -stats scan.trc -eval gshare -top 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/buildinfo"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracer", flag.ContinueOnError)
	wname := fs.String("w", "", "built-in workload to trace")
	file := fs.String("f", "", "P64 assembly file to trace")
	convert := fs.Bool("convert", false, "if-convert before tracing")
	outFile := fs.String("o", "", "write the trace to this file")
	statsFile := fs.String("stats", "", "read a trace file and print statistics")
	eval := fs.String("eval", "", "with -stats: replay through a predictor spec (e.g. gshare, agree:12:8)")
	top := fs.Int("top", 0, "with -eval: show the N most-mispredicting branches")
	limit := fs.Uint64("limit", 10_000_000, "dynamic instruction limit")
	version := buildinfo.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("tracer"))
		return nil
	}

	if *statsFile != "" {
		return showStats(out, *statsFile, *eval, *top)
	}

	if *wname == "" && *file == "" {
		return fmt.Errorf("need -w, -f, or -stats")
	}
	p, err := repro.LoadProgram(*wname, *file)
	if err != nil {
		return err
	}
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
	if *outFile == "" {
		return fmt.Errorf("need -o file to write the trace")
	}
	f, err := os.Create(*outFile)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := tr.WriteTo(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: %d events, %d bytes\n", *outFile, len(tr.Events), n)
	return nil
}

func showStats(out io.Writer, path, eval string, top int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.ReadTrace(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace:           %s\n", tr.Name)
	fmt.Fprintf(out, "instructions:    %d (nullified %d)\n", tr.Insts, tr.Nullified)
	fmt.Fprintf(out, "events:          %d\n", len(tr.Events))
	fmt.Fprintf(out, "cond branches:   %d (region-based %d)\n", tr.Branches, tr.RegionBranches)
	fmt.Fprintf(out, "predicate defs:  %d\n", tr.PredDefs)
	if eval == "" {
		return nil
	}
	pred, err := repro.NewPredictor(eval)
	if err != nil {
		return err
	}
	m := repro.Evaluate(tr, repro.EvalConfig{Predictor: pred, PerBranch: top > 0})
	fmt.Fprintf(out, "%s:    %.2f%% mispredicted (%d/%d)\n",
		pred.Name(), 100*m.MispredictRate(), m.Mispredicts, m.Branches)
	if top > 0 {
		fmt.Fprintf(out, "\n%-10s %10s %10s %10s %8s %s\n", "pc", "execs", "taken", "misses", "rate", "class")
		for _, bs := range m.TopMispredicted(top) {
			class := "branch"
			if bs.Region {
				class = "region"
			}
			fmt.Fprintf(out, "@%-9d %10d %10d %10d %7.2f%% %s\n",
				bs.PC, bs.Count, bs.Taken, bs.Mispredicts, 100*bs.MispredictRate(), class)
		}
	}
	return nil
}
