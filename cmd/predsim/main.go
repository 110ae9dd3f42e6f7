// Command predsim runs a program on the cycle-level pipeline model with a
// chosen branch predictor and the paper's mechanisms, and reports timing
// and prediction statistics.
//
// The program is either a built-in workload (-w name, optionally
// if-converted with -convert) or a P64 assembly file (-f prog.s).
//
// Usage:
//
//	predsim -w scan -convert -predictor gshare -sfpf -pgu all
//	predsim -f myprog.s -penalty 20 -width 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
	"repro/internal/buildinfo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "predsim:", err)
		os.Exit(1)
	}
}

// newPredictor resolves a predictor spec ("gshare", "gshare:14:10", ...)
// through the registry shared with bpsweep and the harness.
func newPredictor(spec string) (repro.Predictor, error) {
	return repro.NewPredictor(spec)
}

func pguPolicy(spec string) (repro.PGUPolicy, error) {
	return repro.ParsePGUPolicy(spec)
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("predsim", flag.ContinueOnError)
	wname := fs.String("w", "", "built-in workload name (see -listw)")
	file := fs.String("f", "", "P64 assembly file to run")
	convert := fs.Bool("convert", false, "if-convert the program before running")
	profiled := fs.Bool("profiled", false, "with -convert: use profile-guided region selection")
	predictor := fs.String("predictor", "gshare", "branch predictor spec, e.g. gshare or gshare:14:10 (see -listp)")
	sfpf := fs.Bool("sfpf", false, "enable the squash false path filter")
	filterTrue := fs.Bool("filter-true", false, "also filter known-true guards")
	pgu := fs.String("pgu", "off", "predicate global update policy: off, region, branch, all")
	penalty := fs.Uint64("penalty", 10, "branch misprediction penalty in cycles")
	resolve := fs.Uint64("resolve", 5, "predicate resolve latency in cycles")
	width := fs.Int("width", 1, "issue width (instructions per cycle)")
	limit := fs.Uint64("limit", 10_000_000, "dynamic instruction limit")
	listw := fs.Bool("listw", false, "list built-in workloads and exit")
	listp := fs.Bool("listp", false, "list predictor kinds and spec syntax, then exit")
	version := buildinfo.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("predsim"))
		return nil
	}

	if *listw {
		for _, w := range repro.Workloads() {
			fmt.Fprintf(out, "%-10s %s\n", w.Name, w.Description)
		}
		return nil
	}
	if *listp {
		fmt.Fprint(out, repro.PredictorUsage())
		return nil
	}

	if *wname == "" && *file == "" {
		return fmt.Errorf("need -w workload or -f file (try -listw)")
	}
	p, err := repro.LoadProgram(*wname, *file)
	if err != nil {
		return err
	}

	if *convert {
		cfg := repro.IfConvConfig{}
		if *profiled {
			prof, err := repro.CollectProfile(p, nil, *limit)
			if err != nil {
				return err
			}
			cfg.Profile = prof
		}
		cp, rep, err := repro.IfConvert(p, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "if-conversion: %d regions, %d branches eliminated, %d region-based branches\n",
			len(rep.Regions), rep.TotalEliminated(), rep.TotalRegionBranches())
		p = cp
	}

	pred, err := newPredictor(*predictor)
	if err != nil {
		return err
	}
	pol, err := pguPolicy(*pgu)
	if err != nil {
		return err
	}
	cfg := repro.DefaultPipelineConfig(pred)
	cfg.UseSFPF = *sfpf
	cfg.FilterTrue = *filterTrue
	cfg.PGU = pol
	cfg.MispredictPenalty = *penalty
	cfg.PredResolveLatency = *resolve
	cfg.IssueWidth = *width

	st, err := repro.RunPipeline(p, cfg, *limit)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "program:            %s\n", p.Name)
	fmt.Fprintf(out, "predictor:          %s  sfpf=%v filter-true=%v pgu=%s width=%d\n",
		pred.Name(), *sfpf, *filterTrue, pol, *width)
	fmt.Fprintf(out, "cycles:             %d\n", st.Cycles)
	fmt.Fprintf(out, "instructions:       %d (nullified %d, %.1f%%)\n", st.Insts, st.Nullified,
		100*float64(st.Nullified)/float64(st.Insts))
	fmt.Fprintf(out, "IPC:                %.3f\n", st.IPC())
	fmt.Fprintf(out, "stall cycles:       %d\n", st.Stalls)
	fmt.Fprintf(out, "cond branches:      %d (region-based %d)\n", st.Branches, st.RegionBranches)
	fmt.Fprintf(out, "mispredictions:     %d (%.2f%%; region %d)\n", st.Mispredicts,
		100*st.MispredictRate(), st.RegionMispredicts)
	fmt.Fprintf(out, "filtered:           %d false, %d true, %d errors\n", st.Filtered, st.FilteredTrue, st.FilterErrors)
	fmt.Fprintf(out, "history bits added: %d\n", st.InsertedBits)
	if st.IndirectBranches > 0 {
		fmt.Fprintf(out, "indirect branches:  %d (%d RAS misses)\n", st.IndirectBranches, st.RASMisses)
	}
	fmt.Fprintf(out, "exit code:          %d\n", st.ExitCode)
	return nil
}
