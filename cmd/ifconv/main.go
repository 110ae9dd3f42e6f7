// Command ifconv applies hyperblock if-conversion to a program and prints
// the conversion report and the predicated assembly.
//
// Usage:
//
//	ifconv -w classify            # convert a built-in workload
//	ifconv -f prog.s -o out.s     # convert an assembly file
//	ifconv -w scan -verify        # also check observational equivalence
//	ifconv -w stream -profiled    # profile-guided region selection
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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ifconv:", err)
		os.Exit(1)
	}
}

func run(args []string, out, report io.Writer) error {
	fs := flag.NewFlagSet("ifconv", flag.ContinueOnError)
	wname := fs.String("w", "", "built-in workload name")
	file := fs.String("f", "", "P64 assembly file")
	outFile := fs.String("o", "", "write converted assembly to this file (default stdout)")
	maxBlocks := fs.Int("max-blocks", 0, "region block limit (0 = default)")
	maxInsts := fs.Int("max-insts", 0, "region instruction limit (0 = default)")
	noSched := fs.Bool("no-schedule", false, "disable compare scheduling")
	profiled := fs.Bool("profiled", false, "profile-guided region selection")
	verify := fs.Bool("verify", false, "run both versions and compare observable behaviour")
	quiet := fs.Bool("q", false, "report only; do not print the converted program")
	version := buildinfo.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("ifconv"))
		return nil
	}

	if *wname == "" && *file == "" {
		return fmt.Errorf("need -w workload or -f file")
	}
	p, err := repro.LoadProgram(*wname, *file)
	if err != nil {
		return err
	}

	cfg := repro.IfConvConfig{
		MaxBlocks:           *maxBlocks,
		MaxInsts:            *maxInsts,
		NoCompareScheduling: *noSched,
	}
	if *profiled {
		prof, err := repro.CollectProfile(p, nil, 50_000_000)
		if err != nil {
			return err
		}
		cfg.Profile = prof
	}
	cp, rep, err := repro.IfConvert(p, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(report, "regions converted:     %d\n", len(rep.Regions))
	fmt.Fprintf(report, "branches eliminated:   %d\n", rep.TotalEliminated())
	fmt.Fprintf(report, "region-based branches: %d\n", rep.TotalRegionBranches())
	for _, r := range rep.Regions {
		fmt.Fprintf(report, "  region at block %d: %d blocks -> insts [%d,%d)\n",
			r.Head, len(r.Blocks), r.NewStart, r.NewEnd)
	}
	if len(rep.Rejected) > 0 {
		fmt.Fprintf(report, "rejected candidates:   %v\n", rep.Rejected)
	}

	if *verify {
		ra, err := repro.Run(p, 50_000_000)
		if err != nil {
			return fmt.Errorf("running original: %w", err)
		}
		rb, err := repro.Run(cp, 50_000_000)
		if err != nil {
			return fmt.Errorf("running converted: %w", err)
		}
		ok := ra.ExitCode == rb.ExitCode && len(ra.Output) == len(rb.Output)
		for i := 0; ok && i < len(ra.Output); i++ {
			ok = ra.Output[i] == rb.Output[i]
		}
		if !ok {
			return fmt.Errorf("verification FAILED: outputs differ")
		}
		fmt.Fprintf(report, "verified: identical output (%d values), exit %d; dynamic insts %d -> %d\n",
			len(ra.Output), ra.ExitCode, ra.Steps, rb.Steps)
	}

	if *quiet {
		return nil
	}
	text := repro.Disassemble(cp)
	if *outFile != "" {
		return os.WriteFile(*outFile, []byte(text), 0o644)
	}
	_, err = io.WriteString(out, text)
	return err
}
