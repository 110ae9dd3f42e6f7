// Command experiments regenerates every reconstructed table/figure from
// the paper (experiments E1–E15, see DESIGN.md) and prints them as text,
// markdown, or CSV.
//
// Usage:
//
//	experiments [-format text|markdown|csv] [-quick] [-id E2a,E5 | -id E3-E7] [-list]
//	            [-timeout 5m] [-outdir results]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/buildinfo"
	"repro/internal/harness"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	format := fs.String("format", "text", "output format: text, markdown, or csv")
	quick := fs.Bool("quick", false, "trim parameter sweeps for a fast run")
	id := fs.String("id", "", "experiments to run: IDs, comma lists, and ranges (e.g. E3, E2a,E5, E3-E7); default all")
	list := fs.Bool("list", false, "list experiments and exit")
	limit := fs.Uint64("limit", 0, "emulation step limit per program (0 = default)")
	outdir := fs.String("outdir", "", "additionally write each table as CSV into this directory")
	timeout := fs.Duration("timeout", 0, "abort the run after this duration (0 = none)")
	version := buildinfo.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("experiments"))
		return nil
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Fprintf(out, "%-4s %s\n     paper: %s\n     expect: %s\n", e.ID, e.Title, e.Paper, e.Expect)
		}
		return nil
	}

	render := func(t *stats.Table) (string, error) {
		switch *format {
		case "markdown":
			return t.Markdown(), nil
		case "csv":
			return t.CSV(), nil
		case "text":
			return t.String(), nil
		}
		return "", fmt.Errorf("unknown format %q", *format)
	}
	// Validate the format and selection before the expensive run.
	if _, err := render(stats.NewTable("probe", "c")); err != nil {
		return err
	}
	exps, err := harness.Select(*id)
	if err != nil {
		return err
	}

	res, err := harness.RunSelected(ctx, harness.Config{Quick: *quick, Limit: *limit}, exps)
	if err != nil {
		return err
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}
	for _, r := range res {
		fmt.Fprintf(out, "=== %s: %s ===\n", r.Experiment.ID, r.Experiment.Title)
		fmt.Fprintf(out, "paper analogue: %s\nexpected shape: %s\n\n", r.Experiment.Paper, r.Experiment.Expect)
		for i, t := range r.Tables {
			s, err := render(t)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, s)
			if *outdir != "" {
				path := filepath.Join(*outdir, r.TableName(i)+".csv")
				if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
