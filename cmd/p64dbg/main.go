// Command p64dbg is an interactive debugger for P64 programs: single-step
// the emulator, set breakpoints, and inspect registers, predicates, and
// memory.
//
// Usage:
//
//	p64dbg -w scan -convert
//	p64dbg -f prog.s
//
// Commands (shortest unique prefix works):
//
//	s [n]        step n instructions (default 1), printing each
//	c            continue to halt, a breakpoint, or the step limit
//	b <idx>      toggle a breakpoint at instruction index idx
//	r            print non-zero general registers
//	p            print true predicate registers
//	m <a> [n]    print n memory words starting at address a (default 8)
//	l [i]        list code around index i (default: around pc)
//	o            print the output stream so far
//	i            print machine status (pc, steps, nullified)
//	q            quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro"
	"repro/internal/buildinfo"
	"repro/internal/emu"
	"repro/internal/isa"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "p64dbg:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("p64dbg", flag.ContinueOnError)
	wname := fs.String("w", "", "built-in workload name")
	file := fs.String("f", "", "P64 assembly file")
	convert := fs.Bool("convert", false, "if-convert before debugging")
	limit := fs.Uint64("limit", 10_000_000, "step budget for the continue command")
	version := buildinfo.Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.String("p64dbg"))
		return nil
	}

	if *wname == "" && *file == "" {
		return fmt.Errorf("need -w workload or -f file")
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

	d, err := newDebugger(p, *limit, out)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "p64dbg: %s (%d instructions). Type 'q' to quit.\n", p.Name, len(p.Insts))
	d.list(0)
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "(p64dbg) ")
		if !sc.Scan() {
			return sc.Err()
		}
		quit, err := d.exec(strings.TrimSpace(sc.Text()))
		if err != nil {
			fmt.Fprintln(out, "error:", err)
		}
		if quit {
			return nil
		}
	}
}

type debugger struct {
	p      *repro.Program
	m      *emu.Machine
	out    io.Writer
	limit  uint64
	breaks map[int]bool
}

func newDebugger(p *repro.Program, limit uint64, out io.Writer) (*debugger, error) {
	m, err := repro.NewMachine(p)
	if err != nil {
		return nil, err
	}
	return &debugger{p: p, m: m, out: out, limit: limit, breaks: map[int]bool{}}, nil
}

// exec runs one command line; it returns true when the session should end.
func (d *debugger) exec(line string) (bool, error) {
	if line == "" {
		return false, nil
	}
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	argInt := func(i, def int) (int, error) {
		if i >= len(args) {
			return def, nil
		}
		return strconv.Atoi(args[i])
	}
	switch {
	case strings.HasPrefix("step", cmd):
		n, err := argInt(0, 1)
		if err != nil {
			return false, err
		}
		for i := 0; i < n && !d.m.Halted; i++ {
			if err := d.step(true); err != nil {
				return false, err
			}
		}
		return false, nil
	case strings.HasPrefix("continue", cmd):
		for !d.m.Halted && d.m.Steps < d.limit {
			if err := d.step(false); err != nil {
				return false, err
			}
			if d.breaks[d.m.PC] {
				fmt.Fprintf(d.out, "breakpoint at @%d\n", d.m.PC)
				d.list(d.m.PC)
				return false, nil
			}
		}
		d.status()
		return false, nil
	case strings.HasPrefix("break", cmd):
		idx, err := argInt(0, -1)
		if err != nil || idx < 0 || idx >= len(d.p.Insts) {
			return false, fmt.Errorf("break needs an instruction index in [0,%d)", len(d.p.Insts))
		}
		d.breaks[idx] = !d.breaks[idx]
		state := "set"
		if !d.breaks[idx] {
			delete(d.breaks, idx)
			state = "cleared"
		}
		fmt.Fprintf(d.out, "breakpoint %s at @%d\n", state, idx)
		return false, nil
	case strings.HasPrefix("regs", cmd):
		for r := 0; r < isa.NumRegs; r++ {
			if v := d.m.Regs[r]; v != 0 {
				fmt.Fprintf(d.out, "r%-3d = %d\n", r, v)
			}
		}
		return false, nil
	case strings.HasPrefix("preds", cmd):
		var set []string
		for pr := 0; pr < isa.NumPRegs; pr++ {
			if d.m.Preds[pr] {
				set = append(set, fmt.Sprintf("p%d", pr))
			}
		}
		fmt.Fprintln(d.out, strings.Join(set, " "))
		return false, nil
	case strings.HasPrefix("mem", cmd):
		addr, err := argInt(0, -1)
		if err != nil || addr < 0 {
			return false, fmt.Errorf("mem needs a non-negative address")
		}
		n, err := argInt(1, 8)
		if err != nil {
			return false, err
		}
		for i := 0; i < n; i++ {
			v, err := d.m.Load(int64(addr + i))
			if err != nil {
				return false, err
			}
			fmt.Fprintf(d.out, "[%d] = %d\n", addr+i, v)
		}
		return false, nil
	case strings.HasPrefix("list", cmd):
		center, err := argInt(0, d.m.PC)
		if err != nil {
			return false, err
		}
		d.list(center)
		return false, nil
	case strings.HasPrefix("output", cmd) || cmd == "o":
		fmt.Fprintf(d.out, "%v\n", d.m.Output)
		return false, nil
	case strings.HasPrefix("info", cmd):
		d.status()
		return false, nil
	case strings.HasPrefix("quit", cmd):
		return true, nil
	}
	return false, fmt.Errorf("unknown command %q (s, c, b, r, p, m, l, o, i, q)", cmd)
}

func (d *debugger) step(echo bool) error {
	idx := d.m.PC
	si, err := d.m.Step()
	if err != nil {
		return err
	}
	if echo {
		mark := " "
		if !si.GuardTrue {
			mark = "x" // nullified
		}
		fmt.Fprintf(d.out, "%s @%-4d %s\n", mark, idx, d.p.Insts[idx].String())
	}
	return nil
}

func (d *debugger) status() {
	fmt.Fprintf(d.out, "pc=@%d steps=%d nullified=%d halted=%v", d.m.PC, d.m.Steps, d.m.Nullified, d.m.Halted)
	if d.m.Halted {
		fmt.Fprintf(d.out, " exit=%d", d.m.ExitCode)
	}
	fmt.Fprintln(d.out)
	if len(d.breaks) > 0 {
		var bs []int
		for b := range d.breaks {
			bs = append(bs, b)
		}
		sort.Ints(bs)
		fmt.Fprintf(d.out, "breakpoints: %v\n", bs)
	}
}

func (d *debugger) list(center int) {
	lo, hi := center-3, center+4
	if lo < 0 {
		lo = 0
	}
	if hi > len(d.p.Insts) {
		hi = len(d.p.Insts)
	}
	for i := lo; i < hi; i++ {
		cursor := "  "
		if i == d.m.PC {
			cursor = "=>"
		}
		bp := " "
		if d.breaks[i] {
			bp = "*"
		}
		fmt.Fprintf(d.out, "%s%s@%-4d %s\n", cursor, bp, i, d.p.Insts[i].String())
	}
}
