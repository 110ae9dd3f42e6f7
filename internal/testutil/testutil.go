// Package testutil provides cross-package test helpers, chiefly the
// observational-equivalence oracle between an original program and its
// if-converted form, plus a log buffer safe to read under -race.
package testutil

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/prog"
)

// RunFull runs a program to completion and returns the final machine.
func RunFull(p *prog.Program, limit uint64) (*emu.Machine, emu.Result, error) {
	m, err := emu.New(p)
	if err != nil {
		return nil, emu.Result{}, err
	}
	res, err := m.Run(limit)
	return m, res, err
}

// CheckEquivalent verifies that two programs are observationally
// equivalent: same exit code, same output stream, same final general
// registers, and same final memory. Predicate registers are excluded —
// if-conversion legitimately renumbers them.
func CheckEquivalent(a, b *prog.Program, limit uint64) error {
	ma, ra, err := RunFull(a, limit)
	if err != nil {
		return fmt.Errorf("running %s: %w", a.Name, err)
	}
	mb, rb, err := RunFull(b, limit)
	if err != nil {
		return fmt.Errorf("running %s: %w", b.Name, err)
	}
	if ra.ExitCode != rb.ExitCode {
		return fmt.Errorf("exit codes differ: %s=%d %s=%d", a.Name, ra.ExitCode, b.Name, rb.ExitCode)
	}
	if len(ra.Output) != len(rb.Output) {
		return fmt.Errorf("output lengths differ: %s=%d %s=%d", a.Name, len(ra.Output), b.Name, len(rb.Output))
	}
	for i := range ra.Output {
		if ra.Output[i] != rb.Output[i] {
			return fmt.Errorf("output[%d] differs: %s=%d %s=%d", i, a.Name, ra.Output[i], b.Name, rb.Output[i])
		}
	}
	for r := range ma.Regs {
		if ma.Regs[r] != mb.Regs[r] {
			return fmt.Errorf("r%d differs: %s=%d %s=%d", r, a.Name, ma.Regs[r], b.Name, mb.Regs[r])
		}
	}
	sa, sb := ma.MemSnapshot(), mb.MemSnapshot()
	if len(sa) != len(sb) {
		return fmt.Errorf("memory footprints differ: %s=%d %s=%d words", a.Name, len(sa), b.Name, len(sb))
	}
	for addr, v := range sa {
		if sb[addr] != v {
			return fmt.Errorf("mem[%d] differs: %s=%d %s=%d", addr, a.Name, v, b.Name, sb[addr])
		}
	}
	return nil
}
