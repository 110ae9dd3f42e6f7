// Package prog provides the program container for P64 code: an instruction
// sequence with labels and initial data, label resolution, validation,
// disassembly, and a builder API used by workloads and tests.
package prog

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Program is a P64 program: a flat instruction sequence entered at index 0,
// optional named labels, and initial memory contents.
type Program struct {
	Name   string
	Insts  []isa.Inst
	Labels map[string]int // label name -> instruction index

	// Data maps base addresses to initial memory words. The emulator loads
	// each slice at its base before execution.
	Data map[int64][]int64
}

// New returns an empty program.
func New(name string) *Program {
	return &Program{
		Name:   name,
		Labels: make(map[string]int),
		Data:   make(map[int64][]int64),
	}
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	q := New(p.Name)
	q.Insts = append([]isa.Inst(nil), p.Insts...)
	for k, v := range p.Labels {
		q.Labels[k] = v
	}
	for k, v := range p.Data {
		q.Data[k] = append([]int64(nil), v...)
	}
	return q
}

// SetData records initial memory contents at base.
func (p *Program) SetData(base int64, words []int64) {
	p.Data[base] = append([]int64(nil), words...)
}

// Resolve fills in the Target of every direct branch from its Label. It is
// idempotent; instructions with a resolved target and no label are left
// alone. A re-resolution of an already-resolved program performs no
// writes, so any number of goroutines may share one resolved program
// (every construction path — Builder.Build and the assembler —
// resolves before the program is published).
func (p *Program) Resolve() error {
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.Label == "" {
			continue
		}
		t, ok := p.Labels[in.Label]
		if !ok {
			return fmt.Errorf("prog %s: instruction %d: undefined label %q", p.Name, i, in.Label)
		}
		switch {
		case in.IsDirectBranch():
			if in.Target != t {
				in.Target = t
			}
		case in.Op == isa.OpMovi:
			// movi of a label materialises a code address (used with brr).
			if in.Imm != int64(t) {
				in.Imm = int64(t)
			}
		}
	}
	return nil
}

// Validate checks every instruction and that all resolved branch targets
// and label positions are within the program.
func (p *Program) Validate() error {
	for name, idx := range p.Labels {
		if idx < 0 || idx > len(p.Insts) {
			return fmt.Errorf("prog %s: label %q at invalid index %d", p.Name, name, idx)
		}
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		if err := in.Validate(); err != nil {
			return fmt.Errorf("prog %s: instruction %d: %w", p.Name, i, err)
		}
		if in.IsDirectBranch() && in.Label == "" {
			if in.Target < 0 || in.Target >= len(p.Insts) {
				return fmt.Errorf("prog %s: instruction %d: branch target %d out of range", p.Name, i, in.Target)
			}
		}
	}
	return nil
}

// MaxPredUsed returns the highest predicate register number referenced
// anywhere in the program (as guard, destination, or source).
func (p *Program) MaxPredUsed() isa.PReg {
	var max isa.PReg
	up := func(r isa.PReg) {
		if r > max {
			max = r
		}
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		up(in.QP)
		dsts, n := in.PredDests()
		for _, d := range dsts[:n] {
			up(d)
		}
		srcs, n := in.PredSources()
		for _, s := range srcs[:n] {
			up(s)
		}
	}
	return max
}

// targetLabels returns a map from instruction index to a display label,
// inventing names for unlabeled branch targets.
func (p *Program) targetLabels() map[int]string {
	names := make(map[int]string)
	for name, idx := range p.Labels {
		if _, ok := names[idx]; !ok {
			names[idx] = name
		}
	}
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.IsDirectBranch() && in.Target >= 0 {
			if _, ok := names[in.Target]; !ok {
				names[in.Target] = fmt.Sprintf(".L%d", in.Target)
			}
		}
	}
	return names
}

// String disassembles the program with labels.
func (p *Program) String() string {
	names := p.targetLabels()
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s (%d instructions)\n", p.Name, len(p.Insts))
	bases := make([]int64, 0, len(p.Data))
	for base := range p.Data {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	for _, base := range bases {
		fmt.Fprintf(&b, ".data %d =", base)
		for _, w := range p.Data[base] {
			fmt.Fprintf(&b, " %d", w)
		}
		b.WriteByte('\n')
	}
	for i := range p.Insts {
		if name, ok := names[i]; ok {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		in := p.Insts[i]
		if in.IsDirectBranch() && in.Target >= 0 {
			in.Label = names[in.Target]
		}
		fmt.Fprintf(&b, "\t%s\n", in.String())
	}
	// A label may point one past the last instruction (an end label).
	if name, ok := names[len(p.Insts)]; ok {
		fmt.Fprintf(&b, "%s:\n", name)
	}
	return b.String()
}

// Stats summarises static program properties.
type Stats struct {
	Insts          int
	Branches       int
	RegionBranches int
	PredDefs       int
	Guarded        int // instructions with a non-p0 qualifying predicate
}

// StaticStats computes static instruction-mix statistics.
func (p *Program) StaticStats() Stats {
	var s Stats
	s.Insts = len(p.Insts)
	for i := range p.Insts {
		in := &p.Insts[i]
		if in.IsBranch() {
			s.Branches++
			if in.Region {
				s.RegionBranches++
			}
		}
		if in.IsPredDef() {
			s.PredDefs++
		}
		if in.QP != isa.P0 {
			s.Guarded++
		}
	}
	return s
}
