package cfgutil

import (
	"repro/internal/isa"
	"repro/internal/prog"
)

// PredLiveness holds per-block predicate-register liveness as 64-bit masks
// (bit i = predicate register pi). The if-converter uses it to verify that
// the predicates a region stops writing (or writes only conditionally after
// conversion) are dead at every region exit.
type PredLiveness struct {
	Use     []uint64 // upward-exposed predicate reads per block
	Def     []uint64 // predicates unconditionally written per block
	LiveIn  []uint64
	LiveOut []uint64
}

// instPredUse returns the mask of predicates read by the instruction.
// Every instruction reads its qualifying predicate. Parallel-or/and compare
// types conditionally preserve their destinations, so the destination value
// may flow through them: their destinations count as uses.
func instPredUse(in *isa.Inst) uint64 {
	var m uint64
	m |= 1 << in.QP
	srcs, n := in.PredSources()
	for _, p := range srcs[:n] {
		m |= 1 << p
	}
	if in.Op == isa.OpCmp && (in.CT == isa.CmpAnd || in.CT == isa.CmpOr) {
		m |= 1 << in.PD1
		m |= 1 << in.PD2
	}
	return m
}

// instPredDef returns the mask of predicates the instruction is guaranteed
// to write regardless of runtime values. A normal compare under a non-p0
// guard is a conditional write and does not kill liveness; an
// unconditional-type compare always writes both destinations.
func instPredDef(in *isa.Inst) uint64 {
	var m uint64
	switch in.Op {
	case isa.OpCmp:
		switch in.CT {
		case isa.CmpUnc:
			m |= 1<<in.PD1 | 1<<in.PD2
		case isa.CmpNorm:
			if in.QP == isa.P0 {
				m |= 1<<in.PD1 | 1<<in.PD2
			}
		}
	case isa.OpPand, isa.OpPor, isa.OpPmov, isa.OpPinit:
		if in.QP == isa.P0 {
			m |= 1 << in.PD1
		}
	}
	// p0 is hard-wired; writes to it are dropped.
	return m &^ 1
}

// ComputePredLiveness runs backward may-liveness over predicate registers.
func ComputePredLiveness(g *prog.CFG) *PredLiveness {
	n := len(g.Blocks)
	pl := &PredLiveness{
		Use:     make([]uint64, n),
		Def:     make([]uint64, n),
		LiveIn:  make([]uint64, n),
		LiveOut: make([]uint64, n),
	}
	for _, b := range g.Blocks {
		var use, def uint64
		for i := b.Start; i < b.End; i++ {
			in := &g.Prog.Insts[i]
			use |= instPredUse(in) &^ def
			def |= instPredDef(in)
		}
		pl.Use[b.Index] = use &^ 1 // p0 always true; not a real dependence
		pl.Def[b.Index] = def
	}
	changed := true
	for changed {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := g.Blocks[i]
			var out uint64
			for _, s := range b.Succs {
				out |= pl.LiveIn[s]
			}
			in := pl.Use[i] | (out &^ pl.Def[i])
			if out != pl.LiveOut[i] || in != pl.LiveIn[i] {
				pl.LiveOut[i] = out
				pl.LiveIn[i] = in
				changed = true
			}
		}
	}
	return pl
}
