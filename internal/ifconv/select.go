package ifconv

import (
	"sort"

	"repro/internal/cfgutil"
	"repro/internal/isa"
	"repro/internal/prog"
)

// region is a selected single-entry region: a head block plus blocks whose
// every predecessor lies inside the region. By construction the region
// subgraph is acyclic except for edges back to the head (loop back edges),
// which the emitter keeps as guarded exit branches.
type region struct {
	head   int
	blocks map[int]bool
	layout []int // blocks in reverse-postorder (topological for the region DAG)
}

type selector struct {
	g        *prog.CFG
	an       *cfgutil.Analysis
	pl       *cfgutil.PredLiveness
	cfg      Config
	used     []bool
	rejected map[string]int

	addrTaken map[int]bool // block index whose start address is taken
	maxPred   isa.PReg
}

func newSelector(g *prog.CFG, an *cfgutil.Analysis, pl *cfgutil.PredLiveness, cfg Config) *selector {
	s := &selector{
		g:        g,
		an:       an,
		pl:       pl,
		cfg:      cfg,
		used:     make([]bool, len(g.Blocks)),
		rejected: make(map[string]int),
		maxPred:  g.Prog.MaxPredUsed(),
	}
	s.addrTaken = addressTakenBlocks(g)
	return s
}

// addressTakenBlocks finds blocks whose start may be an indirect-branch
// target: movi of a label (resolved or not) and brl return points
// (fallthroughs of calls). Such blocks may only head a region, never be
// region-interior, because dropping them from the layout would break the
// indirect control flow.
func addressTakenBlocks(g *prog.CFG) map[int]bool {
	taken := make(map[int]bool)
	markInst := func(idx int) {
		if idx >= 0 && idx < len(g.Prog.Insts) {
			taken[g.BlockOf(idx).Index] = true
		}
	}
	for i := range g.Prog.Insts {
		in := &g.Prog.Insts[i]
		switch in.Op {
		case isa.OpMovi:
			if in.Label != "" {
				if t, ok := g.Prog.Labels[in.Label]; ok {
					markInst(t)
				}
			} else if in.Imm >= 0 && in.Imm < int64(len(g.Prog.Insts)) {
				// A movi of a small constant might be an address; only
				// treat it as one when an indirect branch exists at all.
				// Handled below via hasBrr.
			}
		case isa.OpBrl:
			markInst(i + 1) // the return point
		}
	}
	// If the program has any indirect branch, be maximally conservative:
	// every labeled block is a potential target.
	hasBrr := false
	for i := range g.Prog.Insts {
		if g.Prog.Insts[i].Op == isa.OpBrr {
			hasBrr = true
			break
		}
	}
	if hasBrr {
		for _, idx := range g.Prog.Labels {
			markInst(idx)
		}
	}
	return taken
}

// blockHazard reports a reason the block cannot join any region, or "".
func (s *selector) blockHazard(b *prog.Block) string {
	p := s.g.Prog
	for i := b.Start; i < b.End; i++ {
		in := &p.Insts[i]
		switch in.Op {
		case isa.OpBrl, isa.OpBrr:
			return "call-or-indirect"
		}
	}
	if t := b.Terminator(); t >= 0 {
		in := &p.Insts[t]
		switch in.Op {
		case isa.OpBr:
			if in.QP != isa.P0 && findDefCmp(p, b, in.QP) < 0 {
				return "no-local-compare"
			}
		case isa.OpCloop:
			if in.QP != isa.P0 {
				return "guarded-cloop"
			}
		}
	}
	return ""
}

// findDefCmp returns the index of the unguarded normal-type compare that is
// the last writer of predicate q before the block terminator, or -1.
func findDefCmp(p *prog.Program, b *prog.Block, q isa.PReg) int {
	t := b.Terminator()
	for i := t - 1; i >= b.Start; i-- {
		in := &p.Insts[i]
		writes := false
		dsts, n := in.PredDests()
		for _, d := range dsts[:n] {
			if d == q {
				writes = true
			}
		}
		if !writes {
			continue
		}
		if in.Op == isa.OpCmp && in.CT == isa.CmpNorm && in.QP == isa.P0 &&
			(in.PD1 == q || in.PD2 == q) {
			return i
		}
		return -1 // last writer is not a usable compare
	}
	return -1
}

// cloopTargetOf returns the taken-successor block of a cloop terminator,
// or -1 when the block does not end in a cloop.
func cloopTargetOf(g *prog.CFG, b *prog.Block) int {
	t := b.Terminator()
	if t < 0 {
		return -1
	}
	in := &g.Prog.Insts[t]
	if in.Op != isa.OpCloop {
		return -1
	}
	if in.Target >= len(g.Prog.Insts) {
		return -1
	}
	return g.BlockOf(in.Target).Index
}

func (s *selector) selectRegions() []*region {
	var out []*region
	for _, h := range s.an.RPO {
		if s.used[h] {
			continue
		}
		r := s.grow(h)
		if r == nil {
			continue
		}
		if reason := s.check(r); reason != "" {
			s.rejected[reason]++
			continue
		}
		for b := range r.blocks {
			s.used[b] = true
		}
		out = append(out, r)
	}
	return out
}

// grow builds the largest eligible region headed at h, or nil if no block
// beyond the head can be added.
func (s *selector) grow(h int) *region {
	if s.blockHazard(s.g.Blocks[h]) != "" {
		return nil
	}
	r := &region{head: h, blocks: map[int]bool{h: true}}
	insts := s.g.Blocks[h].Len()
	for {
		best := -1
		for b := range r.blocks {
			for _, cand := range s.g.Blocks[b].Succs {
				if !s.eligible(r, b, cand, insts) {
					continue
				}
				if best == -1 || s.an.RPONum[cand] < s.an.RPONum[best] {
					best = cand
				}
			}
		}
		if best == -1 {
			break
		}
		r.blocks[best] = true
		insts += s.g.Blocks[best].Len()
	}
	if len(r.blocks) < 2 {
		return nil
	}
	r.layout = make([]int, 0, len(r.blocks))
	for b := range r.blocks {
		r.layout = append(r.layout, b)
	}
	sort.Slice(r.layout, func(i, j int) bool {
		return s.an.RPONum[r.layout[i]] < s.an.RPONum[r.layout[j]]
	})
	return r
}

func (s *selector) eligible(r *region, from, cand int, insts int) bool {
	if cand == r.head || r.blocks[cand] || s.used[cand] || !s.an.Reachable(cand) {
		return false
	}
	if s.addrTaken[cand] {
		return false
	}
	if !s.an.SameInnermostLoop(r.head, cand) {
		return false
	}
	if len(r.blocks) >= s.cfg.MaxBlocks {
		return false
	}
	cb := s.g.Blocks[cand]
	if insts+cb.Len() > s.cfg.MaxInsts {
		return false
	}
	if s.blockHazard(cb) != "" {
		return false
	}
	// Single entry: every predecessor must already be inside the region.
	for _, p := range cb.Preds {
		if !r.blocks[p] {
			return false
		}
	}
	// A cloop's taken edge cannot be eliminated (it decrements its counter),
	// so a cloop target must stay outside the region or be the head.
	for p := range r.blocks {
		if cloopTargetOf(s.g, s.g.Blocks[p]) == cand {
			return false
		}
	}
	// Defensive: any edge from cand back into the region must target the
	// head; the single-entry growth rule makes other cases impossible.
	for _, sc := range cb.Succs {
		if sc != r.head && r.blocks[sc] {
			return false
		}
	}
	return true
}

// profitable evaluates the profile-guided cost model, the selection rule
// IMPACT-style hyperblock formation applies: convert the region only if
// the cycles saved by eliminating its mispredicting branches exceed the
// net fetch slots the conversion adds. The net slot cost compares, per
// block, the converted hyperblock's fetch slots (every block fetched on
// every region execution, minus eliminated branch instructions, plus
// predicate bookkeeping) against the original profiled slots.
func (s *selector) profitable(r *region) bool {
	p := s.g.Prog
	prof := s.cfg.Profile
	headExec := float64(prof.BlockExec(s.g.Blocks[r.head].Start))
	if headExec == 0 {
		return false // never-executed region: conversion is pure size cost
	}
	pos := layoutPositions(r)

	benefit := 0.0
	origSlots := 0.0
	convSlots := 0.0
	for b := range r.blocks {
		blk := s.g.Blocks[b]
		origSlots += float64(prof.BlockExec(blk.Start)) * float64(blk.Len())
		emitted := blk.Len()
		t := blk.Terminator()
		if t >= 0 {
			in := &p.Insts[t]
			switch {
			case in.Op == isa.OpBr && in.Target < len(p.Insts):
				tb := s.g.BlockOf(in.Target).Index
				if tb != r.head && r.blocks[tb] {
					// Eliminated outright: the branch slot disappears and,
					// for conditional branches, so do its mispredictions.
					emitted--
					if in.QP != isa.P0 && t < len(prof.Mispredict) {
						benefit += float64(prof.Mispredict[t]) * s.cfg.MispredictPenalty
					}
				}
			case in.Op == isa.OpCloop:
				emitted++ // synthesised guard compare
			}
		}
		convSlots += headExec * float64(emitted)
		// Predicate bookkeeping: multi-predecessor blocks add a pinit plus
		// one por per incoming edge, all fetched every region execution —
		// except full-coverage joins, which the emitter runs unguarded at
		// no bookkeeping cost.
		if b != r.head && len(blk.Preds) >= 2 && !coversLayout(s.g, r, pos, b) {
			convSlots += headExec * float64(1+len(blk.Preds))
		}
	}
	return benefit >= convSlots-origSlots
}

// check validates a grown region and returns a rejection reason or "".
func (s *selector) check(r *region) string {
	p := s.g.Prog
	// Profitability: at least one direct branch with an in-region non-head
	// target (that branch is eliminated outright).
	elim := 0
	for b := range r.blocks {
		blk := s.g.Blocks[b]
		t := blk.Terminator()
		if t < 0 {
			continue
		}
		in := &p.Insts[t]
		if in.Op == isa.OpBr && in.Target < len(p.Insts) {
			tb := s.g.BlockOf(in.Target).Index
			if tb != r.head && r.blocks[tb] {
				elim++
			}
		}
	}
	if elim == 0 {
		return "no-eliminable-branch"
	}

	// The emitter derives fallthrough edges from the instruction after a
	// block; a region block that can fall off the end of the program has no
	// such instruction.
	for b := range r.blocks {
		blk := s.g.Blocks[b]
		if blk.End < len(p.Insts) {
			continue
		}
		last := &p.Insts[blk.End-1]
		switch {
		case last.Op == isa.OpBr && last.QP == isa.P0:
		case last.Op == isa.OpHalt && last.QP == isa.P0:
		case last.Op == isa.OpTrap && last.QP == isa.P0:
		default:
			return "fall-off-end"
		}
	}

	if s.cfg.Profile != nil {
		if !s.profitable(r) {
			return "unprofitable"
		}
	}

	// Predicate-safety: every predicate the original region code writes
	// becomes conditionally written (or never written) after conversion, so
	// none of them may be live into any exit target outside the region.
	var clobber uint64
	for b := range r.blocks {
		blk := s.g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			dsts, n := p.Insts[i].PredDests()
			for _, d := range dsts[:n] {
				clobber |= 1 << d
			}
		}
	}
	clobber &^= 1 // p0 is hard-wired
	for b := range r.blocks {
		for _, sc := range s.g.Blocks[b].Succs {
			if r.blocks[sc] {
				continue
			}
			if s.pl.LiveIn[sc]&clobber != 0 {
				return "predicate-live-out"
			}
		}
	}

	// Predicate budget: one per multi-predecessor block, two per
	// conditional branch or cloop terminator, plus one shared scratch for
	// re-guarding already-guarded interior instructions.
	need := 0
	if regionHasGuardedInterior(s.g, r) {
		need++
	}
	for b := range r.blocks {
		if b != r.head && len(s.g.Blocks[b].Preds) >= 2 {
			need++
		}
		blk := s.g.Blocks[b]
		t := blk.Terminator()
		if t < 0 {
			continue
		}
		in := &p.Insts[t]
		if (in.Op == isa.OpBr && in.QP != isa.P0) || in.Op == isa.OpCloop {
			need += 2
		}
	}
	if int(s.maxPred)+need >= isa.NumPRegs {
		return "predicate-budget"
	}
	return ""
}
