package ifconv

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/prog"
)

type emitter struct {
	g        *prog.CFG
	regions  []*region
	regionOf []int // block index -> index into regions, or -1
	cfg      Config

	out      []isa.Inst
	startMap map[int]int // old instruction index (block starts) -> new index
	infos    []RegionInfo
	basePred isa.PReg
}

func newEmitter(g *prog.CFG, regions []*region, cfg Config) *emitter {
	e := &emitter{
		g:        g,
		regions:  regions,
		regionOf: make([]int, len(g.Blocks)),
		startMap: make(map[int]int),
		basePred: g.Prog.MaxPredUsed() + 1,
		cfg:      cfg,
	}
	for i := range e.regionOf {
		e.regionOf[i] = -1
	}
	for ri, r := range regions {
		for b := range r.blocks {
			e.regionOf[b] = ri
		}
	}
	return e
}

func (e *emitter) emit() (*prog.Program, []RegionInfo, error) {
	old := e.g.Prog
	for _, blk := range e.g.Blocks {
		ri := e.regionOf[blk.Index]
		if ri >= 0 {
			r := e.regions[ri]
			if blk.Index != r.head {
				continue // interior blocks are emitted as part of the head
			}
			e.startMap[blk.Start] = len(e.out)
			if err := e.emitRegion(r); err != nil {
				return nil, nil, err
			}
			continue
		}
		e.startMap[blk.Start] = len(e.out)
		e.out = append(e.out, old.Insts[blk.Start:blk.End]...)
	}
	e.startMap[len(old.Insts)] = len(e.out)

	// Retarget all direct branches through the start map.
	for i := range e.out {
		in := &e.out[i]
		if !in.IsDirectBranch() || in.Target < 0 {
			continue
		}
		nt, ok := e.startMap[in.Target]
		if !ok {
			return nil, nil, fmt.Errorf("branch at new index %d targets dropped instruction %d", i, in.Target)
		}
		in.Target = nt
		in.Label = "" // labels are remapped separately; avoid stale re-resolution
	}

	np := prog.New(old.Name + ".ifc")
	np.Insts = e.out
	for name, idx := range old.Labels {
		if nidx, ok := e.startMap[idx]; ok {
			np.Labels[name] = nidx
		}
		// Labels into dropped region interiors are unreferenced by
		// construction (single-entry regions) and are discarded.
	}
	for base, words := range old.Data {
		np.SetData(base, words)
	}
	if err := np.Validate(); err != nil {
		return nil, nil, fmt.Errorf("emitted program invalid: %w", err)
	}
	return np, e.infos, nil
}

// hoistCompares bubbles every compare in out[start:] upward as far as its
// dependences allow, never crossing a branch, halt, or trap (control
// boundaries keep the reasoning local to one straight-line stretch of the
// hyperblock). A compare stops below any instruction that writes one of
// its register sources, writes its qualifying predicate, or reads or
// writes its destination predicates.
func hoistCompares(out []isa.Inst, start int) {
	for i := start + 1; i < len(out); i++ {
		if out[i].Op != isa.OpCmp {
			continue
		}
		j := i
		for j > start && canHoistPast(&out[j-1], &out[j]) {
			out[j-1], out[j] = out[j], out[j-1]
			j--
		}
	}
}

// canHoistPast reports whether compare c may move above instruction i.
func canHoistPast(i, c *isa.Inst) bool {
	if i.IsBranch() || i.Op == isa.OpHalt || i.Op == isa.OpTrap {
		return false
	}
	// RAW on register sources.
	if d, ok := i.RegDest(); ok {
		srcs, n := c.RegSources()
		for _, s := range srcs[:n] {
			if s == d {
				return false
			}
		}
	}
	dsts, n := i.PredDests()
	for _, pd := range dsts[:n] {
		// Write to the compare's guard.
		if pd == c.QP {
			return false
		}
		// WAW on the compare's destinations.
		if pd == c.PD1 || pd == c.PD2 {
			return false
		}
	}
	// WAR: i reads a predicate the compare writes.
	if i.QP == c.PD1 || i.QP == c.PD2 {
		return false
	}
	srcs, n := i.PredSources()
	for _, pr := range srcs[:n] {
		if pr == c.PD1 || pr == c.PD2 {
			return false
		}
	}
	return true
}

// coversLayout reports whether block j can run under p0 inside the region:
// true when every execution that fetches j's layout position has logically
// passed through j. Execution proceeds linearly through the hyperblock, so
// the only way to reach j's position without passing through j is to be on
// a path that continues inside the region into a block laid out after j.
// We therefore search from the head along in-region edges, refusing to
// enter j; if any reachable block sits after j in the layout (reverse
// postorder), some path bypasses j while still fetching it. Escapes before
// j — exit branches, back edges to the head, halts — are fine: control has
// left the hyperblock before reaching j's position.
func coversLayout(g *prog.CFG, r *region, pos map[int]int, j int) bool {
	jpos := pos[j]
	seen := map[int]bool{r.head: true}
	stack := []int{r.head}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pos[b] > jpos {
			return false
		}
		for _, s := range g.Blocks[b].Succs {
			if s == j || s == r.head || !r.blocks[s] || seen[s] {
				continue
			}
			seen[s] = true
			stack = append(stack, s)
		}
	}
	return true
}

// layoutPositions maps each region block to its layout position.
func layoutPositions(r *region) map[int]int {
	pos := make(map[int]int, len(r.layout))
	for i, b := range r.layout {
		pos[b] = i
	}
	return pos
}

// regionHasGuardedInterior reports whether any non-terminator region
// instruction (or a halt/trap terminator) already carries a non-p0 guard;
// such instructions need the region's shared scratch predicate.
func regionHasGuardedInterior(g *prog.CFG, r *region) bool {
	p := g.Prog
	for b := range r.blocks {
		blk := g.Blocks[b]
		t := blk.Terminator()
		for i := blk.Start; i < blk.End; i++ {
			in := &p.Insts[i]
			if in.QP == isa.P0 {
				continue
			}
			if i == t && in.IsBranch() {
				continue // branch guards are rewritten, not re-guarded
			}
			return true
		}
	}
	return false
}

// regionReadsPred reports whether any region instruction other than the
// branch at branchIdx reads predicate pr (as a guard or predicate source).
func regionReadsPred(g *prog.CFG, r *region, pr isa.PReg, branchIdx int) bool {
	p := g.Prog
	for b := range r.blocks {
		blk := g.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			if i == branchIdx {
				continue
			}
			in := &p.Insts[i]
			if in.QP == pr {
				return true
			}
			srcs, n := in.PredSources()
			for _, ps := range srcs[:n] {
				if ps == pr {
					return true
				}
			}
		}
	}
	return false
}

// emitRegion lays the region's blocks out as one predicated hyperblock.
func (e *emitter) emitRegion(r *region) error {
	p := e.g.Prog
	next := e.basePred
	alloc := func() (isa.PReg, error) {
		if next >= isa.NumPRegs {
			return 0, fmt.Errorf("region at block %d: predicate registers exhausted", r.head)
		}
		pr := next
		next++
		return pr, nil
	}

	info := RegionInfo{Head: r.head, Blocks: r.layout, NewStart: len(e.out)}
	lastExit := -1           // index in e.out of the most recently emitted exit branch
	var scratchPred isa.PReg // shared guard-AND scratch, allocated on demand

	// Block guard predicates. A block that every in-region execution
	// reaching its layout position must have logically passed through (a
	// full-coverage join) runs under p0, as a hyperblock compiler would
	// emit it. Other multi-predecessor blocks get an accumulator predicate
	// initialised to false in a region preamble and OR-ed as each incoming
	// edge's predicate becomes available; single-predecessor blocks reuse
	// the edge predicate directly.
	bp := map[int]isa.PReg{r.head: isa.P0}
	multi := map[int]bool{}
	covered := map[int]bool{}
	pos := layoutPositions(r)
	for _, b := range r.layout {
		if b == r.head {
			continue
		}
		if coversLayout(e.g, r, pos, b) {
			covered[b] = true
			bp[b] = isa.P0
			continue
		}
		if len(e.g.Blocks[b].Preds) >= 2 {
			pr, err := alloc()
			if err != nil {
				return err
			}
			multi[b] = true
			bp[b] = pr
			e.out = append(e.out, isa.Inst{Op: isa.OpPinit, PD1: pr})
		}
	}

	for _, b := range r.layout {
		blk := e.g.Blocks[b]
		guard, ok := bp[b]
		if !ok {
			return fmt.Errorf("region at block %d: block %d emitted before its guard was defined", r.head, b)
		}

		lastIdx := blk.End - 1
		last := &p.Insts[lastIdx]
		isCondBr := last.Op == isa.OpBr && last.QP != isa.P0
		isUncondBr := last.Op == isa.OpBr && last.QP == isa.P0
		isCloop := last.Op == isa.OpCloop

		bodyEnd := blk.End
		if isCondBr || isUncondBr || isCloop {
			bodyEnd = lastIdx
		}

		// For a conditional branch, rewrite its defining compare in place:
		// guard it with the block predicate and make it unconditional-type,
		// so the new destinations become full path predicates
		// (guard && cond, guard && !cond).
		defIdx := -1
		var np1, np2, tp, fp isa.PReg
		if isCondBr {
			defIdx = findDefCmp(p, blk, last.QP)
			if defIdx < 0 {
				return fmt.Errorf("region at block %d: no defining compare for branch guard %s", r.head, last.QP)
			}
			var err error
			if np1, err = alloc(); err != nil {
				return err
			}
			if np2, err = alloc(); err != nil {
				return err
			}
			if p.Insts[defIdx].PD1 == last.QP {
				tp, fp = np1, np2
			} else {
				tp, fp = np2, np1
			}
		}

		for i := blk.Start; i < bodyEnd; i++ {
			in := p.Insts[i]
			switch {
			case i == defIdx:
				// If the compare's original destinations are still read
				// inside the region (e.g. as guards of predicated source
				// code), keep the original compare alongside the rewritten
				// one so their values stay maintained.
				orig := p.Insts[i]
				if regionReadsPred(e.g, r, orig.PD1, lastIdx) ||
					regionReadsPred(e.g, r, orig.PD2, lastIdx) {
					kept := orig
					kept.QP = guard
					e.out = append(e.out, kept)
				}
				in.QP = guard
				in.CT = isa.CmpUnc
				in.PD1, in.PD2 = np1, np2
			case in.QP == isa.P0:
				in.QP = guard
			case guard == isa.P0:
				// Already-guarded instruction in an unconditional block:
				// its own guard suffices.
			default:
				// Already-guarded instruction under a path predicate: it
				// must execute only when both hold. The shared scratch
				// predicate is recomputed immediately before each use.
				if scratchPred == 0 {
					var err error
					if scratchPred, err = alloc(); err != nil {
						return err
					}
				}
				e.out = append(e.out, isa.Inst{
					Op: isa.OpPand, PD1: scratchPred, PS1: guard, PS2: in.QP,
				})
				in.QP = scratchPred
			}
			e.out = append(e.out, in)
		}

		// Derive the block's outgoing edges with their path predicates.
		type edge struct {
			pred isa.PReg
			succ int
		}
		var edges []edge
		switch {
		case isUncondBr:
			edges = append(edges, edge{guard, e.g.BlockOf(last.Target).Index})
		case isCondBr:
			taken := e.g.BlockOf(last.Target).Index
			fall := e.g.BlockOf(lastIdx + 1).Index
			if taken == fall {
				// Degenerate branch to its own fallthrough: one edge under
				// the block guard.
				edges = append(edges, edge{guard, taken})
			} else {
				edges = append(edges, edge{tp, taken}, edge{fp, fall})
			}
		case isCloop:
			// The loop branch cannot be eliminated (it decrements its
			// counter), so synthesise its path predicates and keep it,
			// guarded, as a region-based branch.
			ctp, err := alloc()
			if err != nil {
				return err
			}
			cfp, err := alloc()
			if err != nil {
				return err
			}
			e.out = append(e.out, isa.Inst{
				Op: isa.OpCmp, QP: guard, CC: isa.CmpNE, CT: isa.CmpUnc,
				PD1: ctp, PD2: cfp, Src1: last.Dst, Imm: 0, HasImm: true,
			})
			e.out = append(e.out, isa.Inst{
				Op: isa.OpCloop, QP: ctp, Dst: last.Dst,
				Target: last.Target, Region: true,
			})
			info.RegionBranches++
			edges = append(edges, edge{cfp, e.g.BlockOf(lastIdx + 1).Index})
		default:
			// halt/trap terminators were emitted guarded in the body and
			// have no successors; anything else falls through.
			if last.Op != isa.OpHalt && last.Op != isa.OpTrap {
				edges = append(edges, edge{guard, e.g.BlockOf(blk.End).Index})
			}
		}

		// Contributions to in-region successors first, then exits, so a
		// taken exit cannot skip a predicate accumulation that a later
		// block in this execution would need (it cannot need one — control
		// leaves — but the fixed order keeps the code deterministic).
		var exits []edge
		for _, ed := range edges {
			if ed.succ != r.head && r.blocks[ed.succ] {
				if covered[ed.succ] {
					// Full-coverage join: runs under p0, no accumulation.
				} else if multi[ed.succ] {
					acc := bp[ed.succ]
					e.out = append(e.out, isa.Inst{Op: isa.OpPor, PD1: acc, PS1: acc, PS2: ed.pred})
				} else {
					bp[ed.succ] = ed.pred
				}
				continue
			}
			exits = append(exits, ed)
		}
		for _, ed := range exits {
			br := isa.Inst{
				Op: isa.OpBr, QP: ed.pred,
				Target: e.g.Blocks[ed.succ].Start,
				Region: ed.pred != isa.P0,
			}
			lastExit = len(e.out)
			e.out = append(e.out, br)
			if br.Region {
				info.RegionBranches++
			}
		}

		if isCondBr {
			taken := e.g.BlockOf(last.Target).Index
			if taken != r.head && r.blocks[taken] {
				info.EliminatedBranches++
			}
		}
		if isUncondBr {
			t := e.g.BlockOf(last.Target).Index
			if t != r.head && r.blocks[t] {
				info.EliminatedBranches++
			}
		}
	}

	// Compare scheduling: hoist each compare in the hyperblock as early as
	// its dependences allow. Predicated-code compilers schedule compares
	// early so that guard predicates resolve before the branches (and
	// false-path code) that consume them reach fetch — this is what gives
	// the squash false path filter its window.
	if !e.cfg.NoCompareScheduling {
		hoistCompares(e.out, info.NewStart)
	}

	// Every path through the hyperblock exits exactly once, so execution
	// that reaches the final exit branch without having taken an earlier
	// one must take it: its guard is necessarily true and the branch can
	// be emitted unconditionally, as a real hyperblock compiler would.
	// (This only holds when that branch is the last instruction of the
	// hyperblock — nothing can be fetched between it and the region end.)
	if lastExit == len(e.out)-1 && e.out[lastExit].QP != isa.P0 {
		e.out[lastExit].QP = isa.P0
		if e.out[lastExit].Region {
			e.out[lastExit].Region = false
			info.RegionBranches--
		}
	}

	// Every path through the hyperblock must leave through an exit branch
	// or a guarded halt; reaching this trap means the predication is wrong.
	e.out = append(e.out, isa.Inst{Op: isa.OpTrap})
	info.NewEnd = len(e.out)
	e.infos = append(e.infos, info)
	return nil
}
